package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dex/internal/exec"
	"dex/internal/workload"
)

// TestSharedSessionConcurrency pins the Session concurrency contract the
// service layer depends on: one session shared across goroutines must
// record every successful query exactly once, tolerate concurrent
// History/Len/SuggestNext reads, and archive once no matter how many
// goroutines race End. Run under -race this is the test that used to
// expose the unsynchronized s.history mutation.
func TestSharedSessionConcurrency(t *testing.T) {
	e := New(Options{Seed: 3, Exec: exec.ExecOptions{Parallelism: 2, MorselSize: 512}})
	rng := rand.New(rand.NewSource(3))
	sales, err := workload.Sales(rng, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(sales); err != nil {
		t.Fatal(err)
	}

	s := e.NewSession()
	const goroutines = 8
	const perG = 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := s.Query("SELECT region, sum(amount) FROM sales GROUP BY region", Exact); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				_ = s.Len()
				_ = s.History()
				if _, err := s.SuggestNext(2); err != nil {
					t.Errorf("goroutine %d suggest: %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.Len(); got != goroutines*perG {
		t.Fatalf("history length = %d, want %d (lost or duplicated appends)", got, goroutines*perG)
	}

	// Racing End calls archive the history exactly once.
	var endWg sync.WaitGroup
	for g := 0; g < 4; g++ {
		endWg.Add(1)
		go func() { defer endWg.Done(); s.End() }()
	}
	endWg.Wait()
	e.mu.Lock()
	archived := len(e.pastSessions)
	e.mu.Unlock()
	if archived != 1 {
		t.Fatalf("archived %d sessions, want exactly 1", archived)
	}
}

// TestSessionQueryContextCancel checks a cancelled request neither returns
// a result nor pollutes the session history, and that the engine-level scan
// counter stops advancing once the query aborts. Both queries read two
// numeric inputs, which no bucket-cell set aggregates, so they scan.
func TestSessionQueryContextCancel(t *testing.T) {
	var scanned atomic.Int64
	e := New(Options{Seed: 4, Exec: exec.ExecOptions{Parallelism: 1, MorselSize: 1024, Scanned: &scanned}})
	rng := rand.New(rand.NewSource(4))
	sales, err := workload.Sales(rng, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(sales); err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryContext(ctx, "SELECT product, sum(amount), sum(qty) FROM sales GROUP BY product", Exact); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Len() != 0 {
		t.Fatalf("cancelled query was recorded in history (len=%d)", s.Len())
	}
	if scanned.Load() != 0 {
		t.Fatalf("scanned %d rows under a pre-cancelled context", scanned.Load())
	}

	// A live context completes and records.
	if _, err := s.QueryContext(context.Background(), "SELECT count(*), sum(amount), sum(qty) FROM sales", Exact); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("history length = %d, want 1", s.Len())
	}
	if scanned.Load() == 0 {
		t.Fatal("scan counter never advanced for a completed query")
	}
}
