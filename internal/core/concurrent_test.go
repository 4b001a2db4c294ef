package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dex/internal/exec"
	"dex/internal/sqlparse"
	"dex/internal/workload"
)

// TestConcurrentSessions drives many sessions through the parallel engine
// at once, mixing every execution mode with profile reads, crack-stat
// polls and session archiving. Its job is to give `go test -race ./...`
// something to bite on: all of the engine's shared state — the table map,
// cracker indexes, sample catalogs, the engine rand.Rand, the past-session
// archive — is exercised from multiple goroutines.
func TestConcurrentSessions(t *testing.T) {
	e := New(Options{Seed: 5, Exec: exec.ExecOptions{Parallelism: 4, MorselSize: 512}})
	rng := rand.New(rand.NewSource(5))
	sales, err := workload.Sales(rng, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(sales); err != nil {
		t.Fatal(err)
	}

	stmts := []struct {
		sql  string
		mode Mode
	}{
		{"SELECT region, sum(amount) FROM sales GROUP BY region", Exact},
		{"SELECT product, count(*) FROM sales WHERE amount > 120 GROUP BY product ORDER BY product LIMIT 5", Exact},
		{"SELECT sum(amount) FROM sales WHERE qty >= 40", Cracked},
		{"SELECT count(*) FROM sales WHERE qty > 2 AND qty < 7", Cracked},
		{"SELECT avg(amount) FROM sales", Approx},
		{"SELECT sum(qty) FROM sales", Online},
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; i < 12; i++ {
				st := stmts[(g+i)%len(stmts)]
				if _, err := s.Query(st.sql, st.mode); err != nil {
					errs <- fmt.Errorf("goroutine %d %q (%v): %w", g, st.sql, st.mode, err)
					return
				}
				if i%4 == 0 {
					if _, err := e.Profile("sales"); err != nil {
						errs <- fmt.Errorf("goroutine %d profile: %w", g, err)
						return
					}
				}
				e.CrackStats("sales", "qty")
				e.Tables()
			}
			if _, err := s.SuggestNext(2); err != nil {
				errs <- fmt.Errorf("goroutine %d suggest: %w", g, err)
				return
			}
			s.End()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Focused phase: hammer each non-exact mode on its own, with no other
	// engine calls in between. Interleaved Lock/Unlock pairs from unrelated
	// methods (Tables, CrackStats) create happens-before edges that can
	// mask a race on state touched outside the engine lock — e.g. the
	// shared rand.Rand the Online mode seeds from — so the mixed loop
	// above is not enough for the race detector to see it.
	for _, tc := range []struct {
		mode Mode
		sql  string
	}{
		{Online, "SELECT sum(qty) FROM sales"},
		{Approx, "SELECT avg(amount) FROM sales"},
		{Cracked, "SELECT count(*) FROM sales WHERE qty >= 3 AND qty < 8"},
	} {
		var pwg sync.WaitGroup
		perr := make(chan error, 4)
		for g := 0; g < 4; g++ {
			pwg.Add(1)
			go func() {
				defer pwg.Done()
				for i := 0; i < 5; i++ {
					if _, err := e.Execute("sales", mustParse(t, tc.sql), tc.mode); err != nil {
						perr <- fmt.Errorf("%v: %w", tc.mode, err)
						return
					}
				}
			}()
		}
		pwg.Wait()
		close(perr)
		for err := range perr {
			t.Error(err)
		}
	}
}

func mustParse(t *testing.T, sql string) exec.Query {
	t.Helper()
	st, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return st.Query
}
