package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEachCtxCompletes checks ForEach covers every row exactly once
// when a cancellable context never fires, at both serial and parallel
// widths.
func TestForEachCtxCompletes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1, 63, 64, 1000} {
			visits := make([]int32, n)
			err := NewPool(Options{Parallelism: workers, MorselSize: 64}).ForEach(ctx, n, func(_, lo, hi int) error {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: unexpected error %v", workers, n, err)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: row %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestForEachCtxCancelStops checks that a context cancelled mid-run stops
// the scheduler early and surfaces ctx.Err(), both when the serial morsel
// loop runs and when workers pull from the shared cursor.
func TestForEachCtxCancelStops(t *testing.T) {
	const n = 1 << 20
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		err := NewPool(Options{Parallelism: workers, MorselSize: 256}).ForEach(ctx, n, func(_, lo, hi int) error {
			if seen.Add(int64(hi-lo)) > 10*256 {
				cancel() // fire mid-run, from inside a morsel callback
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Cancellation latency is bounded: each of the workers may finish
		// at most the morsel it already claimed.
		limit := int64((10 + 2*workers + 2) * 256)
		if got := seen.Load(); got > limit {
			t.Fatalf("workers=%d: scanned %d rows after cancel, want <= %d", workers, got, limit)
		}
	}
}

// TestForEachCtxPreCancelled checks an already-dead context does no work,
// serial or parallel, in ForEach or Do.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		pool := NewPool(Options{Parallelism: workers, MorselSize: 64})
		called := false
		err := pool.ForEach(ctx, 1000, func(_, _, _ int) error { called = true; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		err = pool.Do(ctx, 10, func(int) error { called = true; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Do err = %v, want context.Canceled", workers, err)
		}
		if called {
			t.Fatalf("workers=%d: callback ran under a pre-cancelled context", workers)
		}
	}
}

// TestForEachCtxErrorWins checks a worker error is reported even when the
// context also dies later.
func TestForEachCtxErrorWins(t *testing.T) {
	boom := errors.New("boom")
	err := NewPool(Options{Parallelism: 2, MorselSize: 8}).ForEach(context.Background(), 1000, func(_, lo, _ int) error {
		if lo >= 16 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}
