package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dex/internal/fault"
)

// each is ForEach for infallible work under a live context.
func each(t *testing.T, p *Pool, n int, fn func(worker, lo, hi int)) {
	t.Helper()
	if err := p.ForEach(context.Background(), n, func(worker, lo, hi int) error {
		fn(worker, lo, hi)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkersForResolution(t *testing.T) {
	cases := []struct {
		name string
		pool *Pool
		n    int
		want int
	}{
		{"one default-size morsel", NewPool(Options{Parallelism: 8}), 100, 1},
		{"single morsel", NewPool(Options{Parallelism: 8, MorselSize: 10}), 9, 1},
		{"two morsels", NewPool(Options{Parallelism: 8, MorselSize: 10}), 11, 2},
		{"empty input", NewPool(Options{Parallelism: 8, MorselSize: 10}), 0, 1},
		{"capped by morsels", NewPool(Options{Parallelism: 8, MorselSize: 10}), 25, 3},
		{"full parallelism", NewPool(Options{Parallelism: 4, MorselSize: 10}), 1000, 4},
		{"explicit serial", NewPool(Options{Parallelism: 1, MorselSize: 10}), 1000, 1},
	}
	for _, tc := range cases {
		if got := tc.pool.WorkersFor(tc.n); got != tc.want {
			t.Errorf("%s: WorkersFor(%d) = %d, want %d", tc.name, tc.n, got, tc.want)
		}
	}
	if w := NewPool(Options{}).WorkersFor(1 << 20); w < 1 {
		t.Errorf("GOMAXPROCS resolution gave %d workers", w)
	}
}

// TestForEachCoversExactly checks every row is visited exactly once, with
// morsel-aligned lower bounds, across ragged input sizes, at serial and
// parallel widths.
func TestForEachCoversExactly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1, 7, 63, 64, 65, 1000, 1023} {
			visits := make([]int32, n)
			each(t, NewPool(Options{Parallelism: workers, MorselSize: 64}), n, func(_, lo, hi int) {
				if lo%64 != 0 {
					t.Errorf("workers=%d n=%d: morsel lower bound %d not aligned", workers, n, lo)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: row %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestForEachSerialCallsOncePerMorsel: with one worker fn still runs once
// per morsel, in order, never once over the whole range.
func TestForEachSerialCallsOncePerMorsel(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool *Pool
		n    int
	}{
		{"one worker", NewPool(Options{Parallelism: 1, MorselSize: 64}), 1000},
		{"one worker, exact morsels", NewPool(Options{Parallelism: 1, MorselSize: 16}), 64},
		{"one morsel", NewPool(Options{Parallelism: 4, MorselSize: 1 << 20}), 5000},
	} {
		if w := tc.pool.WorkersFor(tc.n); w != 1 {
			t.Fatalf("%s: WorkersFor(%d) = %d, want 1", tc.name, tc.n, w)
		}
		var got [][2]int
		each(t, tc.pool, tc.n, func(worker, lo, hi int) {
			if worker != 0 {
				t.Errorf("%s: serial worker id %d", tc.name, worker)
			}
			got = append(got, [2]int{lo, hi})
		})
		m := tc.pool.MorselSize()
		if len(got) != tc.pool.Morsels(tc.n) {
			t.Fatalf("%s: %d calls for %d morsels", tc.name, len(got), tc.pool.Morsels(tc.n))
		}
		for i, r := range got {
			if r != [2]int{i * m, min((i+1)*m, tc.n)} {
				t.Fatalf("%s: call %d got range %v", tc.name, i, r)
			}
		}
	}
}

func TestForEachWorkerIDsDisjoint(t *testing.T) {
	pool := NewPool(Options{Parallelism: 3, MorselSize: 8})
	n := 1000
	w := pool.WorkersFor(n)
	if w != 3 {
		t.Fatalf("WorkersFor = %d, want 3", w)
	}
	// Per-worker state indexed by worker id must never race: assert no
	// concurrent entry into a slot.
	busy := make([]atomic.Bool, w)
	counts := make([]int, w)
	each(t, pool, n, func(worker, lo, hi int) {
		if worker < 0 || worker >= w {
			t.Errorf("worker id %d out of range [0,%d)", worker, w)
			return
		}
		if !busy[worker].CompareAndSwap(false, true) {
			t.Errorf("worker slot %d entered concurrently", worker)
		}
		counts[worker] += hi - lo
		busy[worker].Store(false)
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Errorf("rows processed = %d, want %d", total, n)
	}
}

func TestForEachErrStopsEarly(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2} {
		var after atomic.Int32
		err := NewPool(Options{Parallelism: workers, MorselSize: 1}).ForEach(context.Background(), 1000, func(_, lo, _ int) error {
			if lo == 3 {
				return boom
			}
			after.Add(1)
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if got := after.Load(); got >= 1000 {
			t.Errorf("workers=%d: scheduler did not stop early: %d morsels ran", workers, got)
		}
	}
}

func TestForEachPanicsPropagate(t *testing.T) {
	defer func() {
		if r := recover(); r != "worker panic" {
			t.Fatalf("recovered %v, want worker panic", r)
		}
	}()
	_ = NewPool(Options{Parallelism: 4, MorselSize: 1}).ForEach(context.Background(), 100, func(_, lo, _ int) error {
		if lo == 42 {
			panic("worker panic")
		}
		return nil
	})
	t.Fatal("no panic propagated")
}

// TestInjectedClaimFaultIsReturned: an armed par/claim failpoint comes
// back as ForEach's and Do's error, serial and parallel alike, and no
// callback runs past it.
func TestInjectedClaimFaultIsReturned(t *testing.T) {
	if err := fault.Enable("par/claim", "error"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable("par/claim")
	for _, workers := range []int{1, 4} {
		pool := NewPool(Options{Parallelism: workers, MorselSize: 8})
		called := false
		err := pool.ForEach(context.Background(), 1000, func(_, _, _ int) error { called = true; return nil })
		if !errors.Is(err, fault.ErrInjected) || called {
			t.Fatalf("workers=%d: ForEach err = %v, called = %v; want the injected fault, no callback", workers, err, called)
		}
		err = pool.Do(context.Background(), 10, func(int) error { called = true; return nil })
		if !errors.Is(err, fault.ErrInjected) || called {
			t.Fatalf("workers=%d: Do err = %v, called = %v; want the injected fault, no task", workers, err, called)
		}
	}
}

func TestDoRunsEveryTask(t *testing.T) {
	pool := NewPool(Options{Parallelism: 4})
	var mu sync.Mutex
	seen := map[int]bool{}
	if err := pool.Do(context.Background(), 37, func(task int) error {
		mu.Lock()
		defer mu.Unlock()
		if seen[task] {
			t.Errorf("task %d ran twice", task)
		}
		seen[task] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 37 {
		t.Errorf("ran %d tasks, want 37", len(seen))
	}
}

func TestDoSerialOrderAndError(t *testing.T) {
	pool := NewPool(Options{Parallelism: 1})
	var order []int
	boom := errors.New("boom")
	err := pool.Do(context.Background(), 10, func(task int) error {
		if task == 4 {
			return boom
		}
		order = append(order, task)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(order) != 4 {
		t.Errorf("serial Do ran %d tasks before error, want 4", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Errorf("serial Do out of order: %v", order)
			break
		}
	}
}

func TestZeroAndNegativeInput(t *testing.T) {
	pool := NewPool(Options{Parallelism: 4})
	ran := false
	each(t, pool, 0, func(_, _, _ int) { ran = true })
	each(t, pool, -5, func(_, _, _ int) { ran = true })
	for _, tasks := range []int{0, -3} {
		if err := pool.Do(context.Background(), tasks, func(int) error { ran = true; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if ran {
		t.Error("callback ran on empty input")
	}
}
