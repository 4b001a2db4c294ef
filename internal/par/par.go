// Package par is the engine's morsel-driven parallel execution layer, after
// the scheduling design of HyPer (Leis et al., "Morsel-Driven Parallelism",
// SIGMOD 2014): work over [0, n) is cut into fixed-size chunks of rows
// ("morsels") and a pool of worker goroutines pulls morsels from a shared
// atomic cursor until none remain. Dynamic self-scheduling keeps every core
// busy even when per-morsel cost is skewed (selective predicates, cracked
// partitions), while contiguous morsels preserve the sequential memory
// access pattern column scans depend on.
//
// The pool is GOMAXPROCS-aware (Parallelism 0 resolves to the runtime's
// value) and runs an input that fits one morsel on the calling goroutine,
// where goroutine startup would cost more than the scan itself. Operators that need per-worker state (partial aggregates,
// thread-local hash tables) size it with WorkersFor and receive the worker
// id in the callback. Work stops only when it is done, when its caller's
// context ends, or at its first error.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"dex/internal/fault"
)

// fpClaim injects scheduler-level faults: it is hit before every morsel
// claim (parallel and serial paths alike), so an error policy fails an
// operation partway through its morsels, returned as ForEach's error, and
// a latency policy stalls workers — the "slow worker" case morsel stealing
// is supposed to absorb.
var fpClaim = fault.Register("par/claim")

// DefaultMorselSize is the rows-per-morsel default: large enough to
// amortize scheduling, small enough to load-balance skewed work.
const DefaultMorselSize = 16 * 1024

// Options tunes a Pool.
type Options struct {
	// Parallelism is the number of workers: 0 means GOMAXPROCS, 1 forces
	// serial execution.
	Parallelism int
	// MorselSize is the rows per morsel (default DefaultMorselSize).
	MorselSize int
}

// Pool schedules morsels over a bounded set of worker goroutines. Workers
// are spawned per operation (goroutines are cheap; the pool bounds how many
// run at once, it does not keep them alive between calls). The zero value
// is not useful; call NewPool.
type Pool struct {
	workers int
	morsel  int
}

// NewPool resolves the options into a ready pool.
func NewPool(opt Options) *Pool {
	w := opt.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	m := opt.MorselSize
	if m <= 0 {
		m = DefaultMorselSize
	}
	return &Pool{workers: w, morsel: m}
}

// Workers returns the pool's parallelism: how many workers it runs at
// most.
func (p *Pool) Workers() int { return p.workers }

// MorselSize returns the rows-per-morsel the pool schedules with. ForEach
// hands out ranges aligned to this size, so lo/MorselSize() is a stable
// morsel index callers may use to write per-morsel results without locks.
func (p *Pool) MorselSize() int { return p.morsel }

// Morsels returns how many scheduling units an input of n rows is cut
// into — the count trace spans record so a profile shows scheduling
// granularity next to worker count.
func (p *Pool) Morsels(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.morsel - 1) / p.morsel
}

// WorkersFor returns how many workers an input of n rows will actually use:
// the pool parallelism capped at the morsel count, and at least 1 — so 1
// when n fits in a single morsel. Operators allocate per-worker state with
// this.
func (p *Pool) WorkersFor(n int) int {
	return max(1, min(p.workers, p.Morsels(n)))
}

// ForEach partitions [0, n) into morsels and processes them on the pool.
// fn receives the worker id (0..WorkersFor(n)-1) and a half-open row range
// whose lower bound is morsel-aligned; with one worker it runs on the
// calling goroutine, morsel by morsel, so per-morsel accounting in fn holds
// at every parallelism. The scheduler checks ctx and the par/claim
// failpoint before every morsel claim: a cancelled context stops execution
// within one morsel's worth of work per worker. The first error — fn's, an
// injected fault or the context's — stops the scheduler (workers finish
// their current morsel, no new morsels start) and is returned. A panic in
// any worker is re-raised on the calling goroutine after all workers stop.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.WorkersFor(n)
	if w <= 1 {
		m := p.morsel
		for lo := 0; lo < n; lo += m {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fpClaim.Hit(); err != nil {
				return err
			}
			if err := fn(0, lo, min(lo+m, n)); err != nil {
				return err
			}
		}
		return nil
	}
	return p.fanOut(ctx, n, w, fn)
}

// fanOut is the parallel worker loop: w goroutines pull morsel-aligned
// ranges from an atomic cursor until none remain, an error occurs, or ctx
// is cancelled. The ctx check sits between morsel claims so cancellation
// never interrupts a morsel mid-flight.
func (p *Pool) fanOut(ctx context.Context, n, w int, fn func(worker, lo, hi int) error) error {
	var (
		cursor atomic.Int64
		failed atomic.Bool
		errMu  sync.Mutex
		first  error
		panicV atomic.Value
		wg     sync.WaitGroup
	)
	setErr := func(err error) {
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	done := ctx.Done()
	m := p.morsel
	for id := 0; id < w; id++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicV.CompareAndSwap(nil, r) // keep the first panic only
					failed.Store(true)
				}
			}()
			for !failed.Load() {
				if done != nil {
					select {
					case <-done:
						setErr(ctx.Err())
						return
					default:
					}
				}
				if err := fpClaim.Hit(); err != nil {
					setErr(err)
					return
				}
				lo := int(cursor.Add(int64(m))) - m
				if lo >= n {
					return
				}
				if err := fn(worker, lo, min(lo+m, n)); err != nil {
					setErr(err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if r := panicV.Load(); r != nil {
		panic(r)
	}
	return first
}

// Do fans tasks [0, tasks) out across the pool, one task per callback —
// task-level parallelism for coarse independent units (e.g. one candidate
// view's full scan in SeeDB). It is ForEach over one-task morsels: tasks
// are pulled from a shared cursor, so long tasks do not strand idle
// workers, one worker runs them in order, and context, fault, error and
// panic semantics are ForEach's.
func (p *Pool) Do(ctx context.Context, tasks int, fn func(task int) error) error {
	one := &Pool{workers: min(p.workers, tasks), morsel: 1}
	return one.ForEach(ctx, tasks, func(_, lo, _ int) error { return fn(lo) })
}
