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
// value) and falls back to inline serial execution for small inputs, where
// goroutine startup would cost more than the scan itself. Operators that
// need per-worker state (partial aggregates, thread-local hash tables) size
// it with WorkersFor and receive the worker id in the callback.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"dex/internal/fault"
)

// fpClaim injects scheduler-level faults: it is hit before every morsel
// claim (parallel and serial paths alike), so an error policy kills an
// operation partway through its morsels and a latency policy stalls
// workers — the "slow worker" case morsel stealing is supposed to absorb.
var fpClaim = fault.Register("par/claim")

// Tuning defaults.
const (
	// DefaultMorselSize is the rows-per-morsel default: large enough to
	// amortize scheduling, small enough to load-balance skewed work.
	DefaultMorselSize = 16 * 1024
	// DefaultSerialCutoff is the input size below which work runs inline on
	// the calling goroutine regardless of the requested parallelism.
	DefaultSerialCutoff = 4 * 1024
)

// Options tunes a Pool.
type Options struct {
	// Parallelism is the number of workers: 0 means GOMAXPROCS, 1 forces
	// serial execution.
	Parallelism int
	// MorselSize is the rows per morsel (default DefaultMorselSize).
	MorselSize int
	// SerialCutoff is the input size below which execution is inline.
	// 0 means min(MorselSize, DefaultSerialCutoff); negative disables the
	// cutoff entirely (useful in tests that force tiny parallel runs).
	SerialCutoff int
}

// Pool schedules morsels over a bounded set of worker goroutines. Workers
// are spawned per operation (goroutines are cheap; the pool bounds how many
// run at once, it does not keep them alive between calls). The zero value
// is not useful; call NewPool.
type Pool struct {
	workers int
	morsel  int
	cutoff  int
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
	c := opt.SerialCutoff
	if c == 0 {
		c = m
		if c > DefaultSerialCutoff {
			c = DefaultSerialCutoff
		}
	} else if c < 0 {
		c = 0
	}
	return &Pool{workers: w, morsel: m, cutoff: c}
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
// 1 when n is under the serial cutoff or fits in a single morsel, otherwise
// the pool parallelism capped at the morsel count. Operators allocate
// per-worker state with this and may take a pure sequential path when it
// returns 1.
func (p *Pool) WorkersFor(n int) int {
	if p.workers <= 1 || n <= p.cutoff {
		return 1
	}
	morsels := (n + p.morsel - 1) / p.morsel
	if morsels <= 1 {
		return 1
	}
	if p.workers < morsels {
		return p.workers
	}
	return morsels
}

// ForEach partitions [0, n) into morsels and processes them on the pool.
// fn receives the worker id (0..WorkersFor(n)-1) and a half-open row range
// whose lower bound is morsel-aligned. When WorkersFor(n) is 1, fn runs
// inline once with the full range. A panic in any worker is re-raised on
// the calling goroutine after all workers stop.
func (p *Pool) ForEach(n int, fn func(worker, lo, hi int)) {
	err := p.run(n, func(worker, lo, hi int) error {
		fn(worker, lo, hi)
		return nil
	})
	if err != nil {
		// fn cannot fail here, so the only error source is an injected
		// par/claim fault. Swallowing it would silently return a partial
		// result; re-raise it instead so callers without an error path
		// still observe the fault.
		panic(err)
	}
}

// ForEachErr is ForEach for fallible work: the first error stops the
// scheduler (workers finish their current morsel, no new morsels start) and
// is returned.
func (p *Pool) ForEachErr(n int, fn func(worker, lo, hi int) error) error {
	return p.run(n, fn)
}

// ForEachCtx is ForEach under a context: the scheduler checks ctx between
// morsel claims, so a cancelled context stops execution within one morsel's
// worth of work per worker and the context error is returned. Unlike
// ForEach, the serial fallback also proceeds morsel by morsel — bounded
// cancellation latency (and per-morsel accounting in fn) holds at every
// parallelism, at the cost of one loop iteration per morsel.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(worker, lo, hi int)) error {
	return p.runCtx(ctx, n, func(worker, lo, hi int) error {
		fn(worker, lo, hi)
		return nil
	})
}

// ForEachErrCtx is ForEachCtx for fallible work; the first error (a worker's
// or the context's) wins.
func (p *Pool) ForEachErrCtx(ctx context.Context, n int, fn func(worker, lo, hi int) error) error {
	return p.runCtx(ctx, n, fn)
}

func (p *Pool) runCtx(ctx context.Context, n int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
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
			hi := lo + m
			if hi > n {
				hi = n
			}
			if err := fn(0, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	return p.fanOut(ctx, n, w, fn)
}

func (p *Pool) run(n int, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.WorkersFor(n)
	if w <= 1 {
		if err := fpClaim.Hit(); err != nil {
			return err
		}
		return fn(0, 0, n)
	}
	return p.fanOut(context.Background(), n, w, fn)
}

// fanOut is the shared worker loop: w goroutines pull morsel-aligned ranges
// from an atomic cursor until none remain, an error occurs, or ctx is
// cancelled. The ctx check sits between morsel claims so cancellation never
// interrupts a morsel mid-flight.
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
				hi := lo + m
				if hi > n {
					hi = n
				}
				if err := fn(worker, lo, hi); err != nil {
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
// view's full scan in SeeDB). Tasks are pulled from a shared cursor, so
// long tasks do not strand idle workers. Serial fallback, error and panic
// semantics match ForEachErr.
func (p *Pool) Do(tasks int, fn func(task int) error) error {
	if tasks <= 0 {
		return nil
	}
	w := p.workers
	if w > tasks {
		w = tasks
	}
	if w <= 1 {
		for i := 0; i < tasks; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	one := &Pool{workers: w, morsel: 1, cutoff: 0}
	return one.run(tasks, func(_, lo, _ int) error { return fn(lo) })
}
