package crack

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// concurrentVariants is the matrix the concurrency property tests sweep:
// every cracking variant must serve concurrent probes correctly, because
// they differ in exactly the code that runs under the write lock (extra
// stochastic cracks, piece sorting).
var concurrentVariants = []Options{
	{Variant: Standard},
	{Variant: Stochastic, StochasticMin: 512},
	{Variant: HybridSort, SortMin: 512},
}

// TestConcurrentProbeParity is the race-detector property harness: N
// goroutines fire overlapping range probes at one index — half the ranges
// drawn from a small shared pool (so later probes hit existing cuts and
// take the read path), half fresh (forcing write-lock escalation) — and
// every single probe must return exactly the rows a sequential full scan
// of the original column produces, in the same ascending order. Run it with -race: the property
// catches wrong answers, the detector catches unsynchronized access.
func TestConcurrentProbeParity(t *testing.T) {
	const (
		n          = 20_000
		goroutines = 8
		perG       = 40
		poolRanges = 16
	)
	for _, opt := range concurrentVariants {
		for _, seed := range []int64{1, 7} {
			opt, seed := opt, seed
			t.Run(fmt.Sprintf("%v/seed=%d", opt.Variant, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				col := make([]int64, n)
				for i := range col {
					col[i] = rng.Int63n(1 << 20)
				}
				ix := New(col, opt)
				oracle := NewFullScan(col)

				// The shared pool: pre-computed ranges many goroutines
				// re-probe, so their bounds become cuts early on.
				type rg struct{ lo, hi int64 }
				pool := make([]rg, poolRanges)
				for i := range pool {
					lo := rng.Int63n(1 << 20)
					pool[i] = rg{lo, lo + 1 + rng.Int63n(1<<20-lo)}
				}

				var reads, writes atomic.Int64
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						grng := rand.New(rand.NewSource(seed<<8 + int64(g)))
						for q := 0; q < perG; q++ {
							var lo, hi int64
							if q%2 == 0 {
								r := pool[grng.Intn(len(pool))]
								lo, hi = r.lo, r.hi
							} else {
								lo = grng.Int63n(1 << 20)
								hi = lo + 1 + grng.Int63n(1<<20-lo)
							}
							got, st, err := ix.Probe(lo, hi)
							if err != nil {
								errs <- fmt.Errorf("probe [%d,%d): %v", lo, hi, err)
								return
							}
							if st.Lock == LockRead {
								reads.Add(1)
							} else {
								writes.Add(1)
							}
							want := oracle.Query(lo, hi)
							if len(got) != len(want) {
								errs <- fmt.Errorf("probe [%d,%d): %d rows, oracle %d", lo, hi, len(got), len(want))
								return
							}
							for i := range got {
								if got[i] != want[i] {
									errs <- fmt.Errorf("probe [%d,%d): row %d = %d, oracle %d", lo, hi, i, got[i], want[i])
									return
								}
							}
						}
					}(g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
				if err := ix.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				// The pool ranges converge to cuts, so a healthy run serves
				// a meaningful share of probes under the read lock. Both
				// paths must have been exercised or the test is vacuous.
				if reads.Load() == 0 {
					t.Error("no probe took the read path — pool ranges never converged")
				}
				if writes.Load() == 0 {
					t.Error("no probe took the write path — nothing was ever cracked")
				}
				t.Logf("%v/seed=%d: read=%d write=%d pieces=%d", opt.Variant, seed, reads.Load(), writes.Load(), ix.NumPieces())
			})
		}
	}
}

// TestConcurrentProbeParityFloat repeats the parity property over a float
// index: the engine cracks FLOAT columns through the same generic code, and
// float bound comparisons (Nextafter-adjusted half-open ranges in core)
// must not introduce variant behavior under concurrency.
func TestConcurrentProbeParityFloat(t *testing.T) {
	const (
		n          = 10_000
		goroutines = 8
		perG       = 25
	)
	rng := rand.New(rand.NewSource(11))
	col := make([]float64, n)
	for i := range col {
		col[i] = rng.Float64() * 1000
	}
	ix := New(col, Options{})
	oracle := NewFullScan(col)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(100 + int64(g)))
			for q := 0; q < perG; q++ {
				lo := grng.Float64() * 1000
				hi := lo + grng.Float64()*(1000-lo)
				got, _, err := ix.Probe(lo, hi)
				if err != nil {
					errs <- err
					return
				}
				want := oracle.Query(lo, hi)
				if len(got) != len(want) {
					errs <- fmt.Errorf("probe [%g,%g): %d rows, oracle %d", lo, hi, len(got), len(want))
					return
				}
				for i := range got {
					if got[i] != want[i] {
						errs <- fmt.Errorf("probe [%g,%g): mismatch at %d", lo, hi, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentProbesWithUpdates mixes writers (Insert, Delete, Flush)
// with concurrent probes. Mid-flight probe results are not comparable to a
// fixed oracle — each probe sees some consistent intermediate state — so
// the properties are: no probe errors, invariants hold throughout, and
// once the writers finish, a full-range probe returns exactly the live
// rows. Run with -race.
func TestConcurrentProbesWithUpdates(t *testing.T) {
	const (
		n       = 8_000
		probers = 4
		inserts = 3_000
	)
	rng := rand.New(rand.NewSource(3))
	col := make([]int64, n)
	for i := range col {
		col[i] = rng.Int63n(1 << 16)
	}
	ix := New(col, Options{MaxPending: 256})

	var wg sync.WaitGroup
	errs := make(chan error, probers+1)
	stop := make(chan struct{})
	for g := 0; g < probers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(200 + int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := grng.Int63n(1 << 16)
				hi := lo + 1 + grng.Int63n(1<<16-lo)
				if _, _, err := ix.Probe(lo, hi); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	// One writer thread: cracking updates are single-writer by design (the
	// engine funnels inserts through table load paths); what must hold is
	// writer-vs-prober safety.
	deleted := map[int]bool{}
	wrng := rand.New(rand.NewSource(999))
	for i := 0; i < inserts; i++ {
		row := ix.Insert(wrng.Int63n(1 << 16))
		if i%7 == 0 {
			ix.Delete(row)
			deleted[row] = true
		}
		if i%500 == 0 {
			ix.Flush()
		}
	}
	ix.Flush()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rows, st, err := ix.Probe(0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n+inserts-len(deleted) {
		t.Fatalf("full-range probe: %d rows, want %d (lock=%v)", len(rows), n+inserts-len(deleted), st.Lock)
	}
	for _, r := range rows {
		if deleted[r] {
			t.Fatalf("tombstoned row %d returned", r)
		}
	}
}
