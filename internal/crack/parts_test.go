package crack

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// rowSet is the partial set the tests build: a piece's rows, sorted, so
// that the union of a probe's sets and the rows no set holds can be held
// to the row ids Probe returns.
func rowSet(builds *atomic.Int64) func([]int) []int {
	return func(rows []int) []int {
		builds.Add(1)
		set := slices.Clone(rows)
		slices.Sort(set)
		return set
	}
}

// union returns the rows of every set and the rows no set holds, ascending.
func union(p *Parts[[]int]) []int {
	var out []int
	for _, s := range p.Sets {
		out = append(out, s...)
	}
	out = append(out, p.Rows...)
	slices.Sort(out)
	return out
}

// TestProbePartsCoversTheRange: under every variant, with pending inserts,
// merges and deletes interleaved, a parts probe's sets and rows are exactly
// the rows a row probe returns, and every way into the index cracks alike:
// twins fed the same steps through a parts probe with no Build, through
// Query and through Count keep the same cuts, crack count and piece count,
// and answer the same rows or counts. A step with no upper bound, which
// Query and Count cannot ask, reaches those two twins as a row probe.
func TestProbePartsCoversTheRange(t *testing.T) {
	for _, opt := range concurrentVariants {
		t.Run(opt.Variant.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			col := make([]int64, 4000)
			for i := range col {
				col[i] = rng.Int63n(1000)
			}
			opt.MaxPending = 64
			parts := New(col, opt)
			twins := []*Index[int64]{New(col, opt), New(col, opt), New(col, opt)}
			rows, query, count := twins[0], twins[1], twins[2]
			var builds atomic.Int64
			p := &Parts[[]int]{Key: "k", Build: rowSet(&builds)}
			rp := &Parts[struct{}]{}
			for step := 0; step < 300; step++ {
				switch rng.Intn(8) {
				case 0:
					v := rng.Int63n(1000)
					parts.Insert(v)
					for _, ix := range twins {
						ix.Insert(v)
					}
				case 1:
					r := rng.Intn(len(col))
					parts.Delete(r)
					for _, ix := range twins {
						ix.Delete(r)
					}
				}
				lo := rng.Int63n(1000)
				hi := lo + rng.Int63n(300)
				var st ProbeStats
				var err error
				if step%10 == 9 {
					st, err = ProbePartsFrom(parts, p, lo)
					for _, ix := range twins {
						if _, err := ProbePartsFrom(ix, rp, lo); err != nil {
							t.Fatal(err)
						}
					}
				} else {
					st, err = ProbeParts(parts, p, lo, hi)
					if _, err := ProbeParts(rows, rp, lo, hi); err != nil {
						t.Fatal(err)
					}
					if got := query.Query(lo, hi); !slices.Equal(got, rp.Rows) {
						t.Fatalf("step %d [%d, %d): Query %d rows, row probe %d", step, lo, hi, len(got), len(rp.Rows))
					}
					if got := count.Count(lo, hi); got != len(rp.Rows) {
						t.Fatalf("step %d [%d, %d): Count %d, row probe %d rows", step, lo, hi, got, len(rp.Rows))
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := union(p); !slices.Equal(got, rp.Rows) {
					t.Fatalf("step %d [%d, %d): parts hold %d rows, row probe %d", step, lo, hi, len(got), len(rp.Rows))
				}
				for i, ix := range twins {
					if st.Pieces != ix.NumPieces() || st.Cracks != ix.Cracks() {
						t.Fatalf("step %d: parts probe at %d pieces, %d cracks; twin %d at %d, %d",
							step, st.Pieces, st.Cracks, i, ix.NumPieces(), ix.Cracks())
					}
				}
			}
			if err := parts.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for i, ix := range twins {
				if !slices.Equal(parts.cuts, ix.cuts) {
					t.Fatalf("parts probes left other cuts than twin %d", i)
				}
			}
		})
	}
}

// TestProbePartsReusesAndDrops: a probe over built pieces builds nothing,
// a crack inside a piece rebuilds only that piece's halves, a second key
// builds its own sets, and a merge or a delete drops what it changed.
func TestProbePartsReusesAndDrops(t *testing.T) {
	col := make([]int64, 1000)
	for i := range col {
		col[i] = int64(i % 100)
	}
	ix := New(col, Options{MaxPending: 1 << 20})
	var builds atomic.Int64
	p := &Parts[[]int]{Key: "a", Build: rowSet(&builds)}
	probe := func(lo, hi int64) {
		t.Helper()
		if _, err := ProbeParts(ix, p, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	probe(20, 80) // one piece
	probe(40, 60) // cracks it: [20,40) [40,60) [60,80)
	if p.Built != 1 || len(p.Sets) != 1 {
		t.Fatalf("a crack inside a built piece: %d built of %d sets; want 1 of 1", p.Built, len(p.Sets))
	}
	probe(20, 80)
	if p.Built != 2 || len(p.Sets) != 3 || p.BuiltRows != 400 {
		t.Fatalf("the split halves: %d built (%d rows) of %d sets; want 2 (400 rows) of 3", p.Built, p.BuiltRows, len(p.Sets))
	}
	probe(20, 80)
	if p.Built != 0 {
		t.Fatalf("built pieces: %d built again", p.Built)
	}
	other := &Parts[[]int]{Key: "b", Build: rowSet(&builds)}
	if _, err := ProbeParts(ix, other, 20, 80); err != nil || other.Built != 3 {
		t.Fatalf("a second key: %d built (%v); want 3", other.Built, err)
	}
	ix.Insert(50)
	probe(20, 80)
	if p.Built != 0 || len(p.Rows) != 1 {
		t.Fatalf("a pending insert: %d built, %d rows; want 0, 1", p.Built, len(p.Rows))
	}
	ix.Flush()
	probe(20, 80)
	if p.Built != 1 || p.BuiltRows != 201 || len(p.Rows) != 0 {
		t.Fatalf("after the merge: %d built (%d rows), %d rows; want the receiving piece alone", p.Built, p.BuiltRows, len(p.Rows))
	}
	ix.Delete(45)
	probe(20, 80)
	if p.Built != 3 || p.BuiltRows != 600 {
		t.Fatalf("after a delete: %d built (%d rows); want every piece, its row left out", p.Built, p.BuiltRows)
	}
	if got := union(p); len(got) != 600 || slices.Contains(got, 45) {
		t.Fatalf("after a delete: %d rows, 45 among them: %v", len(got), slices.Contains(got, 45))
	}
}

// TestConcurrentProbePartsBuiltOnce: read-locked probes that first-cover
// the same pieces at once, on one key and on several, publish exactly one
// set per (piece, key) — the losers of the race wait for the winner's —
// while a writer cracks outside their range. Every probe sees the range's
// rows. Run it with -race.
func TestConcurrentProbePartsBuiltOnce(t *testing.T) {
	for _, opt := range concurrentVariants {
		t.Run(opt.Variant.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			col := make([]int64, 20_000)
			for i := range col {
				col[i] = rng.Int63n(1 << 16)
			}
			ix := New(col, opt)
			bounds := []int64{1000, 9000, 17000, 25000, 33000}
			for i := 1; i < len(bounds); i++ {
				ix.Query(bounds[i-1], bounds[i]) // the cuts, so the probes below read-lock
			}
			want := ix.Query(bounds[0], bounds[len(bounds)-1])
			pieces := ix.NumPieces()
			var builds [3]atomic.Int64
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for g := 0; g < 12; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					k := g % len(builds)
					p := &Parts[[]int]{Key: k, Build: rowSet(&builds[k]), Workers: 1 + g%3}
					for i := 0; i < 20; i++ {
						st, err := ProbeParts(ix, p, bounds[0], bounds[len(bounds)-1])
						if err != nil {
							errs <- err
							return
						}
						if st.Lock != LockRead {
							errs <- fmt.Errorf("an aligned probe took the %v lock", st.Lock)
							return
						}
						if got := union(p); !slices.Equal(got, want) {
							errs <- fmt.Errorf("goroutine %d: %d rows, want %d", g, len(got), len(want))
							return
						}
					}
				}(g)
			}
			wg.Add(1)
			go func() { // cracks above the range, never inside it
				defer wg.Done()
				for i := 0; i < 50; i++ {
					lo := 40000 + rng.Int63n(20000)
					ix.Query(lo, lo+100)
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			inRange := 0
			ix.mu.RLock()
			ia, _ := ix.cutIndex(bounds[0])
			ib, _ := ix.cutIndex(bounds[len(bounds)-1])
			for i := ia + 1; i <= ib; i++ {
				if ix.cuts[i-1].pos < ix.cuts[i].pos {
					inRange++
				}
			}
			ix.mu.RUnlock()
			for k := range builds {
				if n := builds[k].Load(); n != int64(inRange) {
					t.Errorf("key %d: %d builds for %d pieces in range (%d before the writer)", k, n, inRange, pieces)
				}
			}
		})
	}
}
