package storage_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"dex/internal/storage"
)

// subOfRow returns the bucket and sub-bucket the index's bounds give row
// r of the plain numeric column c, ok false for a NULL.
func subOfRow(b *storage.ValueBuckets, c storage.Column, r int) (k, j int, ok bool) {
	switch c := c.(type) {
	case *storage.IntColumn:
		k, _ = b.IntRange(c.V[r], c.V[r])
		return k, b.IntSub(k, c.V[r]), true
	case *storage.FloatColumn:
		v := c.V[r]
		k, _ = b.FloatRange(v, v)
		return k, b.FloatSub(k, v), v == v
	}
	panic(fmt.Sprintf("%T has no index", c))
}

// TestSubBucketsMatchValues holds the sub-bucket the index keeps beside
// every row offset to the one its value gets from the bounds' sub-splits
// (IntSub, FloatSub), through the row lists of runs of sub-buckets that
// cover each bucket, merged (PartLists, MergeLists): each run's rows are
// ascending, lie in the bucket and in the run, and the runs hold every row
// of the bucket once. The columns are the adversarial ones: the int64
// extremes, 2^53 neighbours, NaN, ±Inf, both zeros, 9 values, and
// all-equal.
func TestSubBucketsMatchValues(t *testing.T) {
	const n, morsel = 30_001, 1000
	tab := viTable(t, rand.New(rand.NewSource(36)), n)
	var rows []int
	for _, col := range []string{"iw", "fw", "i9", "f9", "is", "fs"} {
		vi, _, err := tab.ValueIndex(col, morsel)
		if err != nil || vi == nil {
			t.Fatal(col, err)
		}
		c, _ := tab.ColumnByName(col)
		for b := 0; b < storage.NumBuckets; b++ {
			total := 0
			for _, p := range [][2]int{{0, 0}, {1, 2}, {3, 6}, {7, 7}} {
				lists, err := vi.PartLists(nil, b, p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				rows = storage.MergeLists(rows[:0], lists)
				for i, r := range rows {
					k, sub, ok := subOfRow(vi.ValueBuckets, c, r)
					if !ok || k != b || sub < p[0] || sub > p[1] || i > 0 && r <= rows[i-1] {
						t.Fatalf("%s bucket %d sub-buckets %v: row %d (%v) is in bucket %d sub-bucket %d", col, b, p, r, c.Value(r), k, sub)
					}
				}
				total += len(rows)
			}
			if want := len(bucketRows(vi, b)); total != want {
				t.Fatalf("%s bucket %d: %d rows over its sub-buckets, %d in it", col, b, total, want)
			}
		}
	}
}

// bucketRows returns the rows of vi's bucket b, ascending, read morsel by
// morsel from the index's offsets.
func bucketRows(vi *storage.ValueIndex, b int) []int {
	var rows []int
	for m := range vi.Morsels() {
		rows = vi.Candidates(m, b, b, rows)
	}
	return rows
}

// TestSubCellsMatchIndex holds every bucket's second level to a recount
// from the value index's rows, for the column, key and input triples of
// TestBucketCellsMatchIndex and a 3-code dictionary key: the level has the most sub-buckets of 8, 4
// and 2 whose cells, one per key, stay at or under the bucket's rows over
// 16, or none; and each of its cells has the rows, first row, non-NULL
// count, sum bit for bit, and extremes' first rows of the bucket's rows
// in its run of sub-buckets with its key. A second ask builds nothing.
func TestSubCellsMatchIndex(t *testing.T) {
	const n, morsel = 50_001, 1000
	rng := rand.New(rand.NewSource(37))
	tab := viTable(t, rng, n)
	labels, three, kn := make([]string, n), make([]string, n), make([]float64, n)
	for i := range labels {
		labels[i] = fmt.Sprint("g", rng.Intn(5))
		three[i] = fmt.Sprint("h", rng.Intn(3))
		kn[i] = float64(rng.Intn(9)) / 2
		if rng.Intn(40) == 0 {
			kn[i] = math.NaN()
		}
	}
	keyed, err := storage.FromColumns("vs", append(tab.Schema(), storage.Field{Name: "d", Type: storage.TString},
		storage.Field{Name: "d3", Type: storage.TString}, storage.Field{Name: "kn", Type: storage.TFloat}),
		append(columns(tab), storage.EncodeDict(labels), storage.EncodeDict(three), storage.NewFloatColumn(kn)))
	if err != nil {
		t.Fatal(err)
	}
	levels := map[int]bool{}
	var rows []int
	for _, col := range []string{"iw", "fw", "i9", "f9"} {
		rc, _ := keyed.ColumnByName(col)
		for _, key := range []string{"", "d", "d3", "i9", "kn"} {
			for _, input := range []string{"", "fw", "iw"} {
				label := fmt.Sprintf("%s by %q over %q", col, key, input)
				cells, vi, _, err := keyed.BucketCells(col, key, input, morsel)
				if err != nil || cells == nil {
					t.Fatalf("%s: cells %v err %v", label, cells, err)
				}
				var fin []float64
				var iin []int64
				if c, _ := keyed.ColumnByName(input); c != nil {
					if fc, ok := c.(*storage.FloatColumn); ok {
						fin = fc.V
					} else {
						iin = c.(*storage.IntColumn).V
					}
				}
				keyOfRow := keyOf(t, keyed, key)
				keys := len(cells.Keys())
				for b := 0; b < storage.NumBuckets; b++ {
					s, built, err := cells.Sub(b)
					if err != nil || !built {
						t.Fatalf("%s bucket %d: built %v err %v", label, b, built, err)
					}
					if again, built, err := cells.Sub(b); again != s || built || err != nil {
						t.Fatalf("%s bucket %d: a second ask built %v, err %v", label, b, built, err)
					}
					inCells := 0
					for _, c := range cells.Interior(b-1, b+1) {
						inCells += c.Rows
					}
					subs := 8
					for subs > 1 && subs*keys > inCells/16 {
						subs /= 2
					}
					levels[s.Subs()] = true
					if s.Subs() != subs || subs == 1 && len(s.Cells()) != 0 || subs > 1 && len(s.Cells()) != subs*keys {
						t.Fatalf("%s bucket %d: %d sub-buckets, %d cells; want %d over %d rows and %d keys",
							label, b, s.Subs(), len(s.Cells()), subs, inCells, keys)
					}
					if subs == 1 {
						continue
					}
					// The recount: the bucket's rows, ascending, into their
					// (sub-bucket run, key) cell.
					want := map[[2]int]storage.Cell{}
					for m := 0; m*morsel < n; m++ {
						for _, r := range vi.Candidates(m, b, b, rows[:0]) {
							g := 0
							if keyOfRow != nil {
								var ok bool
								if g, ok = keyOfRow(r); !ok {
									continue
								}
							}
							_, j, _ := subOfRow(vi.ValueBuckets, rc, r)
							cell := [2]int{j / (8 / subs), g}
							c, ok := want[cell]
							if !ok {
								c = storage.Cell{Group: int32(g), First: r}
							}
							c.Rows++
							x, null := 0.0, true
							switch {
							case fin != nil:
								x, null = fin[r], math.IsNaN(fin[r])
							case iin != nil:
								x, null = float64(iin[r]), false
							}
							if !null {
								if c.N == 0 || x < at(fin, iin, c.MinRow) {
									c.MinRow = r
								}
								if c.N == 0 || x > at(fin, iin, c.MaxRow) {
									c.MaxRow = r
								}
								c.N++
								if fin != nil {
									c.Sum.Add(x)
								} else {
									c.Sum.AddInt(iin[r])
								}
							}
							want[cell] = c
						}
					}
					got := 0
					for i, c := range s.Cells() {
						if c.Rows == 0 {
							continue
						}
						got++
						w := want[[2]int{i / keys, int(c.Group)}]
						if c.Rows != w.Rows || c.First != w.First || c.N != w.N ||
							math.Float64bits(c.Sum.Float64()) != math.Float64bits(w.Sum.Float64()) ||
							c.N > 0 && (c.MinRow != w.MinRow || c.MaxRow != w.MaxRow) {
							t.Fatalf("%s bucket %d sub-bucket %d key %d: cell %+v, recount %+v", label, b, i/keys, c.Group, c, w)
						}
					}
					if got != len(want) {
						t.Fatalf("%s bucket %d: %d sub-cells hold rows, recount %d", label, b, got, len(want))
					}
				}
			}
		}
	}
	if !levels[8] || !levels[4] || !levels[2] || !levels[1] {
		t.Fatalf("levels of %v sub-buckets; want 8, 4, 2 and none among them", levels)
	}
}

// TestValueIndexBuildBytesFollowNoCores builds one column's value index at
// one P and at four and holds the two builds to the same bytes allocated:
// a build runs a fixed number of goroutines, each with a morsel of
// scratch, whatever the cores. Each build is of a new table, and the
// least of three builds stands for its P count, so a stray allocation
// elsewhere in the process does not count.
func TestValueIndexBuildBytesFollowNoCores(t *testing.T) {
	const n, morsel = 64 * 1024, 4096
	xs := make([]float64, n)
	rng := rand.New(rand.NewSource(39))
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	build := func() uint64 {
		tab, err := storage.FromColumns("b", storage.Schema{{Name: "x", Type: storage.TFloat}},
			[]storage.Column{storage.NewFloatColumn(xs)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tab.ValueBuckets("x"); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		vi, built, err := tab.ValueIndex("x", morsel)
		runtime.ReadMemStats(&after)
		if vi == nil || !built || err != nil {
			t.Fatalf("index %v built %v err %v", vi, built, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	least := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		b := build()
		for i := 0; i < 2; i++ {
			b = min(b, build())
		}
		return b
	}
	// A build's workers take goroutine descriptors from their P's cache,
	// then the runtime's global one, and allocate one when both are empty:
	// at four P the workers end on other Ps than the one that starts the
	// next build, so whether a build allocates descriptors would depend on
	// how many goroutines the tests run before this one ended. Ending many
	// goroutines at four P stocks the global cache, and one unmeasured
	// round of builds there settles the rest, so both measured rounds find
	// their descriptors cached.
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		var wg sync.WaitGroup
		for i := 0; i < 512; i++ {
			wg.Add(1)
			go wg.Done()
		}
		wg.Wait()
	}()
	least(4)
	// The race detector's own allocations, and sync.Pool's random drops
	// under it, move the bytes, so under it the builds run unchecked.
	if one, four := least(1), least(4); one != four && !raceEnabled {
		t.Fatalf("a build allocates %d bytes at one P and %d at four", one, four)
	}
}
