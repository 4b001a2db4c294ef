package storage_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
)

// viTable builds the index's adversarial columns over n rows: wide INT and
// FLOAT columns carrying the int64 extremes, 2^53 neighbours, NaN, ±Inf and
// both zeros, 9-value columns (the shape of the sales table's qty), an
// all-equal pair and an all-NULL FLOAT column.
func viTable(t *testing.T, rng *rand.Rand, n int) *storage.Table {
	t.Helper()
	iw, i9, is := make([]int64, n), make([]int64, n), make([]int64, n)
	fw, f9, fs, fn := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	ints := []int64{math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, -(1<<53 + 1), 0, -1}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64, -math.MaxFloat64, 1 << 53}
	for i := 0; i < n; i++ {
		iw[i] = rng.Int63n(2000) - 1000
		if rng.Intn(10) == 0 {
			iw[i] = ints[rng.Intn(len(ints))]
		}
		fw[i] = rng.NormFloat64() * 50
		if rng.Intn(10) == 0 {
			fw[i] = floats[rng.Intn(len(floats))]
		}
		i9[i] = int64(1 + rng.Intn(9))
		f9[i] = float64(rng.Intn(9)) / 2
		is[i], fs[i], fn[i] = 7, 2.5, math.NaN()
	}
	tab, err := storage.FromColumns("vi", storage.Schema{
		{Name: "iw", Type: storage.TInt}, {Name: "i9", Type: storage.TInt}, {Name: "is", Type: storage.TInt},
		{Name: "fw", Type: storage.TFloat}, {Name: "f9", Type: storage.TFloat},
		{Name: "fs", Type: storage.TFloat}, {Name: "fn", Type: storage.TFloat},
	}, []storage.Column{
		storage.NewIntColumn(iw), storage.NewIntColumn(i9), storage.NewIntColumn(is),
		storage.NewFloatColumn(fw), storage.NewFloatColumn(f9), storage.NewFloatColumn(fs), storage.NewFloatColumn(fn),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// viPreds returns comparisons and two-sided ranges on col against the
// column's own values, the adversarial constants and their neighbours,
// INT and FLOAT alike — so unsatisfiable ranges (lo > hi) come up too.
func viPreds(rng *rand.Rand, tab *storage.Table, col string) []*expr.Pred {
	c, _ := tab.ColumnByName(col)
	consts := []storage.Value{
		storage.Int(math.MinInt64), storage.Int(math.MaxInt64), storage.Int(0), storage.Int(1 << 53),
		storage.Float(math.NaN()), storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)),
		storage.Float(0.5), storage.Float(float64(1<<53) + 0.5), storage.Float(-1e300),
	}
	for i := 0; i < 8; i++ {
		v := c.Value(rng.Intn(c.Len()))
		consts = append(consts, v)
		if v.Typ == storage.TInt {
			consts = append(consts, storage.Int(v.I+1), storage.Float(float64(v.I)+0.5))
		} else {
			consts = append(consts, storage.Float(math.Nextafter(v.F, math.Inf(1))))
		}
	}
	var out []*expr.Pred
	for _, v := range consts {
		for _, op := range []expr.Op{expr.EQ, expr.LT, expr.LE, expr.GT, expr.GE} {
			out = append(out, expr.Cmp(col, op, v))
		}
	}
	for i := 0; i < 30; i++ {
		out = append(out, expr.Between(col, consts[rng.Intn(len(consts))], consts[rng.Intn(len(consts))]))
	}
	if raceEnabled { // the checks are single-threaded; keep a sixth
		thin := out[:0]
		for i := 0; i < len(out); i += 6 {
			thin = append(thin, out[i])
		}
		out = thin
	}
	return out
}

// checkCovers holds the index of col at morsel size m to its contract for
// every predicate: each morsel's candidates are ascending, inside the
// morsel, as many as Count says, and a superset of the rows FilterRange
// selects there. wants caches FilterRange's rows across morsel sizes.
func checkCovers(t *testing.T, tab *storage.Table, col string, m int, preds []*expr.Pred, wants map[*expr.Pred][]int) {
	t.Helper()
	vi, _, err := tab.ValueIndex(col, m)
	if err != nil || vi == nil {
		t.Fatalf("%s m=%d: index %v, %v", col, m, vi, err)
	}
	n := tab.NumRows()
	in := make([]bool, n)
	var cands []int
	for _, p := range preds {
		ivs, _ := expr.Intervals(tab.Schema(), p)
		if len(ivs) != 1 {
			t.Fatalf("%s: %d intervals", p, len(ivs))
		}
		iv := ivs[0]
		bl, bh := vi.IntRange(iv.ILo, iv.IHi)
		if iv.Float {
			bl, bh = vi.FloatRange(iv.FLo, iv.FHi)
		}
		want, ok := wants[p]
		if !ok {
			var err error
			if want, err = expr.FilterRange(tab, p, 0, n); err != nil {
				t.Fatal(err)
			}
			wants[p] = want
		}
		for mi, lo := 0, 0; lo < n; mi, lo = mi+1, lo+m {
			hi := min(lo+m, n)
			cands = vi.Candidates(mi, bl, bh, cands[:0])
			if len(cands) != vi.Count(mi, bl, bh) {
				t.Fatalf("%s m=%d morsel %d: %d candidates, Count %d", p, m, mi, len(cands), vi.Count(mi, bl, bh))
			}
			for i, r := range cands {
				if r < lo || r >= hi || (i > 0 && r <= cands[i-1]) {
					t.Fatalf("%s m=%d morsel %d: candidates %v not ascending inside [%d,%d)", p, m, mi, cands, lo, hi)
				}
				in[r] = true
			}
			for len(want) > 0 && want[0] < hi {
				if !in[want[0]] {
					t.Fatalf("%s m=%d: row %d (%v) qualifies but is no candidate of buckets [%d,%d]",
						p, m, want[0], tab.Row(want[0]), bl, bh)
				}
				want = want[1:]
			}
			for _, r := range cands {
				in[r] = false
			}
		}
	}
}

// TestValueIndexCoversIntervals is the index's correctness contract: for
// every interval the predicate rule yields, the candidates are a superset
// of the qualifying rows, at every morsel size from 64 to the 16-bit limit,
// over a row count no morsel size divides, and again after the table grows.
func TestValueIndexCoversIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tab := viTable(t, rng, 70_001)
	cols := []string{"iw", "i9", "is", "fw", "f9", "fs", "fn"}
	preds := map[string][]*expr.Pred{}
	wants := map[*expr.Pred][]int{}
	for _, col := range cols {
		preds[col] = viPreds(rng, tab, col)
	}
	for _, m := range []int{64, 1000, 16384, storage.MaxIndexMorsel} {
		for _, col := range cols {
			checkCovers(t, tab, col, m, preds[col], wants)
		}
	}
	// Rows appended past the build: the cached index is stale and rebuilt,
	// and the new values — beyond every split — are covered.
	for i := 0; i < 100; i++ {
		if err := tab.AppendRow(storage.Int(5000+int64(i)), storage.Int(10), storage.Int(7),
			storage.Float(1e6), storage.Float(math.NaN()), storage.Float(2.5), storage.Float(1)); err != nil {
			t.Fatal(err)
		}
	}
	vi, built, err := tab.ValueIndex("iw", 1000)
	if err != nil || !built {
		t.Fatalf("after AppendRow: built=%v err=%v, want a rebuild", built, err)
	}
	if bl, bh := vi.IntRange(5000, 5099); vi.Count(70, bl, bh) == 0 {
		t.Fatal("rebuilt index misses the appended rows")
	}
	for _, col := range cols {
		checkCovers(t, tab, col, 1000, append(preds[col],
			expr.Cmp(col, expr.GE, storage.Int(5000)), expr.Cmp(col, expr.GE, storage.Float(1e6))), map[*expr.Pred][]int{})
	}
}

// TestValueIndexBucket: a bucket's rows, read across every morsel, are
// ascending, each bucket's rows are the rows whose value its run holds,
// and the buckets together hold every non-NULL row once, at morsel sizes
// that do and do not divide the table.
func TestValueIndexBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tab := viTable(t, rng, 10_001)
	for _, col := range []string{"iw", "fw", "i9", "fn"} {
		c, _ := tab.ColumnByName(col)
		for _, m := range []int{64, 1000, storage.MaxIndexMorsel} {
			vi, _, err := tab.ValueIndex(col, m)
			if err != nil || vi == nil {
				t.Fatal(vi, err)
			}
			seen := 0
			for b := 0; b < storage.NumBuckets; b++ {
				rows := bucketRows(vi, b)
				seen += len(rows)
				for i, r := range rows {
					var bl, bh int
					if fc, ok := c.(*storage.FloatColumn); ok {
						bl, bh = vi.FloatRange(fc.V[r], fc.V[r])
					} else {
						v := c.(*storage.IntColumn).V[r]
						bl, bh = vi.IntRange(v, v)
					}
					if bl != b || bh != b || i > 0 && rows[i-1] >= r {
						t.Fatalf("%s morsel %d bucket %d: row %d (bucket %d) at %d, out of place or order", col, m, b, r, bl, i)
					}
				}
			}
			nonNull := 0
			for r := 0; r < tab.NumRows(); r++ {
				if v := c.Value(r); !(v.Typ == storage.TFloat && math.IsNaN(v.F)) {
					nonNull++
				}
			}
			if seen != nonNull {
				t.Fatalf("%s morsel %d: buckets hold %d rows, %d are not NULL", col, m, seen, nonNull)
			}
		}
	}
}

// TestValueIndexEstimates checks the sample's bucket counts against the
// table: a bucket run's estimated share is close to its real one.
func TestValueIndexEstimates(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tab := viTable(t, rng, 200_000)
	for _, col := range []string{"iw", "fw", "i9"} {
		b, err := tab.ValueBuckets(col)
		if err != nil || b == nil {
			t.Fatal(b, err)
		}
		vi, _, _ := tab.ValueIndex(col, 4096)
		for _, run := range [][2]int{{0, 255}, {10, 20}, {100, 100}, {30, 29}} {
			got := 0
			for m := 0; m*4096 < tab.NumRows(); m++ {
				got += vi.Count(m, run[0], run[1])
			}
			real, est := float64(got)/float64(tab.NumRows()), b.Fraction(run[0], run[1])
			if math.Abs(real-est) > 0.02 {
				t.Errorf("%s buckets %v: estimated share %.4f, real %.4f", col, run, est, real)
			}
		}
	}
}

// TestValueIndexNone lists the columns and morsel sizes with no index.
func TestValueIndexNone(t *testing.T) {
	tab, err := storage.FromColumns("e", storage.Schema{
		{Name: "s", Type: storage.TString}, {Name: "r", Type: storage.TInt}, {Name: "d", Type: storage.TString},
	}, []storage.Column{
		storage.NewStringColumn([]string{"a", "b"}), storage.EncodeRLE([]int64{1, 1}), storage.EncodeDict([]string{"a", "b"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"s", "r", "d"} {
		if vi, _, err := tab.ValueIndex(col, 64); vi != nil || err != nil {
			t.Errorf("%s: index %v, %v; want none", col, vi, err)
		}
	}
	ints, _ := storage.FromColumns("i", storage.Schema{{Name: "k", Type: storage.TInt}},
		[]storage.Column{storage.NewIntColumn([]int64{1, 2, 3})})
	for _, m := range []int{0, -1, storage.MaxIndexMorsel + 1} {
		if vi, _, err := ints.ValueIndex("k", m); vi != nil || err != nil {
			t.Errorf("morsel %d: index %v, %v; want none", m, vi, err)
		}
	}
	if _, _, err := ints.ValueIndex("nope", 64); err == nil {
		t.Error("unknown column: no error")
	}
}

// TestValueIndexBuildsOnce asks for one index from many goroutines at once:
// exactly one call builds it, and every caller gets the same index.
func TestValueIndexBuildsOnce(t *testing.T) {
	tab := viTable(t, rand.New(rand.NewSource(33)), 100_000)
	const callers = 16
	var wg sync.WaitGroup
	got := make([]*storage.ValueIndex, callers)
	builds := make([]bool, callers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], builds[i], err = tab.ValueIndex("fw", 1024); err != nil {
				panic(fmt.Sprint(err))
			}
		}()
	}
	wg.Wait()
	n := 0
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different index", i)
		}
		if builds[i] {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
}
