package storage_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dex/internal/storage"
)

// cellsOracle recomputes every (bucket, key) cell from the index's
// candidates, bucket by bucket, in row order; key gives a row's key, false
// for a row in no cell (nil: key 0), and in or inInt is the input.
func cellsOracle(vi *storage.ValueIndex, n, morsel int, key func(r int) (int, bool), in []float64, inInt []int64) map[[2]int]storage.Cell {
	out := map[[2]int]storage.Cell{}
	var rows []int
	for b := 0; b < 256; b++ {
		for m := 0; m*morsel < n; m++ {
			for _, r := range vi.Candidates(m, b, b, rows[:0]) {
				g := 0
				if key != nil {
					var ok bool
					if g, ok = key(r); !ok {
						continue
					}
				}
				c, ok := out[[2]int{b, g}]
				if !ok {
					c = storage.Cell{Group: int32(g), First: r}
				}
				c.Rows++
				x, null := 0.0, true
				switch {
				case in != nil:
					x, null = in[r], math.IsNaN(in[r])
				case inInt != nil:
					x, null = float64(inInt[r]), false
				}
				if !null {
					if c.N == 0 || x < at(in, inInt, c.MinRow) {
						c.MinRow = r
					}
					if c.N == 0 || x > at(in, inInt, c.MaxRow) {
						c.MaxRow = r
					}
					c.N++
					if in != nil {
						c.Sum.Add(x)
					} else {
						c.Sum.AddInt(inInt[r])
					}
				}
				out[[2]int{b, g}] = c
			}
		}
	}
	return out
}

// at reads the input at row r as float64, where int extremes compare.
func at(in []float64, inInt []int64, r int) float64 {
	if in != nil {
		return in[r]
	}
	return float64(inInt[r])
}

// keyOf returns the key of the named key column's rows, as the cells
// number them: a dictionary code, a numeric column's value bucket (false
// for a NULL), nil for no key.
func keyOf(t *testing.T, tab *storage.Table, key string) func(r int) (int, bool) {
	if key == "" {
		return nil
	}
	c, _ := tab.ColumnByName(key)
	b, err := tab.ValueBuckets(key)
	if err != nil {
		t.Fatal(err)
	}
	switch c := c.(type) {
	case *storage.DictColumn:
		return func(r int) (int, bool) { return int(c.Codes()[r]), true }
	case *storage.IntColumn:
		return func(r int) (int, bool) { k, _ := b.IntRange(c.V[r], c.V[r]); return k, true }
	default:
		v := c.(*storage.FloatColumn).V
		return func(r int) (int, bool) { k, _ := b.FloatRange(v[r], v[r]); return k, !math.IsNaN(v[r]) }
	}
}

// TestBucketCellsMatchIndex holds every cell of the adversarial columns —
// the wide INT and FLOAT ones with the int64 extremes, 2^53 neighbours,
// NaN, ±Inf and both zeros, and the 9-value ones — to a recount from the
// value index's candidates: rows, first row, non-NULL count, sum bit for
// bit, and the first rows holding the extremes, with no key, a dictionary
// key and the value buckets of an INT key and of a FLOAT key with NULLs,
// which lie in no cell, and outliers in its open-ended buckets, and with
// INT, FLOAT and no input. A numeric key's
// least and greatest value per bucket, over the rows in cells, must match
// the recount too. Interior returns the cells of the buckets strictly
// inside a run, and a run with no interior returns none.
func TestBucketCellsMatchIndex(t *testing.T) {
	const n, morsel = 50_001, 1000
	rng := rand.New(rand.NewSource(34))
	tab := viTable(t, rng, n)
	labels, kn := make([]string, n), make([]float64, n)
	for i := range labels {
		labels[i] = fmt.Sprint("g", rng.Intn(5))
		kn[i] = float64(rng.Intn(9)) / 2
		switch rng.Intn(400) {
		case 0: // a few outliers each side: the open-ended buckets hold many values
			kn[i] = -1 - 100*rng.Float64()
		case 1:
			kn[i] = 5 + 100*rng.Float64()
		case 2, 3, 4, 5, 6, 7, 8, 9, 10, 11:
			kn[i] = math.NaN()
		}
	}
	dict := storage.EncodeDict(labels)
	keyed, err := storage.FromColumns("vg", append(tab.Schema(), storage.Field{Name: "d", Type: storage.TString},
		storage.Field{Name: "kn", Type: storage.TFloat}), append(columns(tab), dict, storage.NewFloatColumn(kn)))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"iw", "fw", "i9", "f9"} {
		for _, key := range []string{"", "d", "i9", "kn"} {
			for _, input := range []string{"", "fw", "iw"} {
				label := fmt.Sprintf("%s by %q over %q", col, key, input)
				cells, vi, built, err := keyed.BucketCells(col, key, input, morsel)
				if err != nil || cells == nil || !built {
					t.Fatalf("%s: cells %v built %v err %v", label, cells, built, err)
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
				keys := keyOf(t, keyed, key)
				want := cellsOracle(vi, n, morsel, keys, fin, iin)
				got := 0
				for b := 0; b < 256; b++ {
					for _, c := range cells.Interior(b-1, b+1) { // bucket b's cells
						if c.Rows == 0 {
							continue
						}
						got++
						w := want[[2]int{b, int(c.Group)}]
						if c.Rows != w.Rows || c.First != w.First || c.N != w.N ||
							math.Float64bits(c.Sum.Float64()) != math.Float64bits(w.Sum.Float64()) ||
							c.N > 0 && (c.MinRow != w.MinRow || c.MaxRow != w.MaxRow) {
							t.Fatalf("%s bucket %d key %d: cell %+v, recount %+v", label, b, c.Group, c, w)
						}
					}
				}
				if got != len(want) {
					t.Fatalf("%s: %d cells hold rows, recount %d", label, got, len(want))
				}
				if len(cells.Interior(10, 11)) != 0 || len(cells.Interior(10, 10)) != 0 {
					t.Fatalf("%s: a run with no interior has cells", label)
				}
				if key == "i9" || key == "kn" {
					requireKeySpans(t, label, keyed, vi, n, morsel, key, keys, cells)
				}
			}
		}
	}
}

// requireKeySpans recounts, per bucket of the numeric key column key, the
// rows in cells (those with a non-NULL range value and key) and their
// least and greatest key, and holds the cells' record to it.
func requireKeySpans(t *testing.T, label string, tab *storage.Table, vi *storage.ValueIndex, n, morsel int, key string,
	rowKey func(int) (int, bool), cells *storage.BucketCells) {
	t.Helper()
	kc, _ := tab.ColumnByName(key)
	var rows [256]int
	var lo, hi [256]storage.Value
	var buf []int
	for m := 0; m*morsel < n; m++ {
		for _, r := range vi.Candidates(m, 0, 255, buf[:0]) {
			k, ok := rowKey(r)
			if !ok {
				continue
			}
			v := kc.Value(r)
			if rows[k] == 0 || v.Compare(lo[k]) < 0 {
				lo[k] = v
			}
			if rows[k] == 0 || v.Compare(hi[k]) > 0 {
				hi[k] = v
			}
			rows[k]++
		}
	}
	for k := range rows {
		n, l, h := cells.KeySpan(k)
		if n != rows[k] || n > 0 && (l.Compare(lo[k]) != 0 || h.Compare(hi[k]) != 0) {
			t.Fatalf("%s key bucket %d: %d rows in [%v, %v]; recount %d in [%v, %v]", label, k, n, l, h, rows[k], lo[k], hi[k])
		}
	}
}

func columns(tab *storage.Table) []storage.Column {
	out := make([]storage.Column, tab.NumCols())
	for i := range out {
		out[i] = tab.Column(i)
	}
	return out
}

// TestBucketCellsSizeRule: a cell set is built only while the buckets that
// can hold a value times the keys stay at or under rows/16. An all-equal
// column has two such buckets, a wide one 256; a 40-code dictionary then
// fits beside the first and not the second. A numeric key's keys are its
// own live buckets: the all-equal column's two fit beside a wide column,
// a wide column's do not, and a 9-value column's ten fit beside another.
// Columns that do not qualify get no cells and
// no error, an unknown one an error.
func TestBucketCellsSizeRule(t *testing.T) {
	const n = 40_000
	rng := rand.New(rand.NewSource(35))
	tab := viTable(t, rng, n)
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprint("g", rng.Intn(40))
	}
	wide, err := storage.FromColumns("w", append(tab.Schema(),
		storage.Field{Name: "d", Type: storage.TString}, storage.Field{Name: "s", Type: storage.TString}, storage.Field{Name: "r", Type: storage.TInt}),
		append(columns(tab), storage.EncodeDict(labels), storage.NewStringColumn(labels), storage.EncodeRLE(make([]int64, n))))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		col, key, input string
		want            bool
	}{
		{"is", "d", "fw", true},  // 2 live buckets × 40 codes
		{"iw", "d", "fw", false}, // 256 × 40 > 40000/16
		{"iw", "", "fw", true},
		{"iw", "is", "fw", true}, // a wide column × 2 live key buckets
		{"iw", "fw", "", false},  // about 240 × 240
		{"f9", "i9", "iw", true}, // 10 × 10
		{"is", "fw", "", true},   // 2 × a wide key
		{"iw", "s", "", false},   // a plain string group
		{"iw", "", "r", false},   // a run-coded input
		{"iw", "r", "", false},   // a run-coded key
		{"r", "", "", false},     // a run-coded range column
		{"d", "", "", false},     // a dictionary range column
	} {
		cells, vi, _, err := wide.BucketCells(tc.col, tc.key, tc.input, 1024)
		if err != nil || (cells != nil) != tc.want || (cells != nil) != (vi != nil) {
			t.Errorf("%+v: cells %v index %v err %v", tc, cells != nil, vi != nil, err)
		}
	}
	if _, _, _, err := wide.BucketCells("iw", "nope", "", 1024); err == nil {
		t.Error("unknown key column: no error")
	}
}

// TestKeysResolve: an integer bound on the 9-value INT column lands on a
// bucket bound, so every key bucket lies wholly inside or outside the
// range, and the run returned holds exactly the keys inside; a bound
// inside a bucket of the wide INT column does not resolve. The splits leave
// the open-ended buckets to the cells, which settle them from the values
// they met: 9 is the greatest, so "q <= 9" keeps the last bucket and
// "q >= 10" keeps nothing.
func TestKeysResolve(t *testing.T) {
	tab := viTable(t, rand.New(rand.NewSource(37)), 40_000)
	b, _ := tab.ValueBuckets("i9")
	cells, _, _, err := tab.BucketCells("is", "i9", "", 1024)
	if err != nil || cells == nil {
		t.Fatalf("no cells: %v", err)
	}
	in := func(kl, kh int, v int64) bool { k, _ := b.IntRange(v, v); return kl <= k && k <= kh }
	for _, tc := range []struct{ lo, hi int64 }{
		{3, math.MaxInt64}, {math.MinInt64, 9}, {2, 4}, {4, 4}, {10, math.MaxInt64}, {math.MinInt64, 0}, {-5, 20},
	} {
		kl, kh, ok := cells.IntKeys(tc.lo, tc.hi)
		if _, _, pre := b.IntKeys(tc.lo, tc.hi); !ok || !pre {
			t.Fatalf("[%d, %d]: resolved %v by the cells, %v by the splits", tc.lo, tc.hi, ok, pre)
		}
		for v := int64(1); v <= 9; v++ {
			if in(kl, kh, v) != (tc.lo <= v && v <= tc.hi) {
				t.Fatalf("[%d, %d]: keys [%d, %d] hold %d: %v", tc.lo, tc.hi, kl, kh, v, in(kl, kh, v))
			}
		}
	}
	w, _ := tab.ValueBuckets("iw")
	bucket := func(v int64) int { k, _ := w.IntRange(v, v); return k }
	v := int64(1)
	for bucket(v-1) != bucket(v) { // a value with its predecessor in its bucket
		v++
	}
	if _, _, ok := w.IntKeys(v, math.MaxInt64); ok {
		t.Fatalf("iw >= %d, a bound inside a bucket, resolved", v)
	}
}

// TestBucketCellsRebuildWithTheIndex: cells are cached per (range, key,
// input) and come back with the index they were built beside; after rows
// are appended both are rebuilt, over the new rows.
func TestBucketCellsRebuildWithTheIndex(t *testing.T) {
	tab := viTable(t, rand.New(rand.NewSource(36)), 20_000)
	c1, x1, built, _ := tab.BucketCells("fw", "", "iw", 512)
	c2, x2, again, _ := tab.BucketCells("fw", "", "iw", 512)
	if !built || again || c1 != c2 || x1 != x2 {
		t.Fatalf("built %v then %v; cells equal %v, index equal %v", built, again, c1 == c2, x1 == x2)
	}
	if x3, _, _ := tab.ValueIndex("fw", 512); x3 != x1 {
		t.Fatal("cells came back with another index than ValueIndex's")
	}
	for i := 0; i < 10; i++ {
		if err := tab.AppendRow(storage.Int(1), storage.Int(1), storage.Int(7),
			storage.Float(1e9), storage.Float(1), storage.Float(2.5), storage.Float(1)); err != nil {
			t.Fatal(err)
		}
	}
	c3, x3, rebuilt, _ := tab.BucketCells("fw", "", "iw", 512)
	if !rebuilt || c3 == c1 || x3 == x1 {
		t.Fatal("appended rows: cells or index not rebuilt")
	}
	rows := 0
	for _, c := range c3.Interior(-1, 256) {
		rows += c.Rows
	}
	fw, _ := tab.ColumnByName("fw")
	nonNull := 0
	for _, v := range fw.(*storage.FloatColumn).V {
		if !math.IsNaN(v) {
			nonNull++
		}
	}
	if rows != nonNull {
		t.Fatalf("rebuilt cells hold %d rows; the column has %d non-NULL", rows, nonNull)
	}
}

// TestBucketCellsBuiltOnce: concurrent first callers of one cell set —
// keyed by a dictionary column, by a numeric column, or by none — share
// one build: one of them reports it, and all get the same cells.
func TestBucketCellsBuiltOnce(t *testing.T) {
	tab := viTable(t, rand.New(rand.NewSource(38)), 40_000)
	labels := make([]string, tab.NumRows())
	for i := range labels {
		labels[i] = fmt.Sprint("g", i%7)
	}
	keyed, err := storage.FromColumns("k", append(tab.Schema(), storage.Field{Name: "d", Type: storage.TString}),
		append(columns(tab), storage.EncodeDict(labels)))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"d", "i9", ""} {
		const callers = 8
		cells := make([]*storage.BucketCells, callers)
		var builds atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var built bool
				var err error
				if cells[c], _, built, err = keyed.BucketCells("fw", key, "iw", 512); err != nil || cells[c] == nil {
					t.Errorf("key %q: cells %v err %v", key, cells[c], err)
				}
				if built {
					builds.Add(1)
				}
			}()
		}
		wg.Wait()
		for _, c := range cells {
			if c != cells[0] {
				t.Fatalf("key %q: callers got different cells", key)
			}
		}
		if builds.Load() != 1 {
			t.Fatalf("key %q: %d callers built the cells; want one", key, builds.Load())
		}
	}
}
