package storage_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dex/internal/storage"
)

// cellsOracle recomputes every (bucket, group) cell from the index's
// candidates, bucket by bucket, in row order; in or inInt is the input.
func cellsOracle(vi *storage.ValueIndex, n, morsel int, codes []int32, in []float64, inInt []int64) map[[2]int]storage.Cell {
	out := map[[2]int]storage.Cell{}
	var rows []int
	for b := 0; b < 256; b++ {
		for m := 0; m*morsel < n; m++ {
			for _, r := range vi.Candidates(m, b, b, rows[:0]) {
				g := 0
				if codes != nil {
					g = int(codes[r])
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
					c.Sum += x
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

// TestBucketCellsMatchIndex holds every cell of the adversarial columns —
// the wide INT and FLOAT ones with the int64 extremes, 2^53 neighbours,
// NaN, ±Inf and both zeros, and the 9-value ones — to a recount from the
// value index's candidates: rows, first row, non-NULL count, sum bit for
// bit, and the first rows holding the extremes, over no group and a
// dictionary group, with INT, FLOAT and no input. Interior returns the
// cells of the buckets strictly inside a run, and a run with no interior
// returns none.
func TestBucketCellsMatchIndex(t *testing.T) {
	const n, morsel = 40_001, 1000
	rng := rand.New(rand.NewSource(34))
	tab := viTable(t, rng, n)
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprint("g", rng.Intn(5))
	}
	dict := storage.EncodeDict(labels)
	grouped, err := storage.FromColumns("vg", append(tab.Schema(), storage.Field{Name: "d", Type: storage.TString}),
		append(columns(tab), dict))
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"iw", "fw", "i9", "f9"} {
		for _, group := range []string{"", "d"} {
			for _, input := range []string{"", "fw", "iw"} {
				label := fmt.Sprintf("%s by %q over %q", col, group, input)
				cells, vi, built, err := grouped.BucketCells(col, group, input, morsel)
				if err != nil || cells == nil || !built {
					t.Fatalf("%s: cells %v built %v err %v", label, cells, built, err)
				}
				var codes []int32
				if group != "" {
					codes = dict.Codes()
				}
				var fin []float64
				var iin []int64
				if c, _ := grouped.ColumnByName(input); c != nil {
					if fc, ok := c.(*storage.FloatColumn); ok {
						fin = fc.V
					} else {
						iin = c.(*storage.IntColumn).V
					}
				}
				want := cellsOracle(vi, n, morsel, codes, fin, iin)
				got := 0
				for b := 0; b < 256; b++ {
					for _, c := range cells.Interior(b-1, b+1) { // bucket b's cells
						if c.Rows == 0 {
							continue
						}
						got++
						w := want[[2]int{b, int(c.Group)}]
						if c.Rows != w.Rows || c.First != w.First || c.N != w.N ||
							math.Float64bits(c.Sum) != math.Float64bits(w.Sum) ||
							c.N > 0 && (c.MinRow != w.MinRow || c.MaxRow != w.MaxRow) {
							t.Fatalf("%s bucket %d group %d: cell %+v, recount %+v", label, b, c.Group, c, w)
						}
					}
				}
				if got != len(want) {
					t.Fatalf("%s: %d cells hold rows, recount %d", label, got, len(want))
				}
				if len(cells.Interior(10, 11)) != 0 || len(cells.Interior(10, 10)) != 0 {
					t.Fatalf("%s: a run with no interior has cells", label)
				}
			}
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
// can hold a value times the group codes stay at or under rows/16. An
// all-equal column has two such buckets, a wide one 256; a 40-code
// dictionary then fits beside the first and not the second. Columns that
// do not qualify get no cells and no error, an unknown one an error.
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
		col, group, input string
		want              bool
	}{
		{"is", "d", "fw", true},  // 2 live buckets × 40 codes
		{"iw", "d", "fw", false}, // 256 × 40 > 40000/16
		{"iw", "", "fw", true},
		{"iw", "s", "", false}, // a plain string group
		{"iw", "", "r", false}, // a run-coded input
		{"r", "", "", false},   // a run-coded range column
		{"d", "", "", false},   // a dictionary range column
	} {
		cells, vi, _, err := wide.BucketCells(tc.col, tc.group, tc.input, 1024)
		if err != nil || (cells != nil) != tc.want || (cells != nil) != (vi != nil) {
			t.Errorf("%+v: cells %v index %v err %v", tc, cells != nil, vi != nil, err)
		}
	}
	if _, _, _, err := wide.BucketCells("iw", "nope", "", 1024); err == nil {
		t.Error("unknown group column: no error")
	}
}

// TestBucketCellsRebuildWithTheIndex: cells are cached per (range, group,
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
