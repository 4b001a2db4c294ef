package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
	"dex/internal/trace"
)

// cellsTable has the range columns the bucket cells meet — a FLOAT column
// with NULLs, both zeros and both infinities, a wide INT column with the
// int64 extremes and 2^53 neighbours, and an all-equal INT column — beside
// the inputs they aggregate: a FLOAT x with NULLs and infinities, an INT k
// whose extremes tie in float64 (MaxInt64 and its neighbours, 2^53 and
// 2^53+1), a FLOAT z of signed zeros and NULLs whose MIN and MAX tie, a
// small INT s, and
// dictionary group keys of 1, 2, 5 and 12 codes, plus one of 40 codes
// that breaks the cells' size rule; and the second leaves a two-range
// WHERE keys the cells by: an INT q of the integers 1–9, one value per
// bucket, and a FLOAT qf of the same values with NULLs.
func cellsTable(rng *rand.Rand, n int) *storage.Table {
	f, i, e := make([]float64, n), make([]int64, n), make([]int64, n)
	x, k, z, s := make([]float64, n), make([]int64, n), make([]float64, n), make([]int64, n)
	groups := []int{1, 2, 5, 12, 40}
	g := make([][]string, len(groups))
	for j := range g {
		g[j] = make([]string, n)
	}
	negZero := math.Copysign(0, -1)
	fOdd := []float64{math.NaN(), negZero, 0, math.Inf(1), math.Inf(-1)}
	iOdd := []int64{math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, -(1<<53 + 1), 1<<53 - 1}
	kOdd := []int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 512, math.MinInt64, math.MinInt64 + 1, 1 << 53, 1<<53 + 1}
	for r := 0; r < n; r++ {
		f[r] = rng.NormFloat64() * 100
		if rng.Intn(50) == 0 {
			f[r] = fOdd[rng.Intn(len(fOdd))]
		}
		i[r] = rng.Int63n(100_000) - 50_000
		if rng.Intn(100) == 0 {
			i[r] = iOdd[rng.Intn(len(iOdd))]
		}
		e[r] = 7
		x[r] = rng.NormFloat64() * 10
		if rng.Intn(40) == 0 {
			x[r] = fOdd[rng.Intn(len(fOdd))]
		}
		k[r] = rng.Int63n(1000)
		if rng.Intn(30) == 0 {
			k[r] = kOdd[rng.Intn(len(kOdd))]
		}
		z[r] = []float64{negZero, 0, math.NaN()}[rng.Intn(3)]
		s[r] = rng.Int63n(2001) - 1000
		for j, card := range groups {
			g[j][r] = fmt.Sprintf("g%02d", rng.Intn(card))
		}
	}
	schema := storage.Schema{
		{Name: "f", Type: storage.TFloat}, {Name: "i", Type: storage.TInt}, {Name: "e", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat}, {Name: "k", Type: storage.TInt}, {Name: "z", Type: storage.TFloat},
		{Name: "s", Type: storage.TInt},
	}
	cols := []storage.Column{
		storage.NewFloatColumn(f), storage.NewIntColumn(i), storage.NewIntColumn(e),
		storage.NewFloatColumn(x), storage.NewIntColumn(k), storage.NewFloatColumn(z), storage.NewIntColumn(s),
	}
	for j, card := range groups {
		schema = append(schema, storage.Field{Name: fmt.Sprintf("g%d", card), Type: storage.TString})
		cols = append(cols, storage.EncodeDict(g[j]))
	}
	q, qf := make([]int64, n), make([]float64, n)
	for r := range q {
		q[r] = 1 + rng.Int63n(9)
		qf[r] = float64(1 + rng.Intn(9))
		if rng.Intn(20) == 0 {
			qf[r] = math.NaN()
		}
	}
	schema = append(schema, storage.Field{Name: "q", Type: storage.TInt}, storage.Field{Name: "qf", Type: storage.TFloat})
	cols = append(cols, storage.NewIntColumn(q), storage.NewFloatColumn(qf))
	tab, err := storage.FromColumns("t", schema, cols)
	if err != nil {
		panic(err)
	}
	return tab
}

// cellsItems are the select lists the cells queries ask: COUNT(*), COUNT,
// SUM, AVG, MIN and MAX over one input each — a FLOAT with NULLs and
// infinities, an INT whose extremes tie in float64, an INT whose sums are
// exact, a FLOAT of signed zeros — and COUNT(*) alone.
var cellsItems = [][]SelectItem{
	{{Col: "*", Agg: AggCount}, {Col: "x", Agg: AggCount}, {Col: "x", Agg: AggSum},
		{Col: "x", Agg: AggAvg}, {Col: "x", Agg: AggMin}, {Col: "x", Agg: AggMax}},
	{{Col: "k", Agg: AggMin}, {Col: "k", Agg: AggMax}, {Col: "k", Agg: AggCount}},
	{{Col: "s", Agg: AggSum}, {Col: "s", Agg: AggAvg}, {Col: "s", Agg: AggMin}, {Col: "*", Agg: AggCount}},
	{{Col: "z", Agg: AggMin}, {Col: "z", Agg: AggMax}, {Col: "z", Agg: AggCount}},
	{{Col: "*", Agg: AggCount}},
}

// cellsQueries returns the aggregates bucket cells serve — COUNT(*),
// COUNT, SUM, AVG, MIN and MAX over one input each, scalar and grouped by
// every dictionary key — behind ranges on f, i and e: spans of 2 to 256
// buckets' worth of rows at several places, one-sided bounds, the whole
// column, an INT column against FLOAT constants, and a range of the
// all-equal column, which has no interior. Two-range WHEREs add a leaf on
// q, qf or e to a range on f or i — after it, and for the first two leaves
// before it too: lower bounds, two-sided ranges, bounds past the values
// (q < 10 needs the open last bucket settled, q >= 10 drops it), NULL keys
// on qf; they are asked scalar, and grouped once. never holds the WHEREs that
// must never reach the cells: the all-equal column's range, a leaf that
// cuts a bucket of the wide i or of qf (whose buckets can hold values
// between the integers), and the range on both wide columns.
func cellsQueries(tab *storage.Table) (out []Query, never map[*expr.Pred]bool) {
	quantiles := func(col string) func(q float64) storage.Value {
		c, _ := tab.ColumnByName(col)
		var vs []storage.Value
		for r := 0; r < c.Len(); r++ {
			if v := c.Value(r); !(v.Typ == storage.TFloat && math.IsNaN(v.F)) {
				vs = append(vs, v)
			}
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a].Compare(vs[b]) < 0 })
		return func(q float64) storage.Value { return vs[min(int(q*float64(len(vs))), len(vs)-1)] }
	}
	var wheres []*expr.Pred
	for _, col := range []string{"f", "i"} {
		q := quantiles(col)
		for _, w := range []float64{2.2, 2.6, 3.1, 4, 9, 40, 130, 255} {
			for _, at := range []float64{0, 0.3, 0.61} {
				lo := at * (256 - w) / 256
				wheres = append(wheres, expr.And(
					expr.Cmp(col, expr.GE, q(lo)), expr.Cmp(col, expr.LT, q(lo+w/256))))
			}
		}
		wheres = append(wheres, expr.Cmp(col, expr.LT, q(0.7)), expr.Cmp(col, expr.GT, q(0.05)))
	}
	flat := expr.Between("e", storage.Int(0), storage.Int(100))
	wheres = append(wheres,
		expr.Cmp("f", expr.GE, storage.Float(math.Inf(-1))),
		expr.Cmp("i", expr.GE, storage.Int(math.MinInt64)),
		expr.Between("i", storage.Float(-20_000.5), storage.Float(30_000.5)),
		flat)
	never = map[*expr.Pred]bool{flat: true}
	var two []*expr.Pred // two-range WHEREs
	iq := quantiles("i")
	cut := storage.Int(iq(0.5).I + 1) // inside a bucket of ~400 integers
	for _, col := range []string{"f", "i"} {
		q := quantiles(col)
		ranges := make([]*expr.Pred, 3)
		for j, w := range []float64{4, 40, 130} {
			ranges[j] = expr.And(expr.Cmp(col, expr.GE, q(0.3*(256-w)/256)), expr.Cmp(col, expr.LT, q((0.3*(256-w)+w)/256)))
		}
		for j, leaf := range []*expr.Pred{
			expr.Cmp("q", expr.GE, storage.Int(3)),
			expr.Cmp("q", expr.GE, storage.Int(1)),
			expr.Cmp("q", expr.GE, storage.Int(10)),
			expr.Cmp("q", expr.LT, storage.Int(10)),
			expr.Cmp("q", expr.LE, storage.Float(9.5)),
			expr.And(expr.Cmp("q", expr.GE, storage.Int(2)), expr.Cmp("q", expr.LT, storage.Int(5))),
			expr.And(expr.Cmp("q", expr.GE, storage.Int(4)), expr.Cmp("q", expr.LT, storage.Int(5))),
			expr.Cmp("qf", expr.GE, storage.Float(3)),
			expr.And(expr.Cmp("qf", expr.GE, storage.Int(2)), expr.Cmp("qf", expr.LT, storage.Int(7))),
			expr.Cmp("e", expr.GE, storage.Int(7)),
			expr.Cmp("e", expr.LT, storage.Int(7)),
		} {
			a := ranges[j%3]
			two = append(two, expr.And(a, leaf))
			if j < 2 {
				two = append(two, expr.And(leaf, a))
			}
		}
		for j, leaf := range []*expr.Pred{
			expr.Cmp("qf", expr.GE, storage.Float(2.5)),
			expr.Cmp("i", expr.GE, cut),
		} {
			if leaf.Col != col {
				cuts := expr.And(ranges[j], leaf)
				two, never[cuts] = append(two, cuts), true
			}
		}
	}
	for w, where := range wheres {
		for j, sel := range cellsItems {
			out = append(out, Query{Select: sel, Where: where})
			g := []string{"g1", "g2", "g5", "g12", "g40"}[(w+j)%5]
			out = append(out, Query{Select: append([]SelectItem{{Col: g}}, sel...), GroupBy: []string{g}, Where: where})
		}
	}
	for w, where := range two { // scalar, and grouped once: that never reaches the cells
		for _, sel := range cellsItems {
			out = append(out, Query{Select: sel, Where: where})
		}
		g := []string{"g1", "g2", "g5", "g12"}[w%4]
		out = append(out, Query{Select: append([]SelectItem{{Col: g}}, cellsItems[w%len(cellsItems)]...), GroupBy: []string{g}, Where: where})
	}
	return out, never
}

// requireCellsMatch holds got to want bit for bit — counts, MIN/MAX values
// down to the sign of a zero and which of two int64s that tie in float64,
// SUM/AVG, group keys and their order.
func requireCellsMatch(t *testing.T, label string, want, got *storage.Table) {
	t.Helper()
	if want.Schema().String() != got.Schema().String() || want.NumRows() != got.NumRows() {
		t.Fatalf("%s: shape want=%s/%d got=%s/%d", label, want.Schema(), want.NumRows(), got.Schema(), got.NumRows())
	}
	for c := range want.Schema() {
		for r := 0; r < want.NumRows(); r++ {
			a, b := want.Column(c).Value(r), got.Column(c).Value(r)
			if a.Typ == b.Typ && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F) {
				continue
			}
			t.Fatalf("%s: cell [%d,%d] (%s) scan=%v cells=%v", label, r, c, want.Schema()[c].Name, a, b)
		}
	}
}

// cellSpan returns the interior buckets a traced query's scan span says
// the bucket cells served, 0 for none.
func cellSpan(root *trace.SpanJSON) int64 {
	if c := childSpan(root, "scan"); c != nil {
		v, _ := c.Attrs["bucket_cells"].(int64)
		return v
	}
	return 0
}

// childSpan returns the root's first child of that name, nil for none.
func childSpan(root *trace.SpanJSON, name string) *trace.SpanJSON {
	for _, c := range root.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// wholeCells returns the column a traced query with no WHERE folded every
// bucket of, "" when its cells span is missing or not a whole-column one.
func wholeCells(root *trace.SpanJSON) string {
	if c := childSpan(root, "cells"); c != nil && c.Attrs["range"] == "all" {
		col, _ := c.Attrs["col"].(string)
		return col
	}
	return ""
}

// TestBucketCellsMatchScan runs every cells-shaped query with the value
// index off (disableIndex: every morsel scanned) and on, where the bucket
// cells answer the interior, at one and four workers and three morsel
// sizes, and holds the two answers to requireCellsMatch. The interiors
// served must run from one bucket to 254, and every scalar two-range
// WHERE must reach the cells; the WHEREs cellsQueries marks never, the
// 40-code key, which breaks the size rule, and a dict-grouped two-range
// WHERE must never reach them. The same item sets with no WHERE, scalar
// and grouped by every key, must fold every bucket of a column: i, as f,
// the first numeric column, holds NULLs — and under the 40-code key e,
// the all-equal column, whose two live buckets pass the size rule where
// i's 256 do not.
func TestBucketCellsMatchScan(t *testing.T) {
	defer func() { disableIndex = false }()
	tab := cellsTable(rand.New(rand.NewSource(51)), 60_000)
	served := map[int64]bool{}
	twoRange := map[*expr.Pred]bool{} // scalar two-range WHEREs: reached the cells?
	qs, never := cellsQueries(tab)
	for _, sel := range cellsItems {
		qs = append(qs, Query{Select: sel})
		for _, g := range []string{"g1", "g2", "g5", "g12", "g40"} {
			qs = append(qs, Query{Select: append([]SelectItem{{Col: g}}, sel...), GroupBy: []string{g}})
		}
	}
	for _, q := range qs {
		ivs, _ := expr.Intervals(tab.Schema(), q.Where)
		if len(ivs) == 2 && len(q.GroupBy) == 0 && !never[q.Where] {
			twoRange[q.Where] = twoRange[q.Where] || false
		}
		for _, opt := range []ExecOptions{
			{Parallelism: 1, MorselSize: 64}, {Parallelism: 1, MorselSize: 1024}, {Parallelism: 1, MorselSize: 16384},
			{Parallelism: 4, MorselSize: 64}, {Parallelism: 4, MorselSize: 1024}, {Parallelism: 4, MorselSize: 16384},
		} {
			label := fmt.Sprintf("P%d m%d: %s", opt.Parallelism, opt.MorselSize, q)
			disableIndex = true
			want, wantErr := ExecuteOpts(tab, q, opt)
			disableIndex = false
			got, js, err := tracedExec(tab, q, opt)
			if wantErr != nil || err != nil {
				t.Fatalf("%s: scan=%v cells=%v", label, wantErr, err)
			}
			requireCellsMatch(t, label, want, got)
			b := cellSpan(js)
			grouped := len(q.GroupBy) > 0
			if q.Where == nil {
				col := "i"
				if grouped && q.GroupBy[0] == "g40" {
					col = "e"
				}
				if got := wholeCells(js); got != col || b == 0 {
					t.Fatalf("%s: folded %d buckets of %q; want every bucket of %s", label, b, got, col)
				}
				continue
			}
			if b > 0 && (never[q.Where] || grouped && (q.GroupBy[0] == "g40" || len(ivs) == 2)) {
				t.Fatalf("%s: %d interior buckets served; want none", label, b)
			}
			if b > 0 && len(ivs) == 2 {
				twoRange[q.Where] = true
			}
			served[b] = true
		}
	}
	for w, ok := range twoRange {
		if !ok {
			t.Errorf("%s: never reached the cells", w)
		}
	}
	if !served[1] || !served[254] {
		var seen []int64
		for b := range served {
			seen = append(seen, b)
		}
		sort.Slice(seen, func(a, b int) bool { return seen[a] < seen[b] })
		t.Fatalf("interior sizes served %v; want 1 through 254", seen)
	}
}

// TestBucketCellsScanAccounting is TestIndexScanAccounting's twin on the
// cells path: Scanned counts the candidates of the edge buckets'
// sub-buckets holding a bound plus their matches, and nothing visits the
// rows of the interior or of the edges' sub-cells; rows_out still counts
// every matching row, the scan span names the interior buckets served and
// the edge candidates, the cells span the sub-cells folded and the edge
// rows refined, and CellQueries counts the query once.
func TestBucketCellsScanAccounting(t *testing.T) {
	tab := indexTable(rand.New(rand.NewSource(44)), 40_000)
	q := Query{Select: []SelectItem{{Col: "*", Agg: AggCount}}, Where: expr.Between("k", storage.Int(-20_000), storage.Int(15_000))}
	var c Counters
	opt := ExecOptions{Parallelism: 1, MorselSize: 1024, Counters: &c}
	res, js, err := tracedExec(tab, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	var scan *trace.SpanJSON
	for _, c := range js.Children {
		if c.Name == "scan" {
			scan = c
		}
	}
	count := res.Column(0).Value(0).I
	cells, vi, _, err := tab.BucketCells("k", "", "", 1024)
	if cells == nil || err != nil {
		t.Fatalf("no cells: %v", err)
	}
	ivs, _ := expr.Intervals(tab.Schema(), q.Where)
	bl, bh := bucketRun(vi.ValueBuckets, ivs[0])
	lo, _, err := cells.Sub(bl)
	if err != nil {
		t.Fatal(err)
	}
	hi, _, err := cells.Sub(bh)
	if err != nil {
		t.Fatal(err)
	}
	above := lo.Above(lo.Part(vi.IntSub(bl, ivs[0].ILo)))
	below := hi.Below(hi.Part(vi.IntSub(bh, ivs[0].IHi)))
	interior := int64(0) // the rows of the interior's cells and the edges' sub-cells
	for _, c := range slices.Concat(cells.Interior(bl, bh), above, below) {
		interior += int64(c.Rows)
	}
	n := func(k string) int64 { v, _ := scan.Attrs[k].(int64); return v }
	edges := n("edge_candidates")
	csp := childSpan(js, "cells")
	switch {
	case csp == nil || csp.Attrs["edge_rows"] != edges || csp.Attrs["sub_cells"] != int64(len(above)+len(below)) || len(above)+len(below) == 0:
		t.Fatalf("cells span %+v: want edge_rows %d and %d sub-cells", csp, edges, len(above)+len(below))
	case n("bucket_cells") != int64(bh-bl-1) || bh-bl < 10:
		t.Fatalf("scan span %+v: want %d interior buckets", scan.Attrs, bh-bl-1)
	case n("rows_out") != count || interior == 0 || interior >= count:
		t.Fatalf("rows_out %d, count %d, interior rows %d", n("rows_out"), count, interior)
	case edges != n("index_candidates") || edges < count-interior || edges > int64(tab.NumRows())/10:
		t.Fatalf("edge candidates %d for %d edge matches", edges, count-interior)
	case c.Scanned.Load() != edges+count-interior:
		t.Fatalf("scanned %d; want edge candidates %d + edge matches %d", c.Scanned.Load(), edges, count-interior)
	case c.CellQueries.Load() != 1:
		t.Fatalf("CellQueries %d; want 1", c.CellQueries.Load())
	}
	if morsels := int64(storage.NumChunks(tab.NumRows(), 1024)); c.IndexMorsels.Load() != morsels {
		t.Fatalf("index served %d morsels of %d", c.IndexMorsels.Load(), morsels)
	}
}

// TestWholeCellsScanAccounting is TestBucketCellsScanAccounting's twin
// for an aggregate with no WHERE: it folds every bucket of k (x, the first
// numeric column, holds NULLs), so Scanned stays 0, every morsel is
// index-skipped — there are no edge buckets — rows_out counts every row,
// the scan span names every live bucket of k, the cells span says range
// "all", and CellQueries counts the query once.
func TestWholeCellsScanAccounting(t *testing.T) {
	tab := indexTable(rand.New(rand.NewSource(44)), 40_000)
	q := Query{Select: []SelectItem{{Col: "s"}, {Col: "*", Agg: AggCount}, {Col: "k", Agg: AggMax}}, GroupBy: []string{"s"}}
	var c Counters
	opt := ExecOptions{Parallelism: 1, MorselSize: 1024, Counters: &c}
	res, js, err := tracedExec(tab, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "no WHERE", want, res)
	cells, _, _, err := tab.BucketCells("k", "s", "k", 1024)
	if cells == nil || err != nil {
		t.Fatalf("no cells: %v", err)
	}
	live := int64(len(cells.Interior(-1, storage.NumBuckets)) / len(cells.Keys()))
	scan := childSpan(js, "scan")
	n := func(k string) int64 { v, _ := scan.Attrs[k].(int64); return v }
	morsels := int64(storage.NumChunks(tab.NumRows(), 1024))
	switch {
	case wholeCells(js) != "k":
		t.Fatalf("cells span %+v: want range all over k", childSpan(js, "cells"))
	case cells.Rows() != tab.NumRows() || n("bucket_cells") != live || live < 200:
		t.Fatalf("scan span %+v: want %d live buckets holding %d rows; the cells hold %d", scan.Attrs, live, tab.NumRows(), cells.Rows())
	case n("rows_out") != int64(tab.NumRows()) || n("edge_candidates") != 0 || n("index_candidates") != 0:
		t.Fatalf("scan span %+v: want every row out, no candidate", scan.Attrs)
	case n("index_skipped") != morsels || c.IndexMorsels.Load() != morsels:
		t.Fatalf("index skipped %d, served %d morsels of %d", n("index_skipped"), c.IndexMorsels.Load(), morsels)
	case c.Scanned.Load() != 0:
		t.Fatalf("scanned %d rows; want none", c.Scanned.Load())
	case c.CellQueries.Load() != 1:
		t.Fatalf("CellQueries %d; want 1", c.CellQueries.Load())
	}
}

// TestWholeCellsFallbacks covers how an aggregate with no WHERE picks the
// column whose every bucket it folds, and when it scans instead. A NULL
// the bounds' sample missed passes a column over once its built cells
// come up a row short, and the next column is taken; a trivially true
// WHERE is no WHERE; and a table whose numeric columns all hold NULLs or
// are run-coded scans every row.
func TestWholeCellsFallbacks(t *testing.T) {
	const n = 40_000
	rng := rand.New(rand.NewSource(52))
	a, b, c, r := make([]float64, n), make([]int64, n), make([]float64, n), make([]int64, n)
	s := make([]string, n)
	for i := range a {
		a[i], b[i], c[i] = rng.NormFloat64(), rng.Int63n(10_000), rng.NormFloat64()
		if rng.Intn(10) == 0 {
			c[i] = math.NaN()
		}
		r[i] = int64(i / 100)
		s[i] = []string{"red", "green", "blue"}[rng.Intn(3)]
	}
	a[1] = math.NaN() // one row the bounds' stride-3 sample skips
	schema := storage.Schema{{Name: "s", Type: storage.TString}, {Name: "a", Type: storage.TFloat}, {Name: "b", Type: storage.TInt}}
	tab, err := storage.FromColumns("t", schema, []storage.Column{storage.EncodeDict(s), storage.NewFloatColumn(a), storage.NewIntColumn(b)})
	if err != nil {
		t.Fatal(err)
	}
	opt := ExecOptions{Parallelism: 2, MorselSize: 1024}
	for _, where := range []*expr.Pred{nil, expr.True()} {
		q := Query{Select: []SelectItem{{Col: "s"}, {Col: "a", Agg: AggMin}, {Col: "*", Agg: AggCount}}, GroupBy: []string{"s"}, Where: where}
		got, js, err := tracedExec(tab, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, q.String(), want, got)
		if col := wholeCells(js); col != "b" || cellSpan(js) == 0 {
			t.Fatalf("%s: folded %d buckets of %q; want every bucket of b", q, cellSpan(js), col)
		}
	}
	if cells, _, built, _ := tab.BucketCells("a", "s", "a", 1024); built || cells == nil || cells.Rows() != n-1 {
		t.Fatalf("a's cells: built only now %v, or not holding all but the NULL row", built)
	}

	nulls, err := storage.FromColumns("t", storage.Schema{{Name: "s", Type: storage.TString}, {Name: "c", Type: storage.TFloat}, {Name: "r", Type: storage.TInt}},
		[]storage.Column{storage.EncodeDict(s), storage.NewFloatColumn(c), storage.EncodeRLE(r)})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{
		{Select: []SelectItem{{Col: "s"}, {Col: "c", Agg: AggSum}, {Col: "*", Agg: AggCount}}, GroupBy: []string{"s"}},
		{Select: []SelectItem{{Col: "*", Agg: AggCount}}},
	} {
		var c Counters
		o := opt
		o.Counters = &c
		got, js, err := tracedExec(nulls, q, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(nulls, q)
		if err != nil {
			t.Fatal(err)
		}
		requireCellsMatch(t, q.String(), want, got)
		if cellSpan(js) != 0 || childSpan(js, "cells") != nil || c.CellQueries.Load() != 0 || c.Scanned.Load() != n {
			t.Fatalf("%s: %d buckets folded, %d rows scanned; want a scan of all %d", q, cellSpan(js), c.Scanned.Load(), n)
		}
	}
}

// TestTwoRangeCellsScanAccounting is TestBucketCellsScanAccounting's twin
// for a two-range WHERE: the cells are keyed by the second range's column,
// g (the integers 0–8), and only the keys inside it are folded. Scanned
// counts the first range's edge candidates plus their matches, the scan
// span names the interior buckets and the keys folded, rows_out counts
// every matching row, and CellQueries counts the query once.
func TestTwoRangeCellsScanAccounting(t *testing.T) {
	tab := indexTable(rand.New(rand.NewSource(46)), 50_000)
	q := Query{Select: []SelectItem{{Col: "*", Agg: AggCount}, {Col: "x", Agg: AggSum}},
		Where: expr.And(expr.Between("k", storage.Int(-20_000), storage.Int(15_000)), expr.Cmp("g", expr.GE, storage.Int(3)))}
	var c Counters
	opt := ExecOptions{Parallelism: 1, MorselSize: 1024, Counters: &c}
	res, js, err := tracedExec(tab, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	disableIndex = true
	want, err := ExecuteOpts(tab, q, ExecOptions{Parallelism: 1, MorselSize: 1024})
	disableIndex = false
	if err != nil {
		t.Fatal(err)
	}
	requireCellsMatch(t, "two ranges", want, res)
	var scan, cellsSp *trace.SpanJSON
	for _, c := range js.Children {
		switch c.Name {
		case "scan":
			scan = c
		case "cells":
			cellsSp = c
		}
	}
	if cellsSp == nil || cellsSp.Attrs["col"] != "k" || cellsSp.Attrs["key"] != "g" {
		t.Fatalf("cells span %+v: want col k, key g", cellsSp)
	}
	count := res.Column(0).Value(0).I
	cells, vi, _, err := tab.BucketCells("k", "g", "x", 1024)
	if cells == nil || err != nil {
		t.Fatalf("no cells: %v", err)
	}
	ivs, _ := expr.Intervals(tab.Schema(), q.Where)
	bl, bh := bucketRun(vi.ValueBuckets, ivs[0])
	kl, kh, ok := keyRun(cells, ivs[1])
	interior, keys := int64(0), map[int32]bool{}
	for _, c := range cells.Interior(bl, bh) {
		if int(c.Group) >= kl && int(c.Group) <= kh {
			interior += int64(c.Rows)
			keys[c.Group] = true
		}
	}
	n := func(k string) int64 { v, _ := scan.Attrs[k].(int64); return v }
	edges := n("edge_candidates")
	switch {
	case !ok || len(keys) != 6 || n("cell_keys") != 6:
		t.Fatalf("keys [%d, %d] resolved %v, %d of them hold rows, span says %d; want g 3 to 8", kl, kh, ok, len(keys), n("cell_keys"))
	case n("bucket_cells") != int64(bh-bl-1) || bh-bl < 10:
		t.Fatalf("scan span %+v: want %d interior buckets", scan.Attrs, bh-bl-1)
	case n("rows_out") != count || interior == 0 || interior >= count:
		t.Fatalf("rows_out %d, count %d, interior rows %d", n("rows_out"), count, interior)
	case edges < count-interior || edges > int64(tab.NumRows())/10:
		t.Fatalf("edge candidates %d for %d edge matches", edges, count-interior)
	case c.Scanned.Load() != edges+count-interior:
		t.Fatalf("scanned %d; want edge candidates %d + edge matches %d", c.Scanned.Load(), edges, count-interior)
	case c.CellQueries.Load() != 1:
		t.Fatalf("CellQueries %d; want 1", c.CellQueries.Load())
	}
}

// TestBucketCellsBuiltOnceUnderConcurrentQueries sends a fresh table's
// first queries of one cell set from many goroutines at once: drill-downs
// grouped by a dictionary column, scalar ones behind a second range, and a
// query with no WHERE raced against a drill-down over the same (column,
// key, input) triple — k, the first numeric column without NULLs. One of
// them builds the cells, under its "cells" span, every one of them folds
// them, and all of them answer as Execute does.
func TestBucketCellsBuiltOnceUnderConcurrentQueries(t *testing.T) {
	grouped := []SelectItem{{Col: "s"}, {Col: "x", Agg: AggMax}, {Col: "*", Agg: AggCount}}
	for _, tc := range []struct {
		col string // the range column of the one set built
		qs  []Query
	}{
		{"x", []Query{{Select: grouped, GroupBy: []string{"s"}, Where: expr.Between("x", storage.Float(-40), storage.Float(60))}}},
		{"x", []Query{{Select: []SelectItem{{Col: "x", Agg: AggMin}, {Col: "*", Agg: AggCount}},
			Where: expr.And(expr.Between("x", storage.Float(-40), storage.Float(60)), expr.Cmp("g", expr.LT, storage.Int(6)))}}},
		{"k", []Query{{Select: grouped, GroupBy: []string{"s"}},
			{Select: grouped, GroupBy: []string{"s"}, Where: expr.Between("k", storage.Int(-20_000), storage.Int(15_000))}}},
	} {
		tab := indexTable(rand.New(rand.NewSource(45)), 50_000)
		want := make([]*storage.Table, len(tc.qs))
		for i, q := range tc.qs {
			var err error
			if want[i], err = Execute(tab, q); err != nil {
				t.Fatal(err)
			}
		}
		const clients = 12
		got, js := make([]*storage.Table, clients), make([]*trace.SpanJSON, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if got[c], js[c], err = tracedExec(tab, tc.qs[c%len(tc.qs)], ExecOptions{Parallelism: 2, MorselSize: 2048}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		builds, folded := 0, 0
		for c := range got {
			if got[c] == nil {
				t.FailNow()
			}
			requireIdentical(t, tc.qs[c%len(tc.qs)].String(), want[c%len(tc.qs)], got[c])
			if cellSpan(js[c]) > 0 {
				folded++
			}
			for _, sp := range js[c].Children {
				if sp.Name == "cells" && sp.Attrs["col"] == tc.col && sp.Attrs["built"] == true {
					builds++
				}
			}
		}
		if folded != clients || builds != 1 {
			t.Fatalf("%v: %d of %d queries folded cells, %d built them; want all, and one", tc.qs, folded, clients, builds)
		}
	}
}

// TestExecuteSelCellsMatchRows holds ExecuteSel over a range's Buckets
// (RangeBuckets) plus the rows of its edge buckets inside the range — what
// cracked mode hands over — to ExecuteCtx, exact mode's plan, for every
// one-range query of cellsQueries and for projections and two-input
// aggregates behind the same ranges, at one worker and four: the Buckets
// fold the interior's cells exactly when exact mode does, and the answers
// are bit for bit the same, a FLOAT SUM/AVG included, but for a grouped
// one at four workers, whose per-worker accumulators follow scheduling.
// The same Buckets with their interior read as rows, not cells, match
// exact mode with the cells off, bit for bit too.
func TestExecuteSelCellsMatchRows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tab := cellsTable(rng, 6000)
	all, _ := cellsQueries(tab)
	var qs []Query
	for _, q := range all {
		if ivs, rest := expr.Intervals(tab.Schema(), q.Where); rest != "" || len(ivs) != 1 {
			continue
		}
		qs = append(qs, q,
			Query{Select: []SelectItem{{Col: "k"}, {Col: "x"}}, Where: q.Where},
			Query{Select: []SelectItem{{Col: "x", Agg: AggSum}, {Col: "s", Agg: AggSum}}, Where: q.Where})
	}
	folded := 0
	for _, q := range qs {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("%s par %d", q, par)
			opt := ExecOptions{Parallelism: par, MorselSize: 512}
			ctx, root := trace.Start(context.Background(), "q")
			want, err := ExecuteCtx(ctx, tab, q, opt)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			b, err := RangeBuckets(context.Background(), tab, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if took := cellSpan(root.JSON()) > 0; took != (b.ix.cells != nil) {
				t.Fatalf("%s: exact mode folds cells %v, the Buckets %v", label, took, b.ix.cells != nil)
			}
			if b.ix.cells != nil {
				folded++
			}
			sel := edgeRows(t, tab, b, q.Where)
			got, err := ExecuteSel(context.Background(), tab, b, sel, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			same := requireIdentical
			if par > 1 && len(q.GroupBy) > 0 {
				same = func(t *testing.T, label string, want, got *storage.Table) {
					requireCellsMatch(t, label, want, got)
				}
			}
			same(t, label, want, got)
			if b.ix.cells == nil {
				continue
			}
			disableBucketCells = true
			want, err = ExecuteCtx(context.Background(), tab, q, opt)
			disableBucketCells = false
			if err != nil {
				t.Fatal(err)
			}
			rows := Buckets{rowIndex{col: b.ix.col, vi: b.ix.vi, bl: b.ix.bl, bh: b.ix.bh}}
			if got, err = ExecuteSel(context.Background(), tab, rows, sel, q, opt); err != nil {
				t.Fatal(err)
			}
			same(t, label+" interior rows", want, got)
		}
	}
	if folded == 0 {
		t.Fatal("no query folded cells")
	}
	// No rows at all: an empty group set, and the scalar answer of none.
	q := Query{Select: cellsItems[0]}
	want, _ := ExecuteSel(context.Background(), tab, Buckets{}, nil, q, ExecOptions{})
	got, err := ExecuteCtx(context.Background(), tab, Query{Select: cellsItems[0], Where: expr.Cmp("f", expr.LT, storage.Float(math.Inf(-1)))}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "no rows", want, got)
}

// edgeRows returns the rows inside where of b's edge buckets, ascending:
// every row inside it when b has no value index.
func edgeRows(t *testing.T, tab *storage.Table, b Buckets, where *expr.Pred) []int {
	t.Helper()
	in, err := expr.FilterRange(tab, where, 0, tab.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if b.Index() == nil {
		return in
	}
	edge := map[int]bool{}
	if bl, bh := b.Run(); bl <= bh {
		vi := b.Index()
		for m := range vi.Morsels() {
			for _, k := range []int{bl, bh} {
				for _, r := range vi.Candidates(m, k, k, nil) {
					edge[r] = true
				}
			}
		}
	}
	var out []int
	for _, r := range in {
		if edge[r] {
			out = append(out, r)
		}
	}
	return out
}

// cellShapeOf is the cell-shape decision a plan makes: a projection has
// none, an aggregation the typed sinks refuse has none, and cellShape
// judges the rest.
func cellShapeOf(t *storage.Table, q Query) (group, input, reason string) {
	if !q.HasAggregates() && len(q.GroupBy) == 0 {
		return "", "", "projection"
	}
	ak, why := compileAggKernel(t, q)
	if ak == nil {
		return "", "", why
	}
	return cellShape(ak, q)
}

// TestCellShapeReasons: the cell shape names the group column and the one
// input of every shape cells answer, and says why of every other; and
// ExecuteSel refuses a range's cells for a query they cannot answer.
func TestCellShapeReasons(t *testing.T) {
	tab := cellsTable(rand.New(rand.NewSource(42)), 100)
	plain, err := storage.FromColumns("p", storage.Schema{{Name: "s", Type: storage.TString}, {Name: "x", Type: storage.TFloat}},
		[]storage.Column{storage.NewStringColumn(make([]string, 2)), storage.NewFloatColumn(make([]float64, 2))})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(col string) SelectItem { return SelectItem{Col: col, Agg: AggSum} }
	for _, tc := range []struct {
		tab                  *storage.Table
		q                    Query
		group, input, reason string
	}{
		{tab, Query{Select: []SelectItem{{Col: "*", Agg: AggCount}}}, "", "", ""},
		{tab, Query{Select: []SelectItem{{Col: "g5"}, sum("x"), {Col: "x", Agg: AggMax}}, GroupBy: []string{"g5"}}, "g5", "x", ""},
		{tab, Query{Select: []SelectItem{sum("s"), {Col: "k", Agg: AggCount}}}, "", "s", ""},
		{tab, Query{Select: []SelectItem{{Col: "x"}}}, "", "", "projection"},
		{tab, Query{Select: []SelectItem{sum("x"), sum("s")}}, "", "", "multi-input"},
		{tab, Query{Select: []SelectItem{{Col: "q"}, sum("x")}, GroupBy: []string{"q"}}, "", "", "group not dict-coded"},
		{tab, Query{Select: []SelectItem{{Col: "g1"}, {Col: "g5"}, sum("x")}, GroupBy: []string{"g1", "g5"}}, "", "", "multi-column group"},
		{plain, Query{Select: []SelectItem{{Col: "s"}, sum("x")}, GroupBy: []string{"s"}}, "", "", "group column type"},
	} {
		group, input, reason := cellShapeOf(tc.tab, tc.q)
		if group != tc.group || input != tc.input || reason != tc.reason {
			t.Errorf("%s: cell shape = %q, %q, %q; want %q, %q, %q", tc.q, group, input, reason, tc.group, tc.input, tc.reason)
		}
	}
	where := expr.And(expr.Cmp("f", expr.GE, storage.Float(-100)), expr.Cmp("f", expr.LT, storage.Float(100)))
	tab = cellsTable(rand.New(rand.NewSource(43)), 6000)
	b, err := RangeBuckets(context.Background(), tab, Query{Select: []SelectItem{sum("x")}, Where: where}, ExecOptions{MorselSize: 64})
	if err != nil || b.ix.cells == nil {
		t.Fatalf("a wide range's Buckets: %v, cells %v", err, b.ix.cells != nil)
	}
	if _, err := ExecuteSel(context.Background(), tab, b, nil, Query{Select: []SelectItem{sum("x"), sum("s")}, Where: where}, ExecOptions{}); err == nil {
		t.Error("ExecuteSel took cells for a query cells cannot answer")
	}
}
