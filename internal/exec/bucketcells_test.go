package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
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
// small INT s whose sums stay exact in float64 in any association, and
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
// INT SUM/AVG, group keys and their order — except a finite FLOAT SUM/AVG,
// which may differ by reassociation within sumSlack.
func requireCellsMatch(t *testing.T, label string, tab *storage.Table, q Query, want, got *storage.Table) {
	t.Helper()
	if want.Schema().String() != got.Schema().String() || want.NumRows() != got.NumRows() {
		t.Fatalf("%s: shape want=%s/%d got=%s/%d", label, want.Schema(), want.NumRows(), got.Schema(), got.NumRows())
	}
	slack := sumSlack(tab, q)
	for c, item := range q.Select {
		in, _ := tab.ColumnByName(item.Col)
		reassociates := in != nil && in.Type() == storage.TFloat && (item.Agg == AggSum || item.Agg == AggAvg)
		for r := 0; r < want.NumRows(); r++ {
			a, b := want.Column(c).Value(r), got.Column(c).Value(r)
			if a.Typ == b.Typ && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F) {
				continue
			}
			finite := !math.IsInf(a.F, 0) && !math.IsNaN(a.F) && !math.IsInf(b.F, 0) && !math.IsNaN(b.F)
			if reassociates && a.Typ == b.Typ && finite && math.Abs(a.F-b.F) <= slack[c] {
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
			requireCellsMatch(t, label, tab, q, want, got)
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
// cells path: Scanned counts the edge buckets' candidates plus their
// matches, and nothing visits the interior's rows; rows_out still counts
// every matching row, the scan span names the interior buckets served and
// the edge candidates, and CellQueries counts the query once.
func TestBucketCellsScanAccounting(t *testing.T) {
	tab := indexTable(rand.New(rand.NewSource(44)), 40_000)
	q := Query{Select: []SelectItem{{Col: "*", Agg: AggCount}}, Where: expr.Between("k", storage.Int(-20_000), storage.Int(15_000))}
	var scanned, served, cellQueries atomic.Int64
	opt := ExecOptions{Parallelism: 1, MorselSize: 1024, Scanned: &scanned, IndexMorsels: &served, CellQueries: &cellQueries}
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
	interior := int64(0)
	for _, c := range cells.Interior(bl, bh) {
		interior += int64(c.Rows)
	}
	n := func(k string) int64 { v, _ := scan.Attrs[k].(int64); return v }
	edges := n("edge_candidates")
	switch {
	case n("bucket_cells") != int64(bh-bl-1) || bh-bl < 10:
		t.Fatalf("scan span %+v: want %d interior buckets", scan.Attrs, bh-bl-1)
	case n("rows_out") != count || interior == 0 || interior >= count:
		t.Fatalf("rows_out %d, count %d, interior rows %d", n("rows_out"), count, interior)
	case edges != n("index_candidates") || edges < count-interior || edges > int64(tab.NumRows())/10:
		t.Fatalf("edge candidates %d for %d edge matches", edges, count-interior)
	case scanned.Load() != edges+count-interior:
		t.Fatalf("scanned %d; want edge candidates %d + edge matches %d", scanned.Load(), edges, count-interior)
	case cellQueries.Load() != 1:
		t.Fatalf("CellQueries %d; want 1", cellQueries.Load())
	}
	if morsels := int64(storage.NumChunks(tab.NumRows(), 1024)); served.Load() != morsels {
		t.Fatalf("index served %d morsels of %d", served.Load(), morsels)
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
	var scanned, served, cellQueries atomic.Int64
	opt := ExecOptions{Parallelism: 1, MorselSize: 1024, Scanned: &scanned, IndexMorsels: &served, CellQueries: &cellQueries}
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
	case n("index_skipped") != morsels || served.Load() != morsels:
		t.Fatalf("index skipped %d, served %d morsels of %d", n("index_skipped"), served.Load(), morsels)
	case scanned.Load() != 0:
		t.Fatalf("scanned %d rows; want none", scanned.Load())
	case cellQueries.Load() != 1:
		t.Fatalf("CellQueries %d; want 1", cellQueries.Load())
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
		var scanned, cellQueries atomic.Int64
		o := opt
		o.Scanned, o.CellQueries = &scanned, &cellQueries
		got, js, err := tracedExec(nulls, q, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(nulls, q)
		if err != nil {
			t.Fatal(err)
		}
		requireCellsMatch(t, q.String(), nulls, q, want, got)
		if cellSpan(js) != 0 || childSpan(js, "cells") != nil || cellQueries.Load() != 0 || scanned.Load() != n {
			t.Fatalf("%s: %d buckets folded, %d rows scanned; want a scan of all %d", q, cellSpan(js), scanned.Load(), n)
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
	var scanned, cellQueries atomic.Int64
	opt := ExecOptions{Parallelism: 1, MorselSize: 1024, Scanned: &scanned, CellQueries: &cellQueries}
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
	requireCellsMatch(t, "two ranges", tab, q, want, res)
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
	case scanned.Load() != edges+count-interior:
		t.Fatalf("scanned %d; want edge candidates %d + edge matches %d", scanned.Load(), edges, count-interior)
	case cellQueries.Load() != 1:
		t.Fatalf("CellQueries %d; want 1", cellQueries.Load())
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
