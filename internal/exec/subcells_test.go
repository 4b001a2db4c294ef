package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/storage"
	"dex/internal/trace"
)

// subTable is the table the edges' second level is tested on, 2^17 rows:
// enough that a bucket's 512 rows allow 8 sub-buckets beside one key, 4
// beside 5, 2 beside 12 and none beside 20, where the fuzzers' tables
// never reach a second level. Range columns: a FLOAT f with NULLs and a
// heavy duplicate, 42, filling a bucket of its own, and an INT i whose 0
// does the same. Inputs: a FLOAT x of quarter steps, so MIN/MAX ties are
// everywhere, with NULLs and both zeros; an INT k whose extremes tie in
// float64. Keys: dictionary columns of 5, 12 and 20 codes, and q, the
// integers 1–9, which a second range keys the cells by.
func subTable(rng *rand.Rand, n int) *storage.Table {
	f, i, x, k, q := make([]float64, n), make([]int64, n), make([]float64, n), make([]int64, n), make([]int64, n)
	cards := []int{5, 12, 20}
	g := make([][]string, len(cards))
	for j := range g {
		g[j] = make([]string, n)
	}
	kOdd := []int64{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	for r := 0; r < n; r++ {
		f[r] = rng.NormFloat64() * 100
		switch rng.Intn(50) {
		case 0:
			f[r] = math.NaN()
		case 1, 2, 3:
			f[r] = 42
		}
		i[r] = rng.Int63n(200_000) - 100_000
		if rng.Intn(30) == 0 {
			i[r] = 0
		}
		x[r] = float64(rng.Intn(41)-20) / 4
		switch rng.Intn(30) {
		case 0:
			x[r] = math.NaN()
		case 1:
			x[r] = math.Copysign(0, -1)
		}
		k[r] = rng.Int63n(1000)
		if rng.Intn(40) == 0 {
			k[r] = kOdd[rng.Intn(len(kOdd))]
		}
		q[r] = 1 + rng.Int63n(9)
		for j, card := range cards {
			g[j][r] = fmt.Sprintf("g%02d", rng.Intn(card))
		}
	}
	schema := storage.Schema{{Name: "f", Type: storage.TFloat}, {Name: "i", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat}, {Name: "k", Type: storage.TInt}, {Name: "q", Type: storage.TInt}}
	cols := []storage.Column{storage.NewFloatColumn(f), storage.NewIntColumn(i),
		storage.NewFloatColumn(x), storage.NewIntColumn(k), storage.NewIntColumn(q)}
	for j, card := range cards {
		schema = append(schema, storage.Field{Name: fmt.Sprintf("g%d", card), Type: storage.TString})
		cols = append(cols, storage.EncodeDict(g[j]))
	}
	tab, err := storage.FromColumns("t", schema, cols)
	if err != nil {
		panic(err)
	}
	return tab
}

// distinctValues returns col's distinct non-NULL values, ascending.
func distinctValues(tab *storage.Table, col string) []storage.Value {
	c, _ := tab.ColumnByName(col)
	var vs []storage.Value
	for r := 0; r < c.Len(); r++ {
		if v := c.Value(r); !(v.Typ == storage.TFloat && math.IsNaN(v.F)) {
			vs = append(vs, v)
		}
	}
	slices.SortFunc(vs, func(a, b storage.Value) int { return a.Compare(b) })
	return slices.CompactFunc(vs, func(a, b storage.Value) bool { return a.Compare(b) == 0 })
}

// subBounds returns, per sub-bucket j of the bucket of col holding the
// value at quantile at of its distinct values vs, the least of vs in it —
// which, drawn from the same values as the sub-splits, mostly lies exactly
// on one — and its median value; j is the bound's sub-bucket.
func subBounds(t *testing.T, tab *storage.Table, col string, vs []storage.Value, at float64) (bounds []storage.Value, subs []int) {
	t.Helper()
	b, err := tab.ValueBuckets(col)
	if err != nil || b == nil {
		t.Fatal(col, err)
	}
	where := func(v storage.Value) (k, j int) {
		if v.Typ == storage.TFloat {
			k, _ = b.FloatRange(v.F, v.F)
			return k, b.FloatSub(k, v.F)
		}
		k, _ = b.IntRange(v.I, v.I)
		return k, b.IntSub(k, v.I)
	}
	bucket, _ := where(vs[int(at*float64(len(vs)))])
	bySub := map[int][]storage.Value{}
	for _, v := range vs {
		if k, j := where(v); k == bucket {
			bySub[j] = append(bySub[j], v)
		}
	}
	for j := 0; j < 8; j++ {
		if in := bySub[j]; len(in) > 0 {
			bounds, subs = append(bounds, in[0], in[len(in)/2]), append(subs, j, j)
		}
	}
	return bounds, subs
}

// subQueries returns the cells-shaped aggregates whose edges the second
// level cuts: ranges on f and i with the lower bound at every sub-bucket
// position of one bucket, on its sub-splits under >= and between them
// under >, and likewise the upper bound under < and <=; ranges with a bound
// in the heavy duplicate's bucket, 42 or 0, either side; each asked
// scalar, grouped by every other dictionary key, and with a second range
// on q, scalar. lower and upper hold the sub-buckets the bounds fall in.
func subQueries(t *testing.T, tab *storage.Table) (qs []Query, lower, upper map[int]bool) {
	lower, upper = map[int]bool{}, map[int]bool{}
	sels := [][]SelectItem{
		{{Col: "*", Agg: AggCount}, {Col: "x", Agg: AggCount}, {Col: "x", Agg: AggSum},
			{Col: "x", Agg: AggAvg}, {Col: "x", Agg: AggMin}, {Col: "x", Agg: AggMax}},
		{{Col: "k", Agg: AggMin}, {Col: "k", Agg: AggMax}, {Col: "k", Agg: AggSum}, {Col: "k", Agg: AggAvg}},
	}
	var wheres []*expr.Pred
	for _, col := range []string{"f", "i"} {
		vs := distinctValues(tab, col)
		los, ljs := subBounds(t, tab, col, vs, 0.2)
		his, hjs := subBounds(t, tab, col, vs, 0.8)
		for n, lo := range los {
			lower[ljs[n]] = true
			op := []expr.Op{expr.GE, expr.GT}[n%2]
			wheres = append(wheres, expr.And(expr.Cmp(col, op, lo), expr.Cmp(col, expr.LT, his[len(his)/2])))
		}
		for n, hi := range his {
			upper[hjs[n]] = true
			op := []expr.Op{expr.LT, expr.LE}[n%2]
			wheres = append(wheres, expr.And(expr.Cmp(col, expr.GE, los[len(los)/2]), expr.Cmp(col, op, hi)))
		}
		heavy := storage.Float(42)
		if col == "i" {
			heavy = storage.Int(0)
		}
		wheres = append(wheres,
			expr.And(expr.Cmp(col, expr.GE, heavy), expr.Cmp(col, expr.LT, his[0])),
			expr.And(expr.Cmp(col, expr.GE, los[0]), expr.Cmp(col, expr.LE, heavy)))
	}
	keys := []string{"", "g5", "g12", "g20"}
	for w, where := range wheres {
		sel := sels[w%len(sels)]
		for n, g := range keys {
			if g == "" {
				qs = append(qs, Query{Select: sel, Where: where})
				continue
			}
			if (w+n)%2 == 0 {
				qs = append(qs, Query{Select: append([]SelectItem{{Col: g}}, sel...), GroupBy: []string{g}, Where: where})
			}
		}
		qs = append(qs, Query{Select: sel, Where: expr.And(where, expr.Between("q", storage.Int(3), storage.Int(6)))})
	}
	return qs, lower, upper
}

// TestSubCellsMatchScanBitForBit runs every subQueries aggregate through
// exact mode's plan — the interior's cells, the edges' sub-cells and the
// rows of the two sub-buckets holding the bounds — at 1, 2, 4 and 8
// workers, and holds each answer bit for bit to the reference evaluator
// (Execute) and to the same query with the cells off (the candidate or
// scan path): counts, group order, MIN/MAX down to which of two tying
// rows, and every float SUM/AVG. The bounds must reach every sub-bucket
// of their buckets, and the levels folded must include 8, 4 and 2
// sub-buckets and a refused one. On every arm, the refused level's
// included, the rows refined (edge_rows) are exactly the rows of the
// index's sub-buckets holding the bounds — and the rest of the edges'
// parts too when a second range keys the cells — counted from the index's
// offsets and the values' sub-buckets, and the rows scanned are those plus
// the rows the sink takes: the parts' rows inside the range. At a level of
// two, each part's rest is three of the index's sub-buckets, listed unread.
func TestSubCellsMatchScanBitForBit(t *testing.T) {
	defer func() { disableBucketCells = false }()
	tab := subTable(rand.New(rand.NewSource(53)), 1<<17)
	qs, lower, upper := subQueries(t, tab)
	if len(lower) != 8 || len(upper) != 8 {
		t.Fatalf("bounds in sub-buckets %v and %v; want all eight each", lower, upper)
	}
	if raceEnabled { // the reference evaluator is slow under the detector; keep a twentieth
		thin := qs[:0]
		for i := 0; i < len(qs); i += 20 {
			thin = append(thin, qs[i])
		}
		qs = thin
	}
	var folded, refused, cut, merged int
	for _, q := range qs {
		want, err := Execute(tab, q)
		if err != nil {
			t.Fatal(err)
		}
		disableBucketCells = true
		scan, err := ExecuteOpts(tab, q, ExecOptions{Parallelism: 4, MorselSize: 4096})
		disableBucketCells = false
		if err != nil {
			t.Fatal(err)
		}
		requireCellsMatch(t, "cells off: "+q.String(), want, scan)
		for _, opt := range []ExecOptions{
			{Parallelism: 1}, {Parallelism: 2, MorselSize: 4096}, {Parallelism: 4, MorselSize: 4096}, {Parallelism: 8, MorselSize: 1024},
		} {
			label := fmt.Sprintf("P%d m%d: %s", opt.Parallelism, opt.MorselSize, q)
			var c Counters
			opt.Counters = &c
			got, js, err := tracedExec(tab, q, opt)
			if err != nil {
				t.Fatal(label, err)
			}
			requireCellsMatch(t, label, want, got)
			csp := childSpan(js, "cells")
			if csp == nil || cellSpan(js) == 0 {
				continue
			}
			n := func(k string) int64 { v, _ := csp.Attrs[k].(int64); return v }
			switch {
			case csp.Attrs["sub_refused"] != nil:
				refused++
			case n("sub_cells") > 0:
				folded++
			}
			e := edgeParts(t, tab, q, opt)
			wantRefined := e.bound
			if csp.Attrs["key"] == "q" {
				wantRefined += e.rest
			}
			if n("edge_rows") != wantRefined || c.Scanned.Load() != wantRefined+e.kept {
				t.Fatalf("%s: %d edge rows refined, %d rows scanned; the bounds' sub-buckets hold %d, the rest of the parts %d, and %d of their rows lie inside the range",
					label, n("edge_rows"), c.Scanned.Load(), e.bound, e.rest, e.kept)
			}
			if edges := n("edge_rows"); csp.Attrs["sub_refused"] == nil && edges > 0 {
				if whole := coarseEdges(t, tab, q, opt); edges >= whole {
					t.Fatalf("%s: %d edge rows refined of the edges' %d", label, edges, whole)
				}
				cut++
			}
			if e.subs == 4 && e.rest > 0 {
				merged++
			}
		}
	}
	if folded == 0 || refused == 0 || cut == 0 || merged == 0 {
		t.Fatalf("%d answers folded sub-cells, %d had a level refused, %d refined part of an edge, %d listed the rest of a level of two; want some of each",
			folded, refused, cut, merged)
	}
	levels := map[int]bool{}
	for _, key := range []string{"", "g5", "g12", "g20", "q"} {
		cells, _, _, err := tab.BucketCells("f", key, "x", 4096)
		if err != nil || cells == nil {
			t.Fatal(key, err)
		}
		s, _, err := cells.Sub(100)
		if err != nil {
			t.Fatal(err)
		}
		levels[s.Subs()] = true
	}
	if !levels[8] || !levels[4] || !levels[2] || !levels[1] {
		t.Fatalf("levels of %v sub-buckets; want 8, 4, 2 and none", levels)
	}
}

// coarseEdges returns how many rows the edge buckets of q's cells plan
// hold, read from the value index's whole buckets — what the plan would
// refine without a second level.
func coarseEdges(t *testing.T, tab *storage.Table, q Query, opt ExecOptions) int64 {
	t.Helper()
	b, err := RangeBuckets(t.Context(), tab, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	vi := b.Index()
	if vi == nil {
		t.Fatalf("%s: no index", q)
	}
	bl, bh := b.Run()
	n := 0
	for m := range vi.Morsels() {
		n += vi.Count(m, bl, bl) + vi.Count(m, bh, bh)
	}
	return int64(n)
}

// partCount is what edgeParts counts of a cells plan's edges.
type partCount struct {
	bound, rest, kept int64 // rows of the bounds' sub-buckets, of the parts' rest, inside the range
	subs              int   // the index's sub-buckets the lower part spans
	rows              []int // the parts' rows inside the range, ascending
}

// edgeParts counts the edges' parts of q's cells plan from the value
// index's offsets of the edge buckets and the sub-bucket each row's value
// gets: the rows of the index's sub-buckets holding q's bounds on the
// range column, those of the rest of the parts, between a bound's
// sub-bucket and the range's other side, and those of either inside q's
// WHERE, which it lists too; zeros when the plan has no cells.
func edgeParts(t *testing.T, tab *storage.Table, q Query, opt ExecOptions) (e partCount) {
	t.Helper()
	b, err := RangeBuckets(t.Context(), tab, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	ix := &b.ix
	if ix.cells == nil || ix.bl < 0 {
		return e
	}
	c, err := tab.ColumnByName(ix.col)
	if err != nil {
		t.Fatal(err)
	}
	ivs, _ := expr.Intervals(tab.Schema(), q.Where)
	var sl, sh int
	sub := func(k, r int) int {
		if fc, ok := c.(*storage.FloatColumn); ok {
			return ix.vi.FloatSub(k, fc.V[r])
		}
		return ix.vi.IntSub(k, c.(*storage.IntColumn).V[r])
	}
	for _, iv := range ivs {
		if iv.Col != ix.col {
			continue
		}
		if iv.Float {
			sl, sh = ix.vi.FloatSub(ix.bl, iv.FLo), ix.vi.FloatSub(ix.bh, iv.FHi)
		} else {
			sl, sh = ix.vi.IntSub(ix.bl, iv.ILo), ix.vi.IntSub(ix.bh, iv.IHi)
		}
	}
	for m := range ix.vi.Morsels() {
		for _, edge := range []struct{ k, bound, from, to int }{
			{ix.bl, sl, sl + 1, int(ix.pl.Hi)}, {ix.bh, sh, int(ix.ph.Lo), sh - 1},
		} {
			for _, r := range ix.vi.Candidates(m, edge.k, edge.k, nil) {
				j := sub(edge.k, r)
				switch {
				case j == edge.bound:
					e.bound++
				case j >= edge.from && j <= edge.to:
					e.rest++
				default:
					continue
				}
				if q.Where.Matches(tab, r) {
					e.kept++
					e.rows = append(e.rows, r)
				}
			}
		}
	}
	slices.Sort(e.rows)
	e.subs = int(ix.pl.Hi-ix.pl.Lo) + 1
	return e
}

// TestSelectionSplitsAtMorsels: a selection is split at the morsels once
// per query (splitAt), and each morsel's share lies inside it: an empty
// selection, one whose morsels between its rows are empty, one ending on
// the table's last row, and one row per morsel, at morsel sizes that do
// and do not divide the table. A cells plan's edge rows (readEdges) are
// ascending and exactly the parts' rows inside the range (edgeParts). And
// a selection of two rows over a table of hundreds of morsels — an exact
// query's whose edge reader keeps two rows, and a cracked query's, handed
// over (ExecuteSel) — consumes at most two morsels and counts every other
// as skipped by the index.
func TestSelectionSplitsAtMorsels(t *testing.T) {
	const n = 1000
	perMorsel := func(morsel int) (sel []int) {
		for lo := 0; lo < n; lo += morsel {
			sel = append(sel, lo+(morsel-1)/2)
		}
		return sel
	}
	for _, morsel := range []int{7, 100, 1000, 4096} {
		for _, sel := range [][]int{{}, {3, 4, 650, 651, 652}, {0, 517, n - 1}, perMorsel(morsel)} {
			sel = slices.DeleteFunc(slices.Clone(sel), func(r int) bool { return r >= n })
			starts := splitAt(nil, sel, n, morsel)
			morsels := storage.NumChunks(n, morsel)
			if len(starts) != morsels+1 || starts[morsels] != len(sel) {
				t.Fatalf("morsel %d, %v: starts %v for %d morsels", morsel, sel, starts, morsels)
			}
			for m := 0; m < morsels; m++ {
				for _, r := range sel[starts[m]:starts[m+1]] {
					if r < m*morsel || r >= (m+1)*morsel {
						t.Fatalf("morsel %d, %v: row %d in the share of morsel %d", morsel, sel, r, m)
					}
				}
			}
		}
	}

	tab := subTable(rand.New(rand.NewSource(55)), 1<<17)
	q := Query{Select: []SelectItem{{Col: "g12"}, {Col: "x", Agg: AggSum}}, GroupBy: []string{"g12"},
		Where: expr.And(expr.Cmp("f", expr.GE, storage.Float(-30)), expr.Cmp("f", expr.LT, storage.Float(40)))}
	for _, morsel := range []int{1000, 4096, 1 << 16} {
		opt := ExecOptions{Parallelism: 1, MorselSize: morsel}
		b, err := RangeBuckets(t.Context(), tab, q, opt)
		if err != nil || b.ix.cells == nil {
			t.Fatalf("morsel %d: cells %v, err %v", morsel, b.ix.cells, err)
		}
		rows, _, err := b.ReadEdges(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := edgeParts(t, tab, q, opt); !slices.Equal(rows, want.rows) || want.rest == 0 {
			t.Fatalf("morsel %d: %d edge rows read; the parts hold %d inside the range, %d of them listed unread", morsel, len(rows), len(want.rows), want.rest)
		}
	}

	// Two rows: an INT column of the row ids, at 2^15 rows a level of 8
	// sub-buckets of 16 rows, and bounds on the last value of a sub-bucket
	// and the first of another.
	const rows = 1 << 15
	ids, xs := make([]int64, rows), make([]float64, rows)
	for r := range ids {
		ids[r], xs[r] = int64(r), float64(r%7)
	}
	tab, err := storage.FromColumns("t", storage.Schema{{Name: "i", Type: storage.TInt}, {Name: "x", Type: storage.TFloat}},
		[]storage.Column{storage.NewIntColumn(ids), storage.NewFloatColumn(xs)})
	if err != nil {
		t.Fatal(err)
	}
	const morsel = 256
	vi, _, err := tab.ValueIndex("i", morsel)
	if err != nil || vi == nil {
		t.Fatal("no index", err)
	}
	lows, _, _ := vi.SubRows(60, 3)
	highs, _, _ := vi.SubRows(190, 4)
	if len(lows) == 0 || len(highs) == 0 {
		t.Fatal("empty sub-bucket")
	}
	q = Query{Select: []SelectItem{{Col: "x", Agg: AggSum}, {Col: "*", Agg: AggCount}},
		Where: expr.And(expr.Cmp("i", expr.GE, storage.Int(int64(lows[len(lows)-1]))), expr.Cmp("i", expr.LE, storage.Int(int64(highs[0]))))}
	want, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	morsels := int64(storage.NumChunks(rows, morsel))
	opt := ExecOptions{Parallelism: 2, MorselSize: morsel}
	b, err := RangeBuckets(t.Context(), tab, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := b.ReadEdges(nil, nil)
	if err != nil || len(sel) != 2 || b.ix.cells == nil {
		t.Fatalf("edge rows %v, cells %v, err %v; want two rows beside cells", sel, b.ix.cells != nil, err)
	}
	for _, arm := range []struct {
		what string
		run  func(ExecOptions) (*storage.Table, error)
	}{
		{"exact", func(opt ExecOptions) (*storage.Table, error) { return ExecuteOpts(tab, q, opt) }},
		{"cracked", func(opt ExecOptions) (*storage.Table, error) { return ExecuteSel(t.Context(), tab, b, sel, q, opt) }},
	} {
		var c Counters
		opt.Counters = &c
		got, err := arm.run(opt)
		if err != nil {
			t.Fatal(arm.what, err)
		}
		requireIdentical(t, arm.what, want, got)
		if skipped := c.IndexSkipped.Load(); skipped < morsels-2 || c.IndexMorsels.Load() != morsels {
			t.Fatalf("%s: %d of %d morsels skipped, %d served by the index; want all but two at most skipped, all served",
				arm.what, skipped, morsels, c.IndexMorsels.Load())
		}
	}
}

// TestConcurrentSubCellsBuiltOnce: concurrent first queries whose range
// has the same edge bucket build its second level once — one cells span
// says sub_built — and all of them answer as Execute does. Then, on a new
// table, an injected storage/index-build fault fails the query whose
// build it hits, and the next query builds the level and answers.
func TestConcurrentSubCellsBuiltOnce(t *testing.T) {
	q := Query{Select: []SelectItem{{Col: "g5"}, {Col: "x", Agg: AggSum}, {Col: "x", Agg: AggMin}, {Col: "*", Agg: AggCount}},
		GroupBy: []string{"g5"}, Where: expr.And(expr.Cmp("f", expr.GE, storage.Float(-60)), expr.Cmp("f", expr.LT, storage.Float(70)))}
	tab := subTable(rand.New(rand.NewSource(54)), 1<<17)
	want, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	// Build the cells, and the upper edge's second level, first, so the
	// clients race on the lower edge's level alone: were both edges' levels
	// left to build, one client could build each, and two spans would say
	// sub_built with every level still built once.
	if _, _, err := tracedExec(tab, Query{Select: q.Select, GroupBy: q.GroupBy,
		Where: expr.And(expr.Cmp("f", expr.GE, storage.Float(-10)), expr.Cmp("f", expr.LT, storage.Float(70)))}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	const clients = 12
	got, js := make([]*storage.Table, clients), make([]*trace.SpanJSON, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[c], js[c], err = tracedExec(tab, q, ExecOptions{Parallelism: 2, MorselSize: 4096}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	builds := 0
	for c := range got {
		if got[c] == nil {
			t.FailNow()
		}
		requireCellsMatch(t, q.String(), want, got[c])
		csp := childSpan(js[c], "cells")
		if csp == nil || csp.Attrs["sub_cells"] == nil {
			t.Fatalf("client %d: cells span %+v; want sub-cells folded", c, csp)
		}
		if csp.Attrs["sub_built"] == true {
			builds++
		}
	}
	if builds != 1 {
		t.Fatalf("%d of %d queries built the second level; want one", builds, clients)
	}

	fault.Reset()
	defer fault.Reset()
	tab = subTable(rand.New(rand.NewSource(54)), 1<<17)
	if _, _, err := tracedExec(tab, Query{Select: q.Select, GroupBy: q.GroupBy,
		Where: expr.And(expr.Cmp("f", expr.GE, storage.Float(-10)), expr.Cmp("f", expr.LT, storage.Float(10)))}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("storage/index-build", "error-once"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tracedExec(tab, q, ExecOptions{}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("query under the fault: %v; want the injected error", err)
	}
	res, js1, err := tracedExec(tab, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireCellsMatch(t, "after the fault: "+q.String(), want, res)
	if csp := childSpan(js1, "cells"); csp == nil || csp.Attrs["sub_built"] != true {
		t.Fatalf("the query after the fault: cells span %+v; want it to build the level", csp)
	}
}
