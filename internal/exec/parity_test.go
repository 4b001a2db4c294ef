package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
)

// The parity harness: for randomly generated tables and Query values, the
// parallel operators must produce exactly the sequential output — same
// schema, same rows, same (deterministic) row order, the same float bits:
// SUM/AVG keep the one order-free sum, so no merge order moves them.

// randParityTable builds a table with an int key, a small-domain int
// dimension, a float measure (NaN-polluted when nanFrac > 0 — NaN is the
// engine's NULL), and a low-cardinality string column.
func randParityTable(rng *rand.Rand, rows int, nanFrac float64) *storage.Table {
	ks := make([]int64, rows)
	ds := make([]int64, rows)
	fs := make([]float64, rows)
	ss := make([]string, rows)
	labels := []string{"red", "green", "blue", "amber", ""}
	for i := 0; i < rows; i++ {
		ks[i] = rng.Int63n(1000) - 500
		ds[i] = rng.Int63n(7)
		if rng.Float64() < nanFrac {
			fs[i] = math.NaN()
		} else {
			fs[i] = rng.NormFloat64() * 100
		}
		ss[i] = labels[rng.Intn(len(labels))]
	}
	t, err := storage.FromColumns("t", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "d", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
		{Name: "s", Type: storage.TString},
	}, []storage.Column{
		storage.NewIntColumn(ks), storage.NewIntColumn(ds),
		storage.NewFloatColumn(fs), storage.NewStringColumn(ss),
	})
	if err != nil {
		panic(err)
	}
	return t
}

// randPred builds a random predicate over the parity table's columns.
func randPred(rng *rand.Rand, depth int) *expr.Pred {
	if depth > 0 && rng.Float64() < 0.4 {
		kids := []*expr.Pred{randPred(rng, depth-1), randPred(rng, depth-1)}
		if rng.Intn(2) == 0 {
			return expr.And(kids...)
		}
		return expr.Or(kids...)
	}
	ops := []expr.Op{expr.EQ, expr.NE, expr.LT, expr.LE, expr.GT, expr.GE}
	op := ops[rng.Intn(len(ops))]
	switch rng.Intn(4) {
	case 0:
		return expr.Cmp("k", op, storage.Int(rng.Int63n(1000)-500))
	case 1:
		return expr.Cmp("d", op, storage.Int(rng.Int63n(7)))
	case 2:
		return expr.Cmp("x", op, storage.Float(rng.NormFloat64()*100))
	default:
		return expr.Cmp("s", op, storage.String_([]string{"red", "green", "zzz"}[rng.Intn(3)]))
	}
}

// randQuery builds a random query: a plain projection, a scalar aggregate,
// or a group-by, with optional WHERE / ORDER BY / LIMIT.
func randQuery(rng *rand.Rand) Query {
	var q Query
	aggs := []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax}
	switch rng.Intn(3) {
	case 0: // projection
		cols := []string{"k", "d", "x", "s"}
		n := 1 + rng.Intn(len(cols))
		for _, c := range cols[:n] {
			q.Select = append(q.Select, SelectItem{Col: c})
		}
		if rng.Intn(2) == 0 {
			q.OrderBy = []OrderKey{{Col: cols[rng.Intn(n)], Desc: rng.Intn(2) == 0}}
		}
	case 1: // scalar aggregates
		q.Select = []SelectItem{
			{Col: "*", Agg: AggCount},
			{Col: "x", Agg: aggs[rng.Intn(len(aggs))]},
			{Col: "k", Agg: aggs[rng.Intn(len(aggs))]},
			{Col: "s", Agg: []AggFunc{AggCount, AggMin, AggMax}[rng.Intn(3)]},
		}
	default: // group-by
		dims := [][]string{{"d"}, {"s"}, {"d", "s"}}[rng.Intn(3)]
		q.GroupBy = dims
		for _, g := range dims {
			q.Select = append(q.Select, SelectItem{Col: g})
		}
		q.Select = append(q.Select,
			SelectItem{Col: "x", Agg: aggs[rng.Intn(len(aggs))]},
			SelectItem{Col: "*", Agg: AggCount},
		)
		// Order by the group columns only.
		if rng.Intn(2) == 0 {
			q.OrderBy = []OrderKey{{Col: dims[0], Desc: rng.Intn(2) == 0}}
		}
	}
	if rng.Intn(4) != 0 {
		q.Where = randPred(rng, 2)
	}
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(20)
	}
	return q
}

// sameValue compares cells exactly: floats by their bits, NaN equal to
// NaN.
func sameValue(a, b storage.Value) bool {
	if a.Typ == storage.TFloat && b.Typ == storage.TFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F) || a.F != a.F && b.F != b.F
	}
	return a == b
}

// requireSameTable asserts b matches a row-for-row. Both paths are
// order-deterministic (parallel group order is restored to first-seen), so
// positional comparison is the canonical form — stronger than a sorted one.
func requireSameTable(t *testing.T, label string, a, b *storage.Table) {
	t.Helper()
	if a.Schema().String() != b.Schema().String() {
		t.Fatalf("%s: schema mismatch\nseq: %s\npar: %s", label, a.Schema(), b.Schema())
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("%s: rows seq=%d par=%d", label, a.NumRows(), b.NumRows())
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			av, bv := a.Column(c).Value(r), b.Column(c).Value(r)
			if !sameValue(av, bv) {
				t.Fatalf("%s: cell [%d,%d] (%s) seq=%v par=%v",
					label, r, c, a.Schema()[c].Name, av, bv)
			}
		}
	}
}

// TestParallelParityProperty is the property-based harness: 200 random
// (table, query, parallelism, morsel-size) draws, sequential vs parallel.
// Tiny morsel sizes force real multi-morsel scheduling even on small
// tables, so the parallel merge paths are genuinely exercised.
func TestParallelParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		rows := []int{0, 1, 2, 13, 100, 1000}[rng.Intn(6)]
		nanFrac := []float64{0, 0.05, 0.5, 1}[rng.Intn(4)]
		tbl := randParityTable(rng, rows, nanFrac)
		q := randQuery(rng)
		opt := ExecOptions{
			Parallelism: 2 + rng.Intn(7),
			MorselSize:  []int{1, 3, 16, 64}[rng.Intn(4)],
		}
		label := fmt.Sprintf("iter=%d rows=%d nan=%.2f par=%d morsel=%d q=%s",
			iter, rows, nanFrac, opt.Parallelism, opt.MorselSize, q)
		seq, seqErr := Execute(tbl, q)
		par, parErr := ExecuteOpts(tbl, q, opt)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("%s: error mismatch seq=%v par=%v", label, seqErr, parErr)
		}
		if seqErr != nil {
			continue
		}
		requireSameTable(t, label, seq, par)
	}
}

// TestParallelParityEdgeCases pins the edge cases the property harness
// might draw rarely: empty table, fully filtered input, all-NaN measures,
// and wide group counts relative to morsel size.
func TestParallelParityEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	opt := ExecOptions{Parallelism: 4, MorselSize: 8}
	cases := []struct {
		name string
		tbl  *storage.Table
		q    Query
	}{
		{
			name: "empty table scalar agg",
			tbl:  randParityTable(rng, 0, 0),
			q: Query{Select: []SelectItem{
				{Col: "*", Agg: AggCount}, {Col: "x", Agg: AggAvg}, {Col: "x", Agg: AggMin},
			}},
		},
		{
			name: "empty table group-by",
			tbl:  randParityTable(rng, 0, 0),
			q: Query{
				Select:  []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}},
				GroupBy: []string{"s"},
			},
		},
		{
			name: "predicate matches nothing",
			tbl:  randParityTable(rng, 500, 0.1),
			q: Query{
				Select: []SelectItem{{Col: "k"}, {Col: "x"}},
				Where:  expr.Cmp("k", expr.GT, storage.Int(1<<40)),
			},
		},
		{
			name: "all-NaN measure aggregates",
			tbl:  randParityTable(rng, 300, 1),
			q: Query{Select: []SelectItem{
				{Col: "x", Agg: AggSum}, {Col: "x", Agg: AggAvg},
				{Col: "x", Agg: AggMin}, {Col: "x", Agg: AggMax},
				{Col: "x", Agg: AggCount}, {Col: "*", Agg: AggCount},
			}},
		},
		{
			name: "groups outnumber morsels",
			tbl:  randParityTable(rng, 600, 0.2),
			q: Query{
				Select: []SelectItem{
					{Col: "k"}, {Col: "x", Agg: AggAvg}, {Col: "*", Agg: AggCount},
				},
				GroupBy: []string{"k"},
			},
		},
		{
			name: "single row",
			tbl:  randParityTable(rng, 1, 0),
			q: Query{
				Select:  []SelectItem{{Col: "s"}, {Col: "x", Agg: AggMax}},
				GroupBy: []string{"s"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, seqErr := Execute(tc.tbl, tc.q)
			par, parErr := ExecuteOpts(tc.tbl, tc.q, opt)
			if (seqErr == nil) != (parErr == nil) {
				t.Fatalf("error mismatch seq=%v par=%v", seqErr, parErr)
			}
			if seqErr != nil {
				return
			}
			requireSameTable(t, tc.name, seq, par)
		})
	}
}

// TestParallelFilterMergeOrder pins the selection-vector merge contract:
// positions come back ascending, exactly as the sequential scan yields them.
func TestParallelFilterMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := randParityTable(rng, 977, 0) // prime size: last morsel is ragged
	q := Query{
		Select: []SelectItem{{Col: "k"}},
		Where:  expr.Cmp("d", expr.LE, storage.Int(3)),
	}
	seq, err := Execute(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, morsel := range []int{1, 2, 10, 100, 976, 977, 5000} {
		par, err := ExecuteOpts(tbl, q, ExecOptions{Parallelism: 5, MorselSize: morsel})
		if err != nil {
			t.Fatalf("morsel=%d: %v", morsel, err)
		}
		requireSameTable(t, fmt.Sprintf("morsel=%d", morsel), seq, par)
	}
}
