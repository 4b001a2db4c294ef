// Property tests for the partial-merge algebra: for seeded random
// tables, queries, shard counts and partition schemes, executing the
// pushed query on every partition and merging the partials must agree
// with running the original query on the whole table in one engine —
// byte-equal for ints and strings, 1e-9 relative for floats (shard count
// changes float addition order). The harness mirrors the cross-mode
// differential oracle in internal/exec.
package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dex/internal/core"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/shard"
	"dex/internal/storage"
)

// parityTable builds the random test table: a shuffled unique int key, a
// small-domain int dimension, a float measure, and a label column.
func parityTable(rng *rand.Rand, name string, rows int) *storage.Table {
	ids := rng.Perm(rows)
	ks := make([]int64, rows)
	ds := make([]int64, rows)
	vs := make([]float64, rows)
	ss := make([]string, rows)
	labels := []string{"red", "green", "blue", "amber"}
	for i := 0; i < rows; i++ {
		ks[i] = int64(ids[i])
		ds[i] = rng.Int63n(7)
		vs[i] = rng.NormFloat64() * 100
		ss[i] = labels[rng.Intn(len(labels))]
	}
	t, err := storage.FromColumns(name, storage.Schema{
		{Name: "id", Type: storage.TInt},
		{Name: "d", Type: storage.TInt},
		{Name: "v", Type: storage.TFloat},
		{Name: "s", Type: storage.TString},
	}, []storage.Column{
		storage.NewIntColumn(ks), storage.NewIntColumn(ds),
		storage.NewFloatColumn(vs), storage.NewStringColumn(ss),
	})
	if err != nil {
		panic(err)
	}
	return t
}

// parityQuery draws a query plus the number of leading exact-valued key
// columns a canonical sort may use (0 = compare positionally).
func parityQuery(rng *rand.Rand, rows int) (exec.Query, int) {
	aggs := []exec.AggFunc{exec.AggCount, exec.AggSum, exec.AggAvg, exec.AggMin, exec.AggMax}
	var q exec.Query
	keyCols := 0
	switch rng.Intn(3) {
	case 0: // projection, totally ordered by the unique key
		q.Select = []exec.SelectItem{{Col: "id"}, {Col: "v"}, {Col: "s"}}
		q.OrderBy = []exec.OrderKey{{Col: "id", Desc: rng.Intn(2) == 0}}
		if rng.Intn(2) == 0 {
			q.Limit = 1 + rng.Intn(50)
		}
	case 1: // scalar aggregates: one row, positional compare
		q.Select = []exec.SelectItem{
			{Col: "*", Agg: exec.AggCount},
			{Col: "v", Agg: aggs[rng.Intn(len(aggs))]},
			{Col: "d", Agg: aggs[rng.Intn(len(aggs))]},
		}
	default: // group-by: canonical sort on the group keys
		dims := [][]string{{"d"}, {"s"}, {"d", "s"}}[rng.Intn(3)]
		q.GroupBy = dims
		for _, g := range dims {
			q.Select = append(q.Select, exec.SelectItem{Col: g})
		}
		q.Select = append(q.Select,
			exec.SelectItem{Col: "v", Agg: aggs[rng.Intn(len(aggs))]},
			exec.SelectItem{Col: "*", Agg: exec.AggCount},
		)
		keyCols = len(dims)
	}
	switch rng.Intn(5) {
	case 0: // full scan
	case 1:
		q.Where = expr.Cmp("id", expr.GE, storage.Int(rng.Int63n(int64(rows))))
	case 2:
		lo := rng.NormFloat64() * 50
		q.Where = expr.And(
			expr.Cmp("v", expr.GE, storage.Float(lo)),
			expr.Cmp("v", expr.LT, storage.Float(lo+rng.Float64()*200)),
		)
	case 3:
		q.Where = expr.Cmp("d", expr.LE, storage.Int(rng.Int63n(7)))
	default:
		q.Where = expr.Cmp("s", expr.NE, storage.String_("red"))
	}
	return q, keyCols
}

func cellsClose(a, b storage.Value) bool {
	if a.Typ != b.Typ {
		return false
	}
	if a.Typ != storage.TFloat {
		return a == b
	}
	x, y := a.F, b.F
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	if x == y {
		return true
	}
	return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}

// canonicalRows extracts a table's rows; keyCols > 0 sorts them stably by
// their first keyCols cells under Value.Order — the order merged groups
// come out in.
func canonicalRows(t *storage.Table, keyCols int) [][]storage.Value {
	rows := make([][]storage.Value, t.NumRows())
	for r := range rows {
		row := make([]storage.Value, t.NumCols())
		for c := range row {
			row[c] = t.Column(c).Value(r)
		}
		rows[r] = row
	}
	if keyCols > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for c := 0; c < keyCols; c++ {
				if o := rows[i][c].Order(rows[j][c]); o != 0 {
					return o < 0
				}
			}
			return false
		})
	}
	return rows
}

// requireAgree holds got to want cell for cell. With keyCols > 0 want is a
// single node's groups, in first-seen order, and got merged ones: want is
// put in key order and got must already be in it.
func requireAgree(t *testing.T, label string, want, got *storage.Table, keyCols int) {
	t.Helper()
	if want.Schema().String() != got.Schema().String() {
		t.Fatalf("%s: schema\nwant: %s\ngot:  %s", label, want.Schema(), got.Schema())
	}
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: rows want=%d got=%d", label, want.NumRows(), got.NumRows())
	}
	w, g := canonicalRows(want, keyCols), canonicalRows(got, 0)
	for r := range w {
		for c := range w[r] {
			if !cellsClose(w[r][c], g[r][c]) {
				t.Fatalf("%s: row %d col %d (%s): want %v got %v",
					label, r, c, want.Schema()[c].Name, w[r][c], g[r][c])
			}
		}
	}
}

// withNullFloat adds f, a FLOAT dimension with NULLs: half of d, and NULL
// (NaN) on every ninth id. It draws nothing from the test's rng.
func withNullFloat(t *testing.T, tbl *storage.Table) *storage.Table {
	t.Helper()
	id, d := tbl.Column(0), tbl.Column(1)
	fs := make([]float64, tbl.NumRows())
	for r := range fs {
		fs[r] = float64(d.Value(r).I) / 2
		if id.Value(r).I%9 == 0 {
			fs[r] = math.NaN()
		}
	}
	cols := make([]storage.Column, 0, tbl.NumCols()+1)
	for c := 0; c < tbl.NumCols(); c++ {
		cols = append(cols, tbl.Column(c))
	}
	schema := append(append(storage.Schema{}, tbl.Schema()...), storage.Field{Name: "f", Type: storage.TFloat})
	out, err := storage.FromColumns(tbl.Name(), schema, append(cols, storage.NewFloatColumn(fs)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// mergeFixed are inputs the merge once got wrong, each with its keyCols:
// NULL group keys, which a sort blind to NaN left out of key order, a
// WHERE that rejects every row, whose empty grouped answer lost its types,
// and a GROUP BY without aggregates, once stacked one row per key per
// shard.
var mergeFixed = []struct {
	q       exec.Query
	keyCols int
}{
	{exec.Query{
		Select:  []exec.SelectItem{{Col: "f"}, {Col: "*", Agg: exec.AggCount}, {Col: "v", Agg: exec.AggSum}, {Col: "id", Agg: exec.AggMin}},
		GroupBy: []string{"f"},
	}, 1},
	{exec.Query{
		Select:  []exec.SelectItem{{Col: "f"}, {Col: "s"}, {Col: "f", Agg: exec.AggMax}, {Col: "v", Agg: exec.AggAvg}},
		GroupBy: []string{"f", "s"},
	}, 2},
	{exec.Query{
		Select:  []exec.SelectItem{{Col: "d"}, {Col: "id", Agg: exec.AggMax}, {Col: "*", Agg: exec.AggCount}, {Col: "v", Agg: exec.AggAvg}},
		Where:   expr.Cmp("d", expr.GT, storage.Int(100)),
		GroupBy: []string{"d"},
	}, 1},
	{exec.Query{
		Select: []exec.SelectItem{{Col: "*", Agg: exec.AggCount}, {Col: "id", Agg: exec.AggMin}, {Col: "v", Agg: exec.AggSum}},
		Where:  expr.Cmp("d", expr.GT, storage.Int(100)),
	}, 0},
	{exec.Query{
		Select:  []exec.SelectItem{{Col: "d"}},
		GroupBy: []string{"d"},
	}, 1},
}

// shardEngines splits tbl under spec and registers each partition in its
// own engine (seeded from seedBase) — the algebra under test without the
// network in the way.
func shardEngines(t *testing.T, tbl *storage.Table, spec shard.Spec, seedBase int64) []*core.Engine {
	t.Helper()
	sels, err := shard.Split(tbl, spec)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	engines := make([]*core.Engine, spec.Shards)
	for i, sel := range sels {
		total += len(sel)
		// A 10% sample floor keeps per-partition AQP samples big enough
		// for the CLT intervals the merge algebra combines: at 8-way
		// splits of the test table the default 1% sample is ~50 rows,
		// where the single-node z-interval itself under-covers.
		engines[i] = core.New(core.Options{Seed: seedBase + int64(i), SampleFracs: []float64{0.1}})
		if err := engines[i].Register(tbl.Gather(sel)); err != nil {
			t.Fatal(err)
		}
	}
	if total != tbl.NumRows() {
		t.Fatalf("partitions cover %d of %d rows", total, tbl.NumRows())
	}
	return engines
}

// TestMergeParityOracle: seeded random (table, query) trials, then the
// mergeFixed inputs, across shard counts 1/2/4/8 and all three
// scheme/column combinations must merge to exactly the single-node answer.
func TestMergeParityOracle(t *testing.T) {
	const rows = 4001
	rng := rand.New(rand.NewSource(41))
	tbl := withNullFloat(t, parityTable(rng, "ptab", rows))
	oracle := core.New(core.Options{Seed: 7})
	if err := oracle.Register(tbl); err != nil {
		t.Fatal(err)
	}

	specs := []shard.Spec{
		{Table: "ptab", Column: "s", Scheme: shard.Hash},
		{Table: "ptab", Column: "v", Scheme: shard.Hash},
		{Table: "ptab", Column: "id", Scheme: shard.Range},
	}
	for _, base := range specs {
		for _, n := range []int{1, 2, 4, 8} {
			spec := base
			spec.Shards = n
			if spec.Scheme == shard.Range && n > 1 {
				col, err := tbl.ColumnByName(spec.Column)
				if err != nil {
					t.Fatal(err)
				}
				spec.Bounds = shard.EquiDepthBounds(col, n)
			}
			name := fmt.Sprintf("%s-%s-%d", spec.Scheme, spec.Column, n)
			t.Run(name, func(t *testing.T) {
				engines := shardEngines(t, tbl, spec, 31)
				for trial := 0; trial < 25+len(mergeFixed); trial++ {
					var q exec.Query
					var keyCols int
					if trial < 25 {
						q, keyCols = parityQuery(rng, rows)
					} else {
						q, keyCols = mergeFixed[trial-25].q, mergeFixed[trial-25].keyCols
					}
					label := fmt.Sprintf("%s trial=%d q=%s", name, trial, q)
					plan, err := shard.PlanQuery(q, false)
					if err != nil {
						t.Fatalf("%s: plan: %v", label, err)
					}
					parts := make([]*storage.Table, len(engines))
					for i, e := range engines {
						parts[i], err = e.Execute("ptab", plan.Push, core.Exact)
						if err != nil {
							t.Fatalf("%s: shard %d: %v", label, i, err)
						}
					}
					got, err := plan.Merge(parts)
					if err != nil {
						t.Fatalf("%s: merge: %v", label, err)
					}
					want, err := oracle.Execute("ptab", q, core.Exact)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					// A group-by with no ORDER BY merges in canonical key
					// order while the oracle reports first-seen order:
					// canonicalize both sides. Projections carry ORDER BY on
					// the unique key, so they stay positional.
					requireAgree(t, label, want, got, keyCols)
				}
			})
		}
	}
}

// TestMergeEstimatesCICoverage: distributed AQP — every shard samples its
// own partition and the coordinator merges estimates and intervals
// (quadrature for COUNT/SUM, sample-size weighting for AVG). The merged
// ci95 must cover the exact whole-table answer at its nominal rate. The
// acceptance bar is 95% minus two binomial standard errors (~90% at 100
// trials): the intervals are honestly calibrated, not conservative, so a
// hard ≥95% empirical cutoff would reject a perfect estimator about half
// the time.
func TestMergeEstimatesCICoverage(t *testing.T) {
	const rows = 40_000
	const trials = 100
	const bar = 0.95 - 2*0.0218 // two SEs of a Binomial(100, 0.95) proportion
	rng := rand.New(rand.NewSource(23))
	tbl := parityTable(rng, "ptab", rows)
	oracle := core.New(core.Options{Seed: 9})
	if err := oracle.Register(tbl); err != nil {
		t.Fatal(err)
	}
	aggs := []exec.AggFunc{exec.AggSum, exec.AggCount, exec.AggAvg}

	for _, n := range []int{2, 4} {
		spec := shard.Spec{Table: "ptab", Column: "v", Scheme: shard.Hash, Shards: n}
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			covered := 0
			for i := 0; i < trials; i++ {
				// Fresh engines every trial: the AQP catalog samples each
				// partition once and reuses it, so one unlucky draw would
				// otherwise bias every trial identically — the coverage
				// statistic needs independent samples.
				engines := shardEngines(t, tbl, spec, int64(100+i*16))
				q := exec.Query{
					Select: []exec.SelectItem{{Col: "v", Agg: aggs[rng.Intn(len(aggs))]}},
				}
				// Wide predicates only, as in the single-node CI oracle.
				lo := rng.Int63n(int64(rows / 2))
				q.Where = expr.And(
					expr.Cmp("id", expr.GE, storage.Int(lo)),
					expr.Cmp("id", expr.LT, storage.Int(lo+int64(rows)/3)),
				)
				exact, err := oracle.Execute("ptab", q, core.Exact)
				if err != nil {
					t.Fatal(err)
				}
				truth := exact.Column(0).Value(0).AsFloat()

				plan, err := shard.PlanQuery(q, true)
				if err != nil {
					t.Fatal(err)
				}
				parts := make([]*storage.Table, len(engines))
				for j, e := range engines {
					parts[j], err = e.Execute("ptab", plan.Push, core.Approx)
					if err != nil {
						t.Fatal(err)
					}
				}
				got, err := plan.Merge(parts)
				if err != nil {
					t.Fatal(err)
				}
				if got.NumRows() != 1 {
					t.Fatalf("merged estimate has %d rows", got.NumRows())
				}
				est := got.Column(0).Value(0).AsFloat()
				ci := got.Column(1).Value(0).AsFloat()
				if ci <= 0 {
					if math.Abs(est-truth) <= 1e-9*math.Max(1, math.Abs(truth)) {
						covered++
					}
					continue
				}
				if math.Abs(est-truth) <= ci {
					covered++
				}
			}
			coverage := float64(covered) / trials
			t.Logf("shards=%d: %d/%d trials inside merged ci95 (%.1f%%)", n, covered, trials, 100*coverage)
			if coverage < bar {
				t.Fatalf("merged CI coverage %.1f%% < %.1f%%: interval merging is optimistic", 100*coverage, 100*bar)
			}
		})
	}
}

// TestMergeEstimatesGroupBy: merged group-by estimates keep the output
// contract ([groups], agg, ci95, sample_n) and agree with the exact
// group values within the merged intervals for the dominant groups.
func TestMergeEstimatesGroupBy(t *testing.T) {
	const rows = 40_000
	rng := rand.New(rand.NewSource(29))
	tbl := parityTable(rng, "ptab", rows)
	oracle := core.New(core.Options{Seed: 3})
	if err := oracle.Register(tbl); err != nil {
		t.Fatal(err)
	}
	spec := shard.Spec{Table: "ptab", Column: "v", Scheme: shard.Hash, Shards: 4}
	engines := shardEngines(t, tbl, spec, 57)

	q := exec.Query{
		Select:  []exec.SelectItem{{Col: "d"}, {Col: "v", Agg: exec.AggAvg}},
		GroupBy: []string{"d"},
	}
	plan, err := shard.PlanQuery(q, true)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*storage.Table, len(engines))
	for i, e := range engines {
		parts[i], err = e.Execute("ptab", plan.Push, core.Approx)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := plan.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := oracle.Execute("ptab", q, core.Exact)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int64]float64{}
	for r := 0; r < exact.NumRows(); r++ {
		truth[exact.Column(0).Value(r).I] = exact.Column(1).Value(r).AsFloat()
	}
	if got.NumCols() != 4 {
		t.Fatalf("estimates schema %s: want [d, avg, ci95, sample_n]", got.Schema())
	}
	misses := 0
	for r := 0; r < got.NumRows(); r++ {
		g := got.Column(0).Value(r).I
		est := got.Column(1).Value(r).AsFloat()
		ci := got.Column(2).Value(r).AsFloat()
		want, ok := truth[g]
		if !ok {
			t.Fatalf("merged estimates invented group %d", g)
		}
		// Per-group CIs at 95% can individually miss; with 7 groups allow
		// one, which is far beyond the expected miss rate under correct
		// intervals but catches systematic underestimation.
		if math.Abs(est-want) > ci {
			misses++
		}
	}
	if misses > 1 {
		t.Fatalf("%d of %d groups outside their merged ci95", misses, got.NumRows())
	}
}

// TestMergeEstimatesNullGroupsInKeyOrder: merged estimate groups come out
// in key order under Value.Order, the NULL (NaN) group last and merged
// once — a sort blind to NaN left [3, NaN, 0, …].
func TestMergeEstimatesNullGroupsInKeyOrder(t *testing.T) {
	q := exec.Query{
		Select:  []exec.SelectItem{{Col: "f"}, {Col: "v", Agg: exec.AggSum}},
		GroupBy: []string{"f"},
	}
	plan, err := shard.PlanQuery(q, true)
	if err != nil {
		t.Fatal(err)
	}
	schema := storage.Schema{
		{Name: "f", Type: storage.TFloat}, {Name: "sum(v)", Type: storage.TFloat},
		{Name: "ci95", Type: storage.TFloat}, {Name: "sample_n", Type: storage.TInt},
	}
	part := func(keys ...float64) *storage.Table {
		tbl, err := storage.NewTable("ptab", schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := tbl.AppendRow(storage.Float(k), storage.Float(1), storage.Float(0.1), storage.Int(10)); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	nan := math.NaN()
	got, err := plan.Merge([]*storage.Table{part(3, nan, 1), part(2, 5, nan, 0)})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 2, 3, 5, nan}
	if got.NumRows() != len(want) {
		t.Fatalf("merged %d groups, want %d:\n%s", got.NumRows(), len(want), got.Format(0))
	}
	for r, k := range want {
		if g := got.Column(0).Value(r).F; g != k && !(math.IsNaN(g) && math.IsNaN(k)) {
			t.Fatalf("group %d is %v, want %v:\n%s", r, g, k, got.Format(0))
		}
	}
	if est, n := got.Column(1).Value(5).F, got.Column(3).Value(5).I; est != 2 || n != 20 {
		t.Fatalf("NULL group merged to estimate %v over %d rows, want 2 over 20", est, n)
	}
}

// TestMergeEstimatesNullStaysNull: a group whose every shard estimate is
// NULL — a MIN or MAX over no non-NULL value, as a scalar estimate of a
// WHERE no row satisfies answers on each shard — merges to NULL, not to
// the 0 its accumulator starts at.
func TestMergeEstimatesNullStaysNull(t *testing.T) {
	q := exec.Query{Select: []exec.SelectItem{{Col: "v", Agg: exec.AggMax}}}
	plan, err := shard.PlanQuery(q, true)
	if err != nil {
		t.Fatal(err)
	}
	schema := storage.Schema{
		{Name: "max(v)", Type: storage.TFloat}, {Name: "ci95", Type: storage.TFloat}, {Name: "sample_n", Type: storage.TInt},
	}
	var parts []*storage.Table
	for range 3 {
		tbl, err := storage.NewTable("ptab", schema)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.AppendRow(storage.Float(math.NaN()), storage.Float(0), storage.Int(0)); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, tbl)
	}
	got, err := plan.Merge(parts)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 || !math.IsNaN(got.Column(0).Value(0).F) {
		t.Fatalf("merged max of NULLs:\n%s\nwant one NULL row", got.Format(0))
	}
}
