package onlineagg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dex/internal/aqp"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/metrics"
	"dex/internal/sample"
	"dex/internal/storage"
)

// These tests hold the one estimator in internal/aqp to its three feeds —
// a stored sample (aqp.OnView), a shuffled prefix (Runner) and per-group
// prefixes (StridedRunner) — against the reference evaluator exec.Execute.

// execTruth answers q with the reference evaluator, keyed by group
// ("" without GROUP BY).
func execTruth(tb testing.TB, t *storage.Table, q aqp.Query) map[string]float64 {
	tb.Helper()
	eq := exec.Query{Where: q.Where}
	if q.GroupBy != "" {
		eq.Select = append(eq.Select, exec.SelectItem{Col: q.GroupBy})
		eq.GroupBy = []string{q.GroupBy}
	}
	eq.Select = append(eq.Select, exec.SelectItem{Col: q.Col, Agg: q.Agg})
	res, err := exec.Execute(t, eq)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string]float64{}
	for i := 0; i < res.NumRows(); i++ {
		row := res.Row(i)
		key := ""
		if q.GroupBy != "" {
			key = row[0].String()
		}
		out[key] = row[len(row)-1].AsFloat()
	}
	return out
}

func sameFloat(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b))
}

// matchesTruth reports the first way the whole-population estimates ests
// differ from truth, or "".
func matchesTruth(q aqp.Query, ests []aqp.GroupEstimate, truth map[string]float64) string {
	if len(ests) != len(truth) {
		return fmt.Sprintf("%d groups, want %d", len(ests), len(truth))
	}
	for _, g := range ests {
		key := ""
		if q.GroupBy != "" {
			key = g.Group.String()
		}
		want, ok := truth[key]
		if !ok {
			return fmt.Sprintf("unexpected group %q", key)
		}
		if !sameFloat(g.Est, want, 1e-9) {
			return fmt.Sprintf("group %q = %v, want %v", key, g.Est, want)
		}
		if g.CI != 0 {
			return fmt.Sprintf("group %q: CI %v over the whole population, want 0", key, g.CI)
		}
	}
	return ""
}

// TestRunUntilNeverConvergesOnNothing: a predicate no row of the first
// batch satisfies leaves zero groups, and "worst relative CI over zero
// groups" used to read as converged — the run stopped after one batch and
// answered [] with a nil error. It has to keep scanning until a group has
// an estimate; here MIN/SUM over 3 qualifying rows in 100k never meet the
// 1% target, so the scan completes and the answer is the exact one.
func TestRunUntilNeverConvergesOnNothing(t *testing.T) {
	const n = 100_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	tbl, err := storage.FromColumns("seq", storage.Schema{{Name: "x", Type: storage.TInt}},
		[]storage.Column{storage.NewIntColumn(xs)})
	if err != nil {
		t.Fatal(err)
	}
	q := aqp.Query{Agg: exec.AggSum, Col: "x", Where: expr.Cmp("x", expr.GE, storage.Int(99997))}
	r, err := New(tbl, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := r.RunUntilCtx(context.Background(), 0.01, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps[0].Groups) != 0 {
		t.Skip("seed put a qualifying row in the first batch; the test needs an empty one")
	}
	if msg := matchesTruth(q, r.Estimates(), execTruth(t, tbl, q)); msg != "" {
		t.Fatalf("after %d/%d rows: %s", r.Processed(), n, msg)
	}
}

// nullTable has a float measure with NULLs (NaN) in every group, one group
// whose measures are all NULL, and an int column to filter on.
func nullTable(tb testing.TB, n int, seed int64) *storage.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	gv := make([]string, n)
	xv := make([]float64, n)
	iv := make([]int64, n)
	for i := range gv {
		gv[i] = string(rune('a' + rng.Intn(3)))
		xv[i] = 100 + rng.NormFloat64()*15
		iv[i] = int64(rng.Intn(100))
		switch {
		case rng.Intn(50) == 0:
			gv[i] = "nulls"
			xv[i] = math.NaN()
		case rng.Intn(10) == 0:
			xv[i] = math.NaN()
		}
	}
	t, err := storage.FromColumns("d", storage.Schema{
		{Name: "g", Type: storage.TString},
		{Name: "x", Type: storage.TFloat},
		{Name: "i", Type: storage.TInt},
	}, []storage.Column{storage.NewStringColumn(gv), storage.NewFloatColumn(xv), storage.NewIntColumn(iv)})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestNullMeasuresFollowExec: a NaN measure is the engine's NULL. Every
// feed of the estimator, run over the whole table, must agree with the
// reference evaluator: SUM/AVG/MIN/MAX and COUNT(col) skip NULLs, COUNT(*)
// counts the row, and a group of nothing but NULLs still exists.
func TestNullMeasuresFollowExec(t *testing.T) {
	tbl := nullTable(t, 5000, 21)
	ones := make([]float64, tbl.NumRows())
	for i := range ones {
		ones[i] = 1
	}
	feeds := []struct {
		name    string
		grouped bool // striding needs a GROUP BY
		run     func(q aqp.Query) ([]aqp.GroupEstimate, error)
	}{
		{"aqp.Exact", false, func(q aqp.Query) ([]aqp.GroupEstimate, error) { return aqp.Exact(tbl, q) }},
		{"aqp.OnView", false, func(q aqp.Query) ([]aqp.GroupEstimate, error) {
			// The whole table as a "sample" of weight 1: estimates are
			// exact, intervals are not zero — compare estimates only.
			ests, err := aqp.OnView(tbl, ones, q)
			for i := range ests {
				ests[i].CI = 0
			}
			return ests, err
		}},
		{"Runner", false, func(q aqp.Query) ([]aqp.GroupEstimate, error) {
			r, err := New(tbl, q, 5)
			if err != nil {
				return nil, err
			}
			_, err = r.RunUntil(0, 700)
			return r.Estimates(), err
		}},
		{"StridedRunner", true, func(q aqp.Query) ([]aqp.GroupEstimate, error) {
			r, err := NewStrided(tbl, q, 5)
			if err != nil {
				return nil, err
			}
			for !r.Done() {
				if _, err := r.Step(700); err != nil {
					return nil, err
				}
			}
			return r.Estimates(), nil
		}},
	}
	where := expr.Cmp("i", expr.LT, storage.Int(60))
	for _, agg := range []struct {
		fn  exec.AggFunc
		col string
	}{
		{exec.AggSum, "x"}, {exec.AggAvg, "x"}, {exec.AggMin, "x"}, {exec.AggMax, "x"},
		{exec.AggCount, "x"}, {exec.AggCount, "*"},
	} {
		for _, q := range []aqp.Query{
			{Agg: agg.fn, Col: agg.col},
			{Agg: agg.fn, Col: agg.col, GroupBy: "g"},
			{Agg: agg.fn, Col: agg.col, GroupBy: "g", Where: where},
		} {
			truth := execTruth(t, tbl, q)
			for _, f := range feeds {
				if f.grouped && q.GroupBy == "" {
					continue
				}
				ests, err := f.run(q)
				if err != nil {
					t.Fatalf("%s %v: %v", f.name, q, err)
				}
				if msg := matchesTruth(q, ests, truth); msg != "" {
					t.Errorf("%s %v: %s", f.name, q, msg)
				}
			}
		}
	}
}

// TestPrefixIsAWeightedView is the identity that lets online aggregation
// and AQP share one estimator: a Runner stopped after m of N rows reports
// exactly what aqp.OnView reports for those m rows as a sample whose every
// expansion weight is N/m — same estimates, same intervals, same counts —
// wherever in the shuffle the runner started. At Done it is aqp.Exact.
func TestPrefixIsAWeightedView(t *testing.T) {
	tbl := nullTable(t, 3000, 31)
	n := tbl.NumRows()
	rng := rand.New(rand.NewSource(32))
	aggs := []exec.AggFunc{exec.AggSum, exec.AggCount, exec.AggAvg, exec.AggMin, exec.AggMax}
	for trial := 0; trial < 60; trial++ {
		q := aqp.Query{Agg: aggs[rng.Intn(len(aggs))], Col: "x"}
		if rng.Intn(2) == 0 {
			q.GroupBy = "g"
		}
		if rng.Intn(2) == 0 {
			q.Where = expr.Cmp("i", expr.LT, storage.Int(int64(5+rng.Intn(90))))
		}
		shuffle, start, m := rng.Perm(n), rng.Intn(n), 2+rng.Intn(n-2)
		r, err := NewShuffled(tbl, q, shuffle, start)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Step(m)
		if err != nil {
			t.Fatal(err)
		}
		prefix, weights := make([]int, m), make([]float64, m)
		for i := range prefix {
			prefix[i] = shuffle[(start+i)%n]
			weights[i] = float64(n) / float64(m)
		}
		want, err := aqp.OnView(tbl.Gather(prefix), weights, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d %v m=%d: %d groups, view has %d", trial, q, m, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Group != w.Group || g.N != w.N || !sameFloat(g.Est, w.Est, 1e-9) || !sameFloat(g.CI, w.CI, 1e-9) {
				t.Fatalf("trial %d %v m=%d start=%d group %v:\n runner %+v\n view   %+v", trial, q, m, start, w.Group, g, w)
			}
		}
		if _, err := r.RunUntil(0, 512); err != nil {
			t.Fatal(err)
		}
		exact, err := aqp.Exact(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		final := r.Estimates()
		if len(final) != len(exact) {
			t.Fatalf("trial %d %v at Done: %d groups, exact has %d", trial, q, len(final), len(exact))
		}
		for i := range exact {
			g, w := final[i], exact[i]
			if g.Group != w.Group || g.N != w.N || !sameFloat(g.Est, w.Est, 1e-9) || g.CI != 0 {
				t.Fatalf("trial %d %v at Done group %v:\n runner %+v\n exact  %+v", trial, q, w.Group, g, w)
			}
		}
	}
}

// rowOracle is the row-at-a-time estimator the batch lane replaced, kept as
// the reference it must reproduce bit for bit: rows are read through the
// boxed Column.Value, groups are keyed by Value.String, and the moments and
// their rendering repeat aqp.Estimator's arithmetic operation for operation.
type rowOracle struct {
	agg        exec.AggFunc
	mcol, gcol storage.Column // nil for COUNT(*) / without GROUP BY
	ids        map[string]int
	groups     []oracleGroup
}

type oracleGroup struct {
	key             string
	val             storage.Value
	n               int
	wsum, wx, sumY2 float64
	stream          metrics.Stream
}

func newRowOracle(tb testing.TB, t *storage.Table, q aqp.Query) *rowOracle {
	tb.Helper()
	o := &rowOracle{agg: q.Agg, ids: map[string]int{}}
	var err error
	if q.Col != "" && q.Col != "*" {
		if o.mcol, err = t.ColumnByName(q.Col); err != nil {
			tb.Fatal(err)
		}
	}
	if q.GroupBy != "" {
		if o.gcol, err = t.ColumnByName(q.GroupBy); err != nil {
			tb.Fatal(err)
		}
	}
	return o
}

// group returns row's group id, registering the group on first sight.
func (o *rowOracle) group(row int) int {
	var val storage.Value
	key := ""
	if o.gcol != nil {
		val = o.gcol.Value(row)
		key = val.String()
	}
	id, ok := o.ids[key]
	if !ok {
		id = len(o.groups)
		o.ids[key] = id
		o.groups = append(o.groups, oracleGroup{key: key, val: val})
	}
	return id
}

// add folds one qualifying row with weight 1 into group id.
func (o *rowOracle) add(id, row int) {
	a := &o.groups[id]
	a.n++
	x := 0.0
	if o.mcol != nil {
		v := o.mcol.Value(row)
		if v.Typ == storage.TFloat && math.IsNaN(v.F) {
			return
		}
		x = v.AsFloat()
	}
	w := 1.0
	y := w
	if o.agg == exec.AggSum {
		y = w * x
	}
	a.wsum += w
	a.wx += w * x
	a.sumY2 += y * y
	a.stream.Add(x)
}

// order returns the group ids by ascending key.
func (o *rowOracle) order() []int {
	ids := make([]int, len(o.groups))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(i, j int) bool { return o.groups[ids[i]].key < o.groups[ids[j]].key })
	return ids
}

func (o *rowOracle) estimates(draws func(id int) (k, scale float64)) []aqp.GroupEstimate {
	var out []aqp.GroupEstimate
	for _, id := range o.order() {
		a := &o.groups[id]
		k, scale := draws(id)
		ge := aqp.GroupEstimate{Group: a.val, N: a.n}
		switch o.agg {
		case exec.AggCount, exec.AggSum:
			sumY := a.wsum
			if o.agg == exec.AggSum {
				sumY = a.wx
			}
			ge.Est = scale * sumY
			if k > 1 {
				s2 := scale * scale * (k*k*a.sumY2 - k*sumY*sumY) / (k - 1)
				ge.CI = metrics.Z95 * math.Sqrt(math.Max(s2, 0)/k)
			}
		case exec.AggAvg:
			ge.Est = a.wx / a.wsum
			if k > 0 {
				ge.CI = a.stream.MeanCI(metrics.Z95)
				if a.stream.N() < 2 {
					ge.CI = math.Inf(1)
				}
			}
		default:
			ge.Est = math.NaN()
			if a.stream.N() > 0 {
				ge.Est = a.stream.Min()
				if o.agg == exec.AggMax {
					ge.Est = a.stream.Max()
				}
			}
			if k > 0 {
				ge.CI = math.Inf(1)
			}
		}
		out = append(out, ge)
	}
	return out
}

// oracleStep is the Runner.Step loop the batch lane replaced: consume up to
// batch rows of shuffle from position start+pos, testing each with
// Pred.Matches. It returns the new position.
func oracleStep(o *rowOracle, t *storage.Table, where *expr.Pred, shuffle []int, start, pos, batch int) int {
	n := len(shuffle)
	for end := min(pos+batch, n); pos < end; pos++ {
		at := start + pos
		if at >= n {
			at -= n
		}
		row := shuffle[at]
		if where == nil || where.Matches(t, row) {
			o.add(o.group(row), row)
		}
	}
	return pos
}

// sameBits reports the first difference between two renderings, comparing
// every float by its bits (any NaN equals any NaN), or "".
func sameBits(got, want []aqp.GroupEstimate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups, want %d", len(got), len(want))
	}
	eq := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
	}
	for i := range want {
		g, w := got[i], want[i]
		sameGroup := g.Group.Typ == w.Group.Typ && g.Group.I == w.Group.I && g.Group.S == w.Group.S && eq(g.Group.F, w.Group.F)
		if !sameGroup || g.N != w.N || !eq(g.Est, w.Est) || !eq(g.CI, w.CI) {
			return fmt.Sprintf("group %d:\n lane   %+v\n oracle %+v", i, g, w)
		}
	}
	return ""
}

// laneTable holds every column representation the batch lane reads: a
// dictionary-coded and a plain string, a run-length-coded int, a plain int
// whose values straddle 2^53 (where float64 cannot tell them apart), a
// float measure with NULLs and a float key holding NULL, 0 and -0.
func laneTable(tb testing.TB, n int, seed int64) *storage.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"ash", "birch", "cedar", "oak"}
	bigs := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, -5, 7}
	dv, pv := make([]string, n), make([]string, n)
	rv, kv := make([]int64, 0, n), make([]int64, n)
	xv, fv := make([]float64, n), make([]float64, n)
	keys := []float64{0.5, 2.5, 0, math.Copysign(0, -1), math.NaN()}
	for i := 0; i < n; i++ {
		dv[i] = labels[rng.Intn(len(labels))]
		fv[i] = keys[rng.Intn(len(keys))]
		pv[i] = labels[rng.Intn(len(labels))]
		kv[i] = bigs[rng.Intn(len(bigs))]
		xv[i] = 100 * rng.Float64()
		if rng.Intn(8) == 0 {
			xv[i] = math.NaN()
		}
	}
	for len(rv) < n {
		v := rng.Int63n(12) - 3
		for j := 1 + rng.Intn(8); j > 0 && len(rv) < n; j-- {
			rv = append(rv, v)
		}
	}
	t, err := storage.FromColumns("lane", storage.Schema{
		{Name: "d", Type: storage.TString},
		{Name: "p", Type: storage.TString},
		{Name: "r", Type: storage.TInt},
		{Name: "k", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
		{Name: "f", Type: storage.TFloat},
	}, []storage.Column{
		storage.EncodeDict(dv), storage.NewStringColumn(pv), storage.EncodeRLE(rv),
		storage.NewIntColumn(kv), storage.NewFloatColumn(xv), storage.NewFloatColumn(fv),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// laneWheres are the predicates of the bit-identity tests: the first ones
// compile to the predicate kernel (exact int64 leaves past 2^53, float
// leaves over NULLs, a dictionary leaf, an RLE range); the rest fall
// back to Pred.Matches.
var laneWheres = []struct {
	p        *expr.Pred
	fallback bool
}{
	{nil, false},
	{expr.Cmp("k", expr.GE, storage.Int(1<<53+1)), false},
	{expr.Cmp("k", expr.EQ, storage.Int(1<<53)), false},
	{expr.Cmp("x", expr.LT, storage.Float(50)), false},
	{expr.Cmp("x", expr.NE, storage.Float(50)), false},
	{expr.And(expr.Cmp("d", expr.NE, storage.String_("oak")), expr.Cmp("r", expr.GE, storage.Int(0)), expr.Cmp("r", expr.LT, storage.Int(6))), false},
	{expr.Or(expr.Cmp("x", expr.LT, storage.Float(20)), expr.Cmp("k", expr.EQ, storage.Int(1<<53+1))), true},
	{expr.Not(expr.Cmp("x", expr.GE, storage.Float(30))), true},
	{expr.Like("p", "%a%"), true},
}

// laneQueries are the five aggregates over each measure representation
// (float with NULLs, int past 2^53, run-length int) and COUNT(*), each
// ungrouped ("") and grouped by each of groups.
func laneQueries(groups ...string) []aqp.Query {
	var out []aqp.Query
	for _, group := range groups {
		out = append(out, aqp.Query{Agg: exec.AggCount, Col: "*", GroupBy: group})
		for _, col := range []string{"x", "k", "r"} {
			for _, agg := range []exec.AggFunc{exec.AggSum, exec.AggCount, exec.AggAvg, exec.AggMin, exec.AggMax} {
				out = append(out, aqp.Query{Agg: agg, Col: col, GroupBy: group})
			}
		}
	}
	return out
}

// TestBatchLaneMatchesRowOracle: at every batch, on every rotation of the
// shuffle — including ones whose window wraps past its end — the typed
// batch lane (window copy, kernel Refine or the Matches fallback, AddRows)
// renders exactly what the row-at-a-time loop renders, bit for bit, and a
// run stops after the same number of rows.
func TestBatchLaneMatchesRowOracle(t *testing.T) {
	const n, batch = 997, 97
	tbl := laneTable(t, n, 51)
	shuffle := rand.New(rand.NewSource(52)).Perm(n)
	for _, w := range laneWheres {
		for _, q := range laneQueries("", "d", "p", "r", "k", "f") {
			q.Where = w.p
			for _, start := range []int{0, n - 1, n - batch/2, 409} {
				r, err := NewShuffled(tbl, q, shuffle, start)
				if err != nil {
					t.Fatal(err)
				}
				if got := r.KernelFallback() != ""; got != w.fallback {
					t.Fatalf("%v: kernel fallback %q, want fallback=%v", q, r.KernelFallback(), w.fallback)
				}
				o := newRowOracle(t, tbl, q)
				stopAt := n // where the row loop's RunUntil(0.05) stopped
				for pos := 0; !r.Done(); {
					got, err := r.Step(batch)
					if err != nil {
						t.Fatal(err)
					}
					pos = oracleStep(o, tbl, q.Where, shuffle, start, pos, batch)
					if r.Processed() != pos {
						t.Fatalf("%v start %d: lane at %d rows, oracle at %d", q, start, r.Processed(), pos)
					}
					want := o.estimates(func(int) (float64, float64) {
						if pos == n {
							return 0, 1
						}
						return float64(pos), float64(n) / float64(pos)
					})
					if msg := sameBits(got, want); msg != "" {
						t.Fatalf("%v start %d after %d rows: %s", q, start, pos, msg)
					}
					worst := 0.0
					for _, g := range want {
						if rel := g.RelCI(); !(math.IsInf(rel, 1) && g.Est == 0) && rel > worst {
							worst = rel
						}
					}
					if stopAt == n && worst <= 0.05 && len(want) > 0 && pos > 1 {
						stopAt = pos
					}
				}
				// Run and RunUntil stop where the row loop's rule stopped.
				stop, err := NewShuffled(tbl, q, shuffle, start)
				if err != nil {
					t.Fatal(err)
				}
				snaps, err := stop.RunUntil(0.05, batch)
				if err != nil {
					t.Fatal(err)
				}
				run, err := NewShuffled(tbl, q, shuffle, start)
				if err != nil {
					t.Fatal(err)
				}
				batches, err := run.Run(context.Background(), 0.05, batch)
				if err != nil {
					t.Fatal(err)
				}
				if batches != len(snaps) || run.Processed() != stopAt || stop.Processed() != stopAt {
					t.Fatalf("%v start %d: Run stopped after %d batches / %d rows, RunUntil after %d / %d, the row loop after %d rows",
						q, start, batches, run.Processed(), len(snaps), stop.Processed(), stopAt)
				}
				for i, s := range snaps {
					if s.Processed != min((i+1)*batch, n) {
						t.Fatalf("%v start %d: snapshot %d at %d rows", q, start, i, s.Processed)
					}
				}
			}
		}
	}
}

// TestStridedLaneMatchesRowOracle: the strided runner's per-group slices
// reproduce, bit for bit and at every step, the row-at-a-time round-robin
// they replaced.
func TestStridedLaneMatchesRowOracle(t *testing.T) {
	const n = 601
	tbl := laneTable(t, n, 53)
	for _, w := range laneWheres {
		for _, q := range laneQueries("", "d", "p", "r", "k", "f") {
			if q.GroupBy == "" {
				continue
			}
			q.Where = w.p
			r, err := NewStrided(tbl, q, 54)
			if err != nil {
				t.Fatal(err)
			}
			// The oracle buckets row by row and shuffles each group, in key
			// order, from the same seed.
			o := newRowOracle(t, tbl, q)
			var rows [][]int
			for row := 0; row < n; row++ {
				if q.Where != nil && !q.Where.Matches(tbl, row) {
					continue
				}
				id := o.group(row)
				if id == len(rows) {
					rows = append(rows, nil)
				}
				rows[id] = append(rows[id], row)
			}
			rng := rand.New(rand.NewSource(54))
			order := o.order()
			for _, id := range order {
				g := rows[id]
				rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
			}
			next := make([]int, len(rows))
			cursor, done, total := 0, 0, 0
			for _, g := range rows {
				total += len(g)
			}
			for _, batch := range []int{1, 7, 50, 3, 200, 1000} {
				if r.Done() {
					break
				}
				got, err := r.Step(batch)
				if err != nil {
					t.Fatal(err)
				}
				for consumed := 0; consumed < batch && done < total; {
					id := order[cursor%len(order)]
					cursor++
					if next[id] >= len(rows[id]) {
						continue
					}
					o.add(id, rows[id][next[id]])
					next[id]++
					done++
					consumed++
				}
				want := o.estimates(func(id int) (float64, float64) {
					if next[id] == 0 || next[id] == len(rows[id]) {
						return 0, 1
					}
					return float64(next[id]), float64(len(rows[id])) / float64(next[id])
				})
				if msg := sameBits(got, want); msg != "" {
					t.Fatalf("%v after %d rows: %s", q, done, msg)
				}
			}
		}
	}
}

// TestLaneAtDoneIsExec: run to the end, online aggregation and aqp.Exact
// answer exactly what the reference evaluator answers, on NULL measures,
// ints past 2^53 and predicates of both the kernel and the fallback.
func TestLaneAtDoneIsExec(t *testing.T) {
	tbl := laneTable(t, 1500, 55)
	for _, w := range laneWheres {
		for _, q := range laneQueries("", "d", "p", "r", "k", "f") {
			q.Where = w.p
			truth := execTruth(t, tbl, q)
			r, err := New(tbl, q, 56)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.RunUntil(0, 256); err != nil {
				t.Fatal(err)
			}
			if msg := matchesTruth(q, r.Estimates(), truth); msg != "" {
				t.Errorf("Runner %v: %s", q, msg)
			}
			exact, err := aqp.Exact(tbl, q)
			if err != nil {
				t.Fatal(err)
			}
			if msg := matchesTruth(q, exact, truth); msg != "" {
				t.Errorf("aqp.Exact %v: %s", q, msg)
			}
		}
	}
}

// coverageTable has three groups of unequal size (60/30/10 %) with
// different, mildly skewed measure distributions.
func coverageTable(tb testing.TB, n int, seed int64) *storage.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	gv := make([]string, n)
	xv := make([]float64, n)
	for i := range gv {
		switch u := rng.Float64(); {
		case u < 0.6:
			gv[i], xv[i] = "a", 100+rng.NormFloat64()*15
		case u < 0.9:
			gv[i], xv[i] = "b", 40+rng.ExpFloat64()*20
		default:
			gv[i], xv[i] = "c", 300+rng.NormFloat64()*60
		}
	}
	t, err := storage.FromColumns("d", storage.Schema{
		{Name: "g", Type: storage.TString},
		{Name: "x", Type: storage.TFloat},
	}, []storage.Column{storage.NewStringColumn(gv), storage.NewFloatColumn(xv)})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestIntervalCoverageAtEveryStop: wherever a run is stopped — 5, 10, 25 or
// 50 % of the rows in — the reported ci95 must cover the exact answer about
// 95 % of the time, for each way the estimator is fed. Coverage is counted
// per reported interval; the floor is the nominal 95 % less three binomial
// standard deviations at the trial count (the intervals of one trial are
// not independent, so the trial count is the honest sample size).
func TestIntervalCoverageAtEveryStop(t *testing.T) {
	const (
		n      = 4000
		trials = 200
	)
	floor := 0.95 - 3*math.Sqrt(0.95*0.05/trials)
	tbl := coverageTable(t, n, 41)
	xcol, err := tbl.ColumnByName("x")
	if err != nil {
		t.Fatal(err)
	}
	importance := make([]float64, n) // sampling probability ∝ 50 + x
	for i := range importance {
		importance[i] = 50 + xcol.Value(i).AsFloat()
	}
	where := expr.Cmp("x", expr.GT, storage.Float(60))
	feeds := []struct {
		name    string
		queries []aqp.Query
		run     func(q aqp.Query, seed int64, rows int) ([]aqp.GroupEstimate, error)
	}{
		{"uniform prefix", []aqp.Query{
			{Agg: exec.AggSum, Col: "x"},
			{Agg: exec.AggCount, Col: "*", Where: where},
			{Agg: exec.AggAvg, Col: "x", GroupBy: "g"},
			{Agg: exec.AggSum, Col: "x", GroupBy: "g", Where: where},
		}, func(q aqp.Query, seed int64, rows int) ([]aqp.GroupEstimate, error) {
			// A shared shuffle entered at a per-trial rotation, as
			// core's Online mode does, every fourth trial from a fresh one.
			r, err := NewShuffled(tbl, q, rand.New(rand.NewSource(seed/4)).Perm(n), int(seed*7919)%n)
			if err != nil {
				return nil, err
			}
			return r.Step(rows)
		}},
		{"strided", []aqp.Query{
			{Agg: exec.AggSum, Col: "x", GroupBy: "g"},
			{Agg: exec.AggAvg, Col: "x", GroupBy: "g"},
			{Agg: exec.AggSum, Col: "x", GroupBy: "g", Where: where},
		}, func(q aqp.Query, seed int64, rows int) ([]aqp.GroupEstimate, error) {
			r, err := NewStrided(tbl, q, seed)
			if err != nil {
				return nil, err
			}
			return r.Step(rows)
		}},
		{"weighted sample", []aqp.Query{
			{Agg: exec.AggSum, Col: "x"},
			{Agg: exec.AggCount, Col: "*", Where: where},
			{Agg: exec.AggSum, Col: "x", GroupBy: "g"},
		}, func(q aqp.Query, seed int64, rows int) ([]aqp.GroupEstimate, error) {
			s, err := sample.Weighted(rand.New(rand.NewSource(seed)), importance, rows)
			if err != nil {
				return nil, err
			}
			return aqp.OnView(tbl.Gather(s.Rows), s.Weights, q)
		}},
	}
	for _, f := range feeds {
		for _, q := range f.queries {
			truth := execTruth(t, tbl, q)
			for _, frac := range []float64{0.05, 0.10, 0.25, 0.50} {
				covered, intervals := 0, 0
				for trial := int64(0); trial < trials; trial++ {
					ests, err := f.run(q, 1000+trial, int(frac*n))
					if err != nil {
						t.Fatal(err)
					}
					// A group the feed has not reached yet is a miss.
					intervals += len(truth)
					for _, g := range ests {
						key := ""
						if q.GroupBy != "" {
							key = g.Group.String()
						}
						// The slack is for an exhausted stratum: exact,
						// CI 0, summed in another order than the truth.
						if want := truth[key]; math.Abs(g.Est-want) <= g.CI+1e-9*math.Abs(want) {
							covered++
						}
					}
				}
				if got := float64(covered) / float64(intervals); got < floor {
					t.Errorf("%s, %v at %.0f%%: ci95 covered the exact answer in %.1f%% of %d intervals, floor %.1f%%",
						f.name, q, 100*frac, 100*got, intervals, 100*floor)
				}
			}
		}
	}
}
