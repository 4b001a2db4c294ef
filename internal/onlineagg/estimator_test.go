package onlineagg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dex/internal/aqp"
	"dex/internal/exec"
	"dex/internal/expr"
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
