package aqp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/sample"
	"dex/internal/storage"
)

// mkSkewed builds a table with a Zipf-ish group column g (a few huge groups,
// several rare ones) and a measure x.
func mkSkewed(tb testing.TB, n int, seed int64) *storage.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	groups := []string{"g0", "g1", "g2", "g3", "g4", "g5", "g6", "g7"}
	gv := make([]string, n)
	xv := make([]float64, n)
	for i := 0; i < n; i++ {
		// Zipf-ish: group j with probability ~ 1/2^j.
		j := 0
		for j < len(groups)-1 && rng.Float64() < 0.5 {
			j++
		}
		gv[i] = groups[j]
		xv[i] = 50 + 10*float64(j) + rng.NormFloat64()*5
	}
	t, err := storage.FromColumns("skew", storage.Schema{
		{Name: "g", Type: storage.TString},
		{Name: "x", Type: storage.TFloat},
	}, []storage.Column{storage.NewStringColumn(gv), storage.NewFloatColumn(xv)})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func TestExactMatchesExec(t *testing.T) {
	tbl := mkSkewed(t, 2000, 1)
	got, err := Exact(tbl, Query{Agg: exec.AggSum, Col: "x", GroupBy: "g"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Execute(tbl, exec.Query{
		Select:  []exec.SelectItem{{Col: "g"}, {Col: "x", Agg: exec.AggSum}},
		GroupBy: []string{"g"},
		OrderBy: []exec.OrderKey{{Col: "g"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want.NumRows() {
		t.Fatalf("groups = %d vs %d", len(got), want.NumRows())
	}
	for i, g := range got {
		if g.Group.S != want.Row(i)[0].S {
			t.Errorf("group %d = %v vs %v", i, g.Group, want.Row(i)[0])
		}
		if math.Abs(g.Est-want.Row(i)[1].F) > 1e-6 {
			t.Errorf("sum %s = %v vs %v", g.Group.S, g.Est, want.Row(i)[1].F)
		}
		if g.CI != 0 {
			t.Errorf("exact CI = %v", g.CI)
		}
	}
}

func TestUniformEstimateWithinCI(t *testing.T) {
	tbl := mkSkewed(t, 20000, 2)
	rng := rand.New(rand.NewSource(3))
	truth, err := Exact(tbl, Query{Agg: exec.AggSum, Col: "x"})
	if err != nil {
		t.Fatal(err)
	}
	hit := 0
	const reps = 40
	for r := 0; r < reps; r++ {
		s, err := sample.UniformFrac(rng, tbl.NumRows(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		view := tbl.Gather(s.Rows)
		est, err := OnView(view, s.Weights, Query{Agg: exec.AggSum, Col: "x"})
		if err != nil {
			t.Fatal(err)
		}
		if len(est) != 1 {
			t.Fatal("want one scalar group")
		}
		if math.Abs(est[0].Est-truth[0].Est) <= est[0].CI {
			hit++
		}
	}
	// 95% CI should cover the truth most of the time.
	if hit < reps*80/100 {
		t.Errorf("CI covered truth only %d/%d times", hit, reps)
	}
}

func TestAvgAndCountEstimates(t *testing.T) {
	tbl := mkSkewed(t, 30000, 4)
	rng := rand.New(rand.NewSource(5))
	s, _ := sample.UniformFrac(rng, tbl.NumRows(), 0.1)
	view := tbl.Gather(s.Rows)

	truthAvg, _ := Exact(tbl, Query{Agg: exec.AggAvg, Col: "x", GroupBy: "g"})
	estAvg, err := OnView(view, s.Weights, Query{Agg: exec.AggAvg, Col: "x", GroupBy: "g"})
	if err != nil {
		t.Fatal(err)
	}
	truthByGroup := map[string]float64{}
	for _, g := range truthAvg {
		truthByGroup[g.Group.S] = g.Est
	}
	for _, g := range estAvg {
		tr, ok := truthByGroup[g.Group.S]
		if !ok {
			continue
		}
		if rel := math.Abs(g.Est-tr) / tr; rel > 0.10 && g.N > 30 {
			t.Errorf("avg(%s) rel err %.3f with n=%d", g.Group.S, rel, g.N)
		}
	}

	truthCnt, _ := Exact(tbl, Query{Agg: exec.AggCount})
	estCnt, err := OnView(view, s.Weights, Query{Agg: exec.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(estCnt[0].Est-truthCnt[0].Est) / truthCnt[0].Est; rel > 0.01 {
		t.Errorf("count rel err = %.4f", rel)
	}
}

func TestMinMaxOnSampleUnbounded(t *testing.T) {
	tbl := mkSkewed(t, 1000, 6)
	rng := rand.New(rand.NewSource(7))
	s, _ := sample.UniformFrac(rng, tbl.NumRows(), 0.2)
	view := tbl.Gather(s.Rows)
	est, err := OnView(view, s.Weights, Query{Agg: exec.AggMin, Col: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(est[0].CI, 1) {
		t.Errorf("min CI = %v, want +Inf", est[0].CI)
	}
}

// TestSingleRowGroupIsNotCertain: one sampled row says nothing about a
// group's spread. Its AVG interval is unbounded rather than zero, and its
// SUM interval is the draw-level one — neither may read as converged.
func TestSingleRowGroupIsNotCertain(t *testing.T) {
	view, err := storage.FromColumns("v", storage.Schema{
		{Name: "g", Type: storage.TString},
		{Name: "x", Type: storage.TFloat},
	}, []storage.Column{
		storage.NewStringColumn([]string{"big", "big", "big", "one"}),
		storage.NewFloatColumn([]float64{10, 12, 14, 50}),
	})
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{25, 25, 25, 25}
	for _, agg := range []exec.AggFunc{exec.AggAvg, exec.AggSum} {
		est, err := OnView(view, weights, Query{Agg: agg, Col: "x", GroupBy: "g"})
		if err != nil {
			t.Fatal(err)
		}
		big, one := est[0], est[1]
		if one.Group.S != "one" || one.N != 1 {
			t.Fatalf("%v groups = %+v", agg, est)
		}
		if math.IsInf(big.CI, 0) || big.CI <= 0 {
			t.Errorf("%v three-row group CI = %v, want finite and positive", agg, big.CI)
		}
		if agg == exec.AggAvg && !math.IsInf(one.CI, 1) {
			t.Errorf("AVG one-row group CI = %v, want +Inf", one.CI)
		}
		if agg == exec.AggSum && !(one.RelCI() > 1) {
			t.Errorf("SUM one-row group rel CI = %v, want > 1", one.RelCI())
		}
	}
}

func TestEstimateWithPredicate(t *testing.T) {
	tbl := mkSkewed(t, 10000, 8)
	rng := rand.New(rand.NewSource(9))
	q := Query{Agg: exec.AggCount, Where: expr.Cmp("x", expr.GT, storage.Float(60))}
	truth, _ := Exact(tbl, q)
	s, _ := sample.UniformFrac(rng, tbl.NumRows(), 0.2)
	est, err := OnView(tbl.Gather(s.Rows), s.Weights, q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est[0].Est-truth[0].Est) / truth[0].Est; rel > 0.1 {
		t.Errorf("predicate count rel err = %.3f", rel)
	}
}

func TestQueryErrors(t *testing.T) {
	tbl := mkSkewed(t, 100, 10)
	if _, err := Exact(tbl, Query{Agg: exec.AggSum, Col: "g"}); !errors.Is(err, ErrUnsupportedAgg) {
		t.Errorf("sum over text err = %v", err)
	}
	if _, err := Exact(tbl, Query{Col: "x"}); !errors.Is(err, ErrBadQuery) {
		t.Errorf("missing agg err = %v", err)
	}
	if _, err := Exact(tbl, Query{Agg: exec.AggSum, Col: "zzz"}); err == nil {
		t.Error("missing column should error")
	}
}

func TestStratifiedBeatsUniformOnRareGroups(t *testing.T) {
	tbl := mkSkewed(t, 50000, 11)
	rng := rand.New(rand.NewSource(12))
	q := Query{Agg: exec.AggAvg, Col: "x", GroupBy: "g"}
	truth, _ := Exact(tbl, q)
	truthBy := map[string]float64{}
	for _, g := range truth {
		truthBy[g.Group.S] = g.Est
	}

	cat, err := NewCatalog(tbl, rng, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddStratified(rng, "g", 100); err != nil {
		t.Fatal(err)
	}
	samples := cat.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d", len(samples))
	}
	rareErr := func(s *Stored) float64 {
		est, err := OnView(s.View, s.Weights, q)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		found := map[string]bool{}
		for _, g := range est {
			found[g.Group.S] = true
			if tr := truthBy[g.Group.S]; tr != 0 {
				if rel := math.Abs(g.Est-tr) / tr; rel > worst {
					worst = rel
				}
			}
		}
		// Missing a group entirely counts as total error.
		for gname := range truthBy {
			if !found[gname] {
				worst = 1
			}
		}
		return worst
	}
	uniWorst := rareErr(samples[0])
	stWorst := rareErr(samples[1])
	if samples[1].StratCol != "g" {
		// order: uniform first then stratified by Samples(); adjust
		uniWorst, stWorst = stWorst, uniWorst
	}
	if stWorst >= uniWorst {
		t.Errorf("stratified worst-group err %.3f >= uniform %.3f", stWorst, uniWorst)
	}
}

func TestApproxErrorBoundEscalates(t *testing.T) {
	tbl := mkSkewed(t, 40000, 13)
	rng := rand.New(rand.NewSource(14))
	cat, err := NewCatalog(tbl, rng, 0.001, 0.01, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Agg: exec.AggSum, Col: "x"}
	res, err := cat.Approx(q, Bound{RelErr: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRelCI > 0.02 {
		t.Errorf("returned rel CI %.4f > bound", res.MaxRelCI)
	}
	// A tiny bound should escalate to a bigger sample than a loose one.
	loose, err := cat.Approx(q, Bound{RelErr: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Used.Rows() > res.Used.Rows() {
		t.Errorf("loose bound used %d rows, tight used %d", loose.Used.Rows(), res.Used.Rows())
	}
	truth, _ := Exact(tbl, q)
	if rel := math.Abs(res.Groups[0].Est-truth[0].Est) / truth[0].Est; rel > 0.05 {
		t.Errorf("approx rel err = %.4f", rel)
	}
}

func TestApproxRowBudget(t *testing.T) {
	tbl := mkSkewed(t, 20000, 15)
	rng := rand.New(rand.NewSource(16))
	cat, _ := NewCatalog(tbl, rng, 0.01, 0.05, 0.2)
	res, err := cat.Approx(Query{Agg: exec.AggAvg, Col: "x"}, Bound{MaxRows: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Used.Rows() > 1500 {
		t.Errorf("used %d rows over budget", res.Used.Rows())
	}
	// Budget below the smallest sample: no candidates.
	if _, err := cat.Approx(Query{Agg: exec.AggAvg, Col: "x"}, Bound{MaxRows: 10}); !errors.Is(err, ErrNoSample) {
		t.Errorf("tiny budget err = %v", err)
	}
}

func TestApproxUnreachableBoundReturnsBest(t *testing.T) {
	tbl := mkSkewed(t, 5000, 17)
	rng := rand.New(rand.NewSource(18))
	cat, _ := NewCatalog(tbl, rng, 0.01)
	res, err := cat.Approx(Query{Agg: exec.AggSum, Col: "x"}, Bound{RelErr: 1e-9})
	if !errors.Is(err, ErrNoSample) {
		t.Errorf("err = %v, want ErrNoSample", err)
	}
	if res == nil || len(res.Groups) == 0 {
		t.Error("best-effort result missing")
	}
}

func TestApproxPrefersStratifiedForGroupBy(t *testing.T) {
	tbl := mkSkewed(t, 30000, 19)
	rng := rand.New(rand.NewSource(20))
	cat, _ := NewCatalog(tbl, rng, 0.5)
	if err := cat.AddStratified(rng, "g", 200); err != nil {
		t.Fatal(err)
	}
	res, err := cat.Approx(Query{Agg: exec.AggAvg, Col: "x", GroupBy: "g"}, Bound{RelErr: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Used.StratCol != "g" {
		t.Errorf("used %s, want stratified sample", res.Used.Name)
	}
}

func TestRelCI(t *testing.T) {
	if (GroupEstimate{Est: 100, CI: 5}).RelCI() != 0.05 {
		t.Error("relci")
	}
	if (GroupEstimate{Est: 0, CI: 0}).RelCI() != 0 {
		t.Error("relci 0/0")
	}
	if !math.IsInf((GroupEstimate{Est: 0, CI: 1}).RelCI(), 1) {
		t.Error("relci x/0")
	}
}
