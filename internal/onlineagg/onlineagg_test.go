package onlineagg

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dex/internal/aqp"
	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/storage"
)

func mkData(tb testing.TB, n int, seed int64) *storage.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	gv := make([]string, n)
	xv := make([]float64, n)
	for i := range gv {
		gv[i] = string(rune('a' + rng.Intn(4)))
		xv[i] = 100 + rng.NormFloat64()*15
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

func TestConvergesToExact(t *testing.T) {
	tbl := mkData(t, 5000, 1)
	for _, agg := range []exec.AggFunc{exec.AggSum, exec.AggCount, exec.AggAvg, exec.AggMin, exec.AggMax} {
		q := aqp.Query{Agg: agg, Col: "x", GroupBy: "g"}
		r, err := New(tbl, q, 42)
		if err != nil {
			t.Fatal(err)
		}
		var last []aqp.GroupEstimate
		for !r.Done() {
			last, err = r.Step(1000)
			if err != nil {
				t.Fatal(err)
			}
		}
		truth, err := aqp.Exact(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(last) != len(truth) {
			t.Fatalf("%v: groups %d vs %d", agg, len(last), len(truth))
		}
		for i := range truth {
			if last[i].Group.S != truth[i].Group.S {
				t.Fatalf("%v: group order", agg)
			}
			if math.Abs(last[i].Est-truth[i].Est) > math.Abs(truth[i].Est)*1e-9+1e-9 {
				t.Errorf("%v(%s): final %v != exact %v", agg, truth[i].Group.S, last[i].Est, truth[i].Est)
			}
			if last[i].CI != 0 {
				t.Errorf("%v: final CI = %v, want 0", agg, last[i].CI)
			}
		}
	}
}

func TestCIShrinks(t *testing.T) {
	tbl := mkData(t, 20000, 2)
	r, err := New(tbl, aqp.Query{Agg: exec.AggAvg, Col: "x"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var cis []float64
	for i := 0; i < 10; i++ {
		ge, err := r.Step(1000)
		if err != nil {
			t.Fatal(err)
		}
		cis = append(cis, ge[0].CI)
	}
	// CI after 10k rows should be well under half the CI after 1k rows
	// (1/sqrt(10) ~ 0.32).
	if cis[9] > cis[0]*0.5 {
		t.Errorf("CI did not shrink: first=%v last=%v", cis[0], cis[9])
	}
}

func TestEarlyEstimateNearTruth(t *testing.T) {
	tbl := mkData(t, 50000, 3)
	q := aqp.Query{Agg: exec.AggSum, Col: "x"}
	truth, _ := aqp.Exact(tbl, q)
	r, _ := New(tbl, q, 11)
	ge, err := r.Step(2500) // 5% of rows
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(ge[0].Est-truth[0].Est) / truth[0].Est
	if rel > 0.05 {
		t.Errorf("5%% scan rel err = %.4f", rel)
	}
	if ge[0].CI <= 0 {
		t.Error("running CI should be positive")
	}
	// Truth inside the interval (should virtually always hold here).
	if math.Abs(ge[0].Est-truth[0].Est) > 3*ge[0].CI {
		t.Errorf("truth far outside CI: est=%v ci=%v truth=%v", ge[0].Est, ge[0].CI, truth[0].Est)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	tbl := mkData(t, 40000, 4)
	r, _ := New(tbl, aqp.Query{Agg: exec.AggAvg, Col: "x", GroupBy: "g"}, 13)
	snaps, err := r.RunUntil(0.01, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots")
	}
	final := snaps[len(snaps)-1]
	if final.MaxRelCI > 0.01 {
		t.Errorf("stopped at rel CI %.4f", final.MaxRelCI)
	}
	if final.Processed >= tbl.NumRows() {
		t.Errorf("consumed the whole table (%d rows) before hitting 1%% CI", final.Processed)
	}
	// Monotone progress.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Processed <= snaps[i-1].Processed {
			t.Error("snapshots not monotone")
		}
	}
}

func TestWithPredicate(t *testing.T) {
	tbl := mkData(t, 10000, 5)
	q := aqp.Query{Agg: exec.AggCount, Where: expr.Cmp("g", expr.EQ, storage.String_("a"))}
	truth, _ := aqp.Exact(tbl, q)
	r, _ := New(tbl, q, 17)
	var last []aqp.GroupEstimate
	for !r.Done() {
		var err error
		last, err = r.Step(2000)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last[0].Est != truth[0].Est {
		t.Errorf("final count %v != %v", last[0].Est, truth[0].Est)
	}
}

func TestErrors(t *testing.T) {
	tbl := mkData(t, 100, 6)
	if _, err := New(tbl, aqp.Query{Agg: exec.AggSum, Col: "zzz"}, 1); err == nil {
		t.Error("missing column")
	}
	if _, err := New(tbl, aqp.Query{Agg: exec.AggSum, Col: "g"}, 1); err == nil {
		t.Error("sum over text")
	}
	if _, err := New(tbl, aqp.Query{Col: "x"}, 1); err == nil {
		t.Error("missing agg")
	}
	if _, err := New(tbl, aqp.Query{Agg: exec.AggSum, Col: "x",
		Where: expr.Cmp("nope", expr.EQ, storage.Int(1))}, 1); err == nil {
		t.Error("bad predicate column")
	}
	r, _ := New(tbl, aqp.Query{Agg: exec.AggSum, Col: "x"}, 1)
	if _, err := r.Step(0); !errors.Is(err, ErrBadBatch) {
		t.Errorf("batch=0 err = %v", err)
	}
	for !r.Done() {
		if _, err := r.Step(50); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Step(50); !errors.Is(err, ErrDone) {
		t.Errorf("post-done err = %v", err)
	}
}

func TestProgress(t *testing.T) {
	tbl := mkData(t, 100, 7)
	r, _ := New(tbl, aqp.Query{Agg: exec.AggCount}, 1)
	if r.Progress() != 0 {
		t.Error("fresh progress")
	}
	if _, err := r.Step(25); err != nil {
		t.Fatal(err)
	}
	if r.Progress() != 0.25 || r.Processed() != 25 {
		t.Errorf("progress = %v", r.Progress())
	}
}

// mkSkewedGroups builds data where group "rare" is 1% of rows.
func mkSkewedGroups(tb testing.TB, n int, seed int64) *storage.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	gv := make([]string, n)
	xv := make([]float64, n)
	for i := range gv {
		if rng.Float64() < 0.01 {
			gv[i] = "rare"
			xv[i] = 500 + rng.NormFloat64()*20
		} else {
			gv[i] = "big"
			xv[i] = 100 + rng.NormFloat64()*15
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

func TestStridedConvergesToExact(t *testing.T) {
	tbl := mkSkewedGroups(t, 20000, 11)
	for _, agg := range []exec.AggFunc{exec.AggSum, exec.AggCount, exec.AggAvg} {
		q := aqp.Query{Agg: agg, Col: "x", GroupBy: "g"}
		r, err := NewStrided(tbl, q, 12)
		if err != nil {
			t.Fatal(err)
		}
		var last []aqp.GroupEstimate
		for !r.Done() {
			last, err = r.Step(5000)
			if err != nil {
				t.Fatal(err)
			}
		}
		truth, _ := aqp.Exact(tbl, q)
		if len(last) != len(truth) {
			t.Fatalf("%v groups %d vs %d", agg, len(last), len(truth))
		}
		for i := range truth {
			if math.Abs(last[i].Est-truth[i].Est) > math.Abs(truth[i].Est)*1e-9+1e-9 {
				t.Errorf("%v(%s) final %v != exact %v", agg, truth[i].Group.S, last[i].Est, truth[i].Est)
			}
			if last[i].CI != 0 {
				t.Errorf("%v final CI = %v", agg, last[i].CI)
			}
		}
	}
}

func TestStridingEqualizesGroupConvergence(t *testing.T) {
	tbl := mkSkewedGroups(t, 50000, 13)
	q := aqp.Query{Agg: exec.AggAvg, Col: "x", GroupBy: "g"}
	relCI := func(ests []aqp.GroupEstimate, group string) float64 {
		for _, g := range ests {
			if g.Group.S == group {
				return g.RelCI()
			}
		}
		return math.Inf(1)
	}
	// Plain runner after 5% of rows: the rare group saw only ~25 samples.
	plain, err := New(tbl, q, 14)
	if err != nil {
		t.Fatal(err)
	}
	pEst, err := plain.Step(2500)
	if err != nil {
		t.Fatal(err)
	}
	// Strided runner after the same budget: rare group saw ~1250 samples.
	strided, err := NewStrided(tbl, q, 14)
	if err != nil {
		t.Fatal(err)
	}
	sEst, err := strided.Step(2500)
	if err != nil {
		t.Fatal(err)
	}
	pr, sr := relCI(pEst, "rare"), relCI(sEst, "rare")
	if sr >= pr {
		t.Errorf("striding rare-group rel CI %.5f >= plain %.5f", sr, pr)
	}
	// And at least ~3x tighter (sqrt(1250/25) ≈ 7, allow slack).
	if sr > pr/3 {
		t.Errorf("striding should tighten the rare group much faster: %.5f vs %.5f", sr, pr)
	}
}

func TestStridedErrors(t *testing.T) {
	tbl := mkSkewedGroups(t, 100, 15)
	if _, err := NewStrided(tbl, aqp.Query{Agg: exec.AggSum, Col: "x"}, 1); err == nil {
		t.Error("no GROUP BY should error")
	}
	if _, err := NewStrided(tbl, aqp.Query{Col: "x", GroupBy: "g"}, 1); err == nil {
		t.Error("missing agg should error")
	}
	if _, err := NewStrided(tbl, aqp.Query{Agg: exec.AggSum, Col: "zzz", GroupBy: "g"}, 1); err == nil {
		t.Error("missing column should error")
	}
	r, _ := NewStrided(tbl, aqp.Query{Agg: exec.AggSum, Col: "x", GroupBy: "g"}, 1)
	if _, err := r.Step(0); !errors.Is(err, ErrBadBatch) {
		t.Errorf("batch err = %v", err)
	}
	for !r.Done() {
		if _, err := r.Step(50); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Step(10); !errors.Is(err, ErrDone) {
		t.Errorf("done err = %v", err)
	}
}

func TestStridedWithPredicate(t *testing.T) {
	tbl := mkSkewedGroups(t, 5000, 16)
	q := aqp.Query{Agg: exec.AggCount, Col: "x", GroupBy: "g",
		Where: expr.Cmp("x", expr.GT, storage.Float(90))}
	r, err := NewStrided(tbl, q, 17)
	if err != nil {
		t.Fatal(err)
	}
	var last []aqp.GroupEstimate
	for !r.Done() {
		last, err = r.Step(1000)
		if err != nil {
			t.Fatal(err)
		}
	}
	truth, _ := aqp.Exact(tbl, q)
	for i := range truth {
		if last[i].Est != truth[i].Est {
			t.Errorf("count %s = %v, want %v", truth[i].Group.S, last[i].Est, truth[i].Est)
		}
	}
}

// expiresAfter is a context whose deadline "fires" after a fixed number of
// Err checks — RunUntilCtx makes one per batch — so the deadline tests are
// exact about how many batches ran and never sleep.
type expiresAfter struct {
	context.Context
	checks int
	err    error
}

func (c *expiresAfter) Err() error {
	if c.checks--; c.checks < 0 {
		return c.err
	}
	return nil
}

// TestRunUntilCtxDeadlineIsAStoppingRule pins online aggregation's promise:
// a deadline that fires after at least one batch ends the run normally with
// the estimates it has (finite CIs, partial progress); a deadline that
// fires before any batch, and any client cancellation, still return the
// context error.
func TestRunUntilCtxDeadlineIsAStoppingRule(t *testing.T) {
	tbl := mkData(t, 40000, 4)
	q := aqp.Query{Agg: exec.AggAvg, Col: "x", GroupBy: "g"}
	for _, tc := range []struct {
		name    string
		checks  int
		err     error
		wantErr error
		batches int
	}{
		{"deadline after 3 batches", 3, context.DeadlineExceeded, nil, 3},
		{"deadline before any batch", 0, context.DeadlineExceeded, context.DeadlineExceeded, 0},
		{"cancel after 3 batches", 3, context.Canceled, context.Canceled, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(tbl, q, 13)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &expiresAfter{Context: context.Background(), checks: tc.checks, err: tc.err}
			// Target 0 never stops on its own: only the context can end the run early.
			snaps, err := r.RunUntilCtx(ctx, 0, 500)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if len(snaps) != tc.batches {
				t.Fatalf("%d batches ran, want %d", len(snaps), tc.batches)
			}
			if tc.wantErr != nil {
				return
			}
			if p := r.Progress(); p <= 0 || p >= 1 {
				t.Fatalf("progress at the deadline = %v, want a partial scan", p)
			}
			ests := r.Estimates()
			if len(ests) != 4 {
				t.Fatalf("%d group estimates at the deadline, want 4", len(ests))
			}
			for _, g := range ests {
				if math.IsNaN(g.Est) || math.IsInf(g.CI, 0) || math.IsNaN(g.CI) || g.CI <= 0 {
					t.Fatalf("group %v at the deadline: est=%v ci=%v, want a finite positive CI", g.Group, g.Est, g.CI)
				}
			}
		})
	}
}
