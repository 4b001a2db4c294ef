package seedb

import (
	"errors"
	"math/rand"
	"testing"

	"dex/internal/exec"
	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/storage"
)

// mkCensus builds a table where the target subset (flag=1) has a strongly
// different distribution of `signal` across dim `d1`, while `noise` columns
// are identically distributed — so the interesting view is known.
func mkCensus(tb testing.TB, n int, seed int64) *storage.Table {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	d1 := make([]string, n)
	d2 := make([]string, n)
	flag := make([]int64, n)
	signal := make([]float64, n)
	noise := make([]float64, n)
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		f := int64(0)
		if rng.Float64() < 0.3 {
			f = 1
		}
		flag[i] = f
		c := rng.Intn(len(cats))
		d1[i] = cats[c]
		d2[i] = cats[rng.Intn(len(cats))]
		base := 10.0
		if f == 1 && c < 2 { // target skews signal hard onto groups a,b
			base = 100.0
		}
		signal[i] = base + rng.NormFloat64()
		noise[i] = 50 + rng.NormFloat64()
	}
	t, err := storage.FromColumns("census", storage.Schema{
		{Name: "d1", Type: storage.TString},
		{Name: "d2", Type: storage.TString},
		{Name: "flag", Type: storage.TInt},
		{Name: "signal", Type: storage.TFloat},
		{Name: "noise", Type: storage.TFloat},
	}, []storage.Column{
		storage.NewStringColumn(d1), storage.NewStringColumn(d2),
		storage.NewIntColumn(flag), storage.NewFloatColumn(signal),
		storage.NewFloatColumn(noise),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return t
}

func target() *expr.Pred { return expr.Cmp("flag", expr.EQ, storage.Int(1)) }

func views() []View {
	return Candidates(
		[]string{"d1", "d2"},
		[]string{"signal", "noise"},
		[]exec.AggFunc{exec.AggSum, exec.AggAvg, exec.AggCount},
	)
}

func TestCandidates(t *testing.T) {
	vs := views()
	if len(vs) != 2*2*3 {
		t.Fatalf("candidates = %d", len(vs))
	}
	if vs[0].String() == "" {
		t.Error("view string")
	}
}

func TestTopViewIsThePlantedSignal(t *testing.T) {
	tbl := mkCensus(t, 8000, 1)
	top, _, err := Recommend(tbl, target(), views(), Options{K: 3, Strategy: SharedScan})
	if err != nil {
		t.Fatal(err)
	}
	best := top[0].View
	if best.Dim != "d1" || best.Measure != "signal" {
		t.Errorf("top view = %v, want signal by d1", best)
	}
	if top[0].Utility <= top[2].Utility {
		t.Error("utilities not ordered")
	}
}

func TestStrategiesAgreeOnRanking(t *testing.T) {
	tbl := mkCensus(t, 6000, 2)
	ex, exStats, err := Recommend(tbl, target(), views(), Options{K: 4, Strategy: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	sh, shStats, err := Recommend(tbl, target(), views(), Options{K: 4, Strategy: SharedScan})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ex {
		if ex[i].View != sh[i].View {
			t.Errorf("rank %d: %v vs %v", i, ex[i].View, sh[i].View)
		}
	}
	// Shared scan reads each row once; exhaustive once per view.
	if shStats.RowsScanned*int64(len(views())) != exStats.RowsScanned {
		t.Errorf("rows: shared=%d exhaustive=%d views=%d",
			shStats.RowsScanned, exStats.RowsScanned, len(views()))
	}
}

func TestPrunedFindsTopViewCheaper(t *testing.T) {
	tbl := mkCensus(t, 10000, 3)
	sh, shStats, err := Recommend(tbl, target(), views(), Options{K: 1, Strategy: SharedScan})
	if err != nil {
		t.Fatal(err)
	}
	pr, prStats, err := Recommend(tbl, target(), views(), Options{K: 1, Strategy: Pruned, Phases: 10})
	if err != nil {
		t.Fatal(err)
	}
	if pr[0].View != sh[0].View {
		t.Errorf("pruned top %v != shared top %v", pr[0].View, sh[0].View)
	}
	if prStats.ViewsPruned == 0 {
		t.Error("nothing was pruned")
	}
	if prStats.ViewUpdates >= shStats.ViewUpdates {
		t.Errorf("pruned updates %d >= shared %d", prStats.ViewUpdates, shStats.ViewUpdates)
	}
}

func TestOptionsValidation(t *testing.T) {
	tbl := mkCensus(t, 100, 4)
	if _, _, err := Recommend(tbl, target(), nil, Options{K: 1}); !errors.Is(err, ErrNoViews) {
		t.Errorf("no views err = %v", err)
	}
	if _, _, err := Recommend(tbl, target(), views(), Options{K: 0}); !errors.Is(err, ErrBadK) {
		t.Errorf("k=0 err = %v", err)
	}
	if _, _, err := Recommend(tbl, target(), views(), Options{K: 100}); !errors.Is(err, ErrBadK) {
		t.Errorf("k too big err = %v", err)
	}
	bad := []View{{Dim: "zzz", Measure: "signal", Agg: exec.AggSum}}
	if _, _, err := Recommend(tbl, target(), bad, Options{K: 1}); err == nil {
		t.Error("bad dim should error")
	}
	badM := []View{{Dim: "d1", Measure: "d2", Agg: exec.AggSum}}
	if _, _, err := Recommend(tbl, target(), badM, Options{K: 1}); err == nil {
		t.Error("text measure should error")
	}
	if _, _, err := Recommend(tbl, expr.Cmp("zzz", expr.EQ, storage.Int(1)), views(), Options{K: 1}); err == nil {
		t.Error("bad target predicate should error")
	}
}

func TestCountViewNeedsNoNumericMeasure(t *testing.T) {
	tbl := mkCensus(t, 500, 5)
	vs := []View{{Dim: "d1", Measure: "d2", Agg: exec.AggCount}}
	top, _, err := Recommend(tbl, target(), vs, Options{K: 1, Strategy: SharedScan})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 {
		t.Errorf("top = %v", top)
	}
}

func TestStrategyString(t *testing.T) {
	if Exhaustive.String() != "exhaustive" || SharedScan.String() != "shared-scan" || Pruned.String() != "pruned" {
		t.Error("strategy names")
	}
}

// TestSchedulerFaultIsReturned: an injected par/claim fault fails both
// pooled strategies with that error, at one worker and at several, instead
// of a ranking over the views or rows read before it fired.
func TestSchedulerFaultIsReturned(t *testing.T) {
	tbl := mkCensus(t, 6000, 3)
	if err := fault.Enable("par/claim", "error"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable("par/claim")
	for _, strategy := range []Strategy{Exhaustive, SharedScan} {
		for _, workers := range []int{1, 4} {
			top, _, err := Recommend(tbl, target(), views(), Options{K: 3, Strategy: strategy, Parallelism: workers})
			if !errors.Is(err, fault.ErrInjected) || top != nil {
				t.Fatalf("%v at %d workers: err = %v, top = %v; want the injected fault", strategy, workers, err, top)
			}
		}
	}
}
