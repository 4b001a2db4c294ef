package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/storage"
	"dex/internal/trace"
)

// The value index skips a morsel that holds no candidate, under the typed
// kernel and the generic filter alike — the job per-morsel min/max zone
// maps did before it. The tests that pinned the zone maps keep their
// names, as the zone_skipped counters do, and pin the index's skipping.

// skipStats runs the query traced and returns the result plus the scan
// span's index_skipped and morsels counters.
func skipStats(t *testing.T, tbl *storage.Table, q Query, opt ExecOptions) (res *storage.Table, skipped, morsels int64) {
	t.Helper()
	res, js, err := tracedExec(tbl, q, opt)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, c := range js.Children {
		if c.Name == "scan" {
			skipped, _ = c.Attrs["index_skipped"].(int64)
			morsels, _ = c.Attrs["morsels"].(int64)
		}
	}
	return res, skipped, morsels
}

// TestZoneMapParityProperty is the index-skip correctness harness: for
// random tables (clustered and unclustered, NaN-polluted, all-NaN and
// clean) and random queries — including the OR/NOT/string shapes skipping
// must ignore, and generic-filter WHEREs (a LIKE leaf) beside an interval
// conjunct — the pipeline's output must equal the reference evaluator's,
// which never consults an index. Pinned inputs follow the random ones:
// morsels of two rows holding only int64s past 2^53 (which compare in
// float64 against a FLOAT constant, so 2^53+1 equals 2^53.0), ±Inf and
// NULLs, and unsatisfiable conjunctions, which must skip every morsel.
func TestZoneMapParityProperty(t *testing.T) {
	// check returns how many morsels the generic filter skipped.
	check := func(label string, tbl *storage.Table, q Query, opt ExecOptions) (genericSkipped int64) {
		t.Helper()
		off, offErr := Execute(tbl, q)
		on, js, onErr := tracedExec(tbl, q, opt)
		if (offErr == nil) != (onErr == nil) {
			t.Fatalf("%s: error mismatch off=%v on=%v", label, offErr, onErr)
		}
		if offErr == nil {
			requireSameTable(t, label, off, on)
		}
		for _, c := range js.Children {
			if c.Name == "scan" && c.Attrs["kernel"] == false {
				genericSkipped, _ = c.Attrs["index_skipped"].(int64)
			}
		}
		return genericSkipped
	}
	var genericSkipped int64
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 200; iter++ {
		rows := []int{0, 1, 13, 100, 1000}[rng.Intn(5)]
		nanFrac := []float64{0, 0.05, 1}[rng.Intn(3)]
		tbl := randParityTable(rng, rows, nanFrac)
		if rng.Intn(2) == 0 && rows > 0 {
			// Cluster on a numeric column: the case where skipping fires.
			sorted, err := tbl.SortBy([]string{"k", "x"}[rng.Intn(2)], false)
			if err != nil {
				t.Fatal(err)
			}
			tbl = sorted
		}
		q := randQuery(rng)
		if rng.Intn(4) == 0 {
			// A generic filter with an interval conjunct.
			leaf := randPred(rng, 0)
			q.Where = expr.And(leaf, expr.Like("s", []string{"re%", "%e%", "g_een"}[rng.Intn(3)]))
		}
		opt := ExecOptions{
			Parallelism: 1 + rng.Intn(4),
			MorselSize:  []int{1, 3, 16, 64}[rng.Intn(4)],
		}
		label := fmt.Sprintf("iter=%d rows=%d nan=%.2f par=%d morsel=%d q=%s",
			iter, rows, nanFrac, opt.Parallelism, opt.MorselSize, q)
		genericSkipped += check(label, tbl, q, opt)
	}
	if genericSkipped == 0 {
		t.Error("the generic filter skipped no morsel")
	}
	const p53 = 1 << 53
	edge, err := storage.FromColumns("edge", storage.Schema{
		{Name: "k", Type: storage.TInt},
		{Name: "x", Type: storage.TFloat},
	}, []storage.Column{
		storage.NewIntColumn([]int64{1, 2, p53 + 1, p53 + 1, math.MaxInt64, math.MinInt64}),
		storage.NewFloatColumn([]float64{0, 1, math.Inf(1), math.Inf(1), math.NaN(), math.Inf(-1)}),
	})
	if err != nil {
		t.Fatal(err)
	}
	f53 := storage.Float(p53)
	nan := storage.Float(math.NaN())
	for _, p := range []*expr.Pred{
		expr.Cmp("k", expr.LE, f53),
		expr.Cmp("k", expr.EQ, f53),
		expr.Cmp("k", expr.GE, f53),
		expr.Cmp("k", expr.LT, storage.Float(p53+2)),
		expr.And(expr.Cmp("k", expr.GT, storage.Int(0)), expr.Cmp("k", expr.LE, f53)),
		expr.Cmp("k", expr.GE, storage.Int(math.MaxInt64)),
		expr.Cmp("k", expr.LE, nan),
		expr.Cmp("x", expr.GE, storage.Float(5)),
		expr.Cmp("x", expr.LT, storage.Float(math.Inf(1))),
		expr.Cmp("x", expr.LE, storage.Float(math.Inf(-1))),
	} {
		q := Query{Select: []SelectItem{{Col: "k"}, {Col: "x"}}, Where: p}
		check(fmt.Sprintf("edge morsel=2 q=%s", q), edge, q, ExecOptions{Parallelism: 1, MorselSize: 2})
	}
	// Unsatisfiable: an empty interval's bucket run holds no row, so the
	// index skips every morsel, under either filter.
	for _, p := range []*expr.Pred{
		expr.And(expr.Cmp("k", expr.GT, storage.Int(5)), expr.Cmp("k", expr.LT, storage.Int(3))),
		expr.And(expr.Cmp("x", expr.GT, storage.Float(math.Inf(1))), expr.Cmp("k", expr.GE, storage.Int(0))),
		expr.Cmp("k", expr.EQ, storage.Float(2.5)),
		expr.And(expr.Cmp("k", expr.GE, storage.Float(1.25)), expr.Cmp("k", expr.LE, storage.Float(1.75))),
		expr.Cmp("k", expr.LT, nan),
		expr.Cmp("x", expr.GE, nan),
		expr.Cmp("x", expr.EQ, nan),
		expr.And(expr.Cmp("k", expr.EQ, storage.Float(0.5)), expr.Or(expr.Cmp("x", expr.GE, storage.Float(0)), expr.Cmp("k", expr.NE, storage.Int(2)))),
	} {
		q := Query{Select: []SelectItem{{Col: "k"}, {Col: "x"}}, Where: p}
		label := fmt.Sprintf("edge morsel=2 q=%s", q)
		check(label, edge, q, ExecOptions{Parallelism: 1, MorselSize: 2})
		if _, skipped, morsels := skipStats(t, edge, q, ExecOptions{Parallelism: 1, MorselSize: 2}); skipped != morsels || morsels != 3 {
			t.Errorf("%s: skipped %d of %d morsels, want all 3", label, skipped, morsels)
		}
	}
}

// TestZoneMapSkipsClusteredMorsels pins the skipping: on a table clustered
// by the predicate column, a selective range scan skips most morsels
// (visible in the scan span's index_skipped attr) and still returns the
// exact row set.
func TestZoneMapSkipsClusteredMorsels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tbl := randParityTable(rng, 10_000, 0)
	sorted, err := tbl.SortBy("k", false)
	if err != nil {
		t.Fatal(err)
	}
	// k is uniform over [-500, 500): [0, 50) selects ~5% of rows, clustered
	// into a handful of the ~40 morsels of 256.
	q := Query{
		Select: []SelectItem{{Col: "k"}, {Col: "x"}},
		Where: expr.And(
			expr.Cmp("k", expr.GE, storage.Int(0)),
			expr.Cmp("k", expr.LT, storage.Int(50)),
		),
	}
	opt := ExecOptions{Parallelism: 2, MorselSize: 256}
	want, err := Execute(sorted, q)
	if err != nil {
		t.Fatal(err)
	}
	got, skipped, morsels := skipStats(t, sorted, q, opt)
	requireSameTable(t, "clustered range scan", want, got)
	if morsels != int64(storage.NumChunks(10_000, 256)) || skipped < morsels*3/4 {
		t.Errorf("skipped %d of %d morsels, want at least three quarters", skipped, morsels)
	}
	// The same query on the unclustered table skips essentially nothing —
	// nearly every morsel holds a candidate — and must still be correct.
	gotU, skippedU, _ := skipStats(t, tbl, q, opt)
	wantU, err := Execute(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, "unclustered range scan", wantU, gotU)
	t.Logf("clustered skipped=%d/%d, unclustered skipped=%d", skipped, morsels, skippedU)
}

// TestZoneMapNonPrunableShapes: predicates skipping cannot reason about —
// disjunctions, negations, string comparisons, NE — skip nothing and stay
// correct.
func TestZoneMapNonPrunableShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	tbl := randParityTable(rng, 5_000, 0.05)
	sorted, err := tbl.SortBy("k", false)
	if err != nil {
		t.Fatal(err)
	}
	preds := []*expr.Pred{
		expr.Or(
			expr.Cmp("k", expr.GE, storage.Int(400)),
			expr.Cmp("k", expr.LT, storage.Int(-400)),
		),
		expr.Not(expr.Cmp("k", expr.LT, storage.Int(0))),
		expr.Cmp("s", expr.EQ, storage.String_("red")),
		expr.Cmp("k", expr.NE, storage.Int(0)),
	}
	opt := ExecOptions{Parallelism: 2, MorselSize: 256}
	for i, p := range preds {
		q := Query{Select: []SelectItem{{Col: "k"}}, Where: p}
		want, err := Execute(sorted, q)
		if err != nil {
			t.Fatal(err)
		}
		got, skipped, _ := skipStats(t, sorted, q, opt)
		requireSameTable(t, fmt.Sprintf("pred %d", i), want, got)
		if skipped != 0 {
			t.Errorf("pred %d: skipped %d morsels from a non-prunable shape", i, skipped)
		}
	}
}

// TestZoneMapMixedConjunction: in a conjunction, the comparison conjunct
// skips morsels and the rest — a string equality the kernel compiles, or
// a LIKE that puts the query on the generic filter — just filters. Either
// way the query must both skip morsels and produce the exact rows.
func TestZoneMapMixedConjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tbl := randParityTable(rng, 10_000, 0)
	sorted, err := tbl.SortBy("k", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, rest := range []*expr.Pred{
		expr.Cmp("s", expr.EQ, storage.String_("green")),
		expr.Like("s", "gr%"),
	} {
		q := Query{
			Select: []SelectItem{{Col: "k"}, {Col: "s"}},
			Where:  expr.And(expr.Cmp("k", expr.GE, storage.Int(300)), rest),
		}
		want, err := Execute(sorted, q)
		if err != nil {
			t.Fatal(err)
		}
		got, skipped, morsels := skipStats(t, sorted, q, ExecOptions{Parallelism: 2, MorselSize: 256})
		requireSameTable(t, q.String(), want, got)
		// k >= 300 holds the top fifth of the sorted rows.
		if skipped < morsels*3/4 {
			t.Errorf("%s: skipped %d of %d morsels despite the clustered range conjunct", q, skipped, morsels)
		}
	}
}

// TestZoneMapBuildFaultFailsScan: an armed storage/index-build failpoint
// fails a query whose predicate yields an interval with the injected
// error; a predicate with no interval never touches the build and
// succeeds; and the next query with an interval builds the index and
// matches the reference evaluator.
func TestZoneMapBuildFaultFailsScan(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	rng := rand.New(rand.NewSource(43))
	tbl := randParityTable(rng, 2_000, 0)
	q := Query{
		Select: []SelectItem{{Col: "k"}},
		Where:  expr.Cmp("k", expr.GE, storage.Int(0)),
	}
	if err := fault.Enable("storage/index-build", "error-once"); err != nil {
		t.Fatal(err)
	}
	opt := ExecOptions{Parallelism: 2, MorselSize: 256}
	_, err := ExecuteOpts(tbl, q, opt)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("range predicate under armed build fault: err = %v, want injected", err)
	}
	ne := Query{Select: q.Select, Where: expr.Cmp("k", expr.NE, storage.Int(0))}
	if _, err := ExecuteOpts(tbl, ne, opt); err != nil {
		t.Fatalf("interval-free predicate under armed build fault: %v", err)
	}
	want, err := Execute(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	got, js, err := tracedExec(tbl, q, opt)
	if err != nil {
		t.Fatalf("range predicate after the injected failure: %v", err)
	}
	requireSameTable(t, "after the injected failure", want, got)
	if built := indexBuilt(js); built != 1 {
		t.Fatalf("query after the failure built the index %d times, want once", built)
	}
}

// indexBuilt returns how many index spans of a traced query built one.
func indexBuilt(js *trace.SpanJSON) int {
	n := 0
	for _, c := range js.Children {
		if c.Name == "index" && c.Attrs["built"] == true {
			n++
		}
	}
	return n
}

// TestIndexBuildFaultUnderConcurrentQueries sends a fresh table's first
// queries from many goroutines at once while the index build's first
// attempt fails: the query whose build failed gets the injected error, one
// of the others builds the index, and every other query answers as the
// reference evaluator does.
func TestIndexBuildFaultUnderConcurrentQueries(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	tab := indexTable(rand.New(rand.NewSource(44)), 50_000)
	q := Query{Select: []SelectItem{{Col: "k"}, {Col: "x"}},
		Where: expr.Between("x", storage.Float(10), storage.Float(12))}
	want, err := Execute(tab, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable("storage/index-build", "error-once"); err != nil {
		t.Fatal(err)
	}
	const clients = 12
	var wg sync.WaitGroup
	got, errs, builds := make([]*storage.Table, clients), make([]error, clients), make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, sp := trace.Start(context.Background(), "q")
			got[i], errs[i] = ExecuteCtx(ctx, tab, q, ExecOptions{Parallelism: 2, MorselSize: 2048})
			sp.End()
			builds[i] = indexBuilt(sp.JSON())
		}()
	}
	wg.Wait()
	failed, built := 0, 0
	for i, err := range errs {
		if err != nil {
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("query error %v, want injected", err)
			}
			failed++
			continue
		}
		requireSameTable(t, "concurrent after a failed build", want, got[i])
		built += builds[i]
	}
	if failed != 1 || built != 1 {
		t.Fatalf("%d queries failed and %d built the index; want one of each", failed, built)
	}
}
