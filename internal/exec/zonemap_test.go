package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/storage"
	"dex/internal/trace"
)

// zoneSkipped runs the query traced and returns the result plus the scan
// span's zone_skipped counter.
func zoneSkipped(t *testing.T, tbl *storage.Table, q Query, opt ExecOptions) (*storage.Table, int64) {
	t.Helper()
	ctx, sp := trace.Start(context.Background(), "q")
	res, err := ExecuteCtx(ctx, tbl, q, opt)
	sp.End()
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	js := sp.JSON()
	for _, c := range js.Children {
		if c.Name == "scan" {
			if v, ok := c.Attrs["zone_skipped"].(int64); ok {
				return res, v
			}
			return res, 0
		}
	}
	return res, 0
}

// TestZoneMapParityProperty is the zone-map correctness harness: for random
// tables (clustered and unclustered, NaN-polluted and clean) and random
// queries — including the OR/NOT/string shapes pruning must ignore — the
// pruning pipeline's output must equal the reference evaluator's, which
// never consults a zone map. Pinned inputs follow the random ones: morsels
// of two rows holding only int64s past 2^53 (which compare in float64
// against a FLOAT constant, so 2^53+1 equals 2^53.0), ±Inf and NULLs, and
// unsatisfiable conjunctions.
func TestZoneMapParityProperty(t *testing.T) {
	check := func(label string, tbl *storage.Table, q Query, opt ExecOptions) {
		t.Helper()
		off, offErr := Execute(tbl, q)
		on, onErr := ExecuteOpts(tbl, q, opt)
		if (offErr == nil) != (onErr == nil) {
			t.Fatalf("%s: error mismatch off=%v on=%v", label, offErr, onErr)
		}
		if offErr == nil {
			requireSameTable(t, label, off, on)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 150; iter++ {
		rows := []int{0, 1, 13, 100, 1000}[rng.Intn(5)]
		nanFrac := []float64{0, 0.05, 1}[rng.Intn(3)]
		tbl := randParityTable(rng, rows, nanFrac)
		if rng.Intn(2) == 0 && rows > 0 {
			// Cluster on a numeric column: the case where pruning fires.
			sorted, err := tbl.SortBy([]string{"k", "x"}[rng.Intn(2)], false)
			if err != nil {
				t.Fatal(err)
			}
			tbl = sorted
		}
		q := randQuery(rng)
		opt := ExecOptions{
			Parallelism: 1 + rng.Intn(4),
			MorselSize:  []int{1, 3, 16, 64}[rng.Intn(4)],
		}
		label := fmt.Sprintf("iter=%d rows=%d nan=%.2f par=%d morsel=%d q=%s",
			iter, rows, nanFrac, opt.Parallelism, opt.MorselSize, q)
		check(label, tbl, q, opt)
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
	for _, p := range []*expr.Pred{
		expr.Cmp("k", expr.LE, f53),
		expr.Cmp("k", expr.EQ, f53),
		expr.Cmp("k", expr.GE, f53),
		expr.Cmp("k", expr.LT, storage.Float(p53+2)),
		expr.And(expr.Cmp("k", expr.GT, storage.Int(0)), expr.Cmp("k", expr.LE, f53)),
		expr.Cmp("k", expr.GE, storage.Int(math.MaxInt64)),
		expr.Cmp("k", expr.LE, storage.Float(math.NaN())),
		expr.Cmp("x", expr.GE, storage.Float(5)),
		expr.Cmp("x", expr.LT, storage.Float(math.Inf(1))),
		expr.Cmp("x", expr.LE, storage.Float(math.Inf(-1))),
		expr.And(expr.Cmp("k", expr.GT, storage.Int(5)), expr.Cmp("k", expr.LT, storage.Int(3))),
		expr.And(expr.Cmp("x", expr.GT, storage.Float(math.Inf(1))), expr.Cmp("k", expr.GE, storage.Int(0))),
	} {
		q := Query{Select: []SelectItem{{Col: "k"}, {Col: "x"}}, Where: p}
		check(fmt.Sprintf("edge morsel=2 q=%s", q), edge, q, ExecOptions{Parallelism: 1, MorselSize: 2})
	}
}

// TestZoneMapSkipsClusteredMorsels pins the tentpole behavior: on a table
// clustered by the predicate column, a selective range scan skips most
// morsels (visible in the scan span's zone_skipped attr) and still returns
// the exact row set.
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
	got, skipped := zoneSkipped(t, sorted, q, opt)
	requireSameTable(t, "clustered range scan", want, got)
	morsels := int64(storage.NumChunks(10_000, 256))
	if skipped < morsels/2 {
		t.Errorf("skipped %d of %d morsels, want at least half", skipped, morsels)
	}
	// The same query on the unclustered table prunes essentially nothing —
	// and must still be correct.
	gotU, skippedU := zoneSkipped(t, tbl, q, opt)
	wantU, err := Execute(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, "unclustered range scan", wantU, gotU)
	t.Logf("clustered skipped=%d/%d, unclustered skipped=%d", skipped, morsels, skippedU)
}

// TestZoneMapNonPrunableShapes: predicates pruning cannot reason about —
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
		got, skipped := zoneSkipped(t, sorted, q, opt)
		requireSameTable(t, fmt.Sprintf("pred %d", i), want, got)
		if skipped != 0 {
			t.Errorf("pred %d: skipped %d morsels from a non-prunable shape", i, skipped)
		}
	}
}

// TestZoneMapMixedConjunction: in a conjunction, the comparison conjuncts
// prune and the rest (a string equality) just filters — the combination
// must both skip morsels and produce the exact rows.
func TestZoneMapMixedConjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tbl := randParityTable(rng, 10_000, 0)
	sorted, err := tbl.SortBy("k", false)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Select: []SelectItem{{Col: "k"}, {Col: "s"}},
		Where: expr.And(
			expr.Cmp("k", expr.GE, storage.Int(300)),
			expr.Cmp("s", expr.EQ, storage.String_("green")),
		),
	}
	want, err := Execute(sorted, q)
	if err != nil {
		t.Fatal(err)
	}
	got, skipped := zoneSkipped(t, sorted, q, ExecOptions{Parallelism: 2, MorselSize: 256})
	requireSameTable(t, "mixed conjunction", want, got)
	if skipped == 0 {
		t.Error("no morsels skipped despite the clustered range conjunct")
	}
}

// TestZoneMapBuildFaultFailsScan: an armed zonemap-build failpoint fails a
// query whose predicate yields an interval with the injected error; a
// predicate with no interval never touches the build and succeeds.
func TestZoneMapBuildFaultFailsScan(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	rng := rand.New(rand.NewSource(43))
	tbl := randParityTable(rng, 2_000, 0)
	q := Query{
		Select: []SelectItem{{Col: "k"}},
		Where:  expr.Cmp("k", expr.GE, storage.Int(0)),
	}
	if err := fault.Enable("storage/zonemap-build", "error(1.0)"); err != nil {
		t.Fatal(err)
	}
	opt := ExecOptions{Parallelism: 2, MorselSize: 256}
	_, err := ExecuteOpts(tbl, q, opt)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("range predicate under armed build fault: err = %v, want injected", err)
	}
	q.Where = expr.Cmp("k", expr.NE, storage.Int(0))
	if _, err := ExecuteOpts(tbl, q, opt); err != nil {
		t.Fatalf("interval-free predicate under armed build fault: %v", err)
	}
}
