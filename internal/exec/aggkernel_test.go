package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"dex/internal/expr"
	"dex/internal/storage"
)

// TestCompileAggKernelShapes pins the compile contract: which query shapes
// bind to the typed path and the stable fallback reason for each shape
// that does not. Compilation never errors — invalid queries fall back so
// the generic operators report their canonical errors.
func TestCompileAggKernelShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := randParityTable(rng, 50, 0)
	enc := encodeParityTable(t, tbl)
	wide := func() *storage.Table {
		ss := make([]string, maxDictGroups+1)
		for i := range ss {
			ss[i] = fmt.Sprintf("g%05d", i)
		}
		w, err := storage.FromColumns("w", storage.Schema{{Name: "s", Type: storage.TString}},
			[]storage.Column{storage.EncodeDict(ss)})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}()

	cases := []struct {
		name   string
		tbl    *storage.Table
		q      Query
		reason string // "" = must compile
	}{
		{"scalar over int+float", tbl, Query{Select: []SelectItem{
			{Col: "*", Agg: AggCount}, {Col: "k", Agg: AggSum}, {Col: "x", Agg: AggMin}}}, ""},
		{"count over string", tbl, Query{Select: []SelectItem{{Col: "s", Agg: AggCount}}}, ""},
		{"min over string", tbl, Query{Select: []SelectItem{{Col: "s", Agg: AggMin}}}, "string agg input"},
		{"int group", tbl, Query{Select: []SelectItem{{Col: "d"}, {Col: "x", Agg: AggAvg}},
			GroupBy: []string{"d"}}, ""},
		{"dict group", enc, Query{Select: []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}},
			GroupBy: []string{"s"}}, ""},
		{"rle group", enc, Query{Select: []SelectItem{{Col: "d"}, {Col: "k", Agg: AggMax}},
			GroupBy: []string{"d"}}, ""},
		{"plain string group", tbl, Query{Select: []SelectItem{{Col: "s"}, {Col: "x", Agg: AggSum}},
			GroupBy: []string{"s"}}, "group column type"},
		{"float group", tbl, Query{Select: []SelectItem{{Col: "x"}, {Col: "k", Agg: AggSum}},
			GroupBy: []string{"x"}}, "group column type"},
		{"multi group", tbl, Query{Select: []SelectItem{{Col: "d"}, {Col: "s"}, {Col: "x", Agg: AggSum}},
			GroupBy: []string{"d", "s"}}, "multi-column group"},
		{"wide dict group", wide, Query{Select: []SelectItem{{Col: "s"}, {Col: "*", Agg: AggCount}},
			GroupBy: []string{"s"}}, "dict cardinality"},
		{"invalid mixed select", tbl, Query{Select: []SelectItem{{Col: "k"}, {Col: "x", Agg: AggSum}}}, "invalid query"},
		{"unknown column", tbl, Query{Select: []SelectItem{{Col: "nope", Agg: AggSum}}}, "invalid query"},
	}
	for _, tc := range cases {
		ak, reason := compileAggKernel(tc.tbl, tc.q)
		if tc.reason == "" {
			if ak == nil {
				t.Errorf("%s: expected compile, fell back: %s", tc.name, reason)
			}
			continue
		}
		if ak != nil {
			t.Errorf("%s: expected fallback %q, compiled", tc.name, tc.reason)
		} else if reason != tc.reason {
			t.Errorf("%s: fallback reason = %q, want %q", tc.name, reason, tc.reason)
		}
	}
}

// TestAggKernelInt64Extremes pins the min/max tie-breaking semantics the
// generic oracle gets from Value.Compare: int64 values straddling 2^53
// compare in the float64 domain, so the first seen among float-equal
// values must win on the typed path too.
func TestAggKernelInt64Extremes(t *testing.T) {
	mk := func(v []int64) *storage.Table {
		tbl, err := storage.FromColumns("t", storage.Schema{{Name: "k", Type: storage.TInt}},
			[]storage.Column{&storage.IntColumn{V: v}})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	q := Query{Select: []SelectItem{
		{Col: "k", Agg: AggMin}, {Col: "k", Agg: AggMax}, {Col: "k", Agg: AggSum}}}
	for _, v := range [][]int64{
		{1<<53 + 1, 1 << 53},
		{1 << 53, 1<<53 + 1},
		{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64},
		{-(1<<53 + 1), -(1 << 53), 0},
	} {
		tbl := mk(v)
		want, err := Execute(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExecuteOpts(tbl, q, ExecOptions{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTable(t, fmt.Sprintf("extremes %v", v), want, got)
	}
}

// TestAggSkipsGlobalSelection is the allocation-counting proof of the
// per-morsel handoff: an aggregate over a wide-open predicate must not
// materialize the global selection vector. A projection behind the same
// predicate has to build the merged []int — megabytes at this row count —
// and is the control that shows the measurement sees it; the aggregate's
// whole footprint stays under a small constant, because its only
// per-morsel buffer is pooled and returned.
func TestAggSkipsGlobalSelection(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count skipped under -race: sync.Pool drops a share of returned buffers on purpose")
	}
	const rows = 500_000
	rng := rand.New(rand.NewSource(61))
	tbl := randParityTable(rng, rows, 0)
	where := expr.Cmp("k", expr.GE, storage.Int(-500)) // matches every row
	agg := Query{Select: []SelectItem{{Col: "x", Agg: AggSum}, {Col: "*", Agg: AggCount}}, Where: where}
	proj := Query{Select: []SelectItem{{Col: "k"}}, Where: where}
	// Inline on both sides: no goroutine or scheduling allocations in the
	// measurement, just the pipeline's own buffers.
	opt := ExecOptions{Parallelism: 1}
	allocPerRun := func(q Query) uint64 {
		if _, err := ExecuteOpts(tbl, q, opt); err != nil { // warm pools and caches
			t.Fatal(err)
		}
		const reps = 5
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			if _, err := ExecuteOpts(tbl, q, opt); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	folded, merged := allocPerRun(agg), allocPerRun(proj)
	t.Logf("rows=%d aggregate=%dB projection=%dB", rows, folded, merged)
	const selBytes = rows * 8 // the merged []int the aggregate must not build
	if merged < selBytes/2 {
		t.Fatalf("projection allocated %dB; expected the %dB global selection vector — measurement broken", merged, selBytes)
	}
	if folded > selBytes/16 {
		t.Fatalf("aggregate allocated %dB per query; global selection (%dB) apparently materialized", folded, selBytes)
	}
}

// TestAggKernelCounters: every aggregate query moves exactly one of the
// hit/fallback counters — hit when the typed sink answered, fallback when
// the generic one did — and a projection moves neither.
func TestAggKernelCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	tbl := randParityTable(rng, 100, 0)
	var hits, falls atomic.Int64
	opt := ExecOptions{AggKernelHits: &hits, AggKernelFallbacks: &falls}
	agg := Query{Select: []SelectItem{{Col: "x", Agg: AggSum}}}
	if _, err := ExecuteOpts(tbl, agg, opt); err != nil {
		t.Fatal(err)
	}
	multi := Query{Select: []SelectItem{{Col: "d"}, {Col: "s"}, {Col: "*", Agg: AggCount}},
		GroupBy: []string{"d", "s"}}
	if _, err := ExecuteOpts(tbl, multi, opt); err != nil {
		t.Fatal(err)
	}
	proj := Query{Select: []SelectItem{{Col: "k"}}}
	if _, err := ExecuteOpts(tbl, proj, opt); err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 1 || falls.Load() != 1 {
		t.Fatalf("hits=%d fallbacks=%d, want 1/1", hits.Load(), falls.Load())
	}
}
