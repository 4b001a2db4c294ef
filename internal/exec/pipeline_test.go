package exec

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dex/internal/expr"
	"dex/internal/fault"
	"dex/internal/storage"
	"dex/internal/trace"
)

// encodeParityTable force-encodes the parity table's encodable columns —
// d as run-length, s as dictionary — sharing k and x. The heuristics are
// deliberately bypassed: the matrix tests representation semantics, not
// compression policy.
func encodeParityTable(t *testing.T, tbl *storage.Table) *storage.Table {
	t.Helper()
	cols := make([]storage.Column, tbl.NumCols())
	for i := 0; i < tbl.NumCols(); i++ {
		switch cc := tbl.Column(i).(type) {
		case *storage.StringColumn:
			cols[i] = storage.EncodeDict(cc.V)
		case *storage.IntColumn:
			if tbl.Schema()[i].Name == "d" {
				cols[i] = storage.EncodeRLE(cc.V)
			} else {
				cols[i] = cc
			}
		default:
			cols[i] = cc
		}
	}
	enc, err := storage.FromColumns(tbl.Name(), tbl.Schema(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestPipelineParityMatrix is the pipeline's acceptance matrix: the
// reference evaluator on the plain table is the oracle, and the pipeline
// over encodings (plain, dict+RLE) × parallelism (inline, 2–7 workers) ×
// morsel size (1–64) must match it on random tables and queries. randQuery
// draws projections, scalar aggregates and group-bys (including
// multi-column and plain-string ones, which take the generic sink) behind
// predicates that compile, that fall back (OR, plain-string leaves) and
// that prune, so every filter × sink pairing of the one loop is crossed.
// Two seeds keep the draws of the two matrices this one replaces. Runs
// under -race in CI: the worker-local group accumulators and
// morsel-indexed partials are exactly the state the race detector watches.
func TestPipelineParityMatrix(t *testing.T) {
	for _, seed := range []int64{23, 29} {
		rng := rand.New(rand.NewSource(seed))
		for iter := 0; iter < 120; iter++ {
			rows := []int{0, 1, 2, 13, 100, 1000}[rng.Intn(6)]
			nanFrac := []float64{0, 0.05, 0.5}[rng.Intn(3)]
			tbl := randParityTable(rng, rows, nanFrac)
			enc := encodeParityTable(t, tbl)
			q := randQuery(rng)
			par := ExecOptions{
				Parallelism: 2 + rng.Intn(6),
				MorselSize:  []int{1, 3, 16, 64}[rng.Intn(4)],
			}
			inline := par
			inline.Parallelism = 1
			oracle, oracleErr := Execute(tbl, q)
			for _, arm := range []struct {
				name string
				tbl  *storage.Table
				opt  ExecOptions
			}{
				{"plain", tbl, par},
				{"plain+inline", tbl, inline},
				{"encoded", enc, par},
				{"encoded+inline", enc, inline},
			} {
				got, err := ExecuteOpts(arm.tbl, q, arm.opt)
				label := fmt.Sprintf("seed=%d iter=%d arm=%s rows=%d nan=%.2f par=%d morsel=%d q=%s",
					seed, iter, arm.name, rows, nanFrac, arm.opt.Parallelism, arm.opt.MorselSize, q)
				if (oracleErr == nil) != (err == nil) {
					t.Fatalf("%s: error mismatch oracle=%v got=%v", label, oracleErr, err)
				}
				if oracleErr != nil {
					continue
				}
				requireSameTable(t, label, oracle, got)
			}
		}
	}
}

// TestExecuteSelMatchesGatherOracle pins selection input — what cracked
// mode hands the pipeline: for selections of distinct, ascending row ids,
// ExecuteSel must equal the reference evaluator over the gathered
// sub-table row for row. Group output order is the sharp part: first-seen
// order follows the row id, and must hold inline and parallel, over plain,
// dict and RLE columns.
func TestExecuteSelMatchesGatherOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 150; iter++ {
		rows := []int{1, 13, 100, 1000}[rng.Intn(4)]
		tbl := randParityTable(rng, rows, []float64{0, 0.05}[rng.Intn(2)])
		enc := encodeParityTable(t, tbl)
		sel := make([]int, []int{0, 1, 7, rows / 2, rows, 2 * rows}[rng.Intn(6)])
		for i := range sel {
			sel[i] = rng.Intn(rows)
		}
		sel = ascending(sel)
		if iter%5 == 0 {
			sel = nil // an empty probe result
		}
		q := randQuery(rng)
		q.Where = nil
		oracle, oracleErr := Execute(tbl.Gather(sel), q)
		for _, in := range []*storage.Table{tbl, enc} {
			for _, par := range []int{1, 4, 7} {
				for _, morsel := range []int{16, 1024} {
					opt := ExecOptions{Parallelism: par, MorselSize: morsel}
					got, err := ExecuteSel(context.Background(), in, Buckets{}, sel, q, opt)
					label := fmt.Sprintf("iter=%d encoded=%v rows=%d sel=%d par=%d morsel=%d q=%s",
						iter, in == enc, rows, len(sel), par, morsel, q)
					if (oracleErr == nil) != (err == nil) {
						t.Fatalf("%s: error mismatch oracle=%v got=%v", label, oracleErr, err)
					}
					if oracleErr != nil {
						continue
					}
					requireSameTable(t, label, oracle, got)
				}
			}
		}
	}
}

// ascending sorts sel and drops its repeats, in place: ExecuteSel's
// precondition on a drawn selection.
func ascending(sel []int) []int {
	slices.Sort(sel)
	return slices.Compact(sel)
}

// TestExecuteSelIgnoresWhere: the selection stands in for the predicate.
func TestExecuteSelIgnoresWhere(t *testing.T) {
	tbl := randParityTable(rand.New(rand.NewSource(89)), 50, 0)
	q := Query{Select: []SelectItem{{Col: "*", Agg: AggCount}},
		Where: expr.Cmp("k", expr.GT, storage.Int(1<<40))} // matches nothing
	got, err := ExecuteSel(context.Background(), tbl, Buckets{}, []int{1, 2, 3}, q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := got.Column(0).Value(0).I; n != 3 {
		t.Fatalf("count over a 3-row selection = %d", n)
	}
}

// TestScanSpanRecordsPlan: the scan span says which filter and sink the
// plan chose, with the pinned fallback reasons, and the merge span says
// what the row sinks kept: topk its k, project how many rows it gathered.
func TestScanSpanRecordsPlan(t *testing.T) {
	tbl := randParityTable(rand.New(rand.NewSource(97)), 500, 0)
	spanAttrs := func(q Query, name string) map[string]any {
		t.Helper()
		ctx, sp := trace.Start(context.Background(), "q")
		if _, err := ExecuteCtx(ctx, tbl, q, ExecOptions{MorselSize: 64}); err != nil {
			t.Fatal(err)
		}
		sp.End()
		for _, c := range sp.JSON().Children {
			if c.Name == name {
				return c.Attrs
			}
		}
		t.Fatalf("no %s span", name)
		return nil
	}
	typed := spanAttrs(Query{Select: []SelectItem{{Col: "d"}, {Col: "x", Agg: AggSum}},
		GroupBy: []string{"d"}, Where: expr.Cmp("k", expr.GE, storage.Int(0))}, "scan")
	if typed["kernel"] != true || typed["agg_kernel"] != true || typed["index"] != "k" || typed["index_skipped"] == nil {
		t.Errorf("typed plan attrs = %v", typed)
	}
	generic := spanAttrs(Query{Select: []SelectItem{{Col: "d"}, {Col: "s"}, {Col: "*", Agg: AggCount}},
		GroupBy: []string{"d", "s"}, Where: expr.Like("s", "re%")}, "scan")
	if generic["kernel"] != false || generic["kernel_fallback"] == "" ||
		generic["agg_kernel"] != false || generic["agg_kernel_fallback"] != "multi-column group" {
		t.Errorf("generic plan attrs = %v", generic)
	}
	matched, err := ExecuteOpts(tbl, Query{Select: []SelectItem{{Col: "k"}}, Where: expr.Cmp("k", expr.GE, storage.Int(0))}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	top := spanAttrs(Query{Select: []SelectItem{{Col: "k"}, {Col: "x"}}, Where: expr.Cmp("k", expr.GE, storage.Int(0)),
		OrderBy: []OrderKey{{Col: "x", Desc: true}}, Limit: 7}, "topk")
	if top["k"] != int64(7) || top["rows_in"] != int64(matched.NumRows()) || top["gathered"] != int64(7) {
		t.Errorf("topk attrs = %v (%d rows qualify)", top, matched.NumRows())
	}
	proj := spanAttrs(Query{Select: []SelectItem{{Col: "k"}}, Where: expr.Cmp("k", expr.GE, storage.Int(0)), Limit: 9}, "project")
	if proj["rows_in"] != int64(matched.NumRows()) || proj["gathered"] != int64(9) {
		t.Errorf("project attrs = %v (%d rows qualify)", proj, matched.NumRows())
	}
}

// TestSelPoolReset pins the pooled-buffer reset fix at both levels: the
// getSel contract (a claimed buffer always has length zero, whatever its
// previous life held), and end to end — a short low-selectivity query
// immediately after a long high-selectivity one cannot observe stale rows.
func TestSelPoolReset(t *testing.T) {
	buf := getSel()
	*buf = append(*buf, 7, 8, 9)
	putSel(buf)
	again := getSel()
	if len(*again) != 0 {
		t.Fatalf("pooled buffer claimed with %d stale entries", len(*again))
	}
	putSel(again)

	rng := rand.New(rand.NewSource(41))
	long := randParityTable(rng, 40000, 0)
	short := randParityTable(rng, 37, 0)
	opt := ExecOptions{Parallelism: 4, MorselSize: 512}
	// Long morsels, everything selected: every pooled buffer fills up.
	q := Query{Select: []SelectItem{{Col: "k"}}, Where: expr.Cmp("d", expr.GE, storage.Int(0))}
	if _, err := ExecuteOpts(long, q, opt); err != nil {
		t.Fatal(err)
	}
	// Short morsels, few rows selected: stale tails would surface as extra
	// rows versus the sequential oracle.
	q2 := Query{Select: []SelectItem{{Col: "k"}}, Where: expr.Cmp("d", expr.EQ, storage.Int(3))}
	opt2 := opt
	opt2.MorselSize = 8
	want, err := Execute(short, q2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecuteOpts(short, q2, opt2)
	if err != nil {
		t.Fatal(err)
	}
	requireSameTable(t, "short after long", want, got)
}

// TestSelPoolNoLeak: every buffer claimed during a query returns to the
// pool — on success, on a mid-scan injected error, and on cancellation by
// deadline while morsels are in flight — whether the morsel's buffer is
// parked until the merge (projection) or folded and returned at once
// (scalar and group sinks, typed and generic filter).
func TestSelPoolNoLeak(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	rng := rand.New(rand.NewSource(43))
	tbl := randParityTable(rng, 30000, 0)
	opt := ExecOptions{Parallelism: 4, MorselSize: 256}
	queries := []Query{
		{Select: []SelectItem{{Col: "k"}}, Where: expr.Cmp("k", expr.GE, storage.Int(-500))},
		{Select: []SelectItem{{Col: "x", Agg: AggSum}, {Col: "*", Agg: AggCount}},
			Where: expr.Cmp("k", expr.GE, storage.Int(-100))},
		{Select: []SelectItem{{Col: "d"}, {Col: "x", Agg: AggAvg}},
			GroupBy: []string{"d"},
			Where:   expr.Cmp("k", expr.LE, storage.Int(100))},
		{Select: []SelectItem{{Col: "s"}, {Col: "*", Agg: AggCount}},
			GroupBy: []string{"s"},
			Where:   expr.Or(expr.Cmp("k", expr.LE, storage.Int(0)), expr.Cmp("d", expr.EQ, storage.Int(1)))},
	}
	for qi, q := range queries {
		baseline := selOutstanding.Load()
		if _, err := ExecuteOpts(tbl, q, opt); err != nil {
			t.Fatal(err)
		}
		if got := selOutstanding.Load(); got != baseline {
			t.Fatalf("q%d success path: %d buffers outstanding", qi, got-baseline)
		}
		// A one-shot scan fault: one morsel errors, the others' buffers
		// must still come back.
		if err := fault.Enable("exec/scan", "error-once"); err != nil {
			t.Fatal(err)
		}
		if _, err := ExecuteOpts(tbl, q, opt); err == nil {
			t.Fatal("expected injected scan error")
		}
		fault.Disable("exec/scan")
		if got := selOutstanding.Load(); got != baseline {
			t.Fatalf("q%d error path: %d buffers outstanding", qi, got-baseline)
		}
		// Cancellation mid-scan: per-morsel latency makes the deadline
		// expire while workers hold claimed buffers.
		if err := fault.Enable("exec/scan", "latency(2ms)"); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
		if _, err := ExecuteCtx(ctx, tbl, q, opt); err == nil {
			t.Fatal("expected deadline error")
		}
		cancel()
		fault.Disable("exec/scan")
		if got := selOutstanding.Load(); got != baseline {
			t.Fatalf("q%d cancellation path: %d buffers outstanding", qi, got-baseline)
		}
	}
}

// TestSelBuffersSurviveCollection: the selection buffers a gather query
// parks, one per qualifying morsel, come back from the free list after any
// number of garbage collections, so what the query allocates does not
// depend on when the collector ran. Two collections empty a sync.Pool,
// and the query then allocated every parked buffer again.
func TestSelBuffersSurviveCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	tbl := randParityTable(rng, 200_000, 0)
	// About 1 % of the rows, in every one of the 49 morsels.
	q := Query{Select: []SelectItem{{Col: "k"}}, Where: expr.Cmp("k", expr.GE, storage.Int(490))}
	opt := ExecOptions{Parallelism: 1, MorselSize: 4096}
	allocAfter := func(collections int) uint64 {
		if _, err := ExecuteOpts(tbl, q, opt); err != nil { // warm the free list
			t.Fatal(err)
		}
		for i := 0; i < collections; i++ {
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ExecuteOpts(tbl, q, opt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	quiet, collected := allocAfter(0), allocAfter(3)
	t.Logf("bytes per query: %d with no collection before it, %d after three", quiet, collected)
	// One reallocated selection buffer is 128 KB; 49 were 6 MB.
	if collected > quiet+64<<10 {
		t.Fatalf("%d B per query after three collections against %d with none: parked buffers were allocated anew", collected, quiet)
	}
}

// TestKernelDispatchFailpoint: an armed exec/kernel-dispatch site fails
// exactly the queries whose WHERE clause compiles to a typed kernel —
// projections and aggregates alike — and is never reached by a dense
// aggregation (no predicate) or a predicate that falls back. The aggregate
// reads two inputs, so with no predicate it scans rather than fold cells.
func TestKernelDispatchFailpoint(t *testing.T) {
	fault.Reset()
	defer fault.Reset()
	rng := rand.New(rand.NewSource(47))
	tbl := randParityTable(rng, 200, 0)
	if err := fault.Enable("exec/kernel-dispatch", "error"); err != nil {
		t.Fatal(err)
	}
	compiles := expr.Cmp("k", expr.GT, storage.Int(0))
	fallsBack := expr.Like("s", "re%")
	for _, sel := range [][]SelectItem{{{Col: "k"}}, {{Col: "x", Agg: AggSum}, {Col: "k", Agg: AggMax}}} {
		if _, err := ExecuteOpts(tbl, Query{Select: sel, Where: compiles}, ExecOptions{}); err == nil {
			t.Fatalf("%v: expected injected dispatch error", sel)
		}
		if _, err := ExecuteOpts(tbl, Query{Select: sel, Where: fallsBack}, ExecOptions{}); err != nil {
			t.Fatalf("%v: fallback predicate must not hit the kernel seam: %v", sel, err)
		}
		if _, err := ExecuteOpts(tbl, Query{Select: sel}, ExecOptions{}); err != nil {
			t.Fatalf("%v: no predicate must not hit the kernel seam: %v", sel, err)
		}
	}
}
