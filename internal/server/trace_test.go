package server

import (
	"context"
	"testing"
	"time"

	"dex/internal/exec"
	"dex/internal/fault"
	"dex/internal/trace"
)

// stageNames flattens a span tree into its stage names.
func stageNames(sp *trace.SpanJSON) []string {
	if sp == nil {
		return nil
	}
	out := []string{sp.Name}
	for _, c := range sp.Children {
		out = append(out, stageNames(c)...)
	}
	return out
}

// child returns sp's direct child span of that name, or nil.
func child(sp *trace.SpanJSON, name string) *trace.SpanJSON {
	for _, c := range sp.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func hasStage(sp *trace.SpanJSON, name string) bool {
	for _, n := range stageNames(sp) {
		if n == name {
			return true
		}
	}
	return false
}

// TestServerTraceSpanTree is the acceptance check for the tracing layer:
// a query with "trace": true returns a span tree whose direct stage
// durations sum to within 10% of the traced total — the stages account
// for the query, they are not decoration.
func TestServerTraceSpanTree(t *testing.T) {
	defer fault.Reset()
	_, cl, _, _ := newTestService(t, 200_000, Config{}, exec.ExecOptions{Parallelism: 2})
	// A per-morsel delay makes the stages, not the microsecond gaps
	// between them, the bulk of a query the pipeline otherwise finishes in
	// a few milliseconds — the 90% cover below measures accounting, not
	// how fast the scan is.
	if err := fault.Enable("exec/scan", "latency(2ms)"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)

	res, err := cl.Query(ctx, id, QueryRequest{
		SQL:   "SELECT region, SUM(amount) FROM sales WHERE amount > 10 GROUP BY region",
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	root := res.Trace
	if root == nil {
		t.Fatal("trace:true returned no span tree")
	}
	if root.Name != "query" {
		t.Fatalf("root span %q, want query", root.Name)
	}
	for _, want := range []string{"admission", "parse", "plan", "scan", "group_by", "finish", "encode"} {
		if !hasStage(root, want) {
			t.Fatalf("span tree missing stage %q; have %v", want, stageNames(root))
		}
	}
	var sum float64
	for _, c := range root.Children {
		sum += c.DurationMS
	}
	if root.DurationMS <= 0 {
		t.Fatalf("root duration %v ms", root.DurationMS)
	}
	// Direct children must cover the root within 10% (small gaps between
	// stages are the only slack), and never exceed it.
	if sum < 0.9*root.DurationMS {
		t.Fatalf("stage durations sum to %.3fms of a %.3fms total (< 90%%); tree: %+v",
			sum, root.DurationMS, root)
	}
	if sum > root.DurationMS*1.001 {
		t.Fatalf("stage durations %.3fms exceed the root total %.3fms", sum, root.DurationMS)
	}

	// Span attrs carry the scan accounting.
	scan := child(root, "scan")
	if scan == nil || scan.Attrs["rows_in"] == nil || scan.Attrs["morsels"] == nil {
		t.Fatalf("scan span missing accounting attrs: %+v", scan)
	}
	// The encode span sits under the root and says what it rendered.
	if enc := child(root, "encode"); enc == nil || enc.Attrs["rows"] != float64(len(res.Rows)) || enc.Attrs["bytes"] == nil {
		t.Fatalf("encode span %+v for a %d-row answer", enc, len(res.Rows))
	}

	// A top-k projection reports its stage with k and the rows it chose from.
	res, err = cl.Query(ctx, id, QueryRequest{
		SQL:   "SELECT region, amount FROM sales WHERE amount > 10 ORDER BY amount DESC LIMIT 5",
		Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := child(res.Trace, "topk")
	if top == nil || top.Attrs["k"] != float64(5) || top.Attrs["rows_in"] != child(res.Trace, "scan").Attrs["rows_out"] {
		t.Fatalf("topk span %+v; tree %v", top, stageNames(res.Trace))
	}
	if enc := child(res.Trace, "encode"); enc == nil || enc.Attrs["rows"] != float64(5) {
		t.Fatalf("encode span %+v", enc)
	}

	// An untraced query must not carry a trace.
	res, err = cl.Query(ctx, id, QueryRequest{SQL: "SELECT COUNT(*) FROM sales"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced query returned a span tree")
	}
}

// TestServerTraceModes checks each execution mode contributes its
// mode-specific stage span. Every cracked-mode query opens the crack span:
// one the cracker serves names its column, one it cannot serve names the
// stable reason it fell back to the pipeline instead.
func TestServerTraceModes(t *testing.T) {
	_, cl, _, _ := newTestService(t, 50_000, Config{}, exec.ExecOptions{Parallelism: 1})
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)

	cases := []struct {
		mode  string
		sql   string
		stage string
		attrs map[string]any // on the stage span; a crack span with no "fallback" here must have none
	}{
		{"cracked", "SELECT COUNT(*) FROM sales WHERE amount > 50", "crack", map[string]any{"col": "amount"}},
		{"cracked", "SELECT COUNT(*) FROM sales WHERE amount > 50 AND qty < 3", "crack", map[string]any{"fallback": "multi-column"}},
		{"cracked", "SELECT COUNT(*) FROM sales WHERE amount > 50 OR amount < 3", "crack", map[string]any{"fallback": "not an interval"}},
		{"cracked", "SELECT COUNT(*) FROM sales WHERE qty <= 99999999999999999999", "crack", map[string]any{"col": "qty"}},
		{"cracked", "SELECT COUNT(*) FROM sales WHERE qty = 'a'", "crack", map[string]any{"fallback": "not numeric"}},
		{"cracked", "SELECT COUNT(*) FROM sales", "crack", map[string]any{"fallback": "no range"}},
		{"approx", "SELECT AVG(amount) FROM sales", "online", nil},
		{"online", "SELECT AVG(amount) FROM sales", "online", nil},
		{"online", "SELECT AVG(amount) FROM sales WHERE amount > 50", "online", map[string]any{"kernel": true}},
		{"online", "SELECT AVG(amount) FROM sales WHERE amount > 50 OR qty < 3", "online",
			map[string]any{"kernel": false, "kernel_fallback": "disjunction"}},
	}
	for _, tc := range cases {
		res, err := cl.Query(ctx, id, QueryRequest{SQL: tc.sql, Mode: tc.mode, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if res.Trace == nil || !hasStage(res.Trace, tc.stage) {
			t.Fatalf("%s: span tree missing %q stage; have %v", tc.mode, tc.stage, stageNames(res.Trace))
		}
		sp := child(res.Trace, tc.stage)
		for k, v := range tc.attrs {
			if sp == nil || sp.Attrs[k] != v {
				t.Errorf("%s: %q span %+v, want %s = %v", tc.sql, tc.stage, sp, k, v)
			}
		}
		if sp != nil && sp.Attrs["fallback"] != nil && tc.attrs["fallback"] == nil {
			t.Errorf("%s: crack span %+v reports a fallback", tc.sql, sp)
		}
		// An online span counts the rows its batches read and the ones that
		// qualified; without a WHERE it names no kernel. A query the bucket
		// cells answer also counts the cells it folded and the edge rows it
		// samples — none without a WHERE — and reads them all in one batch
		// here; any other walks the table. Approx mode runs the same runner.
		if tc.stage == "online" {
			processed, _ := sp.Attrs["processed"].(float64)
			matched, ok := sp.Attrs["matched"].(float64)
			cells, _ := sp.Attrs["cells"].(float64)
			edges, cellsPath := sp.Attrs["edge_rows"].(float64)
			switch {
			case !ok || matched > processed:
				t.Errorf("%s: online span %+v, want matched <= processed", tc.sql, sp)
			case cellsPath && (cells <= 0 || processed != edges || (tc.attrs == nil) != (edges == 0)):
				t.Errorf("%s: online span %+v, want cells > 0 and every edge row processed, none without a WHERE", tc.sql, sp)
			case !cellsPath && processed <= 0:
				t.Errorf("%s: online span %+v, want processed > 0", tc.sql, sp)
			}
			if wantCells := tc.attrs["kernel"] != false; cellsPath != wantCells {
				t.Errorf("%s: online span %+v: cells path %v, want %v", tc.sql, sp, cellsPath, wantCells)
			}
			if tc.attrs == nil && sp.Attrs["kernel"] != nil {
				t.Errorf("%s: online span %+v names a kernel without a WHERE", tc.sql, sp)
			}
		}
	}
}

// TestServerCachedHitHistogram is the regression test for the
// latency-accounting bug: a hot cached workload must leave the exact
// histogram untouched (hits used to be observed as 0-latency exact
// queries, sinking p50/p95 as the hit rate rose), and hits must be
// recorded with their real lookup latency under the cached series.
func TestServerCachedHitHistogram(t *testing.T) {
	_, cl, srv, _ := newTestService(t, 50_000, Config{CacheRows: 1 << 20}, exec.ExecOptions{Parallelism: 1})
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)

	const sql = "SELECT region, COUNT(*) FROM sales GROUP BY region"
	first, err := cl.Query(ctx, id, QueryRequest{SQL: sql})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution reported cached")
	}
	const hits = 25
	for i := 0; i < hits; i++ {
		res, err := cl.Query(ctx, id, QueryRequest{SQL: sql})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("hit %d not served from cache", i)
		}
		// A hit's elapsed_ms is the lookup the client paid, not the
		// original execution's cost.
		if res.ElapsedMS > first.ElapsedMS && res.ElapsedMS > 50 {
			t.Fatalf("cached elapsed %.3fms looks like an execution (first run took %.3fms)",
				res.ElapsedMS, first.ElapsedMS)
		}
	}

	snap := srv.Stats()
	exact, ok := snap.Modes["exact"]
	if !ok {
		t.Fatal("no exact series")
	}
	if exact.Count != 1 {
		t.Fatalf("exact histogram holds %d observations after %d cache hits, want 1 (engine executions only)",
			exact.Count, hits)
	}
	cached, ok := snap.Modes[statCached]
	if !ok {
		t.Fatalf("no %q series after cache hits; modes: %v", statCached, snap.Modes)
	}
	if cached.Count != hits {
		t.Fatalf("cached series holds %d observations, want %d", cached.Count, hits)
	}
	if snap.Queries.CacheHits != hits {
		t.Fatalf("cache_hits = %d, want %d", snap.Queries.CacheHits, hits)
	}
}

// TestServerSlowRing checks the /admin/slow ring retains traced slow
// queries (and only queries at or above the threshold).
func TestServerSlowRing(t *testing.T) {
	defer fault.Reset()
	_, cl, _, _ := newTestService(t, 10_000,
		Config{SlowThreshold: 30 * time.Millisecond, SlowRing: 4},
		exec.ExecOptions{Parallelism: 1})
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)

	// A normally-fast query should stay out of the ring — but a loaded
	// CI machine (race detector, parallel packages) can legitimately push
	// it over the threshold, so the hard assertion is the ring's own
	// invariant: no retained entry is ever below the threshold.
	if _, err := cl.Query(ctx, id, QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}); err != nil {
		t.Fatal(err)
	}
	slow, err := cl.Slow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range slow {
		if e.ElapsedMS < 30 {
			t.Fatalf("sub-threshold entry in the slow ring: %+v", e)
		}
	}

	// An injected scan latency pushes the query over the threshold.
	const slowSQL = "SELECT COUNT(*) FROM sales WHERE amount > 1"
	if err := fault.Enable("exec/scan", "latency(50ms)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query(ctx, id, QueryRequest{SQL: slowSQL}); err != nil {
		t.Fatal(err)
	}
	fault.Reset()

	slow, err = cl.Slow(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var found *trace.Entry
	for i := range slow {
		if slow[i].SQL == slowSQL {
			found = &slow[i]
		}
	}
	if found == nil {
		t.Fatalf("injected-latency query not in the slow ring: %+v", slow)
	}
	if found.ElapsedMS < 30 || found.Trace == nil || found.Outcome != "completed" || found.Mode != "exact" {
		t.Fatalf("slow entry malformed: %+v", found)
	}
	if !hasStage(found.Trace, "scan") {
		t.Fatalf("slow trace missing scan stage: %v", stageNames(found.Trace))
	}
}
