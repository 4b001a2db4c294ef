package server

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dex/internal/exec"
	"dex/internal/metrics"
)

// scrape runs a mixed workload and returns the exposition plus the
// matching /admin/stats snapshot.
func scrape(t *testing.T) (string, StatsSnapshot) {
	t.Helper()
	ts, cl, srv, _ := newTestService(t, 20_000, Config{CacheRows: 1 << 20}, exec.ExecOptions{Parallelism: 1})
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)

	queries := []QueryRequest{
		{SQL: "SELECT COUNT(*) FROM sales"},
		{SQL: "SELECT COUNT(*) FROM sales"}, // cache hit
		// A drill-down whose range interior the bucket cells answer.
		{SQL: "SELECT region, SUM(amount) FROM sales WHERE amount >= 100 AND amount < 200 GROUP BY region"},
		{SQL: "SELECT region, AVG(amount) FROM sales GROUP BY region", Mode: "cracked"},
		{SQL: "SELECT AVG(amount) FROM sales", Mode: "approx"},
		{SQL: "SELECT SUM(amount) FROM sales", Mode: "online"},
	}
	for _, q := range queries {
		if _, err := cl.Query(ctx, id, q); err != nil {
			t.Fatalf("%s (%s): %v", q.SQL, q.Mode, err)
		}
	}
	// One failed query so error counters are exercised too.
	if _, err := cl.Query(ctx, id, QueryRequest{SQL: "SELECT nope FROM missing"}); err == nil {
		t.Fatal("query against missing table succeeded")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String(), srv.Stats()
}

// sampleValue extracts one sample's value from an exposition.
func sampleValue(t *testing.T, expo, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no sample %q in exposition", name)
	return 0
}

// TestMetricsExpositionValid checks /metrics serves structurally valid
// Prometheus text exposition: parseable samples, TYPE declarations,
// ascending le bounds with monotone cumulative counts, +Inf == _count.
func TestMetricsExpositionValid(t *testing.T) {
	expo, _ := scrape(t)
	if err := metrics.ValidateExposition(strings.NewReader(expo)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, expo)
	}
}

// TestMetricsConsistentWithStats cross-checks the exposition against the
// /admin/stats snapshot: same counters, same histogram counts, and a
// _sum consistent with the snapshot's mean.
func TestMetricsConsistentWithStats(t *testing.T) {
	expo, snap := scrape(t)

	counters := map[string]int64{
		`dex_queries_total{outcome="completed"}`:          snap.Queries.Completed,
		`dex_queries_total{outcome="cache_hit"}`:          snap.Queries.CacheHits,
		`dex_queries_total{outcome="failed"}`:             snap.Queries.Failed,
		`dex_queries_total{outcome="cancelled_internal"}`: snap.Queries.CancelledInternal,
		"dex_sessions_created_total":                      snap.Sessions.Created,
		"dex_rows_scanned_total":                          snap.RowsScanned,
		"dex_zone_skipped_total":                          snap.ZoneSkipped,
		"dex_index_morsels_total":                         snap.IndexMorsels,
		"dex_cell_queries_total":                          snap.CellQueries,
		"dex_agg_kernel_used_total":                       snap.AggKernelHits,
		"dex_agg_kernel_fallback_total":                   snap.AggKernelFallbacks,
		"dex_cache_hits_total":                            snap.Cache.Hits,
		"dex_cache_misses_total":                          snap.Cache.Misses,
	}
	if snap.CellQueries == 0 {
		t.Error("the drill-down counted no bucket-cell query")
	}
	// zone_skipped counts the morsels the value index skipped whole: the
	// ones with no edge candidate of the drill-down, and every morsel of
	// the COUNT(*) the cells answer — a subset of index_morsels.
	if snap.ZoneSkipped == 0 || snap.ZoneSkipped > snap.IndexMorsels {
		t.Errorf("zone_skipped %d, index_morsels %d: want 0 < zone_skipped <= index_morsels", snap.ZoneSkipped, snap.IndexMorsels)
	}
	for name, want := range counters {
		if got := sampleValue(t, expo, name); int64(got) != want {
			t.Errorf("%s = %v, exposition disagrees with /admin/stats %d", name, got, want)
		}
	}

	for mode, ms := range snap.Modes {
		cnt := sampleValue(t, expo, fmt.Sprintf("dex_query_duration_seconds_count{mode=%q}", mode))
		if int64(cnt) != ms.Count {
			t.Errorf("mode %s: _count %v != snapshot count %d", mode, cnt, ms.Count)
		}
		sum := sampleValue(t, expo, fmt.Sprintf("dex_query_duration_seconds_sum{mode=%q}", mode))
		// _sum (seconds) must reproduce the snapshot's exact mean.
		wantSum := ms.MeanMS / 1e3 * float64(ms.Count)
		if math.Abs(sum-wantSum) > 1e-9+1e-6*wantSum {
			t.Errorf("mode %s: _sum %v, want %v (mean %.6f ms x %d)", mode, sum, wantSum, ms.MeanMS, ms.Count)
		}
	}

	// The cached series must be present and separate from exact.
	if !strings.Contains(expo, `dex_query_duration_seconds_count{mode="cached"}`) {
		t.Error("no cached histogram series in exposition")
	}

	// The workload's exact-mode aggregates run with agg kernels on, so the
	// used counter must have moved — the series is live, not just present.
	if snap.AggKernelHits == 0 {
		t.Error("agg_kernel_hits still 0 after an aggregate workload")
	}
}
