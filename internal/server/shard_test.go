package server

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dex/internal/core"
	"dex/internal/metrics"
	"dex/internal/shard"
	"dex/internal/storage"
	"dex/internal/workload"
)

// newShardedService stands up a coordinator server over an in-process
// worker fleet, plus a single-node twin of the same seeded table for
// result comparison.
func newShardedService(t *testing.T, rows, shards int) (*httptest.Server, *Client, *shard.LocalFleet, *core.Engine) {
	t.Helper()
	fleet, err := shard.StartLocalFleet(context.Background(), shard.FleetConfig{
		Shards: shards, Rows: rows, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)

	mkEngine := func() *core.Engine {
		eng := core.New(core.Options{Seed: 1})
		sales, err := workload.Sales(rand.New(rand.NewSource(42)), rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Register(sales); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	srv := New(mkEngine(), Config{Shard: fleet.Coord, CacheRows: 1 << 20})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL), fleet, mkEngine()
}

// TestServerShardRouting: sales queries scatter across the fleet and come
// back identical to the single-node answer, at full coverage, on the
// unchanged HTTP surface.
func TestServerShardRouting(t *testing.T) {
	ts, cl, _, oracle := newShardedService(t, 15_000, 3)
	_ = ts
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)

	osrv := New(oracle, Config{})
	ots := httptest.NewServer(osrv)
	defer ots.Close()
	ocl := NewClient(ots.URL)
	oid, err := ocl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer ocl.EndSession(ctx, oid)

	for _, q := range []QueryRequest{
		{SQL: "SELECT COUNT(*) FROM sales"},
		{SQL: "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY region"},
		{SQL: "SELECT region, amount FROM sales WHERE amount > 250 ORDER BY amount DESC LIMIT 5"},
		{SQL: "SELECT AVG(amount) FROM sales", Mode: "approx"},
	} {
		got, err := cl.Query(ctx, id, q)
		if err != nil {
			t.Fatalf("%s: %v", q.SQL, err)
		}
		if got.Degraded || got.Coverage != 1 {
			t.Fatalf("%s: healthy fleet answered degraded=%v coverage=%v", q.SQL, got.Degraded, got.Coverage)
		}
		if q.Mode == "approx" {
			continue // estimates are sample-dependent; parity lives in internal/shard
		}
		want, err := ocl.Query(ctx, oid, q)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, q.SQL, got, want)
	}
}

// TestServerShardDegradation: after a worker dies, queries still answer
// — marked degraded with fractional coverage — and degraded results are
// never cached, so a later query cannot be served a stale partial once
// the fleet heals.
func TestServerShardDegradation(t *testing.T) {
	_, cl, fleet, _ := newShardedService(t, 12_000, 3)
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)

	snap := fleet.Coord.Snapshot()
	fleet.KillShard(2)
	req := QueryRequest{SQL: "SELECT COUNT(*) FROM sales"}
	res, err := cl.Query(ctx, id, req)
	if err != nil {
		t.Fatalf("degraded query must still answer: %v", err)
	}
	if !res.Degraded || res.Coverage <= 0 || res.Coverage >= 1 {
		t.Fatalf("want degraded fractional coverage, got degraded=%v coverage=%v", res.Degraded, res.Coverage)
	}
	survivors := snap.Rows - snap.Shards[2].Rows
	wantCov := float64(survivors) / float64(snap.Rows)
	if res.Coverage != wantCov {
		t.Fatalf("coverage %v, want surviving fraction %v", res.Coverage, wantCov)
	}
	// Re-issuing must recompute (degraded answers are uncacheable), and
	// the stats must count both degraded queries.
	if res2, err := cl.Query(ctx, id, req); err != nil || !res2.Degraded {
		t.Fatalf("second degraded query: res=%+v err=%v", res2, err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries.Degraded < 2 {
		t.Fatalf("degraded counter %d, want >= 2", st.Queries.Degraded)
	}
	if st.Shard == nil || st.Shard.Outcomes["degraded"] < 2 {
		t.Fatalf("shard snapshot missing degraded outcomes: %+v", st.Shard)
	}
}

// TestServerShardMetrics: the coordinator's per-shard series appear in
// /metrics with shard labels, the exposition stays parseable, and the
// numbers agree with /admin/stats. The COUNT(*) is answered from bucket
// cells; the GROUP BY reads two numeric inputs, so every worker scans.
func TestServerShardMetrics(t *testing.T) {
	ts, cl, _, _ := newShardedService(t, 10_000, 3)
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM sales",
		"SELECT region, SUM(amount), SUM(qty) FROM sales GROUP BY region",
	} {
		if _, err := cl.Query(ctx, id, QueryRequest{SQL: sql}); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	expo := sb.String()
	if err := metrics.ValidateExposition(strings.NewReader(expo)); err != nil {
		t.Fatalf("exposition invalid with shard series: %v", err)
	}
	for _, want := range []string{
		`dex_shard_rows{shard="0"}`,
		`dex_shard_rows{shard="2"}`,
		`dex_shard_rpc_total{shard="1"}`,
		`dex_shard_queries_total{outcome="ok"}`,
		"dex_shard_gather_duration_seconds_count",
		`dex_shard_rpc_duration_seconds_bucket{shard="0",le="+Inf"}`,
		`dex_shard_state{shard="0"} 0`,
		"dex_shard_coverage 1",
		`dex_shard_heals_total{kind="restage"}`,
		`dex_shard_worker_rows_scanned_total{shard="0"}`,
		`dex_shard_worker_zone_skipped_total{shard="2"}`,
		`dex_shard_worker_index_morsels_total{shard="1"}`,
		`dex_shard_worker_cell_queries_total{shard="0"}`,
		`dex_shard_crack_pieces{shard="1"}`,
		`dex_shard_cracks_total{shard="0"}`,
	} {
		if !strings.Contains(expo, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shard == nil || len(st.Shard.Shards) != 3 {
		t.Fatalf("stats shard section: %+v", st.Shard)
	}
	var placed int64
	for _, s := range st.Shard.Shards {
		placed += s.Rows
		if s.Queries == 0 {
			t.Fatalf("shard %d answered no RPCs: %+v", s.Shard, s)
		}
		if s.State != "healthy" {
			t.Fatalf("shard %d state %q in a healthy fleet", s.Shard, s.State)
		}
		if s.RowsScanned == 0 {
			t.Fatalf("shard %d reports no worker-local scans: %+v", s.Shard, s)
		}
	}
	if st.Shard.Coverage != 1 {
		t.Fatalf("healthy fleet coverage %v, want 1", st.Shard.Coverage)
	}
	if placed != st.Shard.Rows || placed != 10_000 {
		t.Fatalf("placement accounts for %d of %d rows", placed, st.Shard.Rows)
	}
}

// TestServerShardFallback: queries the coordinator cannot scatter (other
// tables, joins) fall back to the local engine with no coverage claim.
func TestServerShardFallback(t *testing.T) {
	fleet, err := shard.StartLocalFleet(context.Background(), shard.FleetConfig{
		Shards: 2, Rows: 5_000, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)

	eng := core.New(core.Options{Seed: 1})
	sales, err := workload.Sales(rand.New(rand.NewSource(42)), 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(sales); err != nil {
		t.Fatal(err)
	}
	other, err := storage.FromColumns("regions", storage.Schema{
		{Name: "region", Type: storage.TString},
		{Name: "pop", Type: storage.TInt},
	}, []storage.Column{
		storage.NewStringColumn([]string{"east", "west"}),
		storage.NewIntColumn([]int64{10, 20}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Register(other); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{Shard: fleet.Coord})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := NewClient(ts.URL)
	ctx := context.Background()
	id, err := cl.CreateSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.EndSession(ctx, id)

	res, err := cl.Query(ctx, id, QueryRequest{SQL: "SELECT COUNT(*) FROM regions"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 0 {
		t.Fatalf("local query must not claim distributed coverage: %v", res.Coverage)
	}
	if fmt.Sprint(res.Rows[0][0]) != "2" {
		t.Fatalf("local table answer: %v", res.Rows)
	}
}
