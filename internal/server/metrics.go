package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"dex/internal/metrics"
	"dex/internal/shard"
)

// handleMetrics renders the service counters and latency histograms in
// Prometheus text exposition format (version 0.0.4). The numbers are the
// same ones /admin/stats serves — one source of truth, two renderings:
// the JSON snapshot summarizes (quantiles), the exposition is cumulative
// (`_bucket`/`_sum`/`_count`) so a scraper can aggregate across scrapes
// and instances.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.Stats()
	hists := s.st.histograms()
	var b bytes.Buffer
	writeProm(&b, snap, hists)
	if s.cfg.Shard != nil {
		writeShardProm(&b, snap.Shard, s.cfg.Shard)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(b.Bytes())
}

// writeProm renders one exposition. Metric names follow the Prometheus
// conventions: `dex_` prefix, `_total` suffix on counters, base units
// (seconds, rows) in the name.
func writeProm(b *bytes.Buffer, snap StatsSnapshot, hists map[string]*metrics.LogHist) {
	head := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}

	head("dex_queries_total", "Query outcomes since process start (completed includes cache hits and degraded answers).", "counter")
	for _, oc := range []struct {
		name string
		v    int64
	}{
		{"completed", snap.Queries.Completed},
		{"cache_hit", snap.Queries.CacheHits},
		{"cancelled", snap.Queries.Cancelled},
		{"cancelled_internal", snap.Queries.CancelledInternal},
		{"timed_out", snap.Queries.TimedOut},
		{"failed", snap.Queries.Failed},
		{"degraded", snap.Queries.Degraded},
		{"injected", snap.Queries.Injected},
		{"rejected_busy", snap.Queries.RejectedBusy},
		{"rejected_drain", snap.Queries.RejectedDrain},
	} {
		fmt.Fprintf(b, "dex_queries_total{outcome=%q} %d\n", oc.name, oc.v)
	}

	head("dex_rows_scanned_total", "Rows visited by predicate evaluation and aggregate accumulation.", "counter")
	fmt.Fprintf(b, "dex_rows_scanned_total %d\n", snap.RowsScanned)

	head("dex_zone_skipped_total", "Morsels the value index skipped whole, as holding no candidate.", "counter")
	fmt.Fprintf(b, "dex_zone_skipped_total %d\n", snap.ZoneSkipped)
	head("dex_index_morsels_total", "Morsels the value index served in place of a scan: skipped, or answered from its candidates.", "counter")
	fmt.Fprintf(b, "dex_index_morsels_total %d\n", snap.IndexMorsels)
	head("dex_cell_queries_total", "Aggregate queries answered from cells: a range interior's bucket cells, a second range leaf included (its column's buckets key the cells), every cell of a column with no WHERE, or in cracked mode the crack pieces' cells.", "counter")
	fmt.Fprintf(b, "dex_cell_queries_total %d\n", snap.CellQueries)

	head("dex_agg_kernel_used_total", "Aggregate queries answered by the typed accumulation kernels.", "counter")
	fmt.Fprintf(b, "dex_agg_kernel_used_total %d\n", snap.AggKernelHits)
	head("dex_agg_kernel_fallback_total", "Aggregate queries that fell back to the generic sink.", "counter")
	fmt.Fprintf(b, "dex_agg_kernel_fallback_total %d\n", snap.AggKernelFallbacks)

	head("dex_sessions_created_total", "Sessions created.", "counter")
	fmt.Fprintf(b, "dex_sessions_created_total %d\n", snap.Sessions.Created)
	head("dex_sessions_ended_total", "Sessions ended.", "counter")
	fmt.Fprintf(b, "dex_sessions_ended_total %d\n", snap.Sessions.Ended)
	head("dex_sessions_active", "Live sessions.", "gauge")
	fmt.Fprintf(b, "dex_sessions_active %d\n", snap.Sessions.Active)

	head("dex_queries_in_flight", "Queries currently holding an execution slot.", "gauge")
	fmt.Fprintf(b, "dex_queries_in_flight %d\n", snap.Active)
	head("dex_queries_queued", "Queries waiting for an execution slot.", "gauge")
	fmt.Fprintf(b, "dex_queries_queued %d\n", snap.Queued)
	head("dex_draining", "1 while graceful drain is in progress.", "gauge")
	fmt.Fprintf(b, "dex_draining %d\n", b2i(snap.Draining))

	head("dex_cache_enabled", "1 when the shared result cache is configured.", "gauge")
	fmt.Fprintf(b, "dex_cache_enabled %d\n", b2i(snap.Cache.Enabled))
	if snap.Cache.Enabled {
		head("dex_cache_entries", "Entries in the result cache.", "gauge")
		fmt.Fprintf(b, "dex_cache_entries %d\n", snap.Cache.Entries)
		head("dex_cache_used_rows", "Rows held by the result cache.", "gauge")
		fmt.Fprintf(b, "dex_cache_used_rows %d\n", snap.Cache.UsedRows)
		head("dex_cache_hits_total", "Result cache hits.", "counter")
		fmt.Fprintf(b, "dex_cache_hits_total %d\n", snap.Cache.Hits)
		head("dex_cache_misses_total", "Result cache misses.", "counter")
		fmt.Fprintf(b, "dex_cache_misses_total %d\n", snap.Cache.Misses)
		head("dex_cache_evictions_total", "Result cache evictions.", "counter")
		fmt.Fprintf(b, "dex_cache_evictions_total %d\n", snap.Cache.Evictions)
	}

	if len(hists) == 0 {
		return
	}
	modes := make([]string, 0, len(hists))
	for m := range hists {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	head("dex_query_duration_seconds",
		"Query latency by execution mode; the cached series is result-cache lookups, engine modes hold engine executions only.",
		"histogram")
	for _, m := range modes {
		h := hists[m]
		for _, bk := range h.CumBuckets() {
			fmt.Fprintf(b, "dex_query_duration_seconds_bucket{mode=%q,le=%q} %d\n",
				m, fmtFloat(bk.UpperBound), bk.Count)
		}
		fmt.Fprintf(b, "dex_query_duration_seconds_bucket{mode=%q,le=\"+Inf\"} %d\n", m, h.N())
		fmt.Fprintf(b, "dex_query_duration_seconds_sum{mode=%q} %s\n", m, fmtFloat(h.Sum()))
		fmt.Fprintf(b, "dex_query_duration_seconds_count{mode=%q} %d\n", m, h.N())
	}
}

// writeShardProm renders the coordinator's per-shard families: rows
// placed, healing state and heal counters, worker-local scan/skip/crack
// counters, query/error/retry counters and RPC latency histograms
// labelled by shard id, plus the fleet-level coverage gauge, gather
// (merge) histogram and distributed-query outcome counters.
func writeShardProm(b *bytes.Buffer, snap *shard.Snapshot, coord *shard.Coordinator) {
	head := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	histogram := func(name string, labels string, h *metrics.LogHist) {
		sep := ""
		if labels != "" {
			sep = ","
		}
		for _, bk := range h.CumBuckets() {
			fmt.Fprintf(b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, fmtFloat(bk.UpperBound), bk.Count)
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.N())
		if labels == "" {
			fmt.Fprintf(b, "%s_sum %s\n%s_count %d\n", name, fmtFloat(h.Sum()), name, h.N())
		} else {
			fmt.Fprintf(b, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, labels, fmtFloat(h.Sum()), name, labels, h.N())
		}
	}

	head("dex_shard_rows", "Rows placed on each shard by the partitioner.", "gauge")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_rows{shard=\"%d\"} %d\n", sh.Shard, sh.Rows)
	}
	head("dex_shard_state", "Healing state per shard: 0 healthy, 1 lost, 2 restaging, 3 repartitioned.", "gauge")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_state{shard=\"%d\"} %d\n", sh.Shard, stateOrdinal(sh.State))
	}
	head("dex_shard_coverage", "Fraction of placed rows currently on healthy shards (1 = full answers).", "gauge")
	fmt.Fprintf(b, "dex_shard_coverage %s\n", fmtFloat(snap.Coverage))
	head("dex_shard_heals_total", "Completed heal operations by kind.", "counter")
	for _, kind := range []string{"reattach", "restage", "repartition", "rejoin"} {
		fmt.Fprintf(b, "dex_shard_heals_total{kind=%q} %d\n", kind, snap.Heals[kind])
	}
	head("dex_shard_worker_rows_scanned_total", "Rows visited by predicate evaluation on each worker (last probe).", "counter")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_worker_rows_scanned_total{shard=\"%d\"} %d\n", sh.Shard, sh.RowsScanned)
	}
	head("dex_shard_worker_zone_skipped_total", "Morsels the value index skipped whole on each worker (last probe).", "counter")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_worker_zone_skipped_total{shard=\"%d\"} %d\n", sh.Shard, sh.ZoneSkipped)
	}
	head("dex_shard_worker_index_morsels_total", "Morsels the value index served in place of a scan on each worker (last probe).", "counter")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_worker_index_morsels_total{shard=\"%d\"} %d\n", sh.Shard, sh.IndexMorsels)
	}
	head("dex_shard_worker_cell_queries_total", "Aggregate queries answered from cells on each worker: bucket cells behind one range, two or no WHERE, or crack pieces' cells in cracked mode (last probe).", "counter")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_worker_cell_queries_total{shard=\"%d\"} %d\n", sh.Shard, sh.CellQueries)
	}
	head("dex_shard_crack_pieces", "Crack-index pieces held by each worker (last probe).", "gauge")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_crack_pieces{shard=\"%d\"} %d\n", sh.Shard, sh.CrackPieces)
	}
	head("dex_shard_cracks_total", "Crack operations performed by each worker (last probe).", "counter")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_cracks_total{shard=\"%d\"} %d\n", sh.Shard, sh.Cracks)
	}
	head("dex_shard_rpc_total", "Per-shard query RPC attempts.", "counter")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_rpc_total{shard=\"%d\"} %d\n", sh.Shard, sh.Queries)
	}
	head("dex_shard_errors_total", "Per-shard failed query RPC attempts (before retry).", "counter")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_errors_total{shard=\"%d\"} %d\n", sh.Shard, sh.Errors)
	}
	head("dex_shard_retries_total", "Per-shard query RPC retries.", "counter")
	for _, sh := range snap.Shards {
		fmt.Fprintf(b, "dex_shard_retries_total{shard=\"%d\"} %d\n", sh.Shard, sh.Retries)
	}
	head("dex_shard_queries_total", "Distributed query outcomes at the coordinator.", "counter")
	for _, oc := range []string{"ok", "degraded", "failed"} {
		fmt.Fprintf(b, "dex_shard_queries_total{outcome=%q} %d\n", oc, snap.Outcomes[oc])
	}

	rpc, gather := coord.Histograms()
	head("dex_shard_rpc_duration_seconds", "Scatter RPC latency per shard (one observation per attempt).", "histogram")
	for i, h := range rpc {
		histogram("dex_shard_rpc_duration_seconds", fmt.Sprintf("shard=\"%d\"", i), h)
	}
	head("dex_shard_gather_duration_seconds", "Partial-merge (gather) latency at the coordinator.", "histogram")
	histogram("dex_shard_gather_duration_seconds", "", gather)
}

// stateOrdinal maps the coordinator's shard-state names onto stable
// numeric levels for the dex_shard_state gauge.
func stateOrdinal(state string) int {
	switch state {
	case "lost":
		return 1
	case "restaging":
		return 2
	case "repartitioned":
		return 3
	default: // healthy (and any future state defaults to healthy/0)
		return 0
	}
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
