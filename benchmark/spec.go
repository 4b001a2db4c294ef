package main

import (
	"time"

	"dex/internal/idebench"
)

// deadline is the interactive budget every op is sent with (timeout_ms)
// and scored against (in_budget_frac).
const deadline = 250 * time.Millisecond

// opsPerSession is the length of every simulated session.
const opsPerSession = 12

// A workload is one set of inputs the benchmark runs. Rows, clients and
// sessions are the knobs; everything else follows from the mode.
type workload struct {
	name     string
	rows     int
	clients  int // concurrent closed-loop clients
	sessions int // sessions per round; ops per round = 12 x sessions
	mode     string
	mix      idebench.Mix // zero value = idebench.DefaultMix
	fetch    bool         // row-fetch SQL instead of explore sessions
	shards   int          // > 0: a LocalFleet behind the server
	cache    int64        // server result-cache budget in rows
}

// workloads is the benchmark. BENCHMARK.json carries the same names with
// the one-line reason each exists; README.md has the long form.
//
// Sizes are set so one round is about 2 s at the seed commit on the 2-core
// reference host, which is what lets five rounds, the oracle and a
// thrice-repeated set-up fit the driver's per-run budget.
var workloads = []workload{
	{name: "explore_exact", rows: 2_000_000, clients: 2, sessions: 36, mode: "exact", cache: 1 << 20},
	{name: "explore_cracked", rows: 500_000, clients: 1, sessions: 22, mode: "cracked",
		mix: idebench.Mix{Drill: 0.65, Rollup: 0.35}, cache: 1 << 20},
	{name: "explore_online", rows: 100_000, clients: 1, sessions: 18, mode: "online", cache: 1 << 20},
	{name: "fetch_rows", rows: 1_000_000, clients: 1, sessions: 18, mode: "exact", fetch: true, cache: 1 << 20},
	{name: "fleet_explore", rows: 500_000, clients: 1, sessions: 18, mode: "exact", shards: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef names one reported number. bound is the share of the parent's
// median by which an end-to-end metric may worsen before it is a
// regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the service would see, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p95_ms", "ms", "lower", 0.20},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"insight_p50_ms", "ms", "lower", 0.20},
	{"in_budget_frac", "fraction", "higher", 0.01},
	{"answer_accuracy", "fraction", "higher", 0.01},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"alloc_kb_per_op", "KB", "lower", 0.03},
	{"resp_kb_per_op", "KB", "lower", 0.03},
	{"rss_peak_mb", "MB", "lower", 0.10},
}

// perLayer is the traced run's table: one module's time, work or waste.
// A metric is 0 on a workload that never enters its layer.
var perLayer = []metricDef{
	{name: "sqlparse.parse_us", unit: "us", better: "lower"},
	{name: "core.exec_ms", unit: "ms", better: "lower"},
	{name: "exec.agg_ms", unit: "ms", better: "lower"},
	{name: "exec.groupby_ms", unit: "ms", better: "lower"},
	{name: "exec.project_ms", unit: "ms", better: "lower"},
	{name: "exec.topk_ms", unit: "ms", better: "lower"},
	{name: "exec.rows_scanned_per_op", unit: "count", better: "lower"},
	{name: "exec.zone_skipped_frac", unit: "fraction", better: "higher"},
	{name: "exec.agg_kernel_hit_frac", unit: "fraction", better: "higher"},
	{name: "exec.par_speedup", unit: "x", better: "higher"},
	{name: "crack.probe_ms", unit: "ms", better: "lower"},
	{name: "crack.cracks_per_op", unit: "count", better: "lower"},
	{name: "crack.pieces_end", unit: "count", better: "lower"},
	{name: "crack.readlock_frac", unit: "fraction", better: "higher"},
	{name: "storage.gather_ms", unit: "ms", better: "lower"},
	{name: "storage.gather_rows_per_op", unit: "count", better: "lower"},
	{name: "storage.encode_s", unit: "s", better: "lower"},
	{name: "aqp.catalog_build_s", unit: "s", better: "lower"},
	{name: "aqp.approx_ms", unit: "ms", better: "lower"},
	{name: "onlineagg.new_ms", unit: "ms", better: "lower"},
	{name: "onlineagg.run_ms", unit: "ms", better: "lower"},
	{name: "onlineagg.batches_per_op", unit: "count", better: "lower"},
	{name: "onlineagg.processed_frac", unit: "fraction", better: "lower"},
	{name: "cache.hit_frac", unit: "fraction", better: "higher"},
	{name: "cache.get_us", unit: "us", better: "lower"},
	{name: "cache.put_us", unit: "us", better: "lower"},
	{name: "server.handler_ms", unit: "ms", better: "lower"},
	{name: "server.engine_ms", unit: "ms", better: "lower"},
	{name: "server.encode_admit_ms", unit: "ms", better: "lower"},
	{name: "server.wire_ms", unit: "ms", better: "lower"},
	{name: "server.rejected", unit: "count", better: "lower"},
	{name: "server.degraded", unit: "count", better: "lower"},
	{name: "server.timed_out", unit: "count", better: "lower"},
	{name: "protocol.encode_ms", unit: "ms", better: "lower"},
	{name: "protocol.decode_ms", unit: "ms", better: "lower"},
	{name: "protocol.frame_kb_per_op", unit: "KB", better: "lower"},
	{name: "shard.plan_us", unit: "us", better: "lower"},
	{name: "shard.merge_ms", unit: "ms", better: "lower"},
	{name: "shard.execute_ms", unit: "ms", better: "lower"},
	{name: "shard.rpc_p50_ms", unit: "ms", better: "lower"},
	{name: "shard.gather_p50_ms", unit: "ms", better: "lower"},
	{name: "shard.coverage_min", unit: "fraction", better: "higher"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower"},
	{name: "host.spin_ms", unit: "ms", better: "lower"},
	{name: "host.factor", unit: "x", better: "lower"},
}
