GO ?= go

.PHONY: all build test test-cpus race vet fmt-check loc fuzz fuzz-kernels fuzz-aggkernels fuzz-rows fuzz-cracked fuzz-online fuzz-merge fuzz-decode fuzz-sum bench bench-smoke bench-concurrency bench-kernels chaos metrics-smoke cluster-smoke

all: vet fmt-check build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine and service packages at several GOMAXPROCS values: their
# cancellation, admission and scheduling tests behave differently on one
# core than on four, and tier-1 has to be green at all of them. The cracker
# index is among them: read-locked probes share its mark-bitmap free list,
# and concurrent first cracked queries make one cracker per (bucket,
# sub-bucket).
# So is storage: concurrent first queries share one value-index build and
# one bucket-cells build — a drill-down's, a two-range query's, or an
# aggregate's with no WHERE racing a drill-down over the same cell set.
# And so is the morsel scheduler itself: its worker ids, cancellation,
# error, panic and injected-fault paths take other interleavings at more
# than one core. So is the one float sum every SUM/AVG keeps (rsum), whose
# bits may follow no worker count.
test-cpus:
	$(GO) test -cpu 1,2,4 ./internal/exec ./internal/core ./internal/server ./internal/shard ./internal/aqp ./internal/onlineagg ./internal/crack ./internal/storage ./internal/par ./internal/rsum

# Full suite under the race detector; the concurrency tests in
# internal/core and internal/par are written to give it something to bite.
# The engine packages run again at one and four cores: per-worker
# accumulators and the pooled selection and slot vectors interleave
# differently when goroutines cannot overlap, and so do the scheduler's
# workers stopping on an error, a panic or a cancelled context, and
# concurrent first queries building a table's value index and bucket
# cells, whether the
# first query is a drill-down, a two-range query or an aggregate with no
# WHERE, and cracked aggregates reading an edge bucket's cracker while a
# writer cracks inside it. The last three lines are CI's "Concurrent probe
# parity (race)" step: the concurrent cracked-probe harnesses at more
# cores, where concurrent touches of the sub-bucket holding a bound
# count under one lock and make one cracker per (bucket, sub-bucket); the built-once and index-build-fault tests, where
# concurrent first queries share one value-index, bucket-cells or edge
# second-level build and a failed build is retried by a waiter or the next
# query; and exec's parity harnesses, TestFloatSumBitForBitAcrossPaths and
# TestSubCellsMatchScanBitForBit, where every worker's accumulator, each
# with its own order-free sums, merges in whatever order the workers end,
# beside the cells and sub-cells the plan folds.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 ./internal/exec ./internal/core ./internal/storage ./internal/par ./internal/rsum
	$(GO) test -race -run 'ConcurrentProbe|CrackedParallel|ConcurrentCracked|ConcurrentReaders' -cpu 1,4,8 -count=2 ./internal/crack/ ./internal/core/
	$(GO) test -race -run 'BuiltOnce|IndexBuildFault' -cpu 1,4,8 -count=2 ./internal/exec ./internal/storage
	$(GO) test -race -run 'BitForBit|ParityMatrix|AggKernel' -cpu 1,4,8 -count=2 ./internal/exec

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The ROADMAP's tracked sizes: non-test Go lines of the engine and service
# packages, then — totalled apart — of the estimator lane (AQP and online
# aggregation), of the packages engine logic moves into (predicates and
# their intervals, the cracker index, the columns with their value
# indexes and bucket cells), so code leaving exec or core for them
# stays visible, and of the surface around the engine (the binaries, the
# paper-reproduction experiments and the session driver). The engine lane
# counts the one float sum (rsum) too. A refactor that holds the benchmark
# and the fuzzers steady should make these numbers go down.
loc:
	@for lane in "internal/exec internal/core internal/server internal/shard internal/rsum" "internal/aqp internal/onlineagg" "internal/expr internal/crack internal/storage" "cmd/* internal/bench internal/idebench"; do \
		total=0; for p in $$lane; do \
			n=$$(cat $$(ls $$p/*.go | grep -v _test.go) | wc -l); \
			printf '%-18s %6d\n' $$p $$n; total=$$((total+n)); \
		done; printf '%-18s %6d\n' total $$total; \
	done

# Short exploratory fuzz of the SQL parser beyond the seed corpus.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/sqlparse/

# Differential fuzz of the typed predicate kernels against the generic
# evaluator: random tables (plain + dict/RLE-encoded twins, NaN/±Inf,
# int64 extremes, ints near 2^63) and random conjunctions with INT, FLOAT
# and TEXT constants on every column; only leaves on the plain string
# column may fall back, and any divergence is a bug.
fuzz-kernels:
	$(GO) test -fuzz=FuzzKernelVsGeneric -fuzztime=60s -run '^$$' ./internal/expr/

# Differential fuzz of the execution pipeline: random agg/group-by queries
# over plain + dict/RLE twin tables (NaN/±Inf, int64 extremes, compiling
# and fallback WHERE shapes, narrow ranges the value index serves), oracle =
# the reference evaluator exec.Execute.
fuzz-aggkernels:
	$(GO) test -fuzz=FuzzAggKernelVsGeneric -fuzztime=60s -run '^$$' ./internal/exec/

# Differential fuzz of the row sinks: projections, ORDER BY over int /
# float / dict / RLE keys (ties, NaN, int64 beyond 2^53), LIMIT, selection
# input and narrow ranges the value index serves; oracle = exec.Execute,
# exact cells in exact order.
fuzz-rows:
	$(GO) test -fuzz=FuzzRowsVsOracle -fuzztime=60s -run '^$$' ./internal/exec/

# Differential fuzz of cracked mode: random tables (plain + RLE INT columns,
# NaN/±Inf, int64 extremes and 2^53 neighbours) and one-column range
# predicates under all three cracking variants, asked as a projection, a
# LIMIT projection and a GROUP BY, each followed by an aggregate bucket
# cells can answer, over tables tiled up to 16 times; answers compared in
# order, bit for bit, with exact mode and with exec.Execute.
fuzz-cracked:
	$(GO) test -fuzz=FuzzCrackedVsExact -fuzztime=60s -run '^$$' ./internal/core/

# Differential fuzz of online mode against exact mode, over the cracked
# fuzzer's tables and clauses, asked one aggregate at a time, as drawn,
# with no WHERE or with a range on a second column ANDed on: with every
# row in one batch the bucket cells' exact stratum plus the edge rows —
# or a walk of the table, for a shape the cells refuse — answer exactly,
# bit for bit, SUM and AVG included, ci95 0;
# at a batch of 1-64 rows the answer holds exact mode's groups or fewer,
# its ci95 never NaN, and is exact once every edge row is read.
fuzz-online:
	$(GO) test -fuzz=FuzzOnlineVsExact -fuzztime=60s -run '^$$' ./internal/core/

# Differential fuzz of partitioned execution: the twin tables cut into 1-4
# in-order partitions, exec.Split's pushed query run on each and the merged
# partials held to exec.Execute over the whole table (NULL group keys,
# empty answers, MIN/MAX ties bit for bit, SUM/AVG within 1e-9: a part's
# SUM crosses as one rounded float64), and the parts merged in reverse
# order to the same COUNT, SUM and AVG bits.
fuzz-merge:
	$(GO) test -fuzz=FuzzMergeVsSingleNode -fuzztime=60s -run '^$$' ./internal/exec/

# Differential fuzz of the one float sum (rsum): random multisets of
# floats and ints (NaN, ±Inf, subnormals, 2^53 neighbours, int64 extremes,
# raw bits), permuted, split into morsels and merged in a random tree, must
# give the bits of the values added in order, within the stated bound of a
# math/big sum.
fuzz-sum:
	$(GO) test -fuzz=FuzzSumVsBig -fuzztime=60s -run '^$$' ./internal/rsum/

# Differential fuzz of the client's /query decoder: writeAnswer's bodies
# for random result tables under every cached/degraded/coverage/trace
# combination, mutated and cut short; decodeAnswer must fail when
# json.Unmarshal does and otherwise make the same QueryResult, floats bit
# for bit.
fuzz-decode:
	$(GO) test -fuzz=FuzzDecodeVsUnmarshal -fuzztime=60s -run '^$$' ./internal/server/

bench:
	$(GO) test -bench=. -benchtime=1x ./internal/bench/

# Every Benchmark* function in the module, once each, as CI's "Bench
# smoke" step runs them: a run-time failure check, not a measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate the concurrent-probe / value-index skipping baseline (E30) at full size
# and refresh the committed JSON artifact.
bench-concurrency:
	$(GO) run ./cmd/experiments -run E30 -json BENCH_concurrency.json

# Regenerate the pipeline-vs-reference-evaluator baseline and refresh the
# committed JSON artifact: E33 writes the scan section (1%/10%/50%
# selectivity, plus the dict/RLE encoded comparisons), E34 merges in the
# aggregation section (scalar selectivity sweep, dict/int/RLE group-bys).
# BenchmarkKernelScan prints the kernel's own scan loop per leaf shape
# (int and float bound, float range, NE, dict EQ, RLE range) beside them,
# and the value index's crossover sweep: the scan path against the
# candidate path at 0.1-60 % selectivity on FLOAT and INT columns.
bench-kernels:
	$(GO) run ./cmd/experiments -run E33 -json BENCH_kernels.json
	$(GO) test -bench=KernelScan -run '^$$' -count 5 ./internal/expr/
	$(GO) run ./cmd/experiments -run E34 -json BENCH_kernels.json

# Seeded chaos harness + cross-mode differential oracles + concurrent
# Online sessions + the degradation contract under the race detector,
# twice per seed, on one core and on four (CI runs the same line with
# DEX_CHAOS_SEED pinned per matrix job). `go run ./cmd/dexd chaos` drives
# bigger schedules.
chaos:
	$(GO) test -race -run 'Chaos|Oracle|ConcurrentOnline|Degrade' -cpu 1,4 -count=2 ./internal/chaos/ ./internal/exec/ ./internal/core/

# End-to-end observability smoke: boots dexd as a child process, drives a
# traced session, validates /metrics exposition and /admin/slow,
# SIGTERM-drains.
metrics-smoke:
	$(GO) run ./cmd/dexd smoke

# Multi-process cluster smoke: spawns a dexd worker fleet plus a
# coordinator over loopback TCP, runs one query per execution mode,
# checks the scatter/gather count against placed rows, kills a worker,
# verifies honest degraded coverage, then restarts the worker blank and
# gates on the healer restoring coverage to exactly 1.0.
cluster-smoke:
	$(GO) run ./cmd/dexcluster -smoke
