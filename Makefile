GO ?= go

.PHONY: all build test test-cpus race vet fmt-check loc fuzz fuzz-kernels fuzz-aggkernels fuzz-rows fuzz-cracked fuzz-merge bench bench-concurrency bench-kernels chaos metrics-smoke cluster-smoke

all: vet fmt-check build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine and service packages at several GOMAXPROCS values: their
# cancellation, admission and scheduling tests behave differently on one
# core than on four, and tier-1 has to be green at all of them. The cracker
# index is among them: read-locked probes share its mark-bitmap free list.
# So is storage: concurrent first queries share one value-index build and
# one bucket-cells build — a drill-down's, a two-range query's, or an
# aggregate's with no WHERE racing a drill-down over the same cell set.
test-cpus:
	$(GO) test -cpu 1,2,4 ./internal/exec ./internal/core ./internal/server ./internal/shard ./internal/aqp ./internal/onlineagg ./internal/crack ./internal/storage

# Full suite under the race detector; the concurrency tests in
# internal/core and internal/par are written to give it something to bite.
# The engine packages run again at one and four cores: per-worker
# accumulators and the pooled selection and slot vectors interleave
# differently when goroutines cannot overlap, and so do concurrent first
# queries building a table's value index and bucket cells, whether the
# first query is a drill-down, a two-range query or an aggregate with no
# WHERE.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,4 ./internal/exec ./internal/core ./internal/storage

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The ROADMAP's tracked sizes: non-test Go lines of the engine and service
# packages, then — totalled apart — of the estimator lane (AQP and online
# aggregation), of the packages engine logic moves into (predicates and
# their intervals, the cracker index, the columns with their zone maps,
# value indexes and bucket cells), so code leaving exec or core for them
# stays visible, and of the surface around the engine (the binaries, the
# paper-reproduction experiments and the session driver). A refactor that
# holds the benchmark and the fuzzers steady should make these numbers go
# down.
loc:
	@for lane in "internal/exec internal/core internal/server internal/shard" "internal/aqp internal/onlineagg" "internal/expr internal/crack internal/storage" "cmd/* internal/bench internal/idebench"; do \
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
# LIMIT projection and a GROUP BY; oracle = exec.Execute, answers compared
# in order, aggregates included.
fuzz-cracked:
	$(GO) test -fuzz=FuzzCrackedVsExact -fuzztime=60s -run '^$$' ./internal/core/

# Differential fuzz of partitioned execution: the twin tables cut into 1-4
# in-order partitions, exec.Split's pushed query run on each and the merged
# partials held to exec.Execute over the whole table (NULL group keys,
# empty answers, MIN/MAX ties bit for bit, SUM/AVG within reassociation).
fuzz-merge:
	$(GO) test -fuzz=FuzzMergeVsSingleNode -fuzztime=60s -run '^$$' ./internal/exec/

bench:
	$(GO) test -bench=. -benchtime=1x ./internal/bench/

# Regenerate the concurrent-probe / zone-map baseline (E30) at full size
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
# Online sessions under the race detector, twice per seed, on one core and
# on four (CI runs the same line with DEX_CHAOS_SEED pinned per matrix
# job). `go run ./cmd/dexd chaos` drives bigger schedules.
chaos:
	$(GO) test -race -run 'Chaos|Oracle|ConcurrentOnline' -cpu 1,4 -count=2 ./internal/chaos/ ./internal/exec/ ./internal/core/

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
