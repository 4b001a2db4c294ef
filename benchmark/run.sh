#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. BENCHMARK.json's
# command; run it from the repository root. Everything the build writes --
# the binary and Go's own caches -- lands under .bench_build/, so a run
# touches nothing outside the checkout. The first call compiles the standard
# library into the empty cache (about a minute); later calls reuse it.
set -euo pipefail
mkdir -p .bench_build
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
