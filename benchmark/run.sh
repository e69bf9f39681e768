#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# arguments given. Everything the build and the run leave behind stays
# under .bench_build/ (and benchmark/out/ for traces), inside the
# checkout; GOCACHE is moved there so that go build writes nowhere else.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
