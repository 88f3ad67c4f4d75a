#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# git-ignored) and runs it with the arguments given. The Go build cache and
# module path are pointed into .bench_build/ as well, so nothing is read or
# written outside the checkout. Must be started from the repository root:
#
#   bash benchmark/run.sh --workload reuse-hit --seed 1 --seconds 10 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local
go build -o "$out/memphis-benchmark" ./benchmark
exec "$out/memphis-benchmark" "$@"
