#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: what BENCHMARK.json's command calls. Everything the build
# writes (Go's build cache included) stays under .bench_build/ in the
# checkout. `go run ./bench` does the same with Go's default cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/uniask-bench" ./bench
exec "$build/uniask-bench" "$@"
