#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root with
# the arguments given. The binary and Go's build cache, module cache and
# temporary files all live under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it; only the first build in a checkout is
# a full one.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go build -C bench -o "$build/flights-bench" .
exec "$build/flights-bench" "$@"
