#!/usr/bin/env bash
# Builds the benchmark driver from source into .bench_build/ at the root of
# the checkout (Go build cache included, so nothing is written outside the
# checkout) and runs it from that root with the arguments given.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$bench" -o "$build/cimmlc-bench" .
cd "$root"
exec "$build/cimmlc-bench" "$@"
