#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash perfbench/run.sh --workload gcc-clgp-l0 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, binary,
# scratch stores, CPU profiles, span files) goes under .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=
export CGO_ENABLED=0

# The benchmark imports the simulator from the enclosing module; without it
# (a directory holding only the benchmark) the build fails and so does the run.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/out" "$@"
