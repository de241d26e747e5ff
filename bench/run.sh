#!/bin/bash
# Builds the benchmark from source and runs it with the given flags. This is
# the command BENCHMARK.json names. Everything the build leaves behind (Go's
# build cache, temporary files, the binary) stays in .bench_build under the
# directory it is run from, which must be the repository root.
set -euo pipefail
root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (need ./go.mod and ./bench/go.mod)" >&2
	exit 3
fi
build=$root/.bench_build
mkdir -p "$build/cache" "$build/tmp"
export GOCACHE=$build/cache GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
