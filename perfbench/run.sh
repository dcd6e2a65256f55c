#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload pmbench --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build in the current
# directory: the binary, the Go build cache, and chronod's scratch state.
# Build output goes to standard error, so standard output carries only the
# benchmark's own lines, ending with its JSON result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
