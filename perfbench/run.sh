#!/usr/bin/env bash
# Builds the end-to-end search benchmark from this checkout's sources and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cifar10-conv --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the runs write
# (Go build cache, temp files, the binary, per-run checkpoint directories)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
