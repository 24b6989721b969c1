#!/usr/bin/env bash
# Builds the phase-noise service benchmark from this checkout's sources and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload interactive-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, temporary files, server directories) and
# .bench_out/ (trace JSONL and layer tables of --trace 1 runs).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The Go distribution's default install location, for shells without it on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
