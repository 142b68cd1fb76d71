#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. From the
# repository root:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and Go's temporary files stay under
# .bench_build/ in the checkout, next to what the benchmark itself writes
# there (buildDir in main.go). Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
mkdir -p .bench_build/tmp
out=$(cd .bench_build && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
