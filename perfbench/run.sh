#!/usr/bin/env bash
# Builds the solve-service benchmark from this checkout's sources and runs
# it. Everything the build and the run write stays under .bench_build/ at
# the checkout root. Usage, from the checkout root:
#
#   bash perfbench/run.sh --workload hot_operator --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -report-dir "$out/reports" -state-dir "$out/state" "$@"
