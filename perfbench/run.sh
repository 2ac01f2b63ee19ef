#!/usr/bin/env bash
# Builds the benchmark from the sources next to this script and runs it with
# the given arguments, e.g.
#   bash perfbench/run.sh --workload bank-mix-1k --seed 1 --seconds 20 --trace 0
# Run it from the repository root.  The build cache and binary live under
# .bench_build/ so a run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
