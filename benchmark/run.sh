#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing is written outside the checkout) and runs it with the caller's
# arguments. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload thr_selective --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$root/.bench_build/trassbench" .)
exec "$root/.bench_build/trassbench" "$@"
