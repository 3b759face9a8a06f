#!/usr/bin/env bash
# Builds the HiDaP benchmark from source and runs it.
#
#   bash bench/run.sh --workload table_suite --seed 1 --seconds 15 --trace 0
#
# Every build artifact (Go build cache, binary, trace files) stays under
# .bench_build/ at the repository root, so a run reads and writes nothing
# outside the checkout. The first run compiles the standard library into that
# cache; later runs only relink.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$bench_dir" && go build -o "$out/hidap-bench" .)
cd "$root"
exec "$out/hidap-bench" "$@"
