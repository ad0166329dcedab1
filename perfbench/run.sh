#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is started in
# and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --spread 5
#
# Run it from the repository root. Every build product, cache and scratch
# store stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local
# Keep the go command's own config and telemetry files inside the checkout.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
