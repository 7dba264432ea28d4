#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see README.md). Run from the repository root:
#
#   bash benchmark/run.sh --workload recover --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the current directory. Outside a full checkout
# (no ../go.mod for the replace directive) the build fails and the
# script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/mdstbenchmark" .)
exec "$out/mdstbenchmark" "$@"
