#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash cmd/distinctbench/run.sh --workload sweep --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, the go
# command's telemetry counters) stays in .bench_build/ under the checkout,
# and nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/cmd/distinctbench" && go build -o "$out/distinctbench" .)
exec "$out/distinctbench" "$@"
