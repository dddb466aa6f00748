#!/usr/bin/env bash
# check.sh — the tier-1+ gate: formatting, vet, build, the full test suite,
# and a race-detector pass over every package (the extractor cache, the
# parallel pairwise stages, and the obs registry are all concurrency-bearing,
# and tests elsewhere drive them through the facade). Run before sending any
# PR; CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
echo "== go build ./..."
go build ./...
echo "== go vet ./..."
go vet ./...
echo "== go test ./..."
go test ./...
echo "== pprof benchmarks, one iteration each (they must keep compiling and running)"
go test -run '^$' -bench '^Benchmark(Pair|SimilarityMatrix|FeatureExtractionWorkers|DisambiguateAll|Clustering|ClusteringLarge|TuneMinSim|Propagate|PlanCompile|ServeThroughput)$' -benchtime 1x .
echo "== cmd/distinctbench (its own module: root ./... never compiles it)"
(cd cmd/distinctbench && go vet . && go test .)
echo "== go test -race ./..."
go test -race ./...
echo "== chaos quick tier (fault injection, -race, seed 1)"
go test -race -count=1 -run '^TestChaos' .
echo "== serving concurrency tier (coalescing + chaos, -race, count=2)"
go test -race -count=2 -run '^TestCoalesce|^TestChaos|^TestDrain' ./internal/serve
echo "check.sh: all green"
