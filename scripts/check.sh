#!/usr/bin/env bash
# check.sh — the tier-1+ gate: formatting, vet, build, the full test suite,
# and a race-detector pass over every package (the extractor's neighborhood
# store, the parallel pairwise stages, and the obs registry are all
# concurrency-bearing, and tests elsewhere drive them through the facade).
# Run before sending any PR; CI runs exactly this script.
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
echo "== internal/oracle is test support: no non-test file may import it"
importers=$(go list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./... |
    awk '{for (i = 2; i <= NF; i++) if ($i == "distinct/internal/oracle") print $1}')
if [ -n "$importers" ]; then
    echo "these packages import distinct/internal/oracle outside _test.go files:" >&2
    echo "$importers" >&2
    exit 1
fi
echo "== go test ./..."
go test ./...
echo "== pprof benchmarks, one iteration each (they must keep compiling and running)"
go test -run '^$' -bench '^Benchmark(Pair|BlockIndex|SimilarityMatrix|FeatureExtractionWorkers|DisambiguateAll|Clustering|ClusteringLarge|TuneMinSim|Propagate|PlanCompile|ServeThroughput|SVMTrainDCD)$' -benchtime 1x .
echo "== cmd/distinctbench (its own module: root ./... never compiles it)"
(cd cmd/distinctbench && go vet . && go test .)
echo "== go test -race ./..."
go test -race ./...
echo "== chaos quick tier (fault injection, -race, seed 1)"
go test -race -count=1 -run '^TestChaos' .
echo "== serving concurrency tier (coalescing + chaos, -race, count=2)"
go test -race -count=2 -run '^TestCoalesce|^TestChaos|^TestDrain' ./internal/serve
echo "== plan compile concurrency tier (parallel hop compile, plan snapshot, shared neighborhoods, neighborhood slot store, packed neighborhoods, grouped vs flat, -race, count=2)"
go test -race -count=2 -run '^TestCompileTrieCtx|^TestCompiledTrieIsSnapshot|^TestPlanCompile|^TestNewExtractorCompilesUpFront|^TestSharedNeighborhoodsRace|^TestSlotStore|^TestPacked|^TestGrouped' ./internal/prop ./internal/sim
echo "== clustering tier (concurrent runs sharing one matrix, scratch hygiene, flat engine vs map oracle, property and fuzz-seed tests: the whole cluster package, -race, count=2)"
go test -race -count=2 ./internal/cluster
echo "== training and engine tier (two-worker training, engine vs kernel oracle, entry points sharing the triangle pool, -race, count=2)"
go test -race -count=2 -run '^TestParallelTrainingMatchesSerial$|^TestEngineMatchesOracle$|^TestConcurrentEntryPointsSharePool$' ./internal/core
echo "check.sh: all green"
