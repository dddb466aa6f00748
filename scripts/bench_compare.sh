#!/usr/bin/env bash
# bench_compare.sh — regression gate over the perf baseline.
#
# Runs scripts/bench.sh (the benchmark set, -count times, per-benchmark
# median ns/op) to write the snapshot, then compares it against the
# committed baseline on three axes: median ns/op (tight threshold), and
# last-seen B/op and allocs/op (looser threshold — the allocator is
# deterministic but GC-visible sizes wobble with Go releases).
#
# Usage:  scripts/bench_compare.sh [BASELINE.json] [OUT.json]
#           BASELINE  default BENCH_6.json (the flat-agglomeration baseline)
#           OUT       default BENCH_7.json
#   env:  BENCH_COUNT          runs per benchmark for the median (default 3)
#         BENCH_THRESHOLD      allowed ns/op regression in percent (default 10)
#         BENCH_MEM_THRESHOLD  allowed B/op + allocs/op regression in percent
#                              (default 25)
#         BENCH_CLUSTER_ALLOC_MAX  absolute allocs/op ceiling for the warm
#                              BenchmarkClustering path (default 16) — the
#                              flat-state merge loop promises an alloc-free
#                              steady state, so this gate is absolute, not
#                              relative to the baseline
#         BENCH_PPROF          directory to drop cpu.pprof / mem.pprof into
#                              (default off; CI uploads them as artifacts)
set -euo pipefail
cd "$(dirname "$0")/.."

baseline="${1:-BENCH_6.json}"
out="${2:-BENCH_7.json}"
count="${BENCH_COUNT:-3}"
threshold="${BENCH_THRESHOLD:-10}"
mem_threshold="${BENCH_MEM_THRESHOLD:-25}"

if [[ ! -e "$baseline" ]]; then
  echo "bench_compare: baseline $baseline not found" >&2
  exit 1
fi

# bench.sh runs the suite and writes the snapshot (it honours BENCH_PPROF
# from the environment); this script only adds the comparison.
BENCH_COUNT="$count" scripts/bench.sh "$out"
if [[ -n "${BENCH_PPROF:-}" ]]; then
  echo "bench_compare: profiles in $BENCH_PPROF (cpu.pprof, mem.pprof)"
fi

# Compare one axis of baseline vs new, failing on > $3 % regression.
# Rows: name <tab> base <tab> new, extracted per axis from both JSONs.
compare_axis() {
  local field="$1" unit="$2" tol="$3"
  while IFS=$'\t' read -r name base new; do
    [[ "$base" == "0" ]] && continue  # zero-alloc benchmarks: nothing to gate
    pct=$(awk -v b="$base" -v n="$new" 'BEGIN { printf "%+.1f", (n - b) * 100 / b }')
    verdict="ok"
    if awk -v b="$base" -v n="$new" -v t="$tol" 'BEGIN { exit !(n > b * (1 + t / 100)) }'; then
      verdict="REGRESSION (> ${tol}%)"
      fail=1
    fi
    printf '%-36s %14d -> %14d %s  %s%%  %s\n' "$name" "$base" "$new" "$unit" "$pct" "$verdict"
  done < <(awk -v field="$field" '
    FNR == 1 { file++ }
    match($0, /"name": "[^"]+"/) {
      name = substr($0, RSTART + 9, RLENGTH - 10)
      if (match($0, "\"" field "\": [0-9]+"))
        val[file, name] = substr($0, RSTART + length(field) + 4, RLENGTH - length(field) - 4)
      if (file == 1) order[n++] = name
    }
    END {
      for (i = 0; i < n; i++) {
        name = order[i]
        if ((1, name) in val && (2, name) in val)
          printf "%s\t%s\t%s\n", name, val[1, name], val[2, name]
      }
    }' "$baseline" "$out")
}

fail=0
echo "-- ns/op medians (threshold ${threshold}%)"
compare_axis ns_per_op "ns/op" "$threshold"
echo "-- bytes/op (threshold ${mem_threshold}%)"
compare_axis bytes_per_op "B/op" "$mem_threshold"
echo "-- allocs/op (threshold ${mem_threshold}%)"
compare_axis allocs_per_op "allocs/op" "$mem_threshold"

# Absolute gate: the pooled flat-state engine must keep the warm clustering
# path at a handful of allocations per run (the output partition plus pool
# bookkeeping), independent of what the baseline recorded.
alloc_max="${BENCH_CLUSTER_ALLOC_MAX:-16}"
cluster_allocs=$(awk '
  /"name": "BenchmarkClustering",/ {
    if (match($0, /"allocs_per_op": [0-9]+/))
      print substr($0, RSTART + 17, RLENGTH - 17)
  }' "$out")
if [[ -z "$cluster_allocs" ]]; then
  echo "bench_compare: BenchmarkClustering allocs/op missing from $out" >&2
  fail=1
elif [[ "$cluster_allocs" -gt "$alloc_max" ]]; then
  echo "bench_compare: BenchmarkClustering allocs/op ${cluster_allocs} exceeds absolute gate ${alloc_max}" >&2
  fail=1
else
  echo "-- BenchmarkClustering allocs/op ${cluster_allocs} <= ${alloc_max} (absolute gate)"
fi

if [[ "$fail" -ne 0 ]]; then
  echo "bench_compare: regression beyond threshold vs $baseline" >&2
  exit 1
fi
echo "bench_compare: all medians within ${threshold}% (mem ${mem_threshold}%) of $baseline"
