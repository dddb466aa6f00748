#!/usr/bin/env bash
# abtest.sh — paired A/B comparison of two commits on the repository
# benchmark, the loop cmd/distinctbench/README.md ("Comparing two
# commits") specifies:
#
#   scripts/abtest.sh [-workloads "W ..."] [-out DIR] PARENT [CHANGE]
#
# PARENT and CHANGE are any commit-ish (CHANGE defaults to HEAD; the same
# commit on both sides is an A/A run). Each commit is exported with
# `git archive` into a temporary directory and its cmd/distinctbench built
# there, offline, as run.sh builds it. Then, for seeds 1..10, every
# workload (default: all of BENCHMARK.json's) runs once per commit, the
# parent first on odd seeds and the change first on even ones, each run a
# fresh process with the timed phase of the parent's BENCHMARK.json
# (run_seconds). The raw result line of every run is kept in DIR (default:
# a temporary directory, removed on exit).
#
# For every workload and end-to-end metric it prints the parent's and the
# change's median, the parent's quartile distance (IQR), the change's
# number of better runs among the 10 pairs, and the README's verdict:
#
#   gain        the change is better in at least 9 of the 10 pairs and
#               its median is better by more than the parent's IQR
#   REGRESSION  the change's median is worse than the parent's by more
#               than the metric's BENCHMARK.json bound
#   unresolved  neither, but the parent's IQR exceeds the bound and not
#               every change run is better than every parent run
#   -           none of these
#
# It exits 1 if any run fails or answers wrongly, or any metric regresses.
set -euo pipefail

pairs=10 # the README's minimum; fewer pairs cannot support a gain
workloads=
out=
while [[ $# -gt 0 ]]; do
  case "$1" in
    -workloads|--workloads) workloads="$2"; shift 2 ;;
    -out|--out) out="$2"; shift 2 ;;
    -h|--help) sed -n '2,30p' "$0"; exit 0 ;;
    -*) echo "abtest: unknown flag $1" >&2; exit 2 ;;
    *) break ;;
  esac
done
if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: scripts/abtest.sh [-workloads \"W ...\"] [-out DIR] PARENT [CHANGE]" >&2
  exit 2
fi
cd "$(dirname "$0")/.."
parent=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "${2:-HEAD}^{commit}")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if [[ -z "$out" ]]; then
  out="$tmp/results"
fi
mkdir -p "$out"

# The parent's BENCHMARK.json is the contract: workloads, run length,
# metrics and bounds.
git show "$parent:BENCHMARK.json" > "$tmp/BENCHMARK.json"
[[ -n "$workloads" ]] || workloads=$(jq -r '[.workloads[].name] | join(" ")' "$tmp/BENCHMARK.json")
seconds=$(jq -r '.run_seconds' "$tmp/BENCHMARK.json")
jq -r '.end_to_end[] | "\(.name)\t\(.better)\t\(.bound)"' "$tmp/BENCHMARK.json" > "$tmp/bounds.tsv"

# Export and build both sides; the build writes only under $tmp.
export GOCACHE="$tmp/gocache" GOTMPDIR="$tmp/gotmp" GOPATH="$tmp/gopath" XDG_CONFIG_HOME="$tmp/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
for side in parent change; do
  commit=${!side}
  mkdir -p "$tmp/$side"
  git archive "$commit" | tar -x -C "$tmp/$side"
  echo "abtest: building $side ${commit:0:12}" >&2
  (cd "$tmp/$side/cmd/distinctbench" && go build -o "$tmp/$side/distinctbench" .)
done

# One run: its result line goes to $out/<workload>.<side>.<seed>.json.
run() {
  local side="$1" workload="$2" seed="$3" res="$out/$2.$1.$3.json"
  echo "abtest: seed $seed $workload $side" >&2
  (cd "$tmp/$side" && ./distinctbench -workload "$workload" -seed "$seed" -seconds "$seconds" | tail -1) > "$res" || true
}
for seed in $(seq 1 "$pairs"); do
  order="parent change"
  if (( seed % 2 == 0 )); then order="change parent"; fi
  for workload in $workloads; do
    for side in $order; do
      run "$side" "$workload" "$seed"
    done
  done
done

# Rows: workload side seed metric value; a run that failed or answered
# wrongly becomes a "bad" row.
for f in "$out"/*.json; do
  base=$(basename "$f" .json)
  workload=${base%%.*}; rest=${base#*.}; side=${rest%%.*}; seed=${rest#*.}
  if jq -e '.correct == true and .failed == 0' "$f" > /dev/null 2>&1; then
    jq -r --arg w "$workload" --arg s "$side" --arg n "$seed" \
      '.metrics | to_entries[] | "\($w)\t\($s)\t\($n)\t\(.key)\t\(.value.value)"' "$f"
  else
    printf '%s\t%s\t%s\tbad\t0\n' "$workload" "$side" "$seed"
  fi
done > "$tmp/rows.tsv"

echo "parent ${parent:0:12}  change ${change:0:12}  pairs $pairs  seconds $seconds"
awk -F'\t' -v pairs="$pairs" -v workloads="$workloads" '
  # Median and quartiles as cmd/distinctbench computes them (Python
  # statistics.quantiles, exclusive method).
  function sortv(v, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
      t = v[i]
      for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
      v[j + 1] = t
    }
  }
  function median(v, n) { return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2 }
  function quart(v, n, i,    m, j, d) {
    m = n + 1
    j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
    d = i * m - j * 4
    return (v[j] * (4 - d) + v[j + 1] * d) / 4
  }
  FNR == NR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
  $4 == "bad" { bad[$1] = bad[$1] " " $2 ":" $3; failed = 1; next }
  { val[$1, $4, $2, $3] = $5; seen[$1, $4, $2, $3] = 1 }
  END {
    printf "%-12s %-10s %12s %12s %8s %10s %6s  %s\n", "workload", "metric", "parent", "change", "change", "parent_iqr", "wins", "verdict"
    nw = split(workloads, ws, " ")
    for (w = 1; w <= nw; w++) {
      wl = ws[w]
      if (wl in bad) printf "%-12s failed or wrong runs:%s\n", wl, bad[wl]
      for (k = 1; k <= nm; k++) {
        m = order[k]; np = 0; nc = 0; wins = 0; n = 0
        for (s = 1; s <= pairs; s++) {
          hp = ((wl, m, "parent", s) in seen); hc = ((wl, m, "change", s) in seen)
          if (hp) p[++np] = val[wl, m, "parent", s]
          if (hc) c[++nc] = val[wl, m, "change", s]
          if (!hp || !hc) continue
          n++
          a = val[wl, m, "parent", s]; b = val[wl, m, "change", s]
          if (better[m] == "lower" ? b < a : b > a) wins++
        }
        if (np == 0 || nc == 0) { printf "%-12s %-10s no complete runs\n", wl, m; failed = 1; continue }
        sortv(p, np); sortv(c, nc)
        pm = median(p, np); cm = median(c, nc)
        iqr = np > 1 ? quart(p, np, 3) - quart(p, np, 1) : 0
        gainBy = better[m] == "lower" ? pm - cm : cm - pm
        verdict = "-"
        allBetter = better[m] == "lower" ? c[nc] < p[1] : c[1] > p[np]
        if (iqr > bound[m] * (pm < 0 ? -pm : pm) && !allBetter) verdict = "unresolved"
        if (n == pairs && wins >= 0.9 * pairs && gainBy > iqr) verdict = "gain"
        if (-gainBy > bound[m] * (pm < 0 ? -pm : pm)) { verdict = "REGRESSION"; failed = 1 }
        change = pm != 0 ? sprintf("%+.1f%%", 100 * (cm - pm) / pm) : "n/a"
        printf "%-12s %-10s %12.6g %12.6g %8s %10.4g %3d/%-2d  %s\n", wl, m, pm, cm, change, iqr, wins, n, verdict
      }
    }
    exit failed
  }
' "$tmp/bounds.tsv" "$tmp/rows.tsv"
