#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree: the
# protocol bench/README.md describes ("Noise") and BENCHMARK.json's
# bounds are judged by.
#
#   scripts/benchpair.sh <parent-ref> <workload> [pairs=10]
#
# Checks <parent-ref> out as a git worktree under .bench_build/, then for
# i = 1..pairs runs `bash bench/run.sh --workload W --seed i --trace 0` on
# both sides, the parent first on odd i and the change first on even i.
# Prints, per end-to-end metric, each side's median and quartiles, how
# many pairs the change won, and the relative difference of the medians
# beside the metric's bound. Raw outputs stay in .bench_build/pairs/.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: scripts/benchpair.sh <parent-ref> <workload> [pairs=10]" >&2
  exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --short "$ref^{commit}")
tree="$root/.bench_build/parent-$sha"
out="$root/.bench_build/pairs/$workload-$sha"
rm -rf "$out"
mkdir -p "$out"

cleanup() { git worktree remove --force "$tree" 2>/dev/null || true; }
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$tree" "$ref"

# run <side> <dir> <seed>
run() {
  (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3" --trace 0) >"$out/$1-$3.txt"
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$tree" "$i"
    run change "$root" "$i"
  else
    run change "$root" "$i"
    run parent "$tree" "$i"
  fi
  echo "pair $i/$pairs done" >&2
done

# Metric lines are "<workload> <name> <value> <unit>"; the file name
# carries the side and the seed.
for f in "$out"/*.txt; do
  b=$(basename "$f" .txt)
  awk -v side="${b%-*}" -v seed="${b##*-}" -v w="$workload" \
    '$1 == w && NF == 4 { print side, seed, $2, $3 }' "$f"
done | awk -v pairs="$pairs" -v w="$workload" -v sha="$sha" '
  # summary sets q1, med and q3 to the quartiles of one side of metric m.
  function summary(side, m,    n, i, j, t, xs) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, i, m) in val) xs[++n] = val[side, i, m]
    for (i = 2; i <= n; i++)
      for (j = i; j > 1 && xs[j - 1] > xs[j]; j--) { t = xs[j]; xs[j] = xs[j - 1]; xs[j - 1] = t }
    q1 = quantile(xs, n, 0.25); med = quantile(xs, n, 0.5); q3 = quantile(xs, n, 0.75)
  }
  function quantile(xs, n, q,    pos, lo, hi) {
    pos = q * (n - 1); lo = int(pos); hi = lo + 1 < n ? lo + 1 : lo
    return xs[lo + 1] * (1 - (pos - lo)) + xs[hi + 1] * (pos - lo)
  }
  # BENCHMARK.json first: direction and bound of each end-to-end metric.
  FILENAME != "-" {
    if ($0 ~ /"end_to_end"/) e2e = 1
    if ($0 ~ /"per_layer"/) e2e = 0
    gsub(/[",]/, "")
    if (!e2e) next
    if ($1 == "name:") order[++nm] = name = $2
    if ($1 == "better:") better[name] = $2
    if ($1 == "bound:") bound[name] = $2
    next
  }
  { val[$1, $2, $3] = $4 + 0 }
  END {
    printf "%s: parent %s vs working tree, %d pairs\n", w, sha, pairs
    printf "%-14s %32s %32s %6s %8s %6s  %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "wins", "diff", "bound", "parent IQR"
    for (k = 1; k <= nm; k++) {
      m = order[k]; wins = 0; ties = 0
      for (i = 1; i <= pairs; i++) {
        p = val["parent", i, m]; c = val["change", i, m]
        if (c == p) ties++
        else if ((better[m] == "higher") == (c > p)) wins++
      }
      summary("parent", m); pq1 = q1; pmed = med; pq3 = q3
      summary("change", m)
      printf "%-14s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %3d/%-2d %+7.1f%% %5.0f%%  %.1f%% (%s is better)\n", \
        m, pq1, pmed, pq3, q1, med, q3, wins, pairs - ties, \
        pmed ? (med - pmed) / pmed * 100 : 0, bound[m] * 100, pmed ? (pq3 - pq1) / pmed * 100 : 0, better[m]
    }
  }' BENCHMARK.json -
