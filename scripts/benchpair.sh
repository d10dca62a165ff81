#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree, with
# an A/A control: the protocol bench/README.md describes ("Noise") and
# BENCHMARK.json's bounds are judged by.
#
#   scripts/benchpair.sh <parent-ref> <workload> [pairs=10]
#
# Makes two plain `git clone`s of the repository checked out at
# <parent-ref>, "parent" and "parent2", under .bench_build/. Then for
# i = 1..pairs runs `bash bench/run.sh --workload W --seed i --trace 0`
# on all three sides, parent, parent2 and the working tree ("change"),
# cycling through the six orders of the three so that each side runs
# first, second and third equally often. Prints, per end-to-end metric,
# the parent's and the change's median and quartiles, how many pairs the
# change won and the relative difference of the medians, and beside them
# the same for parent2 against parent: the difference two copies of the
# same code show, which the change's difference has to clear. Raw
# outputs stay in .bench_build/pairs/.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: scripts/benchpair.sh <parent-ref> <workload> [pairs=10]" >&2
  exit 2
fi
ref=$1 workload=$2 pairs=${3:-10}

root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --short "$ref^{commit}")
clones="$root/.bench_build/clones-$sha"
out="$root/.bench_build/pairs/$workload-$sha"
rm -rf "$out" "$clones"
mkdir -p "$out" "$clones"

for side in parent parent2; do
  git clone --quiet --no-checkout "$root" "$clones/$side"
  git -C "$clones/$side" checkout --quiet --detach "$sha"
done

# dir <side>: the checkout a side runs from.
dir() {
  case $1 in
    change) echo "$root" ;;
    *) echo "$clones/$1" ;;
  esac
}

# run <side> <seed>
run() {
  (cd "$(dir "$1")" && bash bench/run.sh --workload "$workload" --seed "$2" --trace 0) >"$out/$1-$2.txt"
}

orders=(
  "parent change parent2"
  "change parent2 parent"
  "parent2 parent change"
  "parent parent2 change"
  "change parent parent2"
  "parent2 change parent"
)
for i in $(seq 1 "$pairs"); do
  for side in ${orders[$(((i - 1) % 6))]}; do
    run "$side" "$i"
  done
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
  # versus sets wins and decided to how many of the pairs side beat the
  # parent on metric m, and how many were not ties.
  function versus(side, m,    i, p, c) {
    wins = 0; decided = 0
    for (i = 1; i <= pairs; i++) {
      p = val["parent", i, m]; c = val[side, i, m]
      if (c == p) continue
      decided++
      if ((better[m] == "higher") == (c > p)) wins++
    }
  }
  function rel(x, base) { return base ? (x - base) / base * 100 : 0 }
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
    printf "%s: parent %s vs working tree, with parent2 (a second clone of %s) as the A/A control, %d pairs\n", w, sha, sha, pairs
    printf "%-14s %32s %32s %6s %8s | %10s %6s %8s | %6s  %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "wins", "diff", "parent2", "wins", "diff", "bound", "parent IQR"
    for (k = 1; k <= nm; k++) {
      m = order[k]
      summary("parent", m); pq1 = q1; pmed = med; pq3 = q3
      summary("parent2", m); amed = med
      versus("parent2", m); awins = wins; adecided = decided
      summary("change", m)
      versus("change", m)
      printf "%-14s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %3d/%-2d %+7.1f%% | %10.4g %3d/%-2d %+7.1f%% | %5.0f%%  %.1f%% (%s is better)\n", \
        m, pq1, pmed, pq3, q1, med, q3, wins, decided, rel(med, pmed), \
        amed, awins, adecided, rel(amed, pmed), \
        bound[m] * 100, pmed ? (pq3 - pq1) / pmed * 100 : 0, better[m]
    }
  }' BENCHMARK.json -
