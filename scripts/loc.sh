#!/usr/bin/env bash
# Code lines per Go package: lines of non-test .go files that are neither
# blank nor comment-only (`//` lines; this repository writes no block
# comments). The number a simplicity PR reports before and after.
#
#   scripts/loc.sh [dir ...]    (default: every package under internal/ and cmd/)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
dirs=("$@")
if [ ${#dirs[@]} -eq 0 ]; then
  mapfile -t dirs < <(find internal cmd -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u)
fi
total=0
for d in "${dirs[@]}"; do
  n=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
    awk '{ sub(/^[ \t]+/, "") } $0 != "" && $0 !~ /^\/\// { n++ } END { print n + 0 }')
  printf '%6d  %s\n' "$n" "$d"
  total=$((total + n))
done
printf '%6d  total\n' "$total"
