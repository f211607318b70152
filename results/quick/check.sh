#!/usr/bin/env bash
# Every table and figure at --quick scale, compared with the CSVs beside
# this script. repro_all runs once from a scratch directory, so the
# results/ it writes leaves the checkout untouched; each results/<id>.csv
# it writes is diffed with results/quick/<id>.csv. The columns named in
# WALL_CLOCK are wall time: they are cut from both sides, by header name,
# before the compare (the captures keep one run's reading of them).
#
#   results/quick/check.sh            build, run, diff; exits 1 on a change
#   results/quick/check.sh --update   rewrite the captures
set -euo pipefail

# Header names of wall-clock columns; a trailing * matches any suffix.
WALL_CLOCK='round_ms exact_ms loopback_ms_* this_repo_ms rank_ops_per_sec_g4'

root=$(cd "$(dirname "$0")/../.." && pwd)
golden="$root/results/quick"
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p ncvnf-bench --bin repro_all

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
(cd "$scratch" && "$target/release/repro_all" --quick > /dev/null)
fresh="$scratch/results"

if [ "${1:-}" = --update ]; then
  rm -f "$golden"/*.csv
  cp "$fresh"/*.csv "$golden"/
  exit 0
fi

# Prints CSV $1 without its wall-clock columns.
cut_wall() {
  awk -F, -v wall="$WALL_CLOCK" '
    NR == 1 {
      n = split(wall, w, " ")
      for (i = 1; i <= NF; i++) {
        keep[i] = 1
        for (j = 1; j <= n; j++) {
          p = "^" w[j] "$"
          gsub(/\*/, ".*", p)
          if ($i ~ p) keep[i] = 0
        }
      }
    }
    {
      line = ""; sep = ""
      for (i = 1; i <= NF; i++) if (keep[i]) { line = line sep $i; sep = "," }
      print line
    }' "$1"
}

status=0
for csv in "$fresh"/*.csv "$golden"/*.csv; do
  id=$(basename "$csv" .csv)
  if [ ! -f "$fresh/$id.csv" ] || [ ! -f "$golden/$id.csv" ]; then
    echo "$id: results/quick/$id.csv and the run's results/$id.csv must both exist" >&2
    status=1
  elif [ "$csv" = "$fresh/$id.csv" ] &&
    ! diff -u --label "results/quick/$id.csv" --label "results/$id.csv (this run)" \
      <(cut_wall "$golden/$id.csv") <(cut_wall "$csv"); then
    echo "$id: its --quick CSV differs from results/quick/$id.csv" >&2
    status=1
  fi
done
exit "$status"
