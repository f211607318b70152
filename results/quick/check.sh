#!/usr/bin/env bash
# The planner's figures at --quick scale, compared byte for byte with the
# captures beside this script. Each binary runs from a scratch directory,
# so the results/*.csv it also writes leave the checkout untouched.
# ablation_rounding's round_ms and exact_ms columns are wall time; they
# are cut before the compare.
#
#   results/quick/check.sh            build, run, diff; exits 1 on a change
#   results/quick/check.sh --update   rewrite the captures
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
golden="$root/results/quick"
target="${CARGO_TARGET_DIR:-$root/target}"
bins=(fig10_dynamics fig11_bandwidth_cut fig12_delay_bound fig13_alpha
      validate_deployment ablation_rounding)

build=()
for bin in "${bins[@]}"; do build+=(--bin "$bin"); done
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p ncvnf-bench "${build[@]}"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
status=0
for bin in "${bins[@]}"; do
  out="$scratch/$bin.txt"
  (cd "$scratch" && "$target/release/$bin" --quick) > "$out.raw"
  if [ "$bin" = ablation_rounding ]; then
    # Keep the title, the first four columns, and a rule whose width
    # does not follow the timing columns.
    awk '/^==/ { print; next } /^-+$/ { print "--"; next }
         NF >= 6 { print $1, $2, $3, $4; next } { print }' "$out.raw" > "$out"
  else
    mv "$out.raw" "$out"
  fi
  if [ "${1:-}" = --update ]; then
    cp "$out" "$golden/$bin.txt"
  elif ! diff -u "$golden/$bin.txt" "$out"; then
    echo "$bin: its --quick output differs from results/quick/$bin.txt" >&2
    status=1
  fi
done
exit "$status"
