#!/usr/bin/env bash
# Regenerate every table/figure of the paper, the ablation and extension
# studies, and the system benches (one `exp` section each).
#
# Usage: scripts/run_all.sh [--tiny|--small|--medium|--full] [--seed N]
# Output: results/exp_<section>.txt per section, reused by EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

FLAGS=("$@")
mkdir -p results

# Fail fast if the workspace doesn't pass the lint+test gate: a broken
# build should not burn hours of experiment time first.
scripts/ci.sh

cargo build --release -p fv-bench --bin exp
EXP=./target/release/exp

# One list: every section the driver knows, in its documented order.
for section in $("$EXP" --list); do
  echo "=== exp $section ${FLAGS[*]:-} ==="
  "$EXP" "${FLAGS[@]}" "$section" | tee "results/exp_$section.txt"
done

echo "All experiment logs written to results/"
