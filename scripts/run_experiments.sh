#!/usr/bin/env bash
# Regenerates every experiment table (E1-E20; E13 and E15 are retired)
# and the criterion benches.
# Usage: scripts/run_experiments.sh [output-dir]
set -euo pipefail
out="${1:-experiment-results}"
mkdir -p "$out"
# Gate on the CI checks first: fmt, clippy, tests (all offline).
"$(dirname "$0")/ci.sh"
exps=(exp_label_size exp_baseline_compare exp_gamma_small exp_pi_gamma_soundness
      exp_agreement exp_lower_bound exp_sensitivity exp_flow exp_distributed
      exp_ablation exp_extensions exp_net_faults exp_marker_scaling
      exp_serve_net exp_compute exp_dynamic exp_label_hotpath exp_adversary)
for e in "${exps[@]}"; do
  echo "== $e =="
  cargo run --release -p mstv-bench --bin "$e" | tee "$out/$e.txt"
done
cargo bench --workspace 2>&1 | tee "$out/bench.txt"
echo "results in $out/"
