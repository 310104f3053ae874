#!/usr/bin/env bash
# Reproduces results/BENCH_core.json: single-thread points/s of the
# four ways to answer generalized-model sweep points, over the
# sweep_job-shaped 18,432-point spec at test scale:
#
#   per_policy_oracle    three EnergyContext::evaluate walks per point
#   optimal_savings_k1   GeneralizedModel::optimal_savings per point
#   grouped_chunk        protocol::chunk_response per 1,024-point chunk,
#                        one walk per (benchmark, side, node) run
#   sweep_route_point    a POST /v1/sweep point once its profile has
#                        answered: memo hit + render_sweep_row
#
# Rounds interleave the paths (rotating which goes first); the JSON
# gives each path's median and quartiles over 5 rounds, the speedup
# over the oracle, and the host's core count, the thread count and the
# commit.
# The timing code is examples/bench_core.rs, which also checks that
# the first three paths produce the same rows, and the memo the rows of
# optimal_savings_k1 at the calibrated C_D, before it times them.
#
# Usage: scripts/bench_core.sh [out.json]

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-results/BENCH_core.json}"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
    COMMIT="${COMMIT}-dirty"
fi

cargo build --release --offline -q --example bench_core
./target/release/examples/bench_core --commit "$COMMIT" > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
cat "$OUT"
