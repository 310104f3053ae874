#!/usr/bin/env bash
# Reproduces results/BENCH_sim.json: single-thread accesses/s of the
# per-access simulation kernel, for the six SPEC analogs and the
# executed isa:* programs at small scale (2M cycles each), as a ladder
# of steps over one generator loop, each adding one layer:
#
#   workloads           the generator alone
#   cachesim            + Hierarchy::access
#   intervals           + interval extractor and tally
#   prefetch            + prefetch analyzers, triggers and predictions
#                       (every access on the full path)
#   profile_benchmark   the fused profiling path
#
# Rounds interleave the steps (rotating which goes first); the JSON
# gives each (family, step) pair's median and quartiles over 5 rounds,
# its ns/access over the previous step, and the host's core count, the
# thread count and the commit. The timing code is
# examples/bench_sim.rs, which also checks that the steps simulate the
# same accesses as the fused path before it times them.
#
# Usage: scripts/bench_sim.sh [out.json]

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-results/BENCH_sim.json}"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
    COMMIT="${COMMIT}-dirty"
fi

cargo build --release --offline -q --example bench_sim
./target/release/examples/bench_sim --commit "$COMMIT" > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
cat "$OUT"
