#!/usr/bin/env bash
# Reproduces results/BENCH_sim.json: single-thread accesses/s of the
# per-access simulation kernel, for the six SPEC analogs and the
# executed isa:* programs at small scale (2M cycles each):
#
#   hierarchy_access    Hierarchy::access over a trace generated
#                       beforehand (generation untimed)
#   profile_benchmark   the fused profiling path: generator, hierarchy,
#                       interval extractor, tally and prefetch analysis
#
# Rounds interleave the two paths (alternating which goes first); the
# JSON gives each (family, path) pair's median and quartiles over 5
# rounds, and the host's core count, the thread count and the commit.
# The timing code is examples/bench_sim.rs, which also checks that both
# paths simulate the same accesses before it times them.
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
