#!/usr/bin/env bash
# Reproduces results/BENCH_streaming.json: single-thread ns per event of
# trace-upload ingestion, over the twelve traces serve_mixed uploads
# and over a body whose every event misses both the streaming
# extractor's front and the interval tally's dense array, as steps over
# the same LKTR bodies:
#
#   trace.decode                LKTR decoding alone
#   intervals.streaming         + StreamingExtractor into CompactIntervalDist
#   intervals.streaming.tally   + StreamingExtractor into IntervalTally
#                               (the upload route's sink)
#   server.handler.upload       the buffered upload handler, summary included
#
# Rounds interleave the steps (rotating which goes first); the JSON
# gives each (family, step) pair's median and quartiles over 21 rounds,
# each extracting step's ns/event over trace.decode, and the host's
# core count, the thread count and the commit. The timing code is
# examples/bench_streaming.rs, which also checks that the sinks build
# the same distribution and the handler reports it before it times
# them.
#
# Usage: scripts/bench_streaming.sh [out.json]

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-results/BENCH_streaming.json}"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
    COMMIT="${COMMIT}-dirty"
fi

cargo build --release --offline -q --example bench_streaming
./target/release/examples/bench_streaming --commit "$COMMIT" > "$OUT.tmp"
mv "$OUT.tmp" "$OUT"
cat "$OUT"
