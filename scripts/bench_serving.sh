#!/usr/bin/env bash
# Reproduces results/BENCH_serving_trajectory.json: the serving hot
# path measured after each optimization step, on one machine, with the
# same closed-loop workload throughout (the CI loadgen mix).
#
#   1. baseline        connection-per-request loadgen (--close), no
#                      sharding, no pre-serialization
#   2. keepalive       same server, HTTP/1.1 keep-alive + pipelining
#                      in the loadgen
#   3. sharding        lock-striped store front, sharded response
#                      cache, striped counters (8 shards)
#   4. preserialize    pre-serialized artifact catalog on (the
#                      shipping default)
#   5. notrace         same configuration with the flight recorder
#                      off (--no-recorder) — the preserialize/notrace
#                      pair bounds the request-tracing overhead
#
# Every step runs the server's one transport, the epoll reactor, with
# its default worker count; the JSON records that count (as `/healthz`
# reports it) next to the host's core count (`nproc`), since both
# bound the throughput.
#
# After the trajectory it runs BENCH_PAIRS (default 5) interleaved
# tracing-on/tracing-off pairs and records the median of the per-pair
# throughput ratios as `tracing_overhead.median_ratio` — the robust
# tracing-cost estimate (single run pairs are drift-dominated on
# shared hardware).
#
# Usage: scripts/bench_serving.sh [out.json]
#   BENCH_SECONDS (default 5), BENCH_CONNECTIONS (default 4),
#   BENCH_PIPELINE (default 8) tune the loadgen; BENCH_PAIRS /
#   BENCH_PAIR_SECONDS (default 4) tune the overhead gate.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-results/BENCH_serving_trajectory.json}"
SECONDS_PER_STEP="${BENCH_SECONDS:-5}"
CONNECTIONS="${BENCH_CONNECTIONS:-4}"
PIPELINE="${BENCH_PIPELINE:-8}"
MIX='/v1/table/2?scale=test:8,/healthz:1,/metrics:1'

cargo build --release -p leakage-server --bins

SERVER=./target/release/leakage-server
LOADGEN=./target/release/loadgen
WORK="$(mktemp -d)"
trap 'kill $(cat "$WORK"/server.pid 2>/dev/null) 2>/dev/null || true; rm -rf "$WORK"' EXIT

# run_step <name> "<server flags>" "<loadgen flags>"
run_step() {
  local name="$1" server_flags="$2" loadgen_flags="$3"
  local log="$WORK/$name.log"

  # shellcheck disable=SC2086  # flags are intentionally word-split
  $SERVER --addr 127.0.0.1:0 --scale test $server_flags > "$log" 2>&1 &
  echo $! > "$WORK/server.pid"
  for _ in $(seq 1 100); do
    grep -q '^listening on ' "$log" && break
    sleep 0.1
  done
  grep -q '^listening on ' "$log" || { cat "$log"; exit 1; }
  local addr
  addr=$(sed -n 's/^listening on //p' "$log" | head -n1)

  # One warm-up pass so every step measures serving, not first-touch
  # simulation of the profile suite.
  curl -fsS "http://$addr/v1/table/2?scale=test" > /dev/null
  curl -fsS "http://$addr/healthz" > "$WORK/healthz.json"

  # shellcheck disable=SC2086
  $LOADGEN --addr "$addr" --connections "$CONNECTIONS" \
    --seconds "$SECONDS_PER_STEP" --mix "$MIX" $loadgen_flags \
    > "$WORK/$name.json"

  kill "$(cat "$WORK/server.pid")" 2>/dev/null || true
  wait "$(cat "$WORK/server.pid")" 2>/dev/null || true
  rm -f "$WORK/server.pid"

  python3 - "$name" "$server_flags" "$loadgen_flags" "$WORK/$name.json" <<'EOF'
import json, sys
name, server_flags, loadgen_flags, path = sys.argv[1:5]
report = json.load(open(path))
print('%-12s %9.0f req/s  p50 %6d us  p99 %6d us  errors %d'
      % (name, report['throughput_rps'], report['p50_us'],
         report['p99_us'], report['transport_errors']))
EOF
}

run_step baseline     '--cache-shards 1 --no-preserialize' '--close'
run_step keepalive    '--cache-shards 1 --no-preserialize' "--pipeline $PIPELINE"
run_step sharding     '--cache-shards 8 --no-preserialize' "--pipeline $PIPELINE"
run_step preserialize '--cache-shards 8'                   "--pipeline $PIPELINE"
run_step notrace      '--cache-shards 8 --no-recorder'     "--pipeline $PIPELINE"

# Tracing-overhead gate. A single on/off run pair is meaningless on a
# shared box: identical configs differ by ±15% between runs (host
# phases, scheduler modes). Interleaved pairs are robust — both runs
# of a pair see the same machine phase, so the per-pair ratio cancels
# the drift, and the median across pairs discards outlier phases.
PAIRS="${BENCH_PAIRS:-5}"
PAIR_SECONDS="${BENCH_PAIR_SECONDS:-4}"
FULL_SECONDS="$SECONDS_PER_STEP"
SECONDS_PER_STEP="$PAIR_SECONDS"
for i in $(seq 1 "$PAIRS"); do
  run_step "trace_on_$i"  '--cache-shards 8'               "--pipeline $PIPELINE"
  run_step "trace_off_$i" '--cache-shards 8 --no-recorder' "--pipeline $PIPELINE"
done
SECONDS_PER_STEP="$FULL_SECONDS"

python3 - "$WORK" "$OUT" "$SECONDS_PER_STEP" "$CONNECTIONS" "$PIPELINE" "$PAIRS" "$PAIR_SECONDS" \
  "$(nproc)" <<'EOF'
import json, sys
work, out, seconds, connections, pipeline, pairs, pair_seconds, nproc = sys.argv[1:9]
workers = int(json.load(open(f'{work}/healthz.json'))['workers'])
steps = [
    ('baseline',
     'connection-per-request load, unsharded, no catalog',
     '--cache-shards 1 --no-preserialize', '--close'),
    ('keepalive',
     'HTTP/1.1 keep-alive + pipelining in the load generator',
     '--cache-shards 1 --no-preserialize', f'--pipeline {pipeline}'),
    ('sharding',
     'lock-striped store front + sharded response cache + striped counters',
     '--cache-shards 8 --no-preserialize', f'--pipeline {pipeline}'),
    ('preserialize',
     'pre-serialized artifact catalog (shipping default)',
     '--cache-shards 8', f'--pipeline {pipeline}'),
    ('notrace',
     'flight recorder + request tracing off (tracing-overhead control)',
     '--cache-shards 8 --no-recorder', f'--pipeline {pipeline}'),
]
entries = []
for name, description, server_flags, loadgen_flags in steps:
    report = json.load(open(f'{work}/{name}.json'))
    entries.append({
        'step': name,
        'description': description,
        'server_flags': server_flags,
        'loadgen_flags': (f'--connections {connections} --seconds {seconds} '
                          + loadgen_flags),
        'report': report,
    })

# Tracing overhead from the interleaved pairs: the per-pair on/off
# ratio cancels host drift (both runs of a pair hit the same machine
# phase); the median across pairs rejects outlier phases. The single
# preserialize/notrace pair above stays in `steps` for the trajectory
# but is too noisy on shared hardware to gate on by itself.
pairs = int(pairs)
on_rps, off_rps = [], []
for i in range(1, pairs + 1):
    on_rps.append(json.load(open(f'{work}/trace_on_{i}.json'))['throughput_rps'])
    off_rps.append(json.load(open(f'{work}/trace_off_{i}.json'))['throughput_rps'])
ratios = sorted(on / off for on, off in zip(on_rps, off_rps))
mid = len(ratios) // 2
median = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
overhead = {
    'pairs': pairs,
    'seconds_per_run': int(pair_seconds),
    'on_rps': on_rps,
    'off_rps': off_rps,
    'pair_ratios': [round(r, 4) for r in ratios],
    'median_ratio': round(median, 4),
}
json.dump({'nproc': int(nproc), 'workers': workers,
           'steps': entries, 'tracing_overhead': overhead},
          open(out, 'w'), indent=2)
print(f'wrote {out}')
by_step = {e['step']: e['report']['throughput_rps'] for e in entries}
base = by_step['baseline']
final = by_step['preserialize']
print('trajectory: %.0f -> %.0f req/s (%.1fx), %s workers on %s cores'
      % (base, final, final / base, workers, nproc))
print('tracing overhead (median of %d interleaved on/off pairs): %.1f%% of tracing-off'
      % (pairs, 100.0 * median))
EOF
