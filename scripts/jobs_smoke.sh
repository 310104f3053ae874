#!/usr/bin/env bash
# End-to-end smoke of the distributed sweep-job fabric:
#
#   1. Coordinator with 4 worker processes runs a ≥100k-point job
#      while every worker is armed to crash at its third chunk
#      (LEAKAGE_FAULTS in the worker environment only).
#   2. Mid-job the coordinator itself is SIGTERMed (resumable drain)
#      and a fresh coordinator resumes from the on-disk checkpoints.
#   3. The paginated results must be byte-identical to an
#      uninterrupted single-worker reference run of the same spec.
#
# Usage: scripts/jobs_smoke.sh [workdir]   (default: results/jobs-smoke)

set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR="${1:-results/jobs-smoke}"
SERVER=target/release/leakage-server
# 6 benchmarks × 2 sides × 4 nodes × 2084 permille steps = 100,032
# points in 25 chunks of 4096.
JOB_BODY='{"name": "smoke-100k", "scale": "test",
           "refetch_permille": {"from": 1, "to": 2084, "step": 1},
           "chunk_points": 4096}'
EXPECTED_POINTS=100032

if [ ! -x "$SERVER" ] || [ ! -x target/release/leakage-job-worker ]; then
  cargo build --release -p leakage-server -p leakage-jobs --bins
fi

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"

start_server() { # log-file, extra flags...
  local log="$1"; shift
  rm -f "$log"
  "$SERVER" --addr 127.0.0.1:0 --scale test "$@" > "$log" 2>&1 &
  local pid=$!
  for _ in $(seq 1 100); do
    grep -q '^listening on ' "$log" && break
    sleep 0.1
  done
  grep -q '^listening on ' "$log" || { cat "$log"; return 1; }
  echo "$pid $(sed -n 's/^listening on //p' "$log" | head -n1)"
}

submit_job() { # addr -> job id
  curl -fsS -X POST "http://$1/v1/jobs" -d "$JOB_BODY" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

job_field() { # addr, id, field
  curl -fsS "http://$1/v1/jobs/$2" |
    python3 -c "import json,sys; print(json.load(sys.stdin)[\"$3\"])"
}

wait_done() { # addr, id, seconds
  for _ in $(seq 1 $(($3 * 2))); do
    state=$(job_field "$1" "$2" state)
    case "$state" in
      done) return 0 ;;
      queued|running) sleep 0.5 ;;
      *) echo "job ended in state $state"; curl -fsS "http://$1/v1/jobs/$2"; return 1 ;;
    esac
  done
  echo "job not done after $3 s"; curl -fsS "http://$1/v1/jobs/$2"; return 1
}

stop_server() { # pid — SIGTERM and wait for the process to exit
  kill -TERM "$1" 2>/dev/null || true
  for _ in $(seq 1 200); do
    kill -0 "$1" 2>/dev/null || return 0
    sleep 0.1
  done
  echo "server $1 did not exit after SIGTERM"; kill -KILL "$1"; return 1
}

page_digest() { # addr, id -> sha256 over every result page
  local pages page
  pages=$(curl -fsS "http://$1/v1/jobs/$2/result?per_page=10000" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["total_pages"])')
  for page in $(seq 0 $((pages - 1))); do
    curl -fsS "http://$1/v1/jobs/$2/result?page=$page&per_page=10000"
    printf '\n'
  done | sha256sum | cut -d' ' -f1
}

# --- Phase 1: crashy fleet, then a coordinator restart -------------------
read -r PID ADDR < <(start_server "$WORKDIR/coordinator-1.log" \
  --jobs-dir "$WORKDIR/jobs" --job-workers 4 \
  --job-worker-env 'LEAKAGE_FAULTS=jobs/chunk=panic#3')
echo "coordinator 1 at $ADDR (pid $PID)"

ID=$(submit_job "$ADDR")
echo "submitted job $ID"
points=$(job_field "$ADDR" "$ID" points)
test "$points" = "$EXPECTED_POINTS" || {
  echo "expected $EXPECTED_POINTS points, got $points"; exit 1; }

# Let it make real progress (and crash a few workers) first.
for _ in $(seq 1 240); do
  chunks_done=$(job_field "$ADDR" "$ID" chunks_done)
  [ "$chunks_done" -ge 5 ] && break
  sleep 0.5
done
test "$chunks_done" -ge 5 || { echo "no progress: $chunks_done chunks"; exit 1; }
restarts=$(job_field "$ADDR" "$ID" worker_restarts)
test "$restarts" -ge 1 || { echo "expected ≥1 worker crash, got $restarts"; exit 1; }
echo "progress: $chunks_done chunks done, $restarts worker restarts — killing coordinator"

stop_server "$PID"

# --- Phase 2: resume from checkpoints, fault-free ------------------------
read -r PID ADDR < <(start_server "$WORKDIR/coordinator-2.log" \
  --jobs-dir "$WORKDIR/jobs" --job-workers 4)
echo "coordinator 2 at $ADDR (pid $PID)"

wait_done "$ADDR" "$ID" 300
resumed=$(job_field "$ADDR" "$ID" resumed_chunks)
test "$resumed" -ge 5 || { echo "expected ≥5 resumed chunks, got $resumed"; exit 1; }
echo "resumed $resumed chunks from disk; job complete"
DIGEST=$(page_digest "$ADDR" "$ID")

stop_server "$PID"

# --- Phase 3: uninterrupted single-worker reference ----------------------
read -r PID ADDR < <(start_server "$WORKDIR/reference.log" \
  --jobs-dir "$WORKDIR/jobs-ref" --job-workers 1)
echo "reference coordinator at $ADDR (pid $PID)"

REF_ID=$(submit_job "$ADDR")
test "$REF_ID" = "$ID" || { echo "content-addressed ids differ: $REF_ID vs $ID"; exit 1; }
wait_done "$ADDR" "$REF_ID" 600
REF_DIGEST=$(page_digest "$ADDR" "$REF_ID")

stop_server "$PID"

test "$DIGEST" = "$REF_DIGEST" || {
  echo "crashed-and-resumed results differ from the reference run:"
  echo "  resumed:   $DIGEST"
  echo "  reference: $REF_DIGEST"
  exit 1
}
echo "jobs smoke OK: $EXPECTED_POINTS points, digest $DIGEST matches reference"
