#!/usr/bin/env bash
# Reproduces results/BENCH_jobs.json: end-to-end throughput of one
# 1,000,320-point sweep job through leakage-server on 1 and on 2
# local stdio workers.
#
#   spec    6 benchmarks x 2 sides x 4 nodes x refetch_permille
#           1..=20840 step 1, scale test, 4096-point chunks (245 chunks)
#   wall_s  from POST /v1/jobs until the status reads "done" (polled
#           every 20 ms), so it covers worker spawn, every chunk and
#           every checkpoint fsync
#
# Each repeat starts a fresh coordinator over an empty jobs directory.
# Profiles come from a disk store filled by an untimed warm-up job, so
# workers decode them instead of simulating. Repeats interleave the
# worker counts (rotating which goes first), 5 rounds; the JSON gives
# each count's median and quartiles of wall_s and points/s, the
# coordinator's peak RSS (VmHWM, read just before it stops), and the
# host's core count and the commit.
#
# Usage: scripts/bench_jobs.sh [out.json]

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-results/BENCH_jobs.json}"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
    COMMIT="${COMMIT}-dirty"
fi

cargo build --release --offline -q -p leakage-server -p leakage-jobs --bins

WORK="$(mktemp -d "${TMPDIR:-/tmp}/bench-jobs.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

python3 - "$WORK" "$COMMIT" "$(nproc)" > "$OUT.tmp" <<'EOF'
import json, os, signal, subprocess, sys, time, urllib.request

work, commit, nproc = sys.argv[1], sys.argv[2], int(sys.argv[3])
SERVER = "target/release/leakage-server"
ROUNDS = 5
WORKERS = (1, 2)
POINTS = 1_000_320
JOB = {"name": "bench-1m", "scale": "test",
       "refetch_permille": {"from": 1, "to": 20840, "step": 1},
       "chunk_points": 4096}
env = dict(os.environ, LEAKAGE_PROFILE_DIR=os.path.join(work, "profiles"))
env.pop("LEAKAGE_FAULTS", None)


def call(addr, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(f"http://{addr}{path}", data=data, method=method)
    with urllib.request.urlopen(req, timeout=60) as resp:
        return json.loads(resp.read())


def run(workers, job, tag):
    """One coordinator, one job: (wall_s, coordinator VmHWM in MiB)."""
    jobs_dir = os.path.join(work, f"jobs-{tag}")
    proc = subprocess.Popen(
        [SERVER, "--addr", "127.0.0.1:0", "--scale", "test",
         "--jobs-dir", jobs_dir, "--job-workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True)
    try:
        line = proc.stdout.readline()
        assert line.startswith("listening on "), line
        addr = line.split()[-1]
        start = time.perf_counter()
        job_id = call(addr, "POST", "/v1/jobs", job)["id"]
        while True:
            status = call(addr, "GET", f"/v1/jobs/{job_id}")
            if status["state"] == "done":
                break
            assert status["state"] in ("queued", "running"), status
            time.sleep(0.02)
        wall = time.perf_counter() - start
        assert status["points_done"] == status["points"], status
        with open(f"/proc/{proc.pid}/status") as f:
            hwm_kb = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
        return wall, hwm_kb / 1024
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        subprocess.run(["rm", "-rf", jobs_dir], check=True)


def quartiles(values):
    s = sorted(values)
    def at(q):
        pos = q * (len(s) - 1)
        lo, hi = int(pos), min(int(pos) + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return at(0.25), at(0.5), at(0.75)


warm = dict(JOB, name="bench-warm", refetch_permille={"from": 1, "to": 1, "step": 1})
run(1, warm, "warm")

samples = {w: [] for w in WORKERS}
for r in range(ROUNDS):
    order = WORKERS if r % 2 == 0 else WORKERS[::-1]
    for w in order:
        wall, rss = run(w, JOB, f"{w}-{r}")
        samples[w].append((wall, rss))
        print(f"round {r} workers {w}: {wall:.2f} s, coordinator {rss:.1f} MiB",
              file=sys.stderr)

by_workers = {}
for w in WORKERS:
    walls = [s[0] for s in samples[w]]
    rates = [POINTS / s[0] for s in samples[w]]
    rss = [s[1] for s in samples[w]]
    wq1, wmed, wq3 = quartiles(walls)
    pq1, pmed, pq3 = quartiles(rates)
    by_workers[str(w)] = {
        "workers": w,
        "wall_s_median": round(wmed, 2), "wall_s_q1": round(wq1, 2),
        "wall_s_q3": round(wq3, 2),
        "points_per_s_median": round(pmed), "points_per_s_q1": round(pq1),
        "points_per_s_q3": round(pq3),
        "coordinator_peak_rss_mb_median": round(quartiles(rss)[1], 1),
        "coordinator_peak_rss_mb_max": round(max(rss), 1),
        "wall_s_runs": [round(x, 2) for x in walls],
    }
print(json.dumps({
    "schema": "bench_jobs/1", "commit": commit, "nproc": nproc,
    "points": POINTS,
    "spec": "6 benchmarks x 2 sides x 4 nodes x refetch_permille 1..=20840, "
            "scale test, 4096-point chunks, local stdio workers, warm disk profile store",
    "rounds": ROUNDS, "by_workers": by_workers,
}))
EOF
mv "$OUT.tmp" "$OUT"
cat "$OUT"
