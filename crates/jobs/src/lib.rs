//! Durable sharded sweep jobs for the leakage limit study.
//!
//! `POST /v1/sweep` answers up to 512 generalized-model points in one
//! request; the paper-scale question — "give me the optimal
//! drowsy/sleep/hybrid savings over *the whole parameter space*" — is
//! millions of points and minutes of compute, which no single HTTP
//! request should hold open. This crate is that workload as a durable
//! job fabric:
//!
//! * [`spec`] — a job is a compact set of axis ranges (benchmarks ×
//!   cache sides × technology nodes × a refetch-energy sweep in
//!   permille of the node's `C_D`), never a materialized point list;
//!   a `u64` index addresses any point via mixed-radix decode, and the
//!   job id is the FNV-1a hash of the canonical spec JSON.
//! * [`checkpoint`] — completed chunks persist as FNV-1a-sealed files
//!   written temp-file + fsync + rename, read back and verified before
//!   they count; corrupt files are quarantined, never served.
//! * [`protocol`] — the coordinator↔worker wire over a worker child's
//!   stdin/stdout: one-line JSON frames down (`{"job":…}`,
//!   `{"assign":…}`), and up `{"ready":…}`, `{"chunk_err":…}` or a
//!   chunk answer that *is* the checkpoint file's sealed bytes; plus
//!   the worker main loop itself (the `leakage-job-worker` binary is a
//!   thin shell around it).
//! * `schedule` — the runner's decisions (assign, commit, requeue,
//!   stall kill, respawn budget, attempt cap) as a pure state machine,
//!   model-checked over every interleaving at small scope.
//! * [`fabric`] — the coordinator: submission, a runner thread per job
//!   that is the I/O shell around its schedule, crash recovery (a
//!   restart resumes from checkpoints and produces byte-identical
//!   results), and paginated result reads.
//!
//! Workers are local child processes only. A dead worker shows up as
//! EOF on its stdout pipe and is reaped before its chunk is requeued,
//! and a stalled one is killed first, so no stale writer can outlive
//! its assignment: a chunk commits when the worker it is assigned to
//! answers it first, and the first durable checkpoint wins.
//!
//! Failure injection rides the workspace-wide `LEAKAGE_FAULTS` plane:
//! `jobs/spawn` (worker creation), `jobs/chunk` (per-chunk boundary
//! inside the worker — arm `panic#N` to kill a worker
//! deterministically, or `latency:` to stall it), and `jobs/checkpoint`
//! (the durable write — arm `truncate:` to tear a checkpoint and watch
//! the read-back quarantine it).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fabric;
pub mod protocol;
mod schedule;
pub mod spec;

pub use fabric::{
    CancelOutcome, FabricConfig, JobFabric, JobState, ResultError, SubmitError, Submitted,
    MAX_PER_PAGE, WORKER_BIN_ENV,
};
pub use spec::{
    num_f64, render_job_row, render_sweep_row, JobPoint, JobSpec, PermilleAxis, SpecError,
    DEFAULT_CHUNK_POINTS, MAX_CHUNK_POINTS, MIN_CHUNK_POINTS,
};
