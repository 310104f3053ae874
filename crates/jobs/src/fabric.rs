//! The job fabric: submission, durable state, worker fan-out,
//! reassignment, recovery, and paginated result reads.
//!
//! One [`JobFabric`] owns a jobs directory. Each job lives in
//! `<jobs_dir>/<id>/`:
//!
//! ```text
//! job.json            canonical spec, written atomically at submit
//! chunk-NNNNNN.ckpt   one durable checkpoint per completed chunk
//! canceled            empty marker: the job was canceled, never resume
//! quarantine/         corrupt checkpoints, moved verbatim (byte-capped)
//! leases/             deadline-stamped chunk ownership (epoch per chunk)
//! ```
//!
//! Every piece of job state that matters is on disk before it is
//! acknowledged: the spec before `POST /v1/jobs` returns, each chunk
//! before it counts as done. The in-memory side is just an index plus
//! one *runner thread* per active job, so a coordinator restart is the
//! same code path as first startup — [`JobFabric::start`] scans the
//! directory, re-registers every job, and resumes the unfinished ones
//! from whatever checkpoints survived. Chunks are deterministic
//! functions of `(spec, chunk ordinal)`, which is why a resumed run is
//! byte-identical to an uninterrupted one.
//!
//! The runner speaks the [`crate::protocol`] over
//! [`crate::transport::WorkerTransport`] links: locally-spawned stdio
//! children, plus — when `FabricConfig::listen` is set — remote TCP
//! workers admitted through the shared [`RemoteGate`] pool. A local
//! worker that exits, panics (armed `jobs/chunk` fault), or stalls
//! past the deadline is killed and its in-flight chunk goes back on
//! the pending queue; a bounded respawn budget and a per-chunk attempt
//! cap turn pathological loops into a `failed` job instead of a hung
//! one.
//!
//! Remote workers cannot be distinguished from a slow network by
//! process observation, so their failure handling is lease-based: a
//! worker that misses heartbeats (or stalls) has its chunk's lease
//! *expired* — the epoch bumps, the chunk returns to the queue — while
//! the link stays open in case the partition heals. Frames that arrive
//! after expiry lose the epoch comparison and are discarded
//! (`jobs_late_commits_discarded_total`); the first durable checkpoint
//! always wins, which also absorbs `net/dup` duplicate frames.

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use leakage_faults::{durable, io_point, panic_message, retry, Backoff};
use leakage_telemetry::json;
use leakage_telemetry::{counter, debug, warn};

use crate::checkpoint::{
    chunk_file_name, parse_chunk_file_name, quarantine, read_chunk, write_chunk, ChunkFile,
    CkptError,
};
use crate::lease::LeaseManager;
use crate::protocol::{rows_checksum, Assign, Hello, WorkerFrame};
use crate::spec::{JobSpec, SpecError};
use crate::transport::{RemoteGate, SocketTransport, StdioTransport, WorkerTransport};

/// Environment override for the worker executable path.
pub const WORKER_BIN_ENV: &str = "LEAKAGE_JOB_WORKER_BIN";

/// The empty marker file that durably records a cancellation.
const CANCEL_MARKER: &str = "canceled";

/// Upper bound on `per_page` for result reads.
pub const MAX_PER_PAGE: u64 = 10_000;

/// How many times one chunk may fail (worker death, `chunk_err`,
/// checksum mismatch) before the whole job is declared failed.
pub const MAX_CHUNK_ATTEMPTS: u32 = 5;

/// Fabric-wide knobs, fixed at construction.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Root directory for job state.
    pub jobs_dir: PathBuf,
    /// Worker processes per running job.
    pub workers: usize,
    /// A worker holding one chunk longer than this is killed and the
    /// chunk reassigned.
    pub stall_deadline: Duration,
    /// Worker executable; `None` resolves via [`WORKER_BIN_ENV`], then
    /// next to the current executable.
    pub worker_bin: Option<PathBuf>,
    /// Extra environment for workers. The coordinator's own
    /// `LEAKAGE_FAULTS` is always stripped first, so coordinator-side
    /// fault arms never leak into children; arm worker faults by
    /// putting `LEAKAGE_FAULTS` in here explicitly.
    pub worker_env: Vec<(String, String)>,
    /// Maximum queued + running jobs before submits are refused.
    pub max_active_jobs: usize,
    /// TCP address for remote workers (`None`: stdio workers only).
    /// With a listener and `workers: 0`, jobs run on remote workers
    /// exclusively.
    pub listen: Option<String>,
    /// Shared admission token remote workers must present; `None`
    /// admits any well-formed hello.
    pub token: Option<String>,
    /// A remote worker silent for longer than this has its chunk's
    /// lease expired and reassigned (the link is kept, in case the
    /// partition heals).
    pub heartbeat_timeout: Duration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            jobs_dir: PathBuf::from("results/jobs"),
            workers: 4,
            stall_deadline: Duration::from_secs(30),
            worker_bin: None,
            worker_env: Vec::new(),
            max_active_jobs: 4,
            listen: None,
            token: None,
            heartbeat_timeout: Duration::from_secs(5),
        }
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and durable, runner not yet fanned out.
    Queued,
    /// Workers are evaluating chunks.
    Running,
    /// Every chunk is checkpointed; results are servable.
    Done,
    /// Gave up (attempt cap, spawn budget, or disk failure).
    Failed,
    /// Canceled by the client; never resumed.
    Canceled,
}

impl JobState {
    /// The wire token used in status JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }
}

/// One worker slot as exposed in status JSON.
#[derive(Debug, Clone)]
struct WorkerView {
    pid: u32,
    chunk: Option<u64>,
    alive: bool,
}

/// The mutable, observable side of a job.
#[derive(Debug)]
struct StatusState {
    state: JobState,
    chunks_done: u64,
    points_done: u64,
    /// Chunks recovered from durable checkpoints at runner start.
    resumed_chunks: u64,
    /// Chunks put back on the queue after a worker death or stall.
    reassigned_chunks: u64,
    worker_restarts: u64,
    quarantined: u64,
    /// Chunk answers discarded because their lease epoch had been
    /// superseded (or the chunk was already durably committed).
    late_commits: u64,
    /// Leases revoked after missed heartbeats or a stall.
    leases_expired: u64,
    error: Option<String>,
    workers: Vec<WorkerView>,
}

impl StatusState {
    fn fresh(state: JobState) -> StatusState {
        StatusState {
            state,
            chunks_done: 0,
            points_done: 0,
            resumed_chunks: 0,
            reassigned_chunks: 0,
            worker_restarts: 0,
            quarantined: 0,
            late_commits: 0,
            leases_expired: 0,
            error: None,
            workers: Vec::new(),
        }
    }
}

/// One registered job: spec + directory + observable status + runner.
struct JobHandle {
    id: String,
    spec: JobSpec,
    dir: PathBuf,
    status: Mutex<StatusState>,
    cancel: AtomicBool,
    stop: AtomicBool,
    runner: Mutex<Option<thread::JoinHandle<()>>>,
}

/// Outcome of a submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submitted {
    /// The job id (derived from the spec, so resubmission is
    /// idempotent).
    pub id: String,
    /// Whether this call created the job (`false`: it already
    /// existed with the identical spec).
    pub created: bool,
}

/// Why a submit was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The spec failed validation → 400.
    Invalid(SpecError),
    /// Another live job owns this name with a different spec → 409.
    Conflict(String),
    /// The fabric is at its active-job cap → 503.
    Busy,
    /// Persisting `job.json` failed → 500.
    Io(io::Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(err) => write!(f, "{err}"),
            SubmitError::Conflict(msg) => write!(f, "{msg}"),
            SubmitError::Busy => write!(f, "job fabric at capacity"),
            SubmitError::Io(err) => write!(f, "persisting job: {err}"),
        }
    }
}

/// Why a result page could not be served.
#[derive(Debug)]
pub enum ResultError {
    /// Unknown job id → 404.
    NotFound,
    /// The job exists but is not `done` → 409 (status string attached).
    NotReady(&'static str),
    /// Bad pagination parameters → 400.
    BadRequest(String),
    /// A checkpoint failed verification at read time; it was
    /// quarantined and recomputation was scheduled → 503.
    Corrupt(String),
}

/// Outcome of a cancel request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was (or already had been) canceled.
    Canceled,
    /// The job already ran to completion; nothing to cancel → 409.
    AlreadyDone,
    /// Unknown id → 404.
    NotFound,
}

/// The coordinator. Cheap to clone through `Arc`; the server holds one.
pub struct JobFabric {
    config: FabricConfig,
    jobs: Mutex<HashMap<String, Arc<JobHandle>>>,
    shutting_down: AtomicBool,
    /// The remote-worker listener, when `config.listen` is set. All
    /// runners draw admitted sessions from this one pool.
    remote: Option<Arc<RemoteGate>>,
}

impl JobFabric {
    /// Builds the fabric and recovers every job already on disk:
    /// canceled jobs re-register as canceled, finished ones as done,
    /// and half-finished ones resume from their checkpoints
    /// immediately.
    ///
    /// # Errors
    ///
    /// Only hard I/O errors enumerating an *existing* jobs directory;
    /// a missing directory is simply an empty fabric (it is created
    /// lazily on first submit).
    pub fn start(config: FabricConfig) -> io::Result<Arc<JobFabric>> {
        let remote = match &config.listen {
            Some(addr) => Some(RemoteGate::bind(addr, config.token.clone())?),
            None => None,
        };
        let fabric = Arc::new(JobFabric {
            config,
            jobs: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
            remote,
        });
        let dir = fabric.config.jobs_dir.clone();
        if dir.is_dir() {
            for entry in fs::read_dir(&dir)? {
                let entry = entry?;
                let job_dir = entry.path();
                if !job_dir.is_dir()
                    || job_dir.file_name() == Some(durable::QUARANTINE_DIR.as_ref())
                {
                    continue;
                }
                fabric.recover_job(&job_dir);
            }
        }
        Ok(fabric)
    }

    fn recover_job(self: &Arc<Self>, job_dir: &Path) {
        let spec_path = job_dir.join("job.json");
        let spec = match fs::read_to_string(&spec_path)
            .map_err(|err| err.to_string())
            .and_then(|text| JobSpec::parse(&text).map_err(|err| err.to_string()))
        {
            Ok(spec) => spec,
            Err(err) => {
                warn!("jobs: skipping {} at recovery: {err}", job_dir.display());
                return;
            }
        };
        let id = spec.id();
        if job_dir.file_name().and_then(|n| n.to_str()) != Some(id.as_str()) {
            warn!(
                "jobs: {} holds spec with id {id}; skipping at recovery",
                job_dir.display()
            );
            return;
        }
        let canceled = job_dir.join(CANCEL_MARKER).exists();
        let handle = Arc::new(JobHandle {
            id: id.clone(),
            spec,
            dir: job_dir.to_path_buf(),
            status: Mutex::new(StatusState::fresh(if canceled {
                JobState::Canceled
            } else {
                JobState::Queued
            })),
            cancel: AtomicBool::new(canceled),
            stop: AtomicBool::new(false),
            runner: Mutex::new(None),
        });
        self.jobs.lock().unwrap().insert(id, Arc::clone(&handle));
        if !canceled {
            self.spawn_runner(handle);
        }
    }

    /// Validates nothing (the spec is already a [`JobSpec`]); persists
    /// the job and starts its runner. Identical resubmission returns
    /// the existing job.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(self: &Arc<Self>, spec: JobSpec) -> Result<Submitted, SubmitError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(SubmitError::Busy);
        }
        let id = spec.id();
        let handle = {
            let mut jobs = self.jobs.lock().unwrap();
            if let Some(existing) = jobs.get(&id) {
                let state = existing.status.lock().unwrap().state;
                debug!("jobs: resubmission of {id} ({})", state.as_str());
                return Ok(Submitted { id, created: false });
            }
            if let Some(taken) = jobs
                .values()
                .find(|j| j.spec.name == spec.name && !matches!(j.status.lock().unwrap().state, JobState::Canceled | JobState::Failed))
            {
                return Err(SubmitError::Conflict(format!(
                    "name {:?} is taken by job {}",
                    spec.name, taken.id
                )));
            }
            let active = jobs
                .values()
                .filter(|j| {
                    matches!(
                        j.status.lock().unwrap().state,
                        JobState::Queued | JobState::Running
                    )
                })
                .count();
            if active >= self.config.max_active_jobs {
                return Err(SubmitError::Busy);
            }
            let dir = self.config.jobs_dir.join(&id);
            fs::create_dir_all(&dir).map_err(SubmitError::Io)?;
            durable::write_atomically(&dir.join("job.json"), spec.to_json().as_bytes())
                .map_err(SubmitError::Io)?;
            let handle = Arc::new(JobHandle {
                id: id.clone(),
                spec,
                dir,
                status: Mutex::new(StatusState::fresh(JobState::Queued)),
                cancel: AtomicBool::new(false),
                stop: AtomicBool::new(false),
                runner: Mutex::new(None),
            });
            jobs.insert(id.clone(), Arc::clone(&handle));
            handle
        };
        counter!("jobs_submitted_total").inc();
        self.spawn_runner(handle);
        Ok(Submitted { id, created: true })
    }

    /// Status JSON for one job, or `None` for an unknown id.
    pub fn status_json(&self, id: &str) -> Option<String> {
        let handle = self.jobs.lock().unwrap().get(id).cloned()?;
        let status = handle.status.lock().unwrap();
        Some(json::object([
            json::key("id") + &json::string(&handle.id),
            json::key("name") + &json::string(&handle.spec.name),
            json::key("state") + &json::string(status.state.as_str()),
            json::key("points") + &handle.spec.point_count().to_string(),
            json::key("chunks") + &handle.spec.chunk_count().to_string(),
            json::key("chunk_points") + &handle.spec.chunk_points.to_string(),
            json::key("chunks_done") + &status.chunks_done.to_string(),
            json::key("points_done") + &status.points_done.to_string(),
            json::key("resumed_chunks") + &status.resumed_chunks.to_string(),
            json::key("reassigned_chunks") + &status.reassigned_chunks.to_string(),
            json::key("worker_restarts") + &status.worker_restarts.to_string(),
            json::key("quarantined") + &status.quarantined.to_string(),
            json::key("late_commits") + &status.late_commits.to_string(),
            json::key("leases_expired") + &status.leases_expired.to_string(),
            json::key("error")
                + &status
                    .error
                    .as_ref()
                    .map_or("null".to_string(), |e| json::string(e)),
            json::key("workers")
                + &json::array(status.workers.iter().map(|w| {
                    json::object([
                        json::key("pid") + &w.pid.to_string(),
                        json::key("chunk")
                            + &w.chunk.map_or("null".to_string(), |c| c.to_string()),
                        json::key("alive") + if w.alive { "true" } else { "false" },
                    ])
                })),
        ]))
    }

    /// Summary JSON for every registered job (stable id order).
    pub fn list_json(&self) -> String {
        let jobs = self.jobs.lock().unwrap();
        let mut handles: Vec<_> = jobs.values().cloned().collect();
        drop(jobs);
        handles.sort_by(|a, b| a.id.cmp(&b.id));
        json::object([json::key("jobs")
            + &json::array(handles.iter().map(|handle| {
                let status = handle.status.lock().unwrap();
                json::object([
                    json::key("id") + &json::string(&handle.id),
                    json::key("name") + &json::string(&handle.spec.name),
                    json::key("state") + &json::string(status.state.as_str()),
                    json::key("points") + &handle.spec.point_count().to_string(),
                    json::key("chunks_done") + &status.chunks_done.to_string(),
                ])
            }))])
    }

    /// Serves one result page of a `done` job, rows in point-index
    /// order. `page` is 0-based; a page past the end is an empty 200.
    ///
    /// # Errors
    ///
    /// See [`ResultError`]. A corrupt checkpoint discovered here is
    /// quarantined and its recomputation scheduled before the error
    /// returns, so retrying after a 503 eventually succeeds.
    pub fn result_page(
        self: &Arc<Self>,
        id: &str,
        page: u64,
        per_page: u64,
    ) -> Result<String, ResultError> {
        if per_page == 0 || per_page > MAX_PER_PAGE {
            return Err(ResultError::BadRequest(format!(
                "per_page must be 1..={MAX_PER_PAGE}"
            )));
        }
        let handle = self
            .jobs
            .lock()
            .unwrap()
            .get(id)
            .cloned()
            .ok_or(ResultError::NotFound)?;
        {
            let status = handle.status.lock().unwrap();
            if status.state != JobState::Done {
                return Err(ResultError::NotReady(status.state.as_str()));
            }
        }
        let spec = &handle.spec;
        let total = spec.point_count();
        let start = page.saturating_mul(per_page).min(total);
        let end = start.saturating_add(per_page).min(total);
        let mut rows: Vec<String> = Vec::with_capacity((end - start) as usize);
        let mut index = start;
        while index < end {
            let chunk = index / u64::from(spec.chunk_points);
            let (chunk_start, chunk_end) = spec.chunk_range(chunk);
            let path = handle.dir.join(chunk_file_name(chunk));
            let file = match read_chunk(&path) {
                Ok(file)
                    if file.job_id == handle.id
                        && file.chunk == chunk
                        && file.start == chunk_start
                        && file.end == chunk_end =>
                {
                    file
                }
                Ok(_) => {
                    self.heal_chunk(&handle, &path, "checkpoint header names a different chunk");
                    return Err(ResultError::Corrupt(format!(
                        "checkpoint {chunk} mismatched; recomputing"
                    )));
                }
                Err(CkptError::Corrupt { reason }) => {
                    self.heal_chunk(&handle, &path, &reason);
                    return Err(ResultError::Corrupt(format!(
                        "checkpoint {chunk} corrupt ({reason}); recomputing"
                    )));
                }
                Err(CkptError::Io(err)) => {
                    self.heal_chunk(&handle, &path, &err.to_string());
                    return Err(ResultError::Corrupt(format!(
                        "checkpoint {chunk} unreadable ({err}); recomputing"
                    )));
                }
            };
            let upto = end.min(chunk_end);
            for i in index..upto {
                rows.push(file.rows[(i - chunk_start) as usize].clone());
            }
            index = upto;
        }
        Ok(json::object([
            json::key("id") + &json::string(&handle.id),
            json::key("page") + &page.to_string(),
            json::key("per_page") + &per_page.to_string(),
            json::key("total_points") + &total.to_string(),
            json::key("total_pages") + &total.div_ceil(per_page).to_string(),
            json::key("rows") + &json::array(rows),
        ]))
    }

    /// Quarantines a bad checkpoint and flips the job back to queued
    /// with a fresh runner, which recomputes exactly the missing chunk.
    fn heal_chunk(self: &Arc<Self>, handle: &Arc<JobHandle>, path: &Path, reason: &str) {
        if path.exists() {
            quarantine(path, reason);
        }
        let mut status = handle.status.lock().unwrap();
        status.quarantined += 1;
        if status.state == JobState::Done {
            status.state = JobState::Queued;
            drop(status);
            // `Done` means the old runner has returned (it sets the
            // state on its way out) but its thread may be a few
            // instructions from exiting; join it so the respawn below
            // cannot mistake it for a live runner and skip itself.
            let stale = handle.runner.lock().unwrap().take();
            if let Some(join) = stale {
                let _ = join.join();
            }
            self.spawn_runner(Arc::clone(handle));
        }
    }

    /// Cancels a job: durable marker, workers killed, never resumed.
    pub fn cancel(&self, id: &str) -> CancelOutcome {
        let Some(handle) = self.jobs.lock().unwrap().get(id).cloned() else {
            return CancelOutcome::NotFound;
        };
        {
            let status = handle.status.lock().unwrap();
            match status.state {
                JobState::Done => return CancelOutcome::AlreadyDone,
                JobState::Canceled => return CancelOutcome::Canceled,
                _ => {}
            }
        }
        handle.cancel.store(true, Ordering::SeqCst);
        // The runner notices the flag within one tick and does the
        // marker + state transition itself; if no runner is live
        // (queued job during shutdown), do it here.
        let runner = handle.runner.lock().unwrap().take();
        match runner {
            Some(join) => {
                let _ = join.join();
            }
            None => {
                write_cancel_marker(&handle.dir);
                handle.status.lock().unwrap().state = JobState::Canceled;
            }
        }
        counter!("jobs_canceled_total").inc();
        CancelOutcome::Canceled
    }

    /// Graceful, *resumable* shutdown: stops every runner and kills its
    /// workers but writes no markers — checkpoints stay, and the next
    /// [`JobFabric::start`] over the same directory resumes unfinished
    /// jobs. This is what the server calls on drain; contrast
    /// [`JobFabric::cancel`].
    pub fn stop(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let handles: Vec<_> = self.jobs.lock().unwrap().values().cloned().collect();
        for handle in &handles {
            handle.stop.store(true, Ordering::SeqCst);
        }
        for handle in handles {
            let runner = handle.runner.lock().unwrap().take();
            if let Some(join) = runner {
                let _ = join.join();
            }
        }
        if let Some(gate) = &self.remote {
            gate.stop();
        }
    }

    /// The bound remote-worker listener address, when one is
    /// configured.
    pub fn remote_addr(&self) -> Option<std::net::SocketAddr> {
        self.remote.as_ref().map(|gate| gate.addr())
    }

    /// Remote workers currently connected (admitted, link alive);
    /// `None` when no listener is configured.
    pub fn remote_connected(&self) -> Option<usize> {
        self.remote.as_ref().map(|gate| gate.connected())
    }

    fn spawn_runner(self: &Arc<Self>, handle: Arc<JobHandle>) {
        let fabric = Arc::clone(self);
        let mut slot = handle.runner.lock().unwrap();
        // A finished runner (job completed, then healed back to
        // queued) leaves its stale JoinHandle in the slot; reap it so
        // the job can run again. A live runner means nothing to do.
        if let Some(join) = slot.take() {
            if !join.is_finished() {
                *slot = Some(join);
                return;
            }
            let _ = join.join();
        }
        let job = Arc::clone(&handle);
        let name = format!("job-runner-{}", &handle.id[..9.min(handle.id.len())]);
        *slot = Some(
            thread::Builder::new()
                .name(name)
                .spawn(move || {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        Runner::new(fabric, Arc::clone(&job)).run()
                    }));
                    if let Err(payload) = outcome {
                        let msg = format!("runner panicked: {}", panic_message(&payload));
                        warn!("jobs: {} {msg}", job.id);
                        let mut status = job.status.lock().unwrap();
                        status.state = JobState::Failed;
                        status.error = Some(msg);
                    }
                })
                .expect("spawn job runner thread"),
        );
    }
}

/// Durably records that the job in `dir` was canceled, so a restart
/// never resumes it. A failed write is logged; the in-memory state
/// still says canceled for the rest of this run.
fn write_cancel_marker(dir: &Path) {
    if let Err(err) = durable::write_atomically(&dir.join(CANCEL_MARKER), b"") {
        warn!("jobs: cannot write cancel marker in {}: {err}", dir.display());
    }
}

/// Resolves the worker executable: explicit config, then the
/// environment override, then `leakage-job-worker` next to the current
/// executable (and one directory up, covering `target/<p>/deps/`),
/// finally bare `PATH` lookup.
fn resolve_worker_bin(config: &FabricConfig) -> PathBuf {
    if let Some(bin) = &config.worker_bin {
        return bin.clone();
    }
    if let Ok(bin) = std::env::var(WORKER_BIN_ENV) {
        if !bin.is_empty() {
            return PathBuf::from(bin);
        }
    }
    if let Ok(exe) = std::env::current_exe() {
        for dir in exe.ancestors().skip(1).take(2) {
            let candidate = dir.join("leakage-job-worker");
            if candidate.is_file() {
                return candidate;
            }
        }
    }
    PathBuf::from("leakage-job-worker")
}

/// Events the per-worker reader threads feed the runner loop.
enum Event {
    Ready(usize),
    ChunkDone {
        worker: usize,
        chunk: u64,
        rows: Vec<String>,
    },
    ChunkErr {
        worker: usize,
        chunk: u64,
        error: String,
    },
    /// A remote worker's liveness beat (stdio workers never send one).
    Heartbeat(usize),
    /// The worker's stream closed or spoke garbage; `reason` is for
    /// logs. Sent at most once per worker.
    Gone { worker: usize, reason: String },
}

struct WorkerSlot {
    link: Box<dyn WorkerTransport>,
    assigned: Option<Assign>,
    /// Lease epoch the current assignment was granted under; a chunk
    /// answer only commits while this still matches the lease table.
    epoch: u64,
    assigned_at: Instant,
    /// Last frame of any kind (heartbeats included) from this worker.
    last_heard: Instant,
    /// We closed the worker's input on purpose; the coming `Gone` is
    /// expected.
    retired: bool,
    /// An assignment revoked by lease expiry: `(chunk, epoch)`. The
    /// link stays open; if the partition heals, the worker's stale
    /// answer for this chunk is discarded silently instead of being
    /// treated as a protocol violation.
    revoked: Option<(u64, u64)>,
    reader: Option<thread::JoinHandle<()>>,
}

struct Runner {
    fabric: Arc<JobFabric>,
    job: Arc<JobHandle>,
    pending: VecDeque<u64>,
    attempts: HashMap<u64, u32>,
    done: Vec<bool>,
    slots: Vec<Option<WorkerSlot>>,
    leases: LeaseManager,
    events_tx: mpsc::Sender<Event>,
    events_rx: mpsc::Receiver<Event>,
    spawns_left: u64,
    /// Separate budget for admitting remote sessions, so a flapping
    /// network cannot drain the local respawn budget (or vice versa).
    remote_admits_left: u64,
}

impl Runner {
    fn new(fabric: Arc<JobFabric>, job: Arc<JobHandle>) -> Runner {
        let (events_tx, events_rx) = mpsc::channel();
        let chunks = job.spec.chunk_count();
        let leases = LeaseManager::open(&job.dir);
        Runner {
            fabric,
            job,
            pending: VecDeque::new(),
            attempts: HashMap::new(),
            done: vec![false; chunks as usize],
            slots: Vec::new(),
            leases,
            events_tx,
            events_rx,
            spawns_left: chunks.max(16),
            remote_admits_left: (chunks * 4).max(64),
        }
    }

    fn run(&mut self) {
        if let Err(err) = self.recover_checkpoints() {
            self.fail(format!("scanning checkpoints: {err}"));
            return;
        }
        if self.finish_if_complete() {
            return;
        }
        {
            let mut status = self.job.status.lock().unwrap();
            status.state = JobState::Running;
        }
        // With a remote listener the fabric may legitimately run zero
        // local workers; without one, at least one local worker is the
        // only way the job can make progress.
        let local = if self.fabric.remote.is_some() {
            self.fabric.config.workers
        } else {
            self.fabric.config.workers.max(1)
        };
        let want = local.min(self.pending.len().max(1));
        for _ in 0..want {
            if let Err(err) = self.spawn_local_worker() {
                self.fail(format!("spawning worker: {err}"));
                self.teardown(false);
                return;
            }
        }
        loop {
            if self.job.cancel.load(Ordering::SeqCst) {
                self.teardown(false);
                write_cancel_marker(&self.job.dir);
                let mut status = self.job.status.lock().unwrap();
                status.state = JobState::Canceled;
                return;
            }
            if self.job.stop.load(Ordering::SeqCst) {
                self.teardown(false);
                let mut status = self.job.status.lock().unwrap();
                status.state = JobState::Queued;
                status.workers.clear();
                return;
            }
            self.admit_remote();
            match self.events_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(event) => {
                    if !self.handle_event(event) {
                        return; // job reached a terminal state
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if !self.check_deadlines() {
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.fail("all worker channels closed unexpectedly".to_string());
                    self.teardown(false);
                    return;
                }
            }
        }
    }

    /// Scans the job directory for durable chunks; valid ones count as
    /// done, corrupt ones are quarantined and recomputed, and temp
    /// files a crashed writer left behind are deleted.
    fn recover_checkpoints(&mut self) -> io::Result<()> {
        let spec = &self.job.spec;
        let mut recovered = 0u64;
        let mut points = 0u64;
        let mut quarantined = 0u64;
        for entry in fs::read_dir(&self.job.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(chunk) = parse_chunk_file_name(name) else {
                if durable::is_temp_name(name) {
                    let _ = fs::remove_file(&path);
                }
                continue;
            };
            if chunk >= spec.chunk_count() {
                quarantine(&path, "chunk ordinal outside this job");
                quarantined += 1;
                continue;
            }
            let (start, end) = spec.chunk_range(chunk);
            match read_chunk(&path) {
                Ok(file)
                    if file.job_id == self.job.id
                        && file.chunk == chunk
                        && file.start == start
                        && file.end == end =>
                {
                    if !self.done[chunk as usize] {
                        self.done[chunk as usize] = true;
                        recovered += 1;
                        points += end - start;
                    }
                }
                Ok(_) => {
                    quarantine(&path, "checkpoint header disagrees with job spec");
                    quarantined += 1;
                }
                Err(CkptError::Corrupt { reason }) => {
                    quarantine(&path, &reason);
                    quarantined += 1;
                }
                Err(CkptError::Io(err)) => return Err(err),
            }
        }
        for chunk in 0..spec.chunk_count() {
            if !self.done[chunk as usize] {
                self.pending.push_back(chunk);
            }
        }
        let mut status = self.job.status.lock().unwrap();
        status.chunks_done = recovered;
        status.points_done = points;
        status.resumed_chunks = recovered;
        status.quarantined += quarantined;
        Ok(())
    }

    fn finish_if_complete(&mut self) -> bool {
        if self.pending.is_empty() && self.inflight_count() == 0 {
            self.teardown(true);
            let mut status = self.job.status.lock().unwrap();
            status.state = JobState::Done;
            status.workers.clear();
            drop(status);
            counter!("jobs_completed_total").inc();
            debug!("jobs: {} done", self.job.id);
            return true;
        }
        false
    }

    fn inflight_count(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.assigned.is_some())
            .count()
    }

    fn spawn_local_worker(&mut self) -> io::Result<()> {
        if self.spawns_left == 0 {
            return Err(io::Error::other("worker respawn budget exhausted"));
        }
        self.spawns_left -= 1;
        let bin = resolve_worker_bin(&self.fabric.config);
        let child = retry(Backoff::DISK, |_| {
            io_point("jobs/spawn")?;
            let mut command = Command::new(&bin);
            command
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .env_remove(leakage_faults::FAULTS_ENV);
            for (key, value) in &self.fabric.config.worker_env {
                command.env(key, value);
            }
            command.spawn()
        })?;
        let link = Box::new(StdioTransport::new(child));
        self.attach_worker(link)
    }

    /// Adopts pooled remote sessions while there is unassigned work
    /// for them. Called every loop tick; a no-op without a listener.
    fn admit_remote(&mut self) {
        let Some(gate) = self.fabric.remote.clone() else {
            return;
        };
        loop {
            if self.remote_admits_left == 0 {
                return;
            }
            let idle = self
                .slots
                .iter()
                .flatten()
                .filter(|s| !s.retired && s.assigned.is_none())
                .count();
            if self.pending.len() <= idle {
                return;
            }
            let Some(session) = gate.take() else {
                return;
            };
            let link = match SocketTransport::adopt(session) {
                Ok(link) => Box::new(link),
                Err(_) => continue, // died while pooled
            };
            self.remote_admits_left -= 1;
            if self.attach_worker(link).is_err() {
                // The hello write failed: a dead pooled socket, not a
                // fabric problem. Try the next session.
                continue;
            }
        }
    }

    /// Wires a transport into a slot: sends the job hello, spawns the
    /// reader thread, publishes the roster.
    fn attach_worker(&mut self, mut link: Box<dyn WorkerTransport>) -> io::Result<()> {
        let hello = Hello {
            job_id: self.job.id.clone(),
            spec: self.job.spec.clone(),
        };
        link.send_line(&hello.encode())?;
        let stream = link.take_reader().expect("worker transport reader");
        let worker = self.slots.len();
        let tx = self.events_tx.clone();
        let reader = thread::Builder::new()
            .name(format!("job-worker-read-{worker}"))
            .spawn(move || read_worker(worker, stream, &tx))
            .expect("spawn worker reader thread");
        let now = Instant::now();
        self.slots.push(Some(WorkerSlot {
            link,
            assigned: None,
            epoch: 0,
            assigned_at: now,
            last_heard: now,
            retired: false,
            revoked: None,
            reader: Some(reader),
        }));
        self.publish_workers();
        Ok(())
    }

    fn publish_workers(&self) {
        let views: Vec<WorkerView> = self
            .slots
            .iter()
            .flatten()
            .map(|slot| WorkerView {
                pid: slot.link.id(),
                chunk: slot.assigned.map(|a| a.chunk),
                alive: !slot.retired,
            })
            .collect();
        self.job.status.lock().unwrap().workers = views;
    }

    /// Feeds the next pending chunk to `worker` under a fresh lease,
    /// or retires it (closes its input) when nothing is left.
    fn assign_next(&mut self, worker: usize) {
        let link_id = match self.slots[worker].as_ref() {
            // A duplicated `ready` frame (net/dup) or a heartbeat on a
            // busy worker must not double-assign.
            Some(slot) if slot.assigned.is_some() => return,
            Some(slot) => slot.link.id(),
            None => return,
        };
        let Some(chunk) = self.pending.pop_front() else {
            if let Some(slot) = self.slots[worker].as_mut() {
                slot.retired = true;
                slot.link.close_input(); // EOF → worker exits 0
            }
            self.publish_workers();
            return;
        };
        let epoch = self
            .leases
            .acquire(chunk, link_id, self.fabric.config.stall_deadline);
        let (start, end) = self.job.spec.chunk_range(chunk);
        let assign = Assign { chunk, start, end };
        let write = self.slots[worker]
            .as_mut()
            .map(|slot| slot.link.send_line(&assign.encode()));
        match write {
            Some(Ok(())) => {
                if let Some(slot) = self.slots[worker].as_mut() {
                    slot.assigned = Some(assign);
                    slot.epoch = epoch;
                    slot.assigned_at = Instant::now();
                }
                self.publish_workers();
            }
            _ => {
                // Broken link: the worker is dead or dying; requeue
                // and let its `Gone` event drive the respawn.
                self.pending.push_front(chunk);
                self.kill_worker(worker, "assignment write failed");
            }
        }
    }

    /// Records that `worker` spoke: every frame is proof of liveness.
    fn touch(&mut self, worker: usize) {
        if let Some(slot) = self.slots[worker].as_mut() {
            slot.last_heard = Instant::now();
        }
    }

    /// Returns `false` when the job reached a terminal state.
    fn handle_event(&mut self, event: Event) -> bool {
        match event {
            Event::Ready(worker) => {
                self.touch(worker);
                self.assign_next(worker);
                true
            }
            Event::Heartbeat(worker) => {
                self.touch(worker);
                // A beat from an idle worker is also an offer to work:
                // this is how a worker whose assignment was revoked
                // (expired lease, dropped frame) gets back in rotation
                // once its link proves alive again.
                let idle = self.slots[worker]
                    .as_ref()
                    .is_some_and(|s| !s.retired && s.assigned.is_none());
                if idle && !self.pending.is_empty() {
                    self.assign_next(worker);
                }
                true
            }
            Event::ChunkDone { worker, chunk, rows } => {
                self.touch(worker);
                let assigned = self.slots[worker].as_ref().and_then(|s| s.assigned);
                let epoch = self.slots[worker].as_ref().map_or(0, |s| s.epoch);
                let owns = assigned.map(|a| a.chunk) == Some(chunk)
                    && self.leases.current(chunk) == epoch
                    && !self.done[chunk as usize];
                if !owns {
                    let was_revoked = self.slots[worker]
                        .as_ref()
                        .and_then(|s| s.revoked)
                        .map(|(c, _)| c)
                        == Some(chunk);
                    let late = was_revoked
                        || self.done[chunk as usize]
                        || assigned.map(|a| a.chunk) == Some(chunk);
                    if !late {
                        // Never assigned, never revoked: a protocol
                        // violation, not a race.
                        self.kill_worker(worker, "answered a chunk it was not assigned");
                        return self.ensure_progress();
                    }
                    // The first durable checkpoint already won (or a
                    // newer lease holder is about to write it): this
                    // answer arrived too late. Discard it, keep the
                    // worker.
                    counter!("jobs_late_commits_discarded_total").inc();
                    self.job.status.lock().unwrap().late_commits += 1;
                    debug!(
                        "jobs: {} discarding late commit of chunk {chunk} from worker {worker}",
                        self.job.id
                    );
                    if let Some(slot) = self.slots[worker].as_mut() {
                        if slot.assigned.map(|a| a.chunk) == Some(chunk) {
                            slot.assigned = None;
                        }
                        if was_revoked {
                            slot.revoked = None;
                        }
                    }
                    if self.finish_if_complete() {
                        return false;
                    }
                    self.assign_next(worker);
                    return true;
                }
                let (start, end) = self.job.spec.chunk_range(chunk);
                if rows.len() as u64 != end - start {
                    self.requeue(chunk, "row count disagrees with chunk range");
                    self.kill_worker(worker, "bad row count");
                    return self.ensure_progress();
                }
                let file = ChunkFile {
                    job_id: self.job.id.clone(),
                    chunk,
                    start,
                    end,
                    rows,
                };
                match write_chunk(&self.job.dir, &file) {
                    Ok(_) => {
                        self.done[chunk as usize] = true;
                        self.leases.release(chunk);
                        if let Some(slot) = self.slots[worker].as_mut() {
                            slot.assigned = None;
                        }
                        let mut status = self.job.status.lock().unwrap();
                        status.chunks_done += 1;
                        status.points_done += end - start;
                        drop(status);
                        counter!("jobs_chunks_completed_total").inc();
                        if self.finish_if_complete() {
                            return false;
                        }
                        self.assign_next(worker);
                    }
                    Err(err) => {
                        self.fail(format!("checkpointing chunk {chunk}: {err}"));
                        self.teardown(false);
                        return false;
                    }
                }
                true
            }
            Event::ChunkErr { worker, chunk, error } => {
                self.touch(worker);
                let matched = self.slots[worker]
                    .as_ref()
                    .is_some_and(|s| s.assigned.map(|a| a.chunk) == Some(chunk));
                if matched {
                    if let Some(slot) = self.slots[worker].as_mut() {
                        slot.assigned = None;
                    }
                    self.requeue(chunk, &error);
                    if self.job_failed() {
                        self.teardown(false);
                        return false;
                    }
                } else if let Some(slot) = self.slots[worker].as_mut() {
                    // A stale error for a revoked chunk: the requeue
                    // already happened at expiry. Just clear the
                    // revocation.
                    if slot.revoked.map(|(c, _)| c) == Some(chunk) {
                        slot.revoked = None;
                    }
                }
                self.assign_next(worker);
                true
            }
            Event::Gone { worker, reason } => {
                let (retired, assigned, local) = match self.slots[worker].as_ref() {
                    Some(slot) => (slot.retired, slot.assigned, slot.link.is_local()),
                    None => (true, None, true),
                };
                if retired {
                    self.reap(worker);
                    return true;
                }
                self.reap(worker);
                if let Some(assign) = assigned {
                    self.requeue(assign.chunk, &reason);
                    let mut status = self.job.status.lock().unwrap();
                    status.reassigned_chunks += 1;
                    drop(status);
                }
                if self.job_failed() {
                    self.teardown(false);
                    return false;
                }
                if local && !self.pending.is_empty() {
                    {
                        let mut status = self.job.status.lock().unwrap();
                        status.worker_restarts += 1;
                    }
                    counter!("jobs_worker_restarts_total").inc();
                    warn!(
                        "jobs: {} worker {worker} lost ({reason}); respawning",
                        self.job.id
                    );
                    if let Err(err) = self.spawn_local_worker() {
                        self.fail(format!("respawning worker: {err}"));
                        self.teardown(false);
                        return false;
                    }
                }
                // A lost *remote* worker is not respawned here: it
                // redials on its own and re-enters through the gate.
                self.ensure_progress()
            }
        }
    }

    /// After losing a worker, the job may already be complete.
    fn ensure_progress(&mut self) -> bool {
        !self.finish_if_complete()
    }

    fn requeue(&mut self, chunk: u64, reason: &str) {
        let tries = self.attempts.entry(chunk).or_insert(0);
        *tries += 1;
        debug!(
            "jobs: {} chunk {chunk} back on queue (attempt {}, {reason})",
            self.job.id, *tries
        );
        self.pending.push_back(chunk);
    }

    /// Whether some chunk blew its attempt budget; fails the job if so.
    fn job_failed(&mut self) -> bool {
        let Some((&chunk, &tries)) = self
            .attempts
            .iter()
            .find(|(_, &tries)| tries >= MAX_CHUNK_ATTEMPTS)
        else {
            return false;
        };
        self.fail(format!("chunk {chunk} failed {tries} times; giving up"));
        true
    }

    fn fail(&mut self, error: String) {
        warn!("jobs: {} failed: {error}", self.job.id);
        let mut status = self.job.status.lock().unwrap();
        status.state = JobState::Failed;
        status.error = Some(error);
        status.workers.clear();
        drop(status);
        counter!("jobs_failed_total").inc();
    }

    /// Timeout-tick sweep. Local workers holding a chunk past the
    /// stall deadline are killed (their death is observable, so the
    /// `Gone` event handles requeue). Remote workers cannot be killed
    /// meaningfully — silence may be a partition — so their chunk's
    /// *lease* expires instead: epoch bump, requeue, link kept open.
    /// Returns `false` when the job reached a terminal state.
    fn check_deadlines(&mut self) -> bool {
        let stall = self.fabric.config.stall_deadline;
        let hb = self.fabric.config.heartbeat_timeout;
        let stalled: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let slot = slot.as_ref()?;
                (slot.link.is_local()
                    && slot.assigned.is_some()
                    && !slot.retired
                    && slot.assigned_at.elapsed() > stall)
                    .then_some(i)
            })
            .collect();
        for worker in stalled {
            counter!("jobs_workers_stalled_total").inc();
            self.kill_worker(worker, "stall deadline exceeded");
        }
        let expired: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let slot = slot.as_ref()?;
                (!slot.link.is_local()
                    && slot.assigned.is_some()
                    && !slot.retired
                    && (slot.last_heard.elapsed() > hb || slot.assigned_at.elapsed() > stall))
                    .then_some(i)
            })
            .collect();
        let mut any_expired = false;
        for worker in expired {
            let Some(slot) = self.slots[worker].as_mut() else {
                continue;
            };
            let Some(assign) = slot.assigned.take() else {
                continue;
            };
            slot.revoked = Some((assign.chunk, slot.epoch));
            self.leases.expire(assign.chunk);
            counter!("jobs_leases_expired_total").inc();
            {
                let mut status = self.job.status.lock().unwrap();
                status.leases_expired += 1;
                status.reassigned_chunks += 1;
            }
            warn!(
                "jobs: {} lease on chunk {} expired (worker {worker} silent); reassigning",
                self.job.id, assign.chunk
            );
            self.requeue(assign.chunk, "lease expired");
            any_expired = true;
        }
        if any_expired {
            self.publish_workers();
            if self.job_failed() {
                self.teardown(false);
                return false;
            }
        }
        true
    }

    /// Severs a worker's link; its reader thread will observe EOF and
    /// deliver the `Gone` event that requeues + respawns.
    fn kill_worker(&mut self, worker: usize, reason: &str) {
        if let Some(slot) = self.slots[worker].as_mut() {
            warn!(
                "jobs: {} killing worker {} ({reason})",
                self.job.id,
                slot.link.id()
            );
            slot.link.kill();
        }
    }

    /// Reaps a finished worker: severs the link, joins the reader.
    fn reap(&mut self, worker: usize) {
        if let Some(mut slot) = self.slots[worker].take() {
            slot.link.reap();
            if let Some(reader) = slot.reader.take() {
                let _ = reader.join();
            }
        }
        self.publish_workers();
    }

    /// Disconnects every worker. With `graceful`, lets retirees finish
    /// first (their input is already closed) — used on completion;
    /// otherwise hard-kills — used for cancel/stop/fail.
    fn teardown(&mut self, graceful: bool) {
        for worker in 0..self.slots.len() {
            if graceful {
                if let Some(slot) = self.slots[worker].as_mut() {
                    slot.retired = true;
                    slot.link.close_input();
                }
            }
            self.reap(worker);
        }
    }
}

/// Reader-thread body: turns a worker's byte stream (stdout pipe or
/// TCP socket) into [`Event`]s. Stateful framing — after a
/// `ChunkStart` header the next `points` lines are verbatim rows — and
/// the `chunk_end` checksum is verified *here*, so a corrupted pipe
/// never reaches a checkpoint.
fn read_worker(worker: usize, stream: Box<dyn io::Read + Send>, tx: &mpsc::Sender<Event>) {
    let gone = |reason: String| Event::Gone { worker, reason };
    let mut lines = BufReader::new(stream).lines();
    let outcome = loop {
        let Some(line) = lines.next() else {
            break gone("stream closed".to_string());
        };
        let line = match line {
            Ok(line) => line,
            Err(err) => break gone(format!("stream read: {err}")),
        };
        match WorkerFrame::parse(&line) {
            Ok(WorkerFrame::Ready(_)) => {
                if tx.send(Event::Ready(worker)).is_err() {
                    return;
                }
            }
            Ok(WorkerFrame::Heartbeat(_)) => {
                if tx.send(Event::Heartbeat(worker)).is_err() {
                    return;
                }
            }
            Ok(WorkerFrame::ChunkStart { chunk, points }) => {
                let mut rows = Vec::with_capacity(points as usize);
                for _ in 0..points {
                    match lines.next() {
                        Some(Ok(row)) => rows.push(row),
                        Some(Err(_)) | None => break,
                    }
                }
                if rows.len() as u64 != points {
                    break gone(format!(
                        "stream ended mid-chunk {chunk}: {}/{points} rows",
                        rows.len()
                    ));
                }
                let seal = match lines.next() {
                    Some(Ok(line)) => line,
                    _ => break gone(format!("no chunk_end after chunk {chunk}")),
                };
                match WorkerFrame::parse(&seal) {
                    Ok(WorkerFrame::ChunkEnd {
                        chunk: sealed,
                        fnv1a,
                    }) if sealed == chunk => {
                        if fnv1a != rows_checksum(&rows) {
                            break gone(format!("chunk {chunk} row checksum mismatch"));
                        }
                        if tx
                            .send(Event::ChunkDone {
                                worker,
                                chunk,
                                rows,
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    _ => break gone(format!("bad seal after chunk {chunk}: {seal:?}")),
                }
            }
            Ok(WorkerFrame::ChunkErr { chunk, error }) => {
                if tx
                    .send(Event::ChunkErr {
                        worker,
                        chunk,
                        error,
                    })
                    .is_err()
                {
                    return;
                }
            }
            Ok(WorkerFrame::ChunkEnd { chunk, .. }) => {
                break gone(format!("chunk_end {chunk} without chunk header"));
            }
            Err(err) => break gone(err.to_string()),
        }
    };
    let _ = tx.send(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_bin_resolution_prefers_explicit_config() {
        let config = FabricConfig {
            worker_bin: Some(PathBuf::from("/custom/worker")),
            ..FabricConfig::default()
        };
        assert_eq!(resolve_worker_bin(&config), PathBuf::from("/custom/worker"));
    }

    #[test]
    fn job_states_have_stable_tokens() {
        for (state, token) in [
            (JobState::Queued, "queued"),
            (JobState::Running, "running"),
            (JobState::Done, "done"),
            (JobState::Failed, "failed"),
            (JobState::Canceled, "canceled"),
        ] {
            assert_eq!(state.as_str(), token);
        }
    }
}
