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
//! Each runner is an I/O shell around a pure schedule
//! (`schedule.rs`): it speaks the [`crate::protocol`] to
//! locally-spawned worker children over their stdin/stdout pipes,
//! turns what it reads into schedule inputs, and carries out the
//! spawns, assignments, kills and commits the schedule decides. Every worker is a child, so its death is
//! always observable (EOF on its stdout) and is reaped before the
//! schedule requeues its chunk: no stale writer outlives its
//! assignment, and the first durable checkpoint wins.

use std::collections::HashMap;
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use leakage_faults::{durable, io_point, panic_message, retry, Backoff};
use leakage_telemetry::json;
use leakage_telemetry::{counter, debug, warn};

use crate::checkpoint::{
    check_header, chunk_file_name, parse_chunk_file_name, quarantine, read_job_chunk, write_chunk,
    ChunkFile, CkptError, CHUNK_MAGIC,
};
use crate::protocol::{read_answer, Assign, Hello, WorkerFrame};
pub use crate::schedule::MAX_CHUNK_ATTEMPTS;
use crate::schedule::{Action, Input, Outcome, Schedule, WorkerId};
use crate::spec::{JobSpec, SpecError};

/// Environment override for the worker executable path.
pub const WORKER_BIN_ENV: &str = "LEAKAGE_JOB_WORKER_BIN";

/// The empty marker file that durably records a cancellation.
const CANCEL_MARKER: &str = "canceled";

/// Upper bound on `per_page` for result reads.
pub const MAX_PER_PAGE: u64 = 10_000;

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
    /// Ignored: workers are local children, whose death is observed
    /// directly and whose stalls `stall_deadline` covers, so nothing
    /// heartbeats. Kept only because the repository benchmark still
    /// sets it; remove it once that stops.
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
            heartbeat_timeout: Duration::from_secs(5),
        }
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and durable, runner not yet fanned out.
    #[default]
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
#[derive(Debug, Default)]
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
    error: Option<String>,
    workers: Vec<WorkerView>,
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

impl JobHandle {
    /// A registered job, queued or `canceled`, with no runner yet.
    fn new(spec: JobSpec, dir: PathBuf, canceled: bool) -> Arc<JobHandle> {
        let state = if canceled {
            JobState::Canceled
        } else {
            JobState::Queued
        };
        Arc::new(JobHandle {
            id: spec.id(),
            spec,
            dir,
            status: Mutex::new(StatusState {
                state,
                ..StatusState::default()
            }),
            cancel: AtomicBool::new(canceled),
            stop: AtomicBool::new(false),
            runner: Mutex::new(None),
        })
    }

    /// Checks that a worker's verified answer names this job and the
    /// point range of the chunk it names.
    fn check_answer(&self, file: ChunkFile) -> Result<ChunkFile, String> {
        if file.chunk >= self.spec.chunk_count() {
            return Err(format!("chunk {} is outside this job", file.chunk));
        }
        let chunk = file.chunk;
        let range = self.spec.chunk_range(chunk);
        check_header(file, &self.id, chunk, range).map_err(|err| err.to_string())
    }
}

/// Joins the runner threads of completed jobs. An exited thread that
/// is never joined keeps its stack mapped, so without this a
/// long-lived coordinator grows with every job it has ever run. Only
/// `Done` jobs are reaped: a `Failed` job's runner handle still decides
/// what a later cancel does. A runner that set `Done` but has not yet
/// exited is left for the next call.
fn reap_done_runners(jobs: &HashMap<String, Arc<JobHandle>>) {
    for job in jobs.values() {
        if job.status.lock().unwrap().state != JobState::Done {
            continue;
        }
        let mut slot = job.runner.lock().unwrap();
        if slot.as_ref().is_some_and(thread::JoinHandle::is_finished) {
            if let Some(runner) = slot.take() {
                let _ = runner.join();
            }
        }
    }
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
        let fabric = Arc::new(JobFabric {
            config,
            jobs: Mutex::new(HashMap::new()),
            shutting_down: AtomicBool::new(false),
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
        let handle = JobHandle::new(spec, job_dir.to_path_buf(), canceled);
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
            if let Some(taken) = jobs.values().find(|j| {
                j.spec.name == spec.name
                    && !matches!(
                        j.status.lock().unwrap().state,
                        JobState::Canceled | JobState::Failed
                    )
            }) {
                return Err(SubmitError::Conflict(format!(
                    "name {:?} is taken by job {}",
                    spec.name, taken.id
                )));
            }
            reap_done_runners(&jobs);
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
            let handle = JobHandle::new(spec, dir, false);
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
            json::key("error")
                + &status
                    .error
                    .as_ref()
                    .map_or("null".to_string(), |e| json::string(e)),
            json::key("workers")
                + &json::array(status.workers.iter().map(|w| {
                    json::object([
                        json::key("pid") + &w.pid.to_string(),
                        json::key("chunk") + &w.chunk.map_or("null".to_string(), |c| c.to_string()),
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
            let (first, past) = spec.chunk_range(chunk);
            let path = handle.dir.join(chunk_file_name(chunk));
            let file = match read_job_chunk(&path, &handle.id, chunk, (first, past)) {
                Ok(file) => file,
                Err(err) => {
                    self.heal_chunk(&handle, &path, &err.to_string());
                    return Err(ResultError::Corrupt(format!(
                        "checkpoint {chunk} failed verification ({err}); recomputing"
                    )));
                }
            };
            let upto = end.min(past);
            rows.extend_from_slice(&file.rows[(index - first) as usize..(upto - first) as usize]);
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
                        run_job(fabric, Arc::clone(&job));
                    }));
                    if let Err(payload) = outcome {
                        let msg = format!("runner panicked: {}", panic_message(&payload));
                        record_end(&job, Outcome::Failed(msg));
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
        warn!(
            "jobs: cannot write cancel marker in {}: {err}",
            dir.display()
        );
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

/// How long the runner waits for an event before it looks at the
/// cancel and stop flags and the stall deadlines again.
const TICK: Duration = Duration::from_millis(100);

/// What a reader thread feeds the runner: a schedule input, and the
/// verified checkpoint an `Answer` carries. `Gone` is a reader's last.
type Event = (Input, Option<ChunkFile>);

/// One worker child. Its stdout belongs to a detached reader thread,
/// which sees EOF once the child exits or is killed, sends `Gone` and
/// ends.
struct WorkerSlot {
    child: Child,
    /// The worker's input; `None` once retired (EOF → the worker exits
    /// 0).
    stdin: Option<ChildStdin>,
}

impl WorkerSlot {
    /// Writes one newline-terminated protocol line and flushes; any
    /// failure means the worker is dead or dying.
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let stdin = self.stdin.as_mut().ok_or(io::ErrorKind::BrokenPipe)?;
        stdin.write_all(format!("{line}\n").as_bytes())?;
        stdin.flush()
    }
}

/// The I/O shell around one job's [`Schedule`]: it turns worker events
/// into schedule inputs and carries out the actions that come back.
struct Runner {
    fabric: Arc<JobFabric>,
    job: Arc<JobHandle>,
    schedule: Schedule,
    slots: HashMap<WorkerId, WorkerSlot>,
    events_tx: mpsc::Sender<Event>,
    /// Time zero of the schedule's clock.
    epoch: Instant,
    /// `reassigned_chunks` and `worker_restarts` as earlier runners of
    /// this job left them.
    carried: (u64, u64),
}

/// The runner thread's body: recovers the job's checkpoints, then runs
/// its schedule until the job ends, is canceled or is stopped.
fn run_job(fabric: Arc<JobFabric>, job: Arc<JobHandle>) {
    let done = match recover_checkpoints(&job) {
        Ok(done) => done,
        Err(err) => {
            record_end(
                &job,
                Outcome::Failed(format!("scanning checkpoints: {err}")),
            );
            return;
        }
    };
    let carried = {
        let mut status = job.status.lock().unwrap();
        status.state = JobState::Running;
        (status.reassigned_chunks, status.worker_restarts)
    };
    let stall_ms = u64::try_from(fabric.config.stall_deadline.as_millis()).unwrap_or(u64::MAX);
    let (events_tx, events) = mpsc::channel();
    let mut runner = Runner {
        schedule: Schedule::new(done, fabric.config.workers, stall_ms),
        fabric,
        job,
        slots: HashMap::new(),
        events_tx,
        epoch: Instant::now(),
        carried,
    };
    let mut actions = runner.schedule.start();
    let mut answer = None;
    while runner.execute(actions, answer.take()) {
        let canceled = runner.job.cancel.load(Ordering::SeqCst);
        if canceled || runner.job.stop.load(Ordering::SeqCst) {
            runner.teardown();
            if canceled {
                write_cancel_marker(&runner.job.dir);
            }
            let mut status = runner.job.status.lock().unwrap();
            status.state = if canceled {
                JobState::Canceled
            } else {
                JobState::Queued
            };
            status.workers.clear();
            return;
        }
        // The runner holds a sender, so the channel never disconnects:
        // an error is the timeout.
        let (input, file) = events.recv_timeout(TICK).unwrap_or((Input::Tick, None));
        if let Input::Gone(worker) = input {
            runner.reap(worker);
        }
        answer = file;
        let now = u64::try_from(runner.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        actions = runner.schedule.step(input, now);
    }
}

/// Scans the job directory for durable chunks: valid ones count as
/// done, corrupt ones are quarantined and recomputed, and temp files a
/// crashed writer left behind are deleted. Returns which chunks are
/// done.
fn recover_checkpoints(job: &JobHandle) -> io::Result<Vec<bool>> {
    let spec = &job.spec;
    let mut done = vec![false; spec.chunk_count() as usize];
    let mut quarantined = 0u64;
    for entry in fs::read_dir(&job.dir)? {
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
        match read_job_chunk(&path, &job.id, chunk, spec.chunk_range(chunk)) {
            Ok(_) => done[chunk as usize] = true,
            Err(CkptError::Corrupt { reason }) => {
                quarantine(&path, &reason);
                quarantined += 1;
            }
            Err(CkptError::Io(err)) => return Err(err),
        }
    }
    let ranges = (0..spec.chunk_count()).filter(|&c| done[c as usize]);
    let ranges: Vec<(u64, u64)> = ranges.map(|c| spec.chunk_range(c)).collect();
    let mut status = job.status.lock().unwrap();
    status.chunks_done = ranges.len() as u64;
    status.points_done = ranges.iter().map(|(start, end)| end - start).sum();
    status.resumed_chunks = status.chunks_done;
    status.quarantined += quarantined;
    Ok(done)
}

fn record_end(job: &JobHandle, outcome: Outcome) {
    let mut status = job.status.lock().unwrap();
    status.workers.clear();
    match outcome {
        Outcome::Done => {
            status.state = JobState::Done;
            counter!("jobs_completed_total").inc();
            debug!("jobs: {} done", job.id);
        }
        Outcome::Failed(error) => {
            warn!("jobs: {} failed: {error}", job.id);
            status.state = JobState::Failed;
            status.error = Some(error);
            counter!("jobs_failed_total").inc();
        }
    }
}

impl Runner {
    /// Carries out `actions` in order; `answer` is the checkpoint a
    /// `Commit` among them writes. Returns `false` once the job has
    /// ended.
    fn execute(&mut self, actions: Vec<Action>, mut answer: Option<ChunkFile>) -> bool {
        for action in actions {
            match action {
                Action::Spawn { worker, respawn } => {
                    if respawn {
                        counter!("jobs_worker_restarts_total").inc();
                    }
                    if let Err(err) = self.spawn_worker(worker) {
                        return self.end(Outcome::Failed(format!("spawning worker: {err}")));
                    }
                }
                Action::Assign { worker, chunk } => {
                    let (start, end) = self.job.spec.chunk_range(chunk);
                    let line = Assign { chunk, start, end }.encode();
                    let sent = self
                        .slots
                        .get_mut(&worker)
                        .is_some_and(|slot| slot.send_line(&line).is_ok());
                    if !sent {
                        // Broken pipe: the worker is dead or dying, and
                        // its `Gone` requeues the chunk.
                        self.kill(worker, "assignment write failed");
                    }
                }
                Action::Retire(worker) => {
                    if let Some(slot) = self.slots.get_mut(&worker) {
                        slot.stdin = None;
                    }
                }
                Action::Kill { worker, stalled } => {
                    if stalled {
                        counter!("jobs_workers_stalled_total").inc();
                        self.kill(worker, "stall deadline exceeded");
                    } else {
                        self.kill(worker, "answered a chunk it was not assigned");
                    }
                }
                Action::Commit { chunk } => {
                    let file = answer
                        .take()
                        .expect("a commit follows the answer it writes");
                    if let Err(err) = write_chunk(&self.job.dir, &file) {
                        let error = format!("checkpointing chunk {chunk}: {err}");
                        return self.end(Outcome::Failed(error));
                    }
                    let mut status = self.job.status.lock().unwrap();
                    status.chunks_done += 1;
                    status.points_done += file.end - file.start;
                    drop(status);
                    counter!("jobs_chunks_completed_total").inc();
                }
                Action::Finish(outcome) => return self.end(outcome),
            }
        }
        self.publish();
        true
    }

    /// Tears the workers down and records how the job ended.
    fn end(&mut self, outcome: Outcome) -> bool {
        self.teardown();
        self.publish();
        record_end(&self.job, outcome);
        false
    }

    /// Copies the schedule's worker roster and counters into the job
    /// status.
    fn publish(&self) {
        let workers = self
            .schedule
            .workers()
            .iter()
            .filter_map(|worker| {
                Some(WorkerView {
                    pid: self.slots.get(&worker.id)?.child.id(),
                    chunk: worker.chunk,
                    alive: !worker.retired,
                })
            })
            .collect();
        let mut status = self.job.status.lock().unwrap();
        status.workers = workers;
        let (reassigned, restarts) = self.schedule.losses();
        status.reassigned_chunks = self.carried.0 + reassigned;
        status.worker_restarts = self.carried.1 + restarts;
    }

    fn spawn_worker(&mut self, worker: WorkerId) -> io::Result<()> {
        let bin = resolve_worker_bin(&self.fabric.config);
        let mut child = retry(Backoff::DISK, |_| {
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
        // Wire the child into a slot: send the job hello, then start
        // the reader thread.
        let stdout = child
            .stdout
            .take()
            .expect("worker spawned with piped stdout");
        let mut slot = WorkerSlot {
            stdin: child.stdin.take(),
            child,
        };
        let hello = Hello {
            spec: self.job.spec.clone(),
        };
        if let Err(err) = slot.send_line(&hello.encode()) {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
            return Err(err);
        }
        let tx = self.events_tx.clone();
        let job = Arc::clone(&self.job);
        thread::Builder::new()
            .name(format!("job-worker-read-{worker}"))
            .spawn(move || read_worker(worker, stdout, &job, &tx))
            .expect("spawn worker reader thread");
        self.slots.insert(worker, slot);
        Ok(())
    }

    /// Kills a worker; its reader thread will observe EOF and deliver
    /// the `Gone` event.
    fn kill(&mut self, worker: WorkerId, reason: &str) {
        if let Some(slot) = self.slots.get_mut(&worker) {
            warn!(
                "jobs: {} killing worker {} ({reason})",
                self.job.id,
                slot.child.id()
            );
            let _ = slot.child.kill();
        }
    }

    /// Reaps a worker whose stream ended: kills and waits for the
    /// child, so the process is gone before the schedule hears of it.
    fn reap(&mut self, worker: WorkerId) {
        if let Some(mut slot) = self.slots.remove(&worker) {
            if slot.stdin.is_some() {
                let pid = slot.child.id();
                warn!("jobs: {} worker {pid} lost", self.job.id);
            }
            let _ = slot.child.kill();
            let _ = slot.child.wait();
        }
    }

    /// Kills and reaps every worker.
    fn teardown(&mut self) {
        for (_, mut slot) in self.slots.drain() {
            let _ = slot.child.kill();
            let _ = slot.child.wait();
        }
    }
}

/// Reader-thread body: turns a worker's stdout into [`Event`]s. A chunk
/// answer is read up to its seal and verified here, header included, so
/// a corrupted pipe never reaches a checkpoint; a bad answer or frame
/// ends the stream like EOF does.
fn read_worker(worker: WorkerId, stream: impl Read, job: &JobHandle, tx: &mpsc::Sender<Event>) {
    let mut lines = BufReader::new(stream).lines();
    while let Some(Ok(line)) = lines.next() {
        let event = if line == CHUNK_MAGIC {
            match read_answer(&mut lines).and_then(|file| job.check_answer(file)) {
                Ok(file) => (
                    Input::Answer {
                        worker,
                        chunk: file.chunk,
                    },
                    Some(file),
                ),
                Err(why) => {
                    warn!("jobs: {} worker {worker} sent a bad answer: {why}", job.id);
                    break;
                }
            }
        } else {
            match WorkerFrame::parse(&line) {
                Ok(WorkerFrame::Ready(_)) => (Input::Ready(worker), None),
                Ok(WorkerFrame::ChunkErr { chunk, error }) => {
                    debug!("jobs: {} chunk {chunk} failed: {error}", job.id);
                    (Input::ChunkErr { worker, chunk }, None)
                }
                Err(err) => {
                    warn!("jobs: {} worker {worker}: {err}", job.id);
                    break;
                }
            }
        };
        if tx.send(event).is_err() {
            return;
        }
    }
    let _ = tx.send((Input::Gone(worker), None));
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
    fn only_finished_runners_of_done_jobs_are_reaped() {
        let job = |state: JobState, runner: thread::JoinHandle<()>| {
            let spec = JobSpec::default_axes("reap", leakage_workloads::Scale::Test);
            let handle = JobHandle::new(spec, PathBuf::new(), false);
            handle.status.lock().unwrap().state = state;
            *handle.runner.lock().unwrap() = Some(runner);
            handle
        };
        let finished = || {
            let runner = thread::spawn(|| {});
            while !runner.is_finished() {
                thread::yield_now();
            }
            runner
        };
        let (release, wait) = mpsc::channel::<()>();
        let live = thread::spawn(move || {
            let _ = wait.recv();
        });
        let jobs = HashMap::from([
            ("done".to_string(), job(JobState::Done, finished())),
            ("failed".to_string(), job(JobState::Failed, finished())),
            ("exiting".to_string(), job(JobState::Done, live)),
        ]);
        reap_done_runners(&jobs);
        let has_runner = |id: &str| jobs[id].runner.lock().unwrap().is_some();
        assert!(!has_runner("done"), "a finished Done runner is joined");
        assert!(
            has_runner("failed"),
            "a Failed job keeps its handle for cancel"
        );
        assert!(
            has_runner("exiting"),
            "a runner still exiting is left alone"
        );
        drop(release);
        let runner = jobs["exiting"].runner.lock().unwrap().take();
        runner.expect("still held").join().expect("runner thread");
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
