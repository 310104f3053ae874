//! `DELETE /v1/jobs/<id>` racing an in-flight chunk checkpoint.
//!
//! Cancel must win deterministically: the runner notices the flag at
//! its next loop tick, kills the workers, writes the durable
//! `canceled` marker, and joins — all before `cancel()` returns. After
//! that, *nothing* may land in the job directory: a checkpoint frame
//! from a killed worker arriving "late" has no thread left to commit
//! it. A coordinator restart over the directory must honor the marker
//! and never resume, and resubmitting the identical spec must return
//! the existing (canceled) job rather than restarting the work.
//!
//! This lives in its own test binary (not `crash_matrix`) so the
//! process-global fault plane of other tests cannot race the
//! worker-env latency arm used here.

use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_jobs::{CancelOutcome, FabricConfig, JobFabric, JobSpec, PermilleAxis, ResultError};
use leakage_telemetry::json::{self, Json};
use leakage_workloads::Scale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(120);

fn spec() -> JobSpec {
    JobSpec::build(
        "cancel-race",
        Scale::Test,
        vec!["gzip".to_string(), "mesa".to_string()],
        vec![Level1::Instruction, Level1::Data],
        TechnologyNode::ALL.to_vec(),
        PermilleAxis {
            from: 940,
            to: 1000,
            step: 10,
        },
        16,
    )
    .expect("spec is valid")
}

fn fabric(dir: PathBuf) -> Arc<JobFabric> {
    JobFabric::start(FabricConfig {
        jobs_dir: dir,
        workers: 2,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_leakage-job-worker"))),
        // Slow every chunk down so a checkpoint is reliably in flight
        // when the cancel lands.
        worker_env: vec![(
            "LEAKAGE_FAULTS".to_string(),
            "jobs/chunk=latency:300".to_string(),
        )],
        ..FabricConfig::default()
    })
    .expect("fabric starts")
}

fn status(fabric: &Arc<JobFabric>, id: &str) -> Json {
    json::parse(&fabric.status_json(id).expect("job registered")).expect("status parses")
}

fn field(doc: &Json, name: &str) -> u64 {
    doc.get(name).and_then(Json::as_f64).expect(name) as u64
}

/// Every file under the job dir with its size — the "nothing lands
/// after cancel" witness.
fn snapshot(dir: &Path) -> BTreeMap<String, u64> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current)
            .expect("job dir readable")
            .flatten()
        {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under job dir")
                    .to_string_lossy()
                    .into_owned();
                let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
                files.insert(rel, size);
            }
        }
    }
    files
}

#[test]
fn cancel_beats_inflight_checkpoints_and_survives_restart() {
    let jobs_dir = std::env::temp_dir().join(format!("leakage-cancel-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&jobs_dir);

    let first = fabric(jobs_dir.clone());
    let spec = spec();
    let id = first.submit(spec.clone()).expect("submit accepted").id;
    let job_dir = jobs_dir.join(&id);

    // Let the job make real progress so the cancel genuinely races
    // running workers holding assigned chunks.
    let deadline = Instant::now() + DEADLINE;
    loop {
        let doc = status(&first, &id);
        if field(&doc, "chunks_done") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "no chunk completed: {doc:?}");
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_eq!(first.cancel(&id), CancelOutcome::Canceled);
    // cancel() joins the runner, so by here the workers are dead and
    // the marker is durable.
    let doc = status(&first, &id);
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("canceled"));
    assert!(job_dir.join("canceled").exists(), "durable marker");
    let chunks_at_cancel = field(&doc, "chunks_done");
    assert!(chunks_at_cancel < 7, "cancel landed before completion");

    // No post-cancel frames: the directory is byte-stable. 700ms is
    // comfortably past the 300ms/chunk latency arm, so any straggler
    // checkpoint would have landed by then.
    let before = snapshot(&job_dir);
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(snapshot(&job_dir), before, "files landed after cancel");

    // Canceled jobs serve no pages and cancel again idempotently.
    assert!(matches!(
        first.result_page(&id, 0, 25),
        Err(ResultError::NotReady("canceled"))
    ));
    assert_eq!(first.cancel(&id), CancelOutcome::Canceled);
    first.stop();
    drop(first);

    // Restart over the same directory: the marker must keep the job
    // canceled — no runner, no new chunks, same files.
    let second = fabric(jobs_dir.clone());
    let doc = status(&second, &id);
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("canceled"));
    std::thread::sleep(Duration::from_millis(400));
    let doc = status(&second, &id);
    assert_eq!(doc.get("state").and_then(Json::as_str), Some("canceled"));
    assert_eq!(
        field(&doc, "chunks_done"),
        0,
        "no recovery scan ran: {doc:?}"
    );
    assert_eq!(
        snapshot(&job_dir),
        before,
        "restart must not touch a canceled job"
    );

    // Resubmitting the identical spec finds the canceled job, it does
    // not silently restart the work.
    let resubmit = second.submit(spec).expect("resubmit accepted");
    assert_eq!(resubmit.id, id);
    assert!(!resubmit.created, "cancel wins over resubmission");
    second.stop();
    let _ = std::fs::remove_dir_all(&jobs_dir);
}
