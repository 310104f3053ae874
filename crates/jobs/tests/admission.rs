//! The fabric's admission bounds: at most `max_active_jobs` queued or
//! running jobs, then `SubmitError::Busy` (503 on `POST /v1/jobs`); a
//! canceled job frees its slot; and a stopped fabric admits nothing.
//!
//! The job's worker hangs on its first chunk (a latency arm in the
//! worker's own environment), so the admitted job stays running for as
//! long as the test needs it to.

use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_jobs::{
    CancelOutcome, FabricConfig, JobFabric, JobSpec, PermilleAxis, SubmitError, Submitted,
};
use leakage_workloads::Scale;
use std::path::PathBuf;

fn spec(name: &str) -> JobSpec {
    JobSpec::build(
        name,
        Scale::Test,
        vec!["gzip".to_string()],
        vec![Level1::Data],
        vec![TechnologyNode::N70],
        PermilleAxis {
            from: 1000,
            to: 1000,
            step: 10,
        },
        16,
    )
    .expect("spec is valid")
}

#[test]
fn active_job_cap_and_stop_refuse_submits() {
    let jobs_dir = std::env::temp_dir().join(format!("leakage-admission-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&jobs_dir);
    let fabric = JobFabric::start(FabricConfig {
        jobs_dir: jobs_dir.clone(),
        workers: 1,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_leakage-job-worker"))),
        worker_env: vec![(
            "LEAKAGE_FAULTS".to_string(),
            "jobs/chunk=latency:60000".to_string(),
        )],
        max_active_jobs: 1,
        ..FabricConfig::default()
    })
    .expect("fabric starts");

    let first = fabric
        .submit(spec("first"))
        .expect("the first job is admitted");
    assert!(first.created);
    assert!(
        matches!(fabric.submit(spec("second")), Err(SubmitError::Busy)),
        "one active job fills a cap of one"
    );
    assert_eq!(
        SubmitError::Busy.to_string(),
        "job fabric at capacity",
        "the 503 reason POST /v1/jobs sends"
    );
    // An identical resubmission is the same job, not a new one, so
    // the cap does not refuse it.
    assert_eq!(
        fabric.submit(spec("first")).expect("resubmission"),
        Submitted {
            id: first.id.clone(),
            created: false,
        }
    );

    assert_eq!(fabric.cancel(&first.id), CancelOutcome::Canceled);
    let second = fabric
        .submit(spec("second"))
        .expect("a canceled job frees its slot");
    assert!(second.created);

    fabric.stop();
    assert!(
        matches!(fabric.submit(spec("third")), Err(SubmitError::Busy)),
        "a stopped fabric admits nothing"
    );
    let _ = std::fs::remove_dir_all(&jobs_dir);
}
