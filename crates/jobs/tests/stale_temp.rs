//! Temp files a crashed writer left behind are swept on resume.
//!
//! Every durable job file (checkpoints, leases, `job.json`, the
//! `canceled` marker) is written through a temp file that is renamed
//! into place. A coordinator that dies between the create and the
//! rename leaves the temp file behind; the next start must delete it,
//! in the job directory and in its `leases/`, while keeping every real
//! file. The job here is already complete on disk (one hand-written
//! checkpoint), so the resume needs no worker process.

use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_jobs::checkpoint::{chunk_file_name, write_chunk, ChunkFile};
use leakage_jobs::{FabricConfig, JobFabric, JobSpec, PermilleAxis};
use leakage_telemetry::json::{self, Json};
use leakage_workloads::Scale;
use std::fs;
use std::time::{Duration, Instant};

#[test]
fn resume_sweeps_stale_temp_files() {
    let spec = JobSpec::build(
        "stale-temp",
        Scale::Test,
        vec!["gzip".to_string()],
        vec![Level1::Data],
        vec![TechnologyNode::ALL[0]],
        PermilleAxis {
            from: 1000,
            to: 1000,
            step: 10,
        },
        16,
    )
    .expect("spec is valid");
    assert_eq!(spec.chunk_count(), 1);
    let id = spec.id();
    let jobs_dir = std::env::temp_dir().join(format!("leakage-stale-temp-{}", std::process::id()));
    let _ = fs::remove_dir_all(&jobs_dir);
    let job_dir = jobs_dir.join(&id);
    let leases_dir = job_dir.join("leases");
    fs::create_dir_all(&leases_dir).unwrap();
    fs::write(job_dir.join("job.json"), spec.to_json()).unwrap();
    let (start, end) = spec.chunk_range(0);
    let rows = (start..end)
        .map(|point| format!("{{\"point\":{point}}}"))
        .collect();
    write_chunk(
        &job_dir,
        &ChunkFile {
            job_id: id.clone(),
            chunk: 0,
            start,
            end,
            rows,
        },
    )
    .unwrap();

    // Named the way a crashed writer of `chunk-000000.ckpt` and
    // `leases/chunk-000000.lease` leaves them: `<stem>.tmp.<pid>.<seq>`.
    let stale_checkpoint = job_dir.join("chunk-000000.tmp.4242.7");
    let stale_lease = leases_dir.join("chunk-000000.tmp.4242.8");
    fs::write(&stale_checkpoint, b"leakage-job-chunk v1\n").unwrap();
    fs::write(&stale_lease, b"leakage-job-lease v1\n").unwrap();

    let fabric = JobFabric::start(FabricConfig {
        jobs_dir: jobs_dir.clone(),
        workers: 0,
        ..FabricConfig::default()
    })
    .expect("fabric starts");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = json::parse(&fabric.status_json(&id).expect("job recovered")).unwrap();
        if status.get("state").and_then(Json::as_str) == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "job never completed: {status:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    fabric.stop();

    assert!(
        !stale_checkpoint.exists(),
        "stale checkpoint temp file survived resume"
    );
    assert!(
        !stale_lease.exists(),
        "stale lease temp file survived resume"
    );
    assert!(job_dir.join("job.json").exists());
    assert!(job_dir.join(chunk_file_name(0)).exists());
    fs::remove_dir_all(&jobs_dir).unwrap();
}
