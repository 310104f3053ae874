//! Resuming a job directory written by an older coordinator.
//!
//! Every durable job file (checkpoints, `job.json`, the `canceled`
//! marker) is written through a temp file that is renamed into place.
//! A coordinator that dies between the create and the rename leaves
//! the temp file behind; the next start must delete it while keeping
//! every real file.
//!
//! The directory here is laid out the way coordinators that still
//! kept per-chunk lease files left it: a `leases/` subdirectory holding
//! a lease file and a crashed lease write's temp file. That directory
//! means nothing now and is left alone; the job must still resume and
//! serve the same page. The job is already complete on disk (one
//! hand-written checkpoint), so the resume needs no worker process.

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
    let rows: Vec<String> = (start..end)
        .map(|point| format!("{{\"point\":{point}}}"))
        .collect();
    write_chunk(
        &job_dir,
        &ChunkFile {
            job_id: id.clone(),
            chunk: 0,
            start,
            end,
            rows: rows.clone(),
        },
    )
    .unwrap();

    // A crashed checkpoint write: `<stem>.tmp.<pid>.<seq>`.
    let stale_checkpoint = job_dir.join("chunk-000000.tmp.4242.7");
    fs::write(&stale_checkpoint, b"leakage-job-chunk v1\n").unwrap();
    // What an older coordinator left in `leases/`: a live lease and a
    // crashed lease write.
    let lease = leases_dir.join("chunk-000000.lease");
    let lease_body =
        "leakage-job-lease v1\nchunk=0 epoch=1 worker=4242 deadline_unix_ms=1700000000000\n";
    fs::write(&lease, lease_body).unwrap();
    fs::write(
        leases_dir.join("chunk-000000.tmp.4242.8"),
        b"leakage-job-lease v1\n",
    )
    .unwrap();

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

    let per_page = end - start;
    let page = fabric.result_page(&id, 0, per_page).expect("page served");
    let expected = json::object([
        json::key("id") + &json::string(&id),
        json::key("page") + "0",
        json::key("per_page") + &per_page.to_string(),
        json::key("total_points") + &per_page.to_string(),
        json::key("total_pages") + "1",
        json::key("rows") + &json::array(rows),
    ]);
    assert_eq!(
        page, expected,
        "the resumed job serves the checkpointed rows"
    );
    fabric.stop();

    assert!(
        !stale_checkpoint.exists(),
        "stale checkpoint temp file survived resume"
    );
    assert!(job_dir.join("job.json").exists());
    assert!(job_dir.join(chunk_file_name(0)).exists());
    assert_eq!(
        fs::read_to_string(&lease).unwrap(),
        lease_body,
        "the old leases/ directory is left alone"
    );
    fs::remove_dir_all(&jobs_dir).unwrap();
}
