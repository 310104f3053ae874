//! `sweep_job`: a generalized-model sweep through the durable job
//! fabric with two local stdio workers.
//!
//! Set-up profiles every benchmark at `scale=test` into a disk
//! `ProfileStore` and starts a `JobFabric` whose workers read that store
//! through `LEAKAGE_PROFILE_DIR`, so nothing is simulated while timed.
//! One unit submits a job, waits for it through `status_json`, and reads
//! every result page; time goes to `core` model evaluation and to the
//! `jobs` protocol, checkpoints and leases. The seed offsets the
//! refetch-energy axis.

use crate::report::{self, Report};
use crate::{benchmarks, timed, Ctx, Timed, SETUP_REPEATS, THREADS, WORKER_ROLE_ENV};
use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_experiments::store::PROFILE_DIR_ENV;
use leakage_experiments::{BenchmarkProfile, ProfileStore};
use leakage_faults::checksum::Fnv64;
use leakage_jobs::checkpoint::{read_chunk, write_chunk, ChunkFile};
use leakage_jobs::protocol::{chunk_response, Assign};
use leakage_jobs::{render_job_row, FabricConfig, JobFabric, JobSpec, PermilleAxis};
use leakage_telemetry::json::{self, Json};
use leakage_workloads::Scale;
use std::collections::HashMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Refetch-energy values per (benchmark, side, node) triple.
const AXIS_LEN: u32 = 192;
/// Points per chunk: small enough that two workers share a job evenly.
const CHUNK_POINTS: u32 = 1024;
/// Rows per result page (the HTTP API's default).
const PER_PAGE: u64 = 1000;
/// Untraced/traced job pairs the traced run compares.
const OVERHEAD_PAIRS: usize = 2;
/// How often a waiting unit polls the job status.
const POLL: Duration = Duration::from_millis(1);
/// Polls between two reads of the workers' peak memory.
const PEAK_SAMPLE_POLLS: u32 = 20;

type Profiles = HashMap<String, Arc<BenchmarkProfile>>;

/// The job worker: the fabric spawns this binary with
/// `PERFBENCH_ROLE=job-worker`, and it speaks the stdio protocol of
/// `leakage-job-worker`.
pub fn worker_main() {
    use std::io::Write;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let result = leakage_jobs::protocol::run_worker(stdin.lock(), &mut out);
    let _ = out.flush();
    if let Err(err) = result {
        eprintln!("perfbench job worker: {err}");
        std::process::exit(1);
    }
}

/// The variant's job: every benchmark × both sides × all nodes × a
/// refetch axis whose start the variant shifts.
fn spec(name: &str, variant: u64) -> JobSpec {
    let from = 500 + 10 * variant as u32;
    JobSpec::build(
        name,
        Scale::Test,
        benchmarks().map(str::to_string).collect(),
        vec![Level1::Instruction, Level1::Data],
        TechnologyNode::ALL.to_vec(),
        PermilleAxis {
            from,
            to: from + AXIS_LEN - 1,
            step: 1,
        },
        CHUNK_POINTS,
    )
    .expect("benchmark spec is valid")
}

/// A started fabric over a populated disk store.
struct Bench {
    fabric: Arc<JobFabric>,
    profile_dir: PathBuf,
}

impl Bench {
    fn setup(dir: &Path) -> Bench {
        let _ = std::fs::remove_dir_all(dir);
        let profile_dir = dir.join("profiles");
        let store = ProfileStore::with_disk_dir(&profile_dir);
        for name in benchmarks() {
            store.fetch(name, Scale::Test);
        }
        let exe = std::env::current_exe().expect("benchmark executable path");
        let fabric = JobFabric::start(FabricConfig {
            jobs_dir: dir.join("jobs"),
            workers: THREADS,
            worker_bin: Some(exe),
            worker_env: vec![
                (WORKER_ROLE_ENV.to_string(), "job-worker".to_string()),
                (
                    PROFILE_DIR_ENV.to_string(),
                    profile_dir.display().to_string(),
                ),
            ],
            max_active_jobs: 1,
            ..FabricConfig::default()
        })
        .expect("job fabric starts");
        Bench {
            fabric,
            profile_dir,
        }
    }

    /// Profiles decoded from the disk store (a fresh store instance, so
    /// every fetch is a disk hit).
    fn profiles(&self) -> Profiles {
        let store = ProfileStore::with_disk_dir(&self.profile_dir);
        benchmarks()
            .map(|name| (name.to_string(), store.fetch(name, Scale::Test)))
            .collect()
    }
}

/// Rows of the job's `points`, evaluated in-process in point order.
fn oracle_rows(spec: &JobSpec, profiles: &Profiles, points: Range<u64>) -> Vec<String> {
    let with_permille = spec.has_refetch_axis();
    points
        .map(|index| {
            let point = spec.point(index);
            let savings = point.evaluate(&profiles[&point.benchmark]);
            render_job_row(&point, &savings, with_permille)
        })
        .collect()
}

/// The opening of a result page, up to and including its `id` member.
fn page_prefix(id: &str) -> String {
    format!("{{{}{}, ", json::key("id"), json::string(id))
}

/// A result page as the fabric serves it.
fn page_json(id: &str, page: u64, total: u64, rows: &[String]) -> String {
    json::object([
        json::key("id") + &json::string(id),
        json::key("page") + &page.to_string(),
        json::key("per_page") + &PER_PAGE.to_string(),
        json::key("total_points") + &total.to_string(),
        json::key("total_pages") + &total.div_ceil(PER_PAGE).to_string(),
        json::key("rows") + &json::array(rows.iter().cloned()),
    ])
}

/// What the fabric must serve for a job, kept as digests. It is built
/// one page of rows at a time, so the oracle adds little to the memory
/// the run measures.
struct Oracle {
    /// Digest of each result page after its `id` member: job ids differ
    /// between units, and nothing else in a page does.
    pages: Vec<String>,
    /// FNV-1a over every row and its newline, in point order (the
    /// fabric's `rows_checksum` of the whole job).
    rows_fnv: u64,
}

impl Oracle {
    /// `rows` gives the rows of a range of points.
    fn build(spec: &JobSpec, mut rows: impl FnMut(Range<u64>) -> Vec<String>) -> Oracle {
        let total = spec.point_count();
        let skip = page_prefix("").len();
        let mut all = Fnv64::new();
        let pages = (0..total.div_ceil(PER_PAGE))
            .map(|page| {
                let page_rows = rows(page * PER_PAGE..((page + 1) * PER_PAGE).min(total));
                for row in &page_rows {
                    all.update(row.as_bytes());
                    all.update(b"\n");
                }
                report::digest(&page_json("", page, total, &page_rows).as_bytes()[skip..])
            })
            .collect();
        Oracle {
            pages,
            rows_fnv: all.finish(),
        }
    }

    /// Whether `body` is page `page` of job `id`.
    fn matches(&self, id: &str, page: usize, body: &str) -> bool {
        body.strip_prefix(page_prefix(id).as_str())
            .is_some_and(|rest| self.pages.get(page) == Some(&report::digest(rest.as_bytes())))
    }
}

/// Fault counters of one finished job, from its status JSON.
#[derive(Default, Clone, Copy)]
struct Faults {
    reassigned: u64,
    restarts: u64,
    late: u64,
}

/// What one unit produced.
struct Unit {
    wall: f64,
    page_ms: Vec<f64>,
    faults: Faults,
    /// The largest worker peak resident set seen, in MiB.
    worker_peak_mb: f64,
}

/// One job: submit, wait, read every page, compare with the oracle.
fn unit(
    bench: &Bench,
    spec: JobSpec,
    oracle: &Oracle,
    traced: bool,
    report: &mut Report,
) -> Option<Unit> {
    let started = Instant::now();
    let submitted = match bench.fabric.submit(spec) {
        Ok(submitted) => submitted,
        Err(err) => {
            report.fail(&format!("sweep_job: submit refused: {err}"));
            return None;
        }
    };
    let id = submitted.id;
    let mut worker_peak_mb: f64 = 0.0;
    let mut polls = 0u32;
    let status = loop {
        let text = bench.fabric.status_json(&id).unwrap_or_default();
        let doc = json::parse(&text).ok();
        let state = doc
            .as_ref()
            .and_then(|d| d.get("state"))
            .and_then(Json::as_str)
            .unwrap_or("missing")
            .to_string();
        match state.as_str() {
            "queued" | "running" => {
                // The workers live only as long as the job, so their
                // peaks are read while it runs.
                if polls.is_multiple_of(PEAK_SAMPLE_POLLS) {
                    worker_peak_mb = report::children_peak_rss_mb()
                        .into_iter()
                        .fold(worker_peak_mb, f64::max);
                }
                polls += 1;
                std::thread::sleep(POLL);
            }
            _ => break (state, doc),
        }
    };
    let (state, doc) = status;
    if state != "done" {
        report.fail(&format!("sweep_job: job {id} ended {state}"));
        return None;
    }
    let field = |name: &str| -> u64 {
        doc.as_ref()
            .and_then(|d| d.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64
    };
    let faults = Faults {
        reassigned: field("reassigned_chunks"),
        restarts: field("worker_restarts"),
        late: field("late_commits"),
    };
    let pages = oracle.pages.len();
    let mut bodies = Vec::with_capacity(pages);
    let mut page_ms = Vec::with_capacity(pages);
    for page in 0..pages as u64 {
        let body = if traced {
            let (body, seconds) = timed(|| bench.fabric.result_page(&id, page, PER_PAGE));
            page_ms.push(seconds * 1e3);
            body
        } else {
            bench.fabric.result_page(&id, page, PER_PAGE)
        };
        match body {
            Ok(body) => bodies.push(body),
            Err(err) => {
                report.fail(&format!("sweep_job: page {page} of {id}: {err:?}"));
                return None;
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    for (page, body) in bodies.iter().enumerate() {
        report.attempt(oracle.matches(&id, page, body), || {
            format!("sweep_job: page {page} of {id} differs from the oracle")
        });
    }
    Some(Unit {
        wall,
        page_ms,
        faults,
        worker_peak_mb,
    })
}

fn job_name(ctx: &Ctx, tag: &str, index: usize) -> String {
    format!("perfbench-{}-{tag}-{index}", ctx.seed)
}

fn setup_dir(ctx: &Ctx, repeat: usize) -> PathBuf {
    ctx.work_dir.join(format!("setup-{repeat}"))
}

/// One more set-up beside the measured one, timed, then stopped and
/// removed. Its memory is kept out of the peak the run reports: the
/// peak so far is folded into `peak_mb` before it and reset after it.
fn extra_setup(ctx: &Ctx, repeat: usize, peak_mb: &mut f64) -> f64 {
    *peak_mb = peak_mb.max(report::peak_rss_mb());
    let dir = setup_dir(ctx, repeat);
    let (bench, seconds) = timed(|| Bench::setup(&dir));
    bench.fabric.stop();
    let _ = std::fs::remove_dir_all(&dir);
    report::reset_peak_rss();
    seconds
}

fn record_counts(report: &mut Report, spec: &JobSpec, oracle: &Oracle) {
    report.count("points", spec.point_count());
    report.count("chunks", spec.chunk_count());
    report.count("result_rows_fnv", oracle.rows_fnv);
}

/// The untraced run: jobs until `ctx.seconds` of them elapse.
pub fn run(ctx: &Ctx, report: &mut Report) -> Timed {
    let (bench, first) = timed(|| Bench::setup(&setup_dir(ctx, 0)));
    let mut setups = vec![first];
    let template = spec("oracle", ctx.variant);
    let profiles = bench.profiles();
    let oracle = Oracle::build(&template, |points| {
        oracle_rows(&template, &profiles, points)
    });
    drop(profiles);
    record_counts(report, &template, &oracle);
    // The memory figure covers the jobs, not the set-up and oracle
    // before them.
    let reset = report::reset_peak_rss();
    let mut units = Vec::new();
    let mut coordinator: f64 = 0.0;
    let mut worker: f64 = 0.0;
    while units.iter().sum::<f64>() < ctx.seconds || units.is_empty() {
        let job = spec(&job_name(ctx, "run", units.len()), ctx.variant);
        match unit(&bench, job, &oracle, false, report) {
            Some(done) => {
                units.push(done.wall);
                worker = worker.max(done.worker_peak_mb);
            }
            None => break,
        }
        // A set-up repetition after every job spreads the repetitions
        // over the run, so that a slow stretch of the host reaches the
        // set-up figure as it reaches the jobs', not all or nothing.
        setups.push(extra_setup(ctx, setups.len(), &mut coordinator));
    }
    while setups.len() < SETUP_REPEATS {
        setups.push(extra_setup(ctx, setups.len(), &mut coordinator));
    }
    let coordinator = coordinator.max(report::peak_rss_mb());
    bench.fabric.stop();
    report.info("peak_rss_reset", f64::from(u8::from(reset)), "bool");
    report.info("peak_rss_mb.coordinator", coordinator, "MiB");
    report.info("peak_rss_mb.worker", worker, "MiB");
    if units.is_empty() {
        units.push(f64::NAN);
    }
    Timed {
        setup_s: report::median(&setups),
        setups,
        units,
        items_per_unit: template.point_count() as f64,
        // The job path's footprint: the coordinator, plus each worker
        // counted at the largest worker peak seen.
        peak_rss_mb: coordinator + THREADS as f64 * worker,
    }
}

/// The traced run: each `jobs`/`core`/store layer timed through its
/// public calls, the fabric-overhead reconciliation, and one traced job
/// next to an untraced one.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let bench = Bench::setup(&setup_dir(ctx, 0));
    let template = spec("oracle", ctx.variant);

    // Store read path: a fresh store decoding every profile from disk.
    let store = ProfileStore::with_disk_dir(&bench.profile_dir);
    let ((), load_s) = timed(|| {
        for name in benchmarks() {
            store.fetch(name, Scale::Test);
        }
    });
    let store_bytes: u64 = std::fs::read_dir(&bench.profile_dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    report.metric("experiments.store_load_ms", load_s * 1e3, "ms");
    report.metric("experiments.store_bytes", store_bytes as f64, "bytes");

    // Model evaluation on one thread (the oracle's rows).
    let profiles = bench.profiles();
    let (rows, core_s) = timed(|| oracle_rows(&template, &profiles, 0..template.point_count()));
    let oracle = Oracle::build(&template, |points| {
        rows[points.start as usize..points.end as usize].to_vec()
    });
    record_counts(report, &template, &oracle);
    report.metric("core.points", template.point_count() as f64, "count");
    report.metric("core.busy_ms", core_s * 1e3, "ms");

    // Chunk evaluation as a worker renders it, and its checkpoint.
    let ckpt_dir = ctx.work_dir.join("checkpoints");
    std::fs::create_dir_all(&ckpt_dir).expect("checkpoint dir");
    let (mut compute, mut write, mut read) = (Vec::new(), Vec::new(), Vec::new());
    for chunk in 0..template.chunk_count() {
        let (start, end) = template.chunk_range(chunk);
        let assign = Assign { chunk, start, end };
        let (response, seconds) = timed(|| chunk_response(&template, &store, &assign));
        compute.push(seconds * 1e3);
        let expected: usize = rows[start as usize..end as usize]
            .iter()
            .map(|r| r.len() + 1)
            .sum();
        report.attempt(response.len() > expected, || {
            format!("sweep_job: chunk {chunk} response is short")
        });
        let file = ChunkFile {
            job_id: template.id(),
            chunk,
            start,
            end,
            rows: rows[start as usize..end as usize].to_vec(),
        };
        let (path, seconds) = timed(|| write_chunk(&ckpt_dir, &file));
        write.push(seconds * 1e3);
        let Ok(path) = path else {
            report.fail(&format!("sweep_job: checkpoint {chunk} write failed"));
            continue;
        };
        let (decoded, seconds) = timed(|| read_chunk(&path));
        read.push(seconds * 1e3);
        report.attempt(decoded.map(|d| d == file).unwrap_or(false), || {
            format!("sweep_job: checkpoint {chunk} read back differently")
        });
    }
    report.metric("jobs.chunk_compute_ms.p50", report::median(&compute), "ms");
    report.metric(
        "jobs.chunk_compute_ms.p99",
        report::percentile(&compute, 99.0),
        "ms",
    );
    report.metric("jobs.checkpoint_write_ms.p50", report::median(&write), "ms");
    report.metric(
        "jobs.checkpoint_write_ms.p99",
        report::percentile(&write, 99.0),
        "ms",
    );
    report.metric("jobs.checkpoint_read_ms.p50", report::median(&read), "ms");

    // Untraced and traced jobs through the fabric, interleaved.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for round in 0..OVERHEAD_PAIRS {
        for (tag, runs) in [("plain", &mut plain), ("traced", &mut traced)] {
            let job = spec(&job_name(ctx, tag, round), ctx.variant);
            runs.extend(unit(&bench, job, &oracle, tag == "traced", report));
        }
    }
    bench.fabric.stop();
    if plain.is_empty() || traced.is_empty() {
        return;
    }
    let page_ms: Vec<f64> = traced
        .iter()
        .flat_map(|u| u.page_ms.iter().copied())
        .collect();
    let faults =
        |pick: fn(&Faults) -> u64| traced.iter().map(|u| pick(&u.faults)).sum::<u64>() as f64;
    report.metric("jobs.result_page_ms", report::median(&page_ms), "ms");
    report.metric("jobs.reassigned_chunks", faults(|f| f.reassigned), "count");
    report.metric("jobs.worker_restarts", faults(|f| f.restarts), "count");
    report.metric("jobs.late_commits", faults(|f| f.late), "count");
    let plain_wall = report::median(&plain.iter().map(|u| u.wall).collect::<Vec<_>>());
    let traced_wall = report::median(&traced.iter().map(|u| u.wall).collect::<Vec<_>>());
    // Reconciliation: job wall against the chunk compute two workers
    // share (base: the sum of jobs.chunk_compute_ms over chunks).
    let compute_s: f64 = compute.iter().sum::<f64>() / 1e3;
    report.metric("jobs.chunk_compute_total_ms", compute_s * 1e3, "ms");
    report.metric(
        "jobs.fabric_overhead_ms",
        (traced_wall - compute_s / THREADS as f64) * 1e3,
        "ms",
    );
    report.metric("sweep_job.traced.wall_s", traced_wall, "s");
    report.metric(
        "sweep_job.traced.wall_ratio",
        traced_wall / plain_wall,
        "ratio",
    );
}
