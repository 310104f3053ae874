//! The repository benchmark.
//!
//! ```text
//! perfbench --workload cold_repro|sweep_job|serve_mixed|all --seed N --seconds S --trace 0|1
//! perfbench --pin [--workload W] [--trace 1]
//! ```
//!
//! `--trace 0` runs one workload for about `S` seconds of measured work
//! and prints its end-to-end metrics. `--trace 1` is the separate traced
//! run: it times calls into each layer's public functions from this
//! binary (nothing is added inside the program), prints the per-layer
//! metrics of every workload, the reconciliation rows, and each traced
//! end-to-end number with its ratio to an untraced one. `--workload all`
//! runs the three workloads in turn, each ending with its own JSON line.
//! `--pin` prints the pinned count digests of every seed variant (the
//! contents of `pins.tsv`); with `--trace 1`, those of the traced run.
//!
//! Standard output ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Any failed output check makes the run exit 1. See `README.md` for the
//! workloads, the metrics and the layer-to-metric map.

mod cold_repro;
mod report;
mod serve_mixed;
mod sweep_job;

use leakage_trace::{MemoryAccess, TraceSink};
use leakage_workloads::{ISA_SUITE_NAMES, SUITE_NAMES};
use report::Report;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Threads every workload may use: the rayon fan-out, the job workers
/// and the serving client's connections are each capped at this.
pub const THREADS: usize = 2;

/// Seeds fall into this many input variants; each variant's exact
/// counts are pinned in `pins.tsv`.
pub const VARIANTS: u64 = 11;

/// Least number of times a set-up is repeated in one run.
pub const SETUP_REPEATS: usize = 7;

/// Environment marker that turns this binary into a sweep-job worker
/// (the fabric spawns workers with no arguments).
pub const WORKER_ROLE_ENV: &str = "PERFBENCH_ROLE";

const WORKLOADS: [&str; 3] = ["cold_repro", "sweep_job", "serve_mixed"];

const PINS: &str = include_str!("../pins.tsv");

/// The `pins.tsv` name of the traced run's counts, which cover every
/// workload (the L2 counts among them).
const TRACE_PIN: &str = "trace";

/// What every workload gets from the command line.
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// `seed % VARIANTS`: selects the pinned input variant.
    pub variant: u64,
    /// Measured seconds to aim for (at least one unit always runs).
    pub seconds: f64,
    /// Private scratch directory inside the working directory.
    pub work_dir: PathBuf,
}

/// The timings a workload's untraced run hands back.
pub struct Timed {
    /// Seconds of one set-up (a median or mean over repetitions).
    pub setup_s: f64,
    /// Seconds of every set-up repetition.
    pub setups: Vec<f64>,
    /// Seconds of each fixed unit of work.
    pub units: Vec<f64>,
    /// Work items in one unit (simulated accesses, points, requests).
    pub items_per_unit: f64,
    /// Peak resident memory of the measured work, in MiB.
    pub peak_rss_mb: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload cold_repro|sweep_job|serve_mixed|all --seed N --seconds S --trace 0|1\n\
         \x20      perfbench --pin [--workload W] [--trace 1]"
    );
    std::process::exit(2);
}

fn main() {
    if std::env::var(WORKER_ROLE_ENV).as_deref() == Ok("job-worker") {
        sweep_job::worker_main();
        return;
    }
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<f64> = None;
    let mut trace: Option<bool> = None;
    let mut pin = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => match value().as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage(),
            },
            "--pin" => pin = true,
            _ => usage(),
        }
    }
    if let Some(name) = &workload {
        if name != "all" && !WORKLOADS.contains(&name.as_str()) {
            usage();
        }
    }
    // The benchmark controls threads, profile directories and fault
    // arms itself; inherited settings would change what is measured.
    for var in [
        "LEAKAGE_THREADS",
        "RAYON_NUM_THREADS",
        "LEAKAGE_PROFILE_DIR",
        "LEAKAGE_FAULTS",
    ] {
        std::env::remove_var(var);
    }
    rayon::set_num_threads(THREADS);

    let root = PathBuf::from(".bench_work");
    let named = match workload.as_deref() {
        None | Some("all") => WORKLOADS.to_vec(),
        Some(name) => vec![name],
    };
    if pin && trace == Some(true) {
        for variant in 0..VARIANTS {
            let report = traced(&root, WORKLOADS[0], variant, 0.0);
            println!("{TRACE_PIN}\t{variant}\t{}", report.counts_digest());
        }
        let _ = std::fs::remove_dir(&root);
        return;
    }
    if pin {
        for name in named {
            for variant in 0..VARIANTS {
                let ctx = make_ctx(&root, name, variant, 0.0);
                let mut report = Report::default();
                run_untraced(name, &ctx, &mut report);
                let _ = std::fs::remove_dir_all(&ctx.work_dir);
                println!("{name}\t{variant}\t{}", report.counts_digest());
            }
        }
        let _ = std::fs::remove_dir(&root);
        return;
    }
    let (Some(_), Some(seed), Some(seconds), Some(trace)) = (&workload, seed, seconds, trace)
    else {
        usage()
    };
    let mut correct = true;
    if trace {
        correct = run_traced(&root, named[0], seed, seconds);
    } else {
        // `all` runs each workload in turn, each with its own result.
        for name in named {
            correct &= run_workload(&root, name, seed, seconds);
        }
    }
    let _ = std::fs::remove_dir(&root);
    if !correct {
        std::process::exit(1);
    }
}

/// The first lines of every result: what ran, and on what.
fn print_header(workload: &str, seed: u64, seconds: f64, trace: bool) {
    println!(
        "perfbench workload={workload} seed={seed} variant={} seconds={seconds} trace={}",
        seed % VARIANTS,
        trace as u8
    );
    println!(
        "env nproc={} threads={THREADS} job_workers={THREADS} connections={THREADS} rev={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev()
    );
}

/// One untraced workload: its end-to-end metrics and output checks.
/// Returns whether every check passed.
fn run_workload(root: &Path, workload: &str, seed: u64, seconds: f64) -> bool {
    print_header(workload, seed, seconds, false);
    let ctx = make_ctx(root, workload, seed, seconds);
    let mut report = Report::default();
    let timed = run_untraced(workload, &ctx, &mut report);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    check_pin(workload, ctx.variant, &mut report);
    let total: f64 = timed.units.iter().sum();
    report.metric("setup_s", timed.setup_s, "s");
    report.metric("wall_s", report::median(&timed.units), "s");
    report.metric(
        "work_per_s",
        timed.items_per_unit * timed.units.len() as f64 / total,
        "1/s",
    );
    report.metric("peak_rss_mb", timed.peak_rss_mb, "MiB");
    report.metric("ok_ratio", report.ok_ratio(), "ratio");
    let walls: Vec<String> = timed.units.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "units {} measured_s {total:.3} walls_s {}",
        timed.units.len(),
        walls.join(" ")
    );
    println!(
        "setups {} min_s {:.6} median_s {:.6} max_s {:.6}",
        timed.setups.len(),
        report::percentile(&timed.setups, 0.0),
        report::median(&timed.setups),
        report::percentile(&timed.setups, 100.0)
    );
    report.print()
}

/// The traced run, its counts checked against their pin. Returns
/// whether every check passed.
fn run_traced(root: &Path, first: &str, seed: u64, seconds: f64) -> bool {
    print_header(first, seed, seconds, true);
    let mut report = traced(root, first, seed, seconds);
    check_pin(TRACE_PIN, seed % VARIANTS, &mut report);
    report.info("peak_rss_mb", report::peak_rss_mb(), "MiB");
    report.print()
}

/// The traced run's measurements and counts. It measures every layer,
/// whichever workload is named, so its rows line up across workloads;
/// the named one runs first.
fn traced(root: &Path, first: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut order = vec![first];
    order.extend(WORKLOADS.iter().filter(|w| **w != first));
    for name in order {
        let ctx = make_ctx(root, name, seed, seconds);
        match name {
            "cold_repro" => cold_repro::trace(&ctx, &mut report),
            "sweep_job" => sweep_job::trace(&ctx, &mut report),
            _ => serve_mixed::trace(&ctx, &mut report),
        }
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
    }
    report
}

fn make_ctx(root: &Path, workload: &str, seed: u64, seconds: f64) -> Ctx {
    let work_dir = root.join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Err(err) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {err}", work_dir.display());
        std::process::exit(1);
    }
    Ctx {
        seed,
        variant: seed % VARIANTS,
        seconds,
        work_dir,
    }
}

fn run_untraced(workload: &str, ctx: &Ctx, report: &mut Report) -> Timed {
    match workload {
        "cold_repro" => cold_repro::run(ctx, report),
        "sweep_job" => sweep_job::run(ctx, report),
        _ => serve_mixed::run(ctx, report),
    }
}

/// Compares the run's exact counts with the digest pinned for its
/// workload (or the traced run) and seed variant; a model change, or a
/// missing pin, fails.
fn check_pin(workload: &str, variant: u64, report: &mut Report) {
    let pinned = PINS.lines().find_map(|line| {
        let mut fields = line.split('\t');
        match (fields.next(), fields.next(), fields.next()) {
            (Some(w), Some(v), Some(digest)) if w == workload && v == variant.to_string() => {
                Some(digest.trim().to_string())
            }
            _ => None,
        }
    });
    let actual = report.counts_digest();
    match pinned {
        Some(pinned) if pinned == actual => {}
        Some(pinned) => report.fail(&format!(
            "{workload} variant {variant}: counts digest {actual} differs from pinned {pinned}"
        )),
        None => report.fail(&format!(
            "{workload} variant {variant}: no pinned counts digest"
        )),
    }
}

/// The checked-out revision when the working directory is a git
/// checkout; `unknown` otherwise (the benchmark may run from an export).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

/// Every profiled benchmark: the six SPEC analogs, then the six `isa:*`
/// programs.
pub fn benchmarks() -> impl Iterator<Item = &'static str> {
    SUITE_NAMES.iter().chain(ISA_SUITE_NAMES.iter()).copied()
}

/// A trace sink that only counts the accesses it is given.
#[derive(Default)]
pub struct CountingSink(pub u64);

impl TraceSink for CountingSink {
    fn accept(&mut self, access: MemoryAccess) {
        black_box(&access);
        self.0 += 1;
    }
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = f();
    (value, started.elapsed().as_secs_f64())
}
