//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--scale test|small|paper|<cycles>] [--csv] [--metrics] [--conformance] [EXPERIMENT ...]
//! ```
//!
//! With no experiment names, everything is regenerated. Experiments:
//! the paper's artifacts (`table1 table2 table3 fig1 fig7 fig8 fig9
//! fig10`), the sensitivity ablations (`ablation-dead ablation-power
//! ablation-transition ablation-l2 ablation-geometry
//! ablation-writeback calibration`), and the extensions
//! (`prefetch-frontier implementable online dri diagnostics` and
//! `isa-suite`, which runs the executed mini-ISA programs through the
//! same pipeline).
//! `--csv` prints CSV, `--out DIR` writes per-table CSV files,
//! `--svg DIR` renders the figures, and `--report FILE` writes one
//! combined Markdown report.
//!
//! # Observability
//!
//! Every regenerated table passes the reproduction checks in
//! `leakage_experiments::checks`; a failed check makes the process
//! exit non-zero, and the per-experiment verdicts are recorded in the
//! run manifest. `--metrics` (or `LEAKAGE_TELEMETRY=json`) writes the
//! manifest — config hashes, versions, thread count, ProfileStore and
//! cache counters, hierarchical span timings — to
//! `results/telemetry.json`; `LEAKAGE_TELEMETRY=prom` exports the
//! registry to `results/telemetry.prom` instead. `LEAKAGE_LOG=info`
//! surfaces progress logging (default `warn` keeps runs quiet).
//!
//! # Degradation
//!
//! A benchmark that panics (or is killed via `LEAKAGE_FAULTS`, the
//! deterministic fault-injection plane — see DESIGN.md) fails alone:
//! the other benchmarks complete, its absence is recorded as a
//! `failed/<benchmark>` verdict in the manifest, and the process exits
//! non-zero. Likewise a panicking experiment generator fails only its
//! own verdict.
//!
//! # Conformance
//!
//! `--conformance` runs the differential conformance suite from
//! `leakage-conformance` — brute-force DP vs the greedy policy, naive
//! LRU vs the production cache, quadratic vs streaming interval
//! extraction, the literal Fig. 6 interpreter vs the generalized
//! model, and reference vs production prefetchers — and records one
//! `conformance/<check>` verdict per check in the manifest. With no
//! experiment names, `--conformance` runs only the suite; any failing
//! check makes the process exit non-zero.

use leakage_experiments::{
    ablations, cached_suite_partial, checks, fig1, fig10, fig3, fig7, fig8, fig9, implementable,
    online, table1, table2, table3, BenchmarkFailure, BenchmarkProfile, ProfileStore, Table,
};
use leakage_telemetry::{self as telemetry, error, info, Mode, RunManifest};
use leakage_workloads::Scale;

const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig3",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "ablation-dead",
    "ablation-power",
    "ablation-transition",
    "prefetch-frontier",
    "implementable",
    "online",
    "dri",
    "ablation-l2",
    "ablation-geometry",
    "ablation-writeback",
    "ablation-line-centric",
    "diagnostics",
    "calibration",
    "isa-suite",
];

const NEEDS_PROFILES: &[&str] = &[
    "ablation-writeback",
    "diagnostics",
    "fig3",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "ablation-dead",
    "ablation-power",
    "ablation-transition",
    "prefetch-frontier",
    "implementable",
];

/// Where the JSON manifest and the Prometheus export land.
const TELEMETRY_JSON: &str = "results/telemetry.json";
const TELEMETRY_PROM: &str = "results/telemetry.prom";

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale test|small|paper|<cycles>] [--csv] [--svg DIR] [--out DIR] \
         [--report FILE] [--metrics] [--conformance] [EXPERIMENT ...]"
    );
    eprintln!("experiments: {}", ALL.join(" "));
    eprintln!(
        "env: LEAKAGE_TELEMETRY=json|prom|off, LEAKAGE_LOG=error|warn|info|debug, \
         LEAKAGE_THREADS=N, LEAKAGE_PROFILE_DIR=DIR, LEAKAGE_FAULTS=SPEC (fault injection; \
         see DESIGN.md)"
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Paper;
    let mut csv = false;
    let mut svg_dir: Option<std::path::PathBuf> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut report_path: Option<std::path::PathBuf> = None;
    let mut metrics = false;
    let mut conformance = false;
    let mut wanted: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().unwrap_or_else(|| usage());
                scale = Scale::parse_arg(&value).unwrap_or_else(|| usage());
            }
            "--csv" => csv = true,
            "--metrics" => metrics = true,
            "--conformance" => conformance = true,
            "--svg" => {
                let value = args.next().unwrap_or_else(|| usage());
                svg_dir = Some(std::path::PathBuf::from(value));
            }
            "--out" => {
                let value = args.next().unwrap_or_else(|| usage());
                out_dir = Some(std::path::PathBuf::from(value));
            }
            "--report" => {
                let value = args.next().unwrap_or_else(|| usage());
                report_path = Some(std::path::PathBuf::from(value));
            }
            "--help" | "-h" => usage(),
            name if ALL.contains(&name) => wanted.push(name.to_string()),
            _ => usage(),
        }
    }
    // `--conformance` alone runs only the differential suite.
    if wanted.is_empty() && !conformance {
        wanted = ALL.iter().map(|s| s.to_string()).collect();
    }

    // `--metrics` is shorthand for LEAKAGE_TELEMETRY=json; an explicit
    // env mode wins so `LEAKAGE_TELEMETRY=prom repro --metrics` exports
    // Prometheus text.
    let mode = match telemetry::emission_mode() {
        Mode::Off if metrics => Mode::Json,
        mode => mode,
    };
    telemetry::set_enabled(mode != Mode::Off);
    let _root_span = telemetry::span("repro");

    // Benchmarks that failed inside the suite fan-out (injected faults,
    // simulation panics). The run degrades instead of dying: surviving
    // profiles feed the experiments, each failure becomes a
    // `failed/<benchmark>` manifest verdict, and the exit code goes
    // non-zero at the end.
    let mut suite_failures: Vec<BenchmarkFailure> = Vec::new();
    let profiles: Option<Vec<BenchmarkProfile>> =
        if svg_dir.is_some() || wanted.iter().any(|w| NEEDS_PROFILES.contains(&w.as_str())) {
            info!(
                "profiling the six-benchmark suite at {} cycles each...",
                scale.cycles()
            );
            let start = std::time::Instant::now();
            let outcome = cached_suite_partial(scale);
            info!("profiled in {:.1}s", start.elapsed().as_secs_f64());
            for failure in &outcome.failures {
                error!("{failure}; continuing with the surviving benchmarks");
            }
            let profiles = outcome.cloned_profiles();
            suite_failures = outcome.failures;
            Some(profiles)
        } else {
            None
        };
    let profiles = profiles.as_deref();

    if let Some(dir) = &out_dir {
        if let Err(err) = std::fs::create_dir_all(dir) {
            error!("cannot create {}: {err}", dir.display());
            std::process::exit(1);
        }
    }
    let slug = |title: &str| -> String {
        title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect::<String>()
            .split('-')
            .filter(|s| !s.is_empty())
            .take(6)
            .collect::<Vec<_>>()
            .join("-")
    };
    let report = std::cell::RefCell::new(String::new());
    // Each emitted table runs the reproduction checks; verdicts per
    // experiment land in the manifest and drive the exit status.
    let verdicts = std::cell::RefCell::new(Vec::<(String, bool)>::new());
    let emit_checked = |experiment: &str, table: &Table| {
        let passed = match checks::check_table(table)
            .and_then(|()| checks::check_static_artifact(experiment, table))
        {
            Ok(()) => true,
            Err(reason) => {
                error!("reproduction check failed: {reason}");
                false
            }
        };
        verdicts.borrow_mut().push((experiment.to_string(), passed));
        if report_path.is_some() {
            let mut buffer = report.borrow_mut();
            buffer.push_str(&format!("## {}\n\n", table.title()));
            buffer.push_str(&table.to_markdown());
            buffer.push('\n');
        }
        if csv {
            println!("# {}", table.title());
            print!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
        if let Some(dir) = &out_dir {
            let path = dir.join(format!("{}.csv", slug(table.title())));
            if let Err(err) = std::fs::write(&path, table.to_csv()) {
                error!("cannot write {}: {err}", path.display());
                std::process::exit(1);
            }
        }
    };

    for name in &wanted {
        let _span = telemetry::span(name);
        let emit = |table: &Table| emit_checked(name, table);
        let emit_pair = |(a, b): (Table, Table)| {
            emit(&a);
            emit(&b);
        };
        let profiles =
            |experiment: &str| profiles.unwrap_or_else(|| panic!("{experiment} requires profiles"));
        let run = || match name.as_str() {
            "table1" => emit(&table1::generate()),
            "table2" => emit(&table2::generate(profiles("table2"))),
            "table3" => emit(&table3::generate()),
            "fig1" => emit(&fig1::generate()),
            "fig3" => emit_pair(fig3::generate(profiles("fig3"))),
            "fig7" => emit_pair(fig7::generate(profiles("fig7"))),
            "fig8" => emit_pair(fig8::generate(profiles("fig8"))),
            "fig9" => emit_pair(fig9::generate(profiles("fig9"))),
            "fig10" => emit(&fig10::generate()),
            "ablation-dead" => emit(&ablations::dead_intervals(profiles("ablation-dead"))),
            "ablation-power" => emit(&ablations::power_ratios(profiles("ablation-power"))),
            "ablation-transition" => emit(&ablations::transition_models(profiles(
                "ablation-transition",
            ))),
            "prefetch-frontier" => {
                emit(&ablations::prefetch_frontier(profiles("prefetch-frontier")))
            }
            "implementable" => emit_pair(implementable::generate(profiles("implementable"))),
            "online" => emit(&online::generate(scale)),
            "dri" => emit(&online::dri_table(scale)),
            "ablation-l2" => emit(&ablations::l2_limits(scale)),
            "ablation-geometry" => emit(&ablations::geometry(scale)),
            "ablation-writeback" => emit(&ablations::writebacks(profiles("ablation-writeback"))),
            "ablation-line-centric" => emit(&ablations::line_centric(scale)),
            "diagnostics" => {
                let p = profiles("diagnostics");
                emit_pair(leakage_experiments::diagnostics::interval_stats(p));
                emit_pair(leakage_experiments::diagnostics::census(p));
                emit(&leakage_experiments::diagnostics::footprints(scale));
            }
            "calibration" => emit(&ablations::calibration_consistency()),
            "isa-suite" => emit(&leakage_experiments::isa_suite::generate(scale)),
            _ => unreachable!("validated above"),
        };
        // Isolate each experiment: one panicking generator (or an
        // injected fault) fails its own verdict while the remaining
        // experiments still run.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
            error!(
                "experiment {name} panicked: {}; continuing",
                leakage_faults::panic_message(payload.as_ref())
            );
            verdicts.borrow_mut().push((name.to_string(), false));
        }
    }

    // The differential conformance suite: production vs reference
    // implementations on shared traces, verdicts into the manifest.
    let conformance_report = if conformance {
        let _span = telemetry::span("conformance");
        info!("running the differential conformance suite...");
        let start = std::time::Instant::now();
        let report = leakage_conformance::run_conformance(scale, 10_000);
        info!(
            "conformance suite ran in {:.1}s",
            start.elapsed().as_secs_f64()
        );
        for check in &report.checks {
            if check.passed {
                println!("conformance {:<22} ok    {}", check.name, check.detail);
            } else {
                println!("conformance {:<22} FAIL  {}", check.name, check.detail);
                error!("conformance check {} failed: {}", check.name, check.detail);
            }
        }
        Some(report)
    } else {
        None
    };

    if let Some(path) = &report_path {
        let header = format!(
            "# cache-leakage-limits reproduction report\n\n\
             Scale: {} cycles per benchmark.\n\n",
            scale.cycles()
        );
        let body = report.borrow().clone();
        if let Err(err) = std::fs::write(path, header + &body) {
            error!("cannot write {}: {err}", path.display());
            std::process::exit(1);
        }
        info!("wrote report to {}", path.display());
    }

    if let Some(dir) = svg_dir {
        let profiles = profiles.expect("profiles exist when --svg is set");
        match leakage_experiments::figures::write_all(&dir, profiles) {
            Ok(files) => info!("wrote {} figures to {}", files.len(), dir.display()),
            Err(err) => {
                error!("failed to write figures: {err}");
                std::process::exit(1);
            }
        }
    }

    let counters = ProfileStore::global().counters();
    if counters.total() > 0 {
        info!(
            "profile store: {} fetches served by {} simulations + {} disk loads",
            counters.total(),
            counters.misses,
            counters.disk_hits
        );
    }

    // Close the root span before snapshotting so its timing is part of
    // the emitted profile.
    drop(_root_span);

    let mut manifest = RunManifest::new();
    manifest.set("binary", "repro");
    manifest.set("experiments", wanted.join(" "));
    manifest.set("scale_cycles", scale.cycles());
    manifest.set("benchmark_failures", suite_failures.len() as u64);
    if let Ok(spec) = std::env::var(leakage_faults::FAULTS_ENV) {
        if !spec.is_empty() {
            manifest.set("fault_spec", spec);
        }
    }
    // One `failed/<benchmark>` verdict per benchmark that did not make
    // it through the suite — these drive the non-zero exit for partial
    // runs.
    for failure in &suite_failures {
        manifest.verdict(&format!("failed/{}", failure.benchmark), false);
    }
    manifest.set("threads", rayon::current_num_threads());
    manifest.set("generator_version", leakage_workloads::GENERATOR_VERSION);
    manifest.set(
        "isa_generator_version",
        leakage_workloads::ISA_GENERATOR_VERSION,
    );
    // Executed-workload odometers: zero unless an `isa:*` program was
    // actually simulated this run, in which case they pin down exactly
    // how much architectural work backed the emitted artifacts.
    let registry = telemetry::registry();
    manifest.set(
        "isa_instructions_retired",
        registry.counter("isa_instructions_retired_total").get(),
    );
    manifest.set(
        "isa_sim_cycles",
        registry.counter("isa_sim_cycles_total").get(),
    );
    manifest.set("format_version", leakage_experiments::codec::FORMAT_VERSION);
    manifest.set(
        "config_hash",
        format!(
            "{:016x}",
            ProfileStore::profile_key(
                "suite",
                scale,
                &leakage_cachesim::HierarchyConfig::alpha_like()
            )
        ),
    );
    // Experiments emitting several tables (diagnostics, the paired
    // figures) produce one verdict per table; AND them per experiment.
    let mut combined = std::collections::BTreeMap::<String, bool>::new();
    for (experiment, passed) in verdicts.borrow().iter() {
        let entry = combined.entry(experiment.clone()).or_insert(true);
        *entry = *entry && *passed;
    }
    for (experiment, passed) in &combined {
        manifest.verdict(experiment, *passed);
    }
    if let Some(report) = &conformance_report {
        for check in &report.checks {
            manifest.verdict(&format!("conformance/{}", check.name), check.passed);
        }
    }

    match mode {
        Mode::Json => {
            if let Err(err) = manifest.write_json(TELEMETRY_JSON) {
                error!("cannot write {TELEMETRY_JSON}: {err}");
                std::process::exit(1);
            }
            info!("wrote telemetry to {TELEMETRY_JSON}");
        }
        Mode::Prom => {
            if let Some(dir) = std::path::Path::new(TELEMETRY_PROM).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(err) = std::fs::write(TELEMETRY_PROM, telemetry::prometheus_text()) {
                error!("cannot write {TELEMETRY_PROM}: {err}");
                std::process::exit(1);
            }
            info!("wrote telemetry to {TELEMETRY_PROM}");
        }
        Mode::Off => {}
    }

    if !manifest.all_passed() {
        error!(
            "reproduction checks failed for: {}",
            manifest.failures().join(", ")
        );
        std::process::exit(1);
    }
}
