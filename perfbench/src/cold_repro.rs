//! `cold_repro`: the researcher's cold regeneration.
//!
//! One unit starts from an empty in-memory `ProfileStore` (no disk
//! layer), profiles the six SPEC analogs (the suite fan-out) and the six
//! `isa:*` programs (inside `isa_suite::generate`), then generates
//! `table2`, `fig7`, `fig8`, `fig9` and `isa-suite`. Nearly all of its
//! time is in the simulator layers; `jobs` and `server` are idle.
//!
//! The seed picks one of eleven cycle budgets, the paper scale shifted
//! by -5% .. +5%, so every variant's tables and counts can be pinned.

use crate::report::{self, Report};
use crate::{benchmarks, timed, CountingSink, Ctx, Timed, SETUP_REPEATS, THREADS, VARIANTS};
use leakage_cachesim::{Hierarchy, HierarchyConfig, Level1};
use leakage_experiments::{
    checks, fig1, fig10, fig7, fig8, fig9, isa_suite, profile_benchmark, suite_partial_with,
    table1, table2, table3, ProfileStore, Table,
};
use leakage_intervals::{CompactIntervalDist, IntervalExtractor};
use leakage_prefetch::PrefetchAnalyzer;
use leakage_trace::{Cycle, TraceSource, VecTrace};
use leakage_workloads::{by_name, Scale};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Least time one batch of repeated set-ups runs for.
const SETUP_BATCH_S: f64 = 0.02;

/// Layers are timed in isolation at the run's cycle budget divided by
/// this, which keeps each materialized trace near 100 MiB.
const LAYER_DIVISOR: u64 = 4;

/// The paper scale's cycle budget per benchmark.
const PAPER_CYCLES: u64 = 12_000_000;

/// The cycle budget of a seed variant: paper scale shifted by
/// `variant - 5` percent.
pub fn scale_for(variant: u64) -> Scale {
    let percent = 100 + variant % VARIANTS - VARIANTS / 2;
    Scale::Custom(PAPER_CYCLES * percent / 100)
}

fn isa_retired() -> u64 {
    leakage_telemetry::registry()
        .counter("isa_instructions_retired_total")
        .get()
}

/// Set-up: an empty store, the twelve benchmarks resolved (the ISA
/// programs assembled), and the analytic artifacts that need no
/// profiles.
fn setup(scale: Scale) -> Vec<(&'static str, Table)> {
    ProfileStore::global().clear();
    for name in benchmarks() {
        black_box(by_name(name, scale).expect("suite benchmark resolves"));
    }
    vec![
        ("table1", table1::generate()),
        ("table3", table3::generate()),
        ("fig1", fig1::generate()),
        ("fig10", fig10::generate()),
    ]
}

/// Wall-clock phases of one regeneration, in seconds.
struct Phases {
    suite: f64,
    isa_suite: f64,
    tables: f64,
    total: f64,
}

/// One cold regeneration: returns the generated tables, the phase
/// times, and how many suite benchmarks failed.
fn regenerate(scale: Scale) -> (Vec<(&'static str, Table)>, Phases, usize) {
    ProfileStore::global().clear();
    let started = Instant::now();
    let (outcome, suite) = timed(|| suite_partial_with(ProfileStore::global(), scale));
    let (isa, isa_suite) = timed(|| isa_suite::generate(scale));
    let (mut tables, table_s) = timed(|| {
        let profiles = outcome.cloned_profiles();
        let (f7i, f7d) = fig7::generate(&profiles);
        let (f8i, f8d) = fig8::generate(&profiles);
        let (f9i, f9d) = fig9::generate(&profiles);
        vec![
            ("table2", table2::generate(&profiles)),
            ("fig7", f7i),
            ("fig7", f7d),
            ("fig8", f8i),
            ("fig8", f8d),
            ("fig9", f9i),
            ("fig9", f9d),
        ]
    });
    let total = started.elapsed().as_secs_f64();
    tables.push(("isa-suite", isa));
    let phases = Phases {
        suite,
        isa_suite,
        tables: table_s,
        total,
    };
    (tables, phases, outcome.failures.len())
}

/// Checks one regeneration's outputs and records its exact counts.
fn check_unit(
    report: &mut Report,
    tables: &[(&'static str, Table)],
    failures: usize,
    retired: u64,
    scale: Scale,
) -> u64 {
    for name in benchmarks() {
        report.attempt(failures == 0, || {
            format!("cold_repro: profiling {name} failed")
        });
    }
    let mut csv = String::new();
    for (name, table) in tables {
        let verdict = checks::check_table(table);
        report.attempt(verdict.is_ok(), || {
            format!("cold_repro: {name} check: {}", verdict.clone().unwrap_err())
        });
        csv.push_str(&table.to_csv());
    }
    report.count(
        "tables_csv_fnv",
        u64::from_str_radix(&report::digest(csv.as_bytes()), 16).unwrap_or(0),
    );
    let (mut l1_accesses, mut intervals) = (0, 0);
    let (mut i_hits, mut i_misses, mut d_hits, mut d_misses) = (0, 0, 0, 0);
    for name in benchmarks() {
        let profile = ProfileStore::global().fetch(name, scale);
        i_hits += profile.icache.cache.hits;
        i_misses += profile.icache.cache.misses;
        d_hits += profile.dcache.cache.hits;
        d_misses += profile.dcache.cache.misses;
        l1_accesses += profile.icache.cache.accesses + profile.dcache.cache.accesses;
        intervals += profile.icache.dist.total_intervals() + profile.dcache.dist.total_intervals();
        report.attempt(
            profile.icache.covers_timeline() && profile.dcache.covers_timeline(),
            || format!("cold_repro: {name} intervals do not tile its timeline"),
        );
    }
    report.count("l1i_hits", i_hits);
    report.count("l1i_misses", i_misses);
    report.count("l1d_hits", d_hits);
    report.count("l1d_misses", d_misses);
    report.count("intervals", intervals);
    report.count("isa_instructions_retired", retired);
    report.count("scale_cycles", scale.cycles());
    l1_accesses
}

/// A regeneration that may panic; a panic fails the unit instead of
/// the run.
fn checked_unit(report: &mut Report, scale: Scale) -> Option<(Phases, u64)> {
    let before = isa_retired();
    match catch_unwind(AssertUnwindSafe(|| regenerate(scale))) {
        Ok((tables, phases, failures)) => {
            let retired = isa_retired() - before;
            let accesses = check_unit(report, &tables, failures, retired, scale);
            Some((phases, accesses))
        }
        Err(payload) => {
            report.fail(&format!(
                "cold_repro: regeneration panicked: {}",
                leakage_faults::panic_message(payload.as_ref())
            ));
            None
        }
    }
}

/// One batch of set-ups: tens of microseconds each, so it repeats
/// until [`SETUP_BATCH_S`] has elapsed (at least [`SETUP_REPEATS`]
/// times). The first repetition's artifacts are checked.
fn checked_setup(report: &mut Report, scale: Scale) -> Vec<f64> {
    let mut setups = Vec::new();
    while setups.len() < SETUP_REPEATS || setups.iter().sum::<f64>() < SETUP_BATCH_S {
        let (tables, seconds) = timed(|| setup(scale));
        setups.push(seconds);
        if setups.len() > 1 {
            continue;
        }
        for (name, table) in &tables {
            let verdict = checks::check_table(table)
                .and_then(|()| checks::check_static_artifact(name, table));
            report.attempt(verdict.is_ok(), || {
                format!("cold_repro: {name} check: {}", verdict.clone().unwrap_err())
            });
        }
    }
    setups
}

/// The untraced run: regenerations until `ctx.seconds` of them elapse.
pub fn run(ctx: &Ctx, report: &mut Report) -> Timed {
    let scale = scale_for(ctx.variant);
    // With `--workload all`, the peak covers this workload alone.
    report::reset_peak_rss();
    let mut setups = Vec::new();
    let mut units = Vec::new();
    let mut items = 0.0;
    loop {
        // A set-up batch before every regeneration: the set-up is short
        // enough that which vCPU it lands on decides its time, so batches
        // spread over the run and their mean is reported.
        setups.extend(checked_setup(report, scale));
        if let Some((phases, accesses)) = checked_unit(report, scale) {
            // Per paper-scale regeneration: the variant's budget shift
            // would otherwise move the figures by up to 5%.
            let to_paper = PAPER_CYCLES as f64 / scale.cycles() as f64;
            units.push(phases.total * to_paper);
            items = accesses as f64 * to_paper;
        }
        if units.iter().sum::<f64>() >= ctx.seconds || report.failed() > 0 {
            break;
        }
    }
    if units.is_empty() {
        units.push(f64::NAN);
    }
    Timed {
        setup_s: report::mean(&setups),
        setups,
        units,
        items_per_unit: items,
        peak_rss_mb: report::peak_rss_mb(),
    }
}

/// Per-layer busy time and work, summed over benchmarks.
#[derive(Default)]
struct Layers {
    generator_accesses: u64,
    generator_s: f64,
    isa_instructions: u64,
    isa_s: f64,
    cachesim_accesses: u64,
    cachesim_s: f64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    interval_events: u64,
    intervals_s: f64,
    prefetch_observations: u64,
    prefetch_triggers: u64,
    prefetch_s: f64,
    profile_s: f64,
}

/// One L1 event as the frame extractor consumes it.
struct L1Record {
    side: Level1,
    frame: leakage_cachesim::FrameId,
    cycle: Cycle,
    hit: bool,
    dirty: bool,
}

/// Times each layer of one benchmark in isolation over its trace,
/// materialized once, then the fused pipeline over the same benchmark.
fn time_layers(name: &'static str, scale: Scale, layers: &mut Layers, report: &mut Report) {
    let bench = || by_name(name, scale).expect("suite benchmark resolves");

    // Generator (synthetic analog or executed ISA program) into a sink
    // that only counts.
    let before = isa_retired();
    let mut counting = CountingSink::default();
    let ((), gen_s) = timed(|| bench().run(&mut counting));
    if name.starts_with("isa:") {
        layers.isa_instructions += isa_retired() - before;
        layers.isa_s += gen_s;
    } else {
        layers.generator_accesses += counting.0;
        layers.generator_s += gen_s;
    }

    let mut trace = VecTrace::new();
    bench().run(&mut trace);
    let events = trace.events();

    // Hierarchy alone.
    let config = HierarchyConfig::alpha_like();
    let mut hierarchy = Hierarchy::new(config.clone());
    let ((), cache_s) = timed(|| {
        for access in events {
            black_box(hierarchy.access(access));
        }
    });
    layers.cachesim_accesses += events.len() as u64;
    layers.cachesim_s += cache_s;
    layers.l1_misses += hierarchy.l1i().stats().misses + hierarchy.l1d().stats().misses;
    layers.l2_hits += hierarchy.l2().stats().hits;
    layers.l2_misses += hierarchy.l2().stats().misses;

    // The L1 events the frame extractor consumes, recorded untimed.
    let mut replay = Hierarchy::new(config.clone());
    let records: Vec<L1Record> = events
        .iter()
        .map(|access| {
            let event = replay.access(access).l1;
            L1Record {
                side: event.cache,
                frame: event.frame,
                cycle: event.cycle,
                hit: event.hit,
                dirty: replay.l1(event.cache).frame_dirty(event.frame),
            }
        })
        .collect();
    drop(replay);
    let end = events
        .iter()
        .map(|a| a.cycle)
        .max()
        .map_or(Cycle::ZERO, |c| c.advanced(1));

    // Frame extractor alone.
    let mut extractor_i = IntervalExtractor::new(config.l1i.num_frames());
    let mut extractor_d = IntervalExtractor::new(config.l1d.num_frames());
    let mut dist_i = CompactIntervalDist::new();
    let mut dist_d = CompactIntervalDist::new();
    let ((), intervals_s) = timed(|| {
        for record in &records {
            let (extractor, dist) = match record.side {
                Level1::Instruction => (&mut extractor_i, &mut dist_i),
                Level1::Data => (&mut extractor_d, &mut dist_d),
            };
            extractor.on_access_full(record.frame, record.cycle, record.hit, record.dirty, dist);
        }
        extractor_i.finish(end, &mut dist_i);
        extractor_d.finish(end, &mut dist_d);
    });
    layers.interval_events += records.len() as u64;
    layers.intervals_s += intervals_s;
    drop(records);

    // Prefetch analyzers alone.
    let mut analyzer_i = PrefetchAnalyzer::for_instruction_cache(config.l1i.line_bits());
    let mut analyzer_d = PrefetchAnalyzer::for_data_cache(config.l1d.line_bits());
    let mut triggers = Vec::with_capacity(4);
    let mut fired = 0u64;
    let ((), prefetch_s) = timed(|| {
        for access in events {
            let analyzer = if access.kind.is_fetch() {
                &mut analyzer_i
            } else {
                &mut analyzer_d
            };
            analyzer.observe_into(access, &mut triggers);
            fired += triggers.len() as u64;
        }
    });
    layers.prefetch_observations += events.len() as u64;
    layers.prefetch_triggers += fired;
    layers.prefetch_s += prefetch_s;
    drop(trace);

    // The fused pipeline over the same benchmark.
    let (profile, profile_s) = timed(|| profile_benchmark(&mut bench()));
    layers.profile_s += profile_s;
    let fused = profile.icache.dist.total_intervals() + profile.dcache.dist.total_intervals();
    let isolated = dist_i.total_intervals() + dist_d.total_intervals();
    report.attempt(fused == isolated, || {
        format!("cold_repro: {name}: fused pipeline closed {fused} intervals, isolated layers {isolated}")
    });
}

/// The traced run: per-layer rows, reconciliation rows, and the
/// regeneration timed by phase next to an untraced one.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let scale = scale_for(ctx.variant);
    checked_setup(report, scale);
    let untraced = checked_unit(report, scale).map_or(f64::NAN, |(phases, _)| phases.total);
    let Some((phases, _)) = checked_unit(report, scale) else {
        return;
    };
    let layer_scale = Scale::Custom(scale.cycles() / LAYER_DIVISOR);
    let mut layers = Layers::default();
    let mut profile_s = 0.0;
    for name in benchmarks() {
        time_layers(name, layer_scale, &mut layers, report);
        let mut bench = by_name(name, scale).expect("suite benchmark resolves");
        profile_s += timed(|| profile_benchmark(&mut bench)).1;
    }
    report.count("layers.l2_hits", layers.l2_hits);
    report.count("layers.l2_misses", layers.l2_misses);

    let ms = |s: f64| s * 1e3;
    report.metric(
        "workloads.accesses",
        layers.generator_accesses as f64,
        "count",
    );
    report.metric("workloads.busy_ms", ms(layers.generator_s), "ms");
    report.metric("isa.instructions", layers.isa_instructions as f64, "count");
    report.metric("isa.busy_ms", ms(layers.isa_s), "ms");
    report.metric(
        "cachesim.accesses",
        layers.cachesim_accesses as f64,
        "count",
    );
    report.metric("cachesim.busy_ms", ms(layers.cachesim_s), "ms");
    report.metric(
        "cachesim.l1_miss_ratio",
        layers.l1_misses as f64 / layers.cachesim_accesses.max(1) as f64,
        "ratio",
    );
    report.metric("intervals.events", layers.interval_events as f64, "count");
    report.metric("intervals.busy_ms", ms(layers.intervals_s), "ms");
    report.metric(
        "prefetch.observations",
        layers.prefetch_observations as f64,
        "count",
    );
    report.metric(
        "prefetch.triggers",
        layers.prefetch_triggers as f64,
        "count",
    );
    report.metric("prefetch.busy_ms", ms(layers.prefetch_s), "ms");
    report.metric("experiments.profile_ms", ms(profile_s), "ms");
    report.metric("experiments.layer_profile_ms", ms(layers.profile_s), "ms");
    report.metric("experiments.suite_ms", ms(phases.suite), "ms");
    report.metric("experiments.isa_suite_ms", ms(phases.isa_suite), "ms");
    report.metric("experiments.tables_ms", ms(phases.tables), "ms");
    // Reconciliation: the fused profile against the sum of its layers at
    // the layer budget (base: experiments.layer_profile_ms), and the
    // run-budget profile work against the wall the fan-out gave it
    // (base: experiments.parallel_base_ms).
    let layer_sum = layers.generator_s
        + layers.isa_s
        + layers.cachesim_s
        + layers.intervals_s
        + layers.prefetch_s;
    report.metric(
        "experiments.glue_ms",
        ms(layers.profile_s - layer_sum),
        "ms",
    );
    let parallel_base = THREADS as f64 * (phases.suite + phases.isa_suite);
    report.metric("experiments.parallel_base_ms", ms(parallel_base), "ms");
    report.metric(
        "experiments.parallel_efficiency",
        profile_s / parallel_base,
        "ratio",
    );
    report.metric("cold_repro.traced.wall_s", phases.total, "s");
    report.metric(
        "cold_repro.traced.wall_ratio",
        phases.total / untraced,
        "ratio",
    );
}
