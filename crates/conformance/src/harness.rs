//! The differential harness: replay the same traces through production
//! and reference paths and demand agreement.
//!
//! Each `check_*` function runs one family of comparisons and returns a
//! [`CheckOutcome`]; [`run_conformance`] bundles the full suite into a
//! [`ConformanceReport`] (the payload of `repro --conformance` and of
//! the conformance CI job). All random inputs come from the vendored
//! proptest's deterministic [`TestRng`], so every run replays the same
//! instances.

use leakage_cachesim::{Cache, CacheConfig};
use leakage_core::envelope;
use leakage_core::policy::{OptDrowsy, OptHybrid, OptSleep};
use leakage_core::{EnergyContext, GeneralizedModel, PowerMode, RefetchAccounting};
use leakage_energy::{CircuitParams, ModePowers, ModeTimings, TechnologyNode};
use leakage_intervals::{
    CompactIntervalDist, IntervalClass, IntervalExtractor, IntervalKind, StreamingExtractor,
    WakeHints,
};
use leakage_isa::{IsaSource, PROGRAMS};
use leakage_prefetch::{NextLinePrefetcher, StridePrefetcher};
use leakage_trace::{AccessKind, Cycle, LineAddr, MemoryAccess, Pc};
use leakage_workloads::{suite, Scale};
use proptest::TestRng;

use crate::dp::{greedy_energy, min_energy_dp, min_energy_exhaustive};
use crate::fig6::Fig6Machine;
use crate::refcache::ReferenceCache;
use crate::refextract::{
    reference_intervals, reference_line_intervals_quadratic, AccessEvent,
};
use crate::refprefetch::{ReferenceNextLine, ReferenceStride};
use crate::energy_close;

/// The verdict of one conformance check.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Stable check name (the manifest verdict key).
    pub name: &'static str,
    /// Whether production and reference agreed everywhere.
    pub passed: bool,
    /// What was compared — instance counts on success, the first
    /// divergence on failure.
    pub detail: String,
}

impl CheckOutcome {
    fn pass(name: &'static str, detail: String) -> Self {
        CheckOutcome { name, passed: true, detail }
    }

    fn fail(name: &'static str, detail: String) -> Self {
        CheckOutcome { name, passed: false, detail }
    }
}

/// The outcome of the full differential suite.
#[derive(Debug, Clone, Default)]
pub struct ConformanceReport {
    /// Every check that ran, in execution order.
    pub checks: Vec<CheckOutcome>,
}

impl ConformanceReport {
    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The names of failing checks.
    pub fn failures(&self) -> Vec<&'static str> {
        self.checks.iter().filter(|c| !c.passed).map(|c| c.name).collect()
    }
}

/// Deterministic RNG for one named check.
fn rng_for(check: &str) -> TestRng {
    TestRng::for_test(&format!("leakage_conformance::{check}"))
}

/// Random but physically sensible circuit parameters (the same envelope
/// of assumptions as `tests/theorem_properties.rs`).
fn sample_params(rng: &mut TestRng) -> CircuitParams {
    let active = 0.001 + rng.unit_f64() * 10.0;
    let sleep_ratio = rng.unit_f64() * 0.04;
    let drowsy_ratio = (0.05 + rng.unit_f64() * 0.85).max(sleep_ratio + 0.01);
    let refetch_units = 1.0 + rng.unit_f64() * 100_000.0;
    let d = 1 + rng.below(3);
    let s1 = d + 2 + rng.below(48);
    let s4 = rng.below(20);
    CircuitParams::builder()
        .powers(ModePowers::from_ratios(active, drowsy_ratio, sleep_ratio))
        .timings(ModeTimings { s1, s3: d, s4, d1: d, d3: d })
        .refetch_energy(refetch_units * active)
        .build()
}

/// A random interval class spanning every length regime and kind.
fn sample_class(rng: &mut TestRng, points_b: u64) -> IntervalClass {
    let length = match rng.below(5) {
        0 => rng.below(64),                          // around/below a
        1 => rng.below(2_048),                       // drowsy band
        2 => points_b.saturating_sub(rng.below(32)), // just below b
        3 => points_b + rng.below(64),               // just above b
        _ => rng.below(5_000_000),                   // deep sleep band
    };
    let kind = match rng.below(5) {
        0 => IntervalKind::Interior { reaccess: true },
        1 => IntervalKind::Interior { reaccess: false },
        2 => IntervalKind::Leading,
        3 => IntervalKind::Trailing,
        _ => IntervalKind::Untouched,
    };
    IntervalClass {
        length,
        kind,
        wake: WakeHints::NONE,
        dirty: rng.below(2) == 1,
    }
}

/// Theorem 1 end-to-end: on random (params, interval-set) instances the
/// greedy per-interval choice, the interval-sequence DP, the `3^n`
/// exhaustive enumeration (small instances), and the inflection-point
/// classification of `core::envelope` all land on the same minimum
/// total energy.
pub fn check_theorem_dp(instances: u32) -> CheckOutcome {
    const NAME: &str = "theorem1-dp";
    let mut rng = rng_for(NAME);
    let mut exhaustive_checked = 0u32;
    for instance in 0..instances {
        let params = sample_params(&mut rng);
        let accounting = if rng.below(2) == 0 {
            RefetchAccounting::PaperStrict
        } else {
            RefetchAccounting::DeadAware
        };
        let ctx = EnergyContext::new(params, accounting);
        let points = ctx.inflection_points();
        let n = 1 + rng.below(12) as usize;
        let classes: Vec<IntervalClass> = (0..n)
            .map(|_| sample_class(&mut rng, points.drowsy_sleep))
            .collect();
        let mut dist = CompactIntervalDist::new();
        for class in &classes {
            dist.add(*class, 1 + rng.below(1_000));
        }

        let greedy = greedy_energy(&ctx, &dist);
        let dp = min_energy_dp(&ctx, &dist);
        if !energy_close(greedy, dp) {
            return CheckOutcome::fail(
                NAME,
                format!("instance {instance}: greedy {greedy} != dp {dp} ({accounting:?})"),
            );
        }
        // The production policy framework must land on the same total.
        let hybrid = ctx.evaluate(&OptHybrid::new(), &dist).energy;
        if !energy_close(hybrid, dp) {
            return CheckOutcome::fail(
                NAME,
                format!("instance {instance}: OptHybrid {hybrid} != dp {dp}"),
            );
        }
        // Ground-truth enumeration on small instances.
        if n <= 6 && exhaustive_checked < 500 {
            exhaustive_checked += 1;
            let exhaustive = min_energy_exhaustive(&ctx, &classes);
            let dp_single: f64 = classes
                .iter()
                .map(|c| {
                    PowerMode::ALL
                        .iter()
                        .filter_map(|&m| ctx.mode_energy(m, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum();
            if !energy_close(exhaustive, dp_single) {
                return CheckOutcome::fail(
                    NAME,
                    format!("instance {instance}: exhaustive {exhaustive} != per-interval {dp_single}"),
                );
            }
        }
        // Inflection-point classification (Theorem 1's statement) on
        // interior intervals, away from the exact tie lengths.
        for class in &classes {
            if class.kind != (IntervalKind::Interior { reaccess: true })
                || class.dirty
                || accounting != RefetchAccounting::PaperStrict
                || class.length == points.active_drowsy
                || class.length == points.drowsy_sleep
            {
                continue;
            }
            let mode = envelope::optimal_mode(class.length, &points);
            let (classified, _) = ctx.mode_energy_or_active(mode, class);
            let optimal = ctx.optimal_energy(class);
            if !energy_close(classified, optimal) {
                return CheckOutcome::fail(
                    NAME,
                    format!(
                        "instance {instance}: classification {mode:?} at length {} gives {classified}, optimum {optimal}",
                        class.length
                    ),
                );
            }
        }
    }
    CheckOutcome::pass(
        NAME,
        format!("{instances} instances (greedy == DP == OptHybrid; {exhaustive_checked} exhaustively enumerated)"),
    )
}

/// Random cache geometry small enough to force conflicts.
fn sample_cache_config(rng: &mut TestRng) -> CacheConfig {
    // Total size must be a power of two, so ways and sets both are.
    let ways = 1u32 << rng.below(3);
    let sets = 1u64 << rng.below(4);
    CacheConfig::new("fuzz", sets * u64::from(ways) * 64, ways, 64, 1)
        .expect("fuzz geometry is valid")
}

/// Differential cache check on fuzzed access streams: every access must
/// agree on hit/miss, evicted line, prior dirtiness and writeback, and
/// final counters must match exactly.
pub fn check_cache_fuzz(traces: u32) -> CheckOutcome {
    const NAME: &str = "cachesim-fuzz";
    let mut rng = rng_for(NAME);
    let mut accesses_checked = 0u64;
    for trace in 0..traces {
        let config = sample_cache_config(&mut rng);
        let mut production = Cache::new(config.clone());
        let mut reference = ReferenceCache::new(&config);
        let len = 50 + rng.below(400);
        for step in 0..len {
            // A small line universe keeps hits and conflicts frequent.
            let line = LineAddr::new(rng.below(48));
            let store = rng.below(4) == 0;
            let prod = production.access_with(line, store);
            let refr = reference.access(line, store);
            accesses_checked += 1;
            if (prod.hit, prod.evicted, prod.was_dirty, prod.writeback)
                != (refr.hit, refr.evicted, refr.was_dirty, refr.writeback)
            {
                return CheckOutcome::fail(
                    NAME,
                    format!(
                        "trace {trace} step {step} line {line}: production {prod:?} vs reference {refr:?} ({config})"
                    ),
                );
            }
        }
        let stats = production.stats();
        let prod_counts = (stats.hits, stats.misses, stats.evictions, stats.writebacks);
        if prod_counts != reference.counts() {
            return CheckOutcome::fail(
                NAME,
                format!(
                    "trace {trace}: counters {prod_counts:?} vs reference {:?}",
                    reference.counts()
                ),
            );
        }
    }
    CheckOutcome::pass(NAME, format!("{traces} fuzz traces, {accesses_checked} accesses"))
}

/// One benchmark side's replay through production cache + extractor,
/// recording the event list the references consume.
struct SideReplay {
    prod_dist: CompactIntervalDist,
    events: Vec<AccessEvent>,
    num_frames: u32,
    end: u64,
    counts: (u64, u64, u64, u64),
    ref_counts: (u64, u64, u64, u64),
    mismatches: u64,
}

fn replay_side(accesses: &[MemoryAccess], config: CacheConfig) -> SideReplay {
    let num_frames = config.num_frames();
    let line_bits = config.line_bits();
    let mut production = Cache::new(config.clone());
    let mut reference = ReferenceCache::new(&config);
    let mut extractor = IntervalExtractor::new(num_frames);
    let mut dist = CompactIntervalDist::new();
    let mut events = Vec::with_capacity(accesses.len());
    let mut mismatches = 0u64;
    let mut end = 0u64;
    for access in accesses {
        let line = access.addr.line(line_bits);
        let store = access.kind == AccessKind::Store;
        let prod = production.access_with(line, store);
        let refr = reference.access(line, store);
        if (prod.hit, prod.evicted, prod.was_dirty, prod.writeback)
            != (refr.hit, refr.evicted, refr.was_dirty, refr.writeback)
        {
            mismatches += 1;
        }
        let dirty = production.frame_dirty(prod.frame);
        extractor.on_access_full(prod.frame, access.cycle, prod.hit, dirty, &mut dist);
        events.push(AccessEvent {
            frame: prod.frame.index(),
            line,
            cycle: access.cycle.raw(),
            hit: prod.hit,
            dirty,
        });
        end = end.max(access.cycle.raw() + 1);
    }
    extractor.finish(Cycle::new(end), &mut dist);
    let stats = production.stats();
    SideReplay {
        prod_dist: dist,
        events,
        num_frames,
        end,
        counts: (stats.hits, stats.misses, stats.evictions, stats.writebacks),
        ref_counts: reference.counts(),
        mismatches,
    }
}

/// Differential replay of the six synthetic workloads: the production
/// cache must agree with the naive LRU on every access of both L1
/// sides, and the streaming interval extractor must produce exactly the
/// interval multiset the batch reference derives from the recorded
/// events. Returns the cache check and the extractor check.
pub fn check_workloads(scale: Scale) -> (CheckOutcome, CheckOutcome) {
    const CACHE_NAME: &str = "cachesim-workloads";
    const EXTRACT_NAME: &str = "extractor-workloads";
    let mut cache_detail = Vec::new();
    let mut extract_detail = Vec::new();
    let mut cache_failed = None;
    let mut extract_failed = None;
    for bench in &mut suite(scale) {
        let mut trace: Vec<MemoryAccess> = Vec::new();
        leakage_trace::TraceSource::run(bench, &mut trace);
        let (fetches, data): (Vec<MemoryAccess>, Vec<MemoryAccess>) =
            trace.iter().partition(|a| a.kind.is_fetch());
        for (side, accesses, config) in [
            ("l1i", &fetches, CacheConfig::alpha_l1i()),
            ("l1d", &data, CacheConfig::alpha_l1d()),
        ] {
            let replay = replay_side(accesses, config);
            if replay.mismatches > 0 || replay.counts != replay.ref_counts {
                cache_failed.get_or_insert(format!(
                    "{}/{side}: {} per-access mismatches, counters {:?} vs {:?}",
                    bench.name(),
                    replay.mismatches,
                    replay.counts,
                    replay.ref_counts
                ));
            }
            let reference = reference_intervals(replay.num_frames, &replay.events, replay.end);
            if replay.prod_dist != reference {
                extract_failed.get_or_insert(format!(
                    "{}/{side}: production dist ({} classes, {} cycles) != reference ({} classes, {} cycles)",
                    bench.name(),
                    replay.prod_dist.num_classes(),
                    replay.prod_dist.total_cycles(),
                    reference.num_classes(),
                    reference.total_cycles()
                ));
            }
            // Coverage invariant: per-frame lengths tile the timeline.
            let expected_cycles = u64::from(replay.num_frames) * replay.end;
            if replay.prod_dist.total_cycles() != expected_cycles {
                extract_failed.get_or_insert(format!(
                    "{}/{side}: coverage {} != frames x end {}",
                    bench.name(),
                    replay.prod_dist.total_cycles(),
                    expected_cycles
                ));
            }
            cache_detail.push(format!("{}/{side}: {} accesses", bench.name(), accesses.len()));
            extract_detail.push(format!(
                "{}/{side}: {} intervals",
                bench.name(),
                replay.prod_dist.total_intervals()
            ));
        }
    }
    let cache = match cache_failed {
        Some(detail) => CheckOutcome::fail(CACHE_NAME, detail),
        None => CheckOutcome::pass(CACHE_NAME, cache_detail.join("; ")),
    };
    let extract = match extract_failed {
        Some(detail) => CheckOutcome::fail(EXTRACT_NAME, detail),
        None => CheckOutcome::pass(EXTRACT_NAME, extract_detail.join("; ")),
    };
    (cache, extract)
}

/// Differential check of the streaming extractors on fuzzed traces,
/// against the O(n²) references — including the line-centric variant.
pub fn check_extractor_fuzz(traces: u32) -> CheckOutcome {
    const NAME: &str = "extractor-fuzz";
    let mut rng = rng_for(NAME);
    for trace in 0..traces {
        let num_frames = 1 + rng.below(8) as u32;
        let len = rng.below(200) as usize;
        let mut cycle = 0u64;
        let mut events = Vec::with_capacity(len);
        for _ in 0..len {
            // Nondecreasing cycles; frequent same-cycle repeats to
            // exercise zero-length intervals.
            cycle += rng.below(4);
            events.push(AccessEvent {
                frame: rng.below(u64::from(num_frames)) as u32,
                line: LineAddr::new(rng.below(6)),
                cycle,
                hit: rng.below(2) == 1,
                dirty: rng.below(2) == 1,
            });
        }
        let end = cycle + rng.below(10);

        // Frame-keyed streaming extractor vs quadratic reference.
        let mut extractor = IntervalExtractor::new(num_frames);
        let mut prod = CompactIntervalDist::new();
        for e in &events {
            extractor.on_access_full(
                leakage_cachesim::FrameId::new(e.frame),
                Cycle::new(e.cycle),
                e.hit,
                e.dirty,
                &mut prod,
            );
        }
        extractor.finish(Cycle::new(end), &mut prod);
        let reference = crate::refextract::reference_intervals_quadratic(num_frames, &events, end);
        if prod != reference {
            return CheckOutcome::fail(
                NAME,
                format!("trace {trace}: frame-keyed dist diverges ({len} events, {num_frames} frames)"),
            );
        }

        // Line-keyed streaming extractor vs quadratic reference.
        let mut line_extractor = StreamingExtractor::new(6, CompactIntervalDist::new());
        for e in &events {
            line_extractor.on_access(e.line, Cycle::new(e.cycle));
        }
        let line_prod = line_extractor.finish_at(Cycle::new(end));
        let line_reference = reference_line_intervals_quadratic(&events, end);
        if line_prod != line_reference {
            return CheckOutcome::fail(
                NAME,
                format!("trace {trace}: line-centric dist diverges ({len} events)"),
            );
        }
    }
    CheckOutcome::pass(NAME, format!("{traces} fuzz traces (frame-keyed and line-centric)"))
}

/// The bounded-state streaming extractor against the line-keyed O(n²)
/// oracle: fuzzed finite traces (explicit ends, same-cycle repeats,
/// zero-length tails) plus the executed trace of every ISA program,
/// demanding exact structural equality and resident state bounded by
/// the number of live lines.
pub fn check_streaming_intervals(traces: u32) -> CheckOutcome {
    const NAME: &str = "streaming_intervals";
    let mut rng = rng_for(NAME);
    // Fuzzed traces over a 6-line universe, nondecreasing cycles.
    for trace in 0..traces {
        let len = rng.below(200) as usize;
        let mut cycle = 0u64;
        let mut events = Vec::with_capacity(len);
        for _ in 0..len {
            cycle += rng.below(4);
            events.push(AccessEvent {
                frame: 0,
                line: LineAddr::new(rng.below(6)),
                cycle,
                hit: rng.below(2) == 1,
                dirty: rng.below(2) == 1,
            });
        }
        let end = cycle + rng.below(10);
        let mut streaming = StreamingExtractor::new(6, CompactIntervalDist::new());
        for e in &events {
            streaming.on_access(e.line, Cycle::new(e.cycle));
        }
        let peak = streaming.peak_resident_lines();
        if peak > 6 {
            return CheckOutcome::fail(
                NAME,
                format!("fuzz trace {trace}: {peak} resident lines from a 6-line universe"),
            );
        }
        let prod = streaming.finish_at(Cycle::new(end));
        let reference = reference_line_intervals_quadratic(&events, end);
        if prod != reference {
            return CheckOutcome::fail(
                NAME,
                format!("fuzz trace {trace}: streaming dist diverges ({len} events, end {end})"),
            );
        }
    }
    // Executed ISA programs through the TraceSink adapter (64-byte
    // lines), watermark finalization on both sides.
    let mut program_detail = Vec::new();
    for program in &PROGRAMS {
        let mut accesses: Vec<MemoryAccess> = Vec::new();
        leakage_trace::TraceSource::run(&mut IsaSource::new(program, 25_000, 7), &mut accesses);
        let events: Vec<AccessEvent> = accesses
            .iter()
            .map(|a| AccessEvent {
                frame: 0,
                line: a.addr.line(6),
                cycle: a.cycle.raw(),
                hit: false,
                dirty: false,
            })
            .collect();
        let live_lines: std::collections::HashSet<LineAddr> =
            events.iter().map(|e| e.line).collect();
        let end = events.last().map_or(0, |e| e.cycle + 1);
        let mut streaming = StreamingExtractor::new(6, CompactIntervalDist::new());
        for access in &accesses {
            leakage_trace::TraceSink::accept(&mut streaming, *access);
        }
        let peak = streaming.peak_resident_lines();
        if peak > live_lines.len() {
            return CheckOutcome::fail(
                NAME,
                format!(
                    "{}: {peak} resident lines exceed the {} lines the program touches",
                    program.name,
                    live_lines.len()
                ),
            );
        }
        let prod = streaming.finish();
        let reference = reference_line_intervals_quadratic(&events, end);
        if prod != reference {
            return CheckOutcome::fail(
                NAME,
                format!(
                    "{}: streaming dist ({} classes, {} cycles) != oracle ({} classes, {} cycles)",
                    program.name,
                    prod.num_classes(),
                    prod.total_cycles(),
                    reference.num_classes(),
                    reference.total_cycles()
                ),
            );
        }
        program_detail.push(format!("{}: {} events, {} lines", program.name, events.len(), live_lines.len()));
    }
    CheckOutcome::pass(
        NAME,
        format!("{traces} fuzz traces; {}", program_detail.join("; ")),
    )
}

/// The generalized model against the literal Fig. 6 interpreter: state
/// powers, the four edge energies (and the two missing edges), and
/// interval energies across modes, kinds, dirtiness and both refetch
/// accountings, for every technology node.
pub fn check_fig6() -> CheckOutcome {
    const NAME: &str = "fig6-interpreter";
    let mut compared = 0u64;
    for node in TechnologyNode::ALL {
        let params = CircuitParams::for_node(node);
        let machine = Fig6Machine::from_params(&params);
        let t = params.timings();
        for accounting in [RefetchAccounting::PaperStrict, RefetchAccounting::DeadAware] {
            let model = GeneralizedModel::with_accounting(params.clone(), accounting);
            let ctx = model.context();
            // Edges.
            for from in PowerMode::ALL {
                for to in PowerMode::ALL {
                    let prod = model.try_transition_energy(from, to);
                    let refr = machine.edge_energy(from, to);
                    let agree = match (prod, refr) {
                        (None, None) => true,
                        (Some(p), Some(r)) => energy_close(p, r),
                        _ => false,
                    };
                    if !agree {
                        return CheckOutcome::fail(
                            NAME,
                            format!("{node:?} edge {from:?}->{to:?}: {prod:?} vs {refr:?}"),
                        );
                    }
                    compared += 1;
                }
                if !energy_close(model.state_power(from), machine.state_power(from)) {
                    return CheckOutcome::fail(
                        NAME,
                        format!("{node:?} state power {from:?} diverges"),
                    );
                }
            }
            if !energy_close(model.refetch_energy(), machine.refetch_energy()) {
                return CheckOutcome::fail(NAME, format!("{node:?} refetch energy diverges"));
            }
            // Interval energies across the length grid.
            let points = ctx.inflection_points();
            let lengths = [
                0,
                1,
                t.d1 + t.d3,
                t.s1 + t.s3 + t.s4,
                points.active_drowsy,
                points.active_drowsy + 1,
                points.drowsy_sleep,
                points.drowsy_sleep + 1,
                100_000,
                10_000_000,
            ];
            let kinds = [
                IntervalKind::Interior { reaccess: true },
                IntervalKind::Interior { reaccess: false },
                IntervalKind::Leading,
                IntervalKind::Trailing,
                IntervalKind::Untouched,
            ];
            for &length in &lengths {
                for kind in kinds {
                    for dirty in [false, true] {
                        let class = IntervalClass { length, kind, wake: WakeHints::NONE, dirty };
                        for mode in PowerMode::ALL {
                            let overhead = match mode {
                                PowerMode::Active => (0, 0),
                                PowerMode::Drowsy => (t.d1, t.d3),
                                PowerMode::Sleep => (t.s1, t.s3 + t.s4),
                            };
                            let prod = ctx.mode_energy(mode, &class);
                            let refr = machine.interval_energy(
                                mode,
                                &class,
                                overhead,
                                ctx.charges_refetch(&class),
                                0.0,
                            );
                            let agree = match (prod, refr) {
                                (None, None) => true,
                                (Some(p), Some(r)) => energy_close(p, r),
                                _ => false,
                            };
                            if !agree {
                                return CheckOutcome::fail(
                                    NAME,
                                    format!(
                                        "{node:?} {accounting:?} {mode:?} length {length} {kind:?} dirty {dirty}: {prod:?} vs {refr:?}"
                                    ),
                                );
                            }
                            compared += 1;
                        }
                    }
                }
            }
        }
    }
    CheckOutcome::pass(NAME, format!("{compared} energies across {} nodes", TechnologyNode::ALL.len()))
}

/// Production prefetchers against the naive references on fuzzed
/// streams: next-line must agree exactly; the stride table, sized so
/// the fuzzed PCs cannot collide, must agree exactly too.
pub fn check_prefetch_fuzz(streams: u32) -> CheckOutcome {
    const NAME: &str = "prefetch-fuzz";
    let mut rng = rng_for(NAME);
    let mut observations = 0u64;
    for stream in 0..streams {
        let mut prod_next = NextLinePrefetcher::new();
        let mut ref_next = ReferenceNextLine::new();
        // 1024 slots, PCs of the form (slot * 4) with slot < 64: each PC
        // owns its slot, so the direct-mapped table behaves like a map.
        let mut prod_stride = StridePrefetcher::new(1024);
        let mut ref_stride = ReferenceStride::new();
        let len = 20 + rng.below(200);
        let mut walker = rng.below(1u64 << 30);
        for step in 0..len {
            let line = LineAddr::new(rng.below(64));
            if prod_next.observe(line) != ref_next.observe(line) {
                return CheckOutcome::fail(
                    NAME,
                    format!("stream {stream} step {step}: next-line diverges at {line}"),
                );
            }
            let pc = Pc::new(rng.below(64) * 4);
            // Mix strided walks with random jumps so confirmation state
            // is built and broken mid-stream; negative strides included.
            match rng.below(4) {
                0 => walker = rng.below(1u64 << 30),
                1 => walker = walker.wrapping_add_signed(-64),
                _ => walker = walker.wrapping_add(64),
            }
            let addr = leakage_trace::Address::new(walker);
            let prod = prod_stride.observe(pc, addr);
            let refr = ref_stride.observe(pc, addr);
            if prod != refr {
                return CheckOutcome::fail(
                    NAME,
                    format!("stream {stream} step {step}: stride diverges at {pc} {addr} ({prod:?} vs {refr:?})"),
                );
            }
            observations += 2;
        }
    }
    CheckOutcome::pass(NAME, format!("{streams} streams, {observations} observations"))
}

/// The batched OPT evaluator against three per-policy
/// [`EnergyContext::evaluate`] walks, demanding `f64::to_bits`
/// equality rather than [`energy_close`]: job and sweep digests pin
/// full-precision results, so the batch must reproduce the oracle's
/// rounding exactly. Each instance is one group of 1–300 models that
/// share a node's preset circuit and differ only in `C_D` (0 to 3× the
/// preset), under either refetch accounting, with or without writeback,
/// over a random distribution of every interval kind, dirty and clean,
/// with wake hints, at lengths on the transition overheads, on each
/// model's `b ± 1`, and near `u64` scale.
pub fn check_opt_batch_bitwise(groups: u32) -> CheckOutcome {
    const NAME: &str = "opt_batch_bitwise";
    let mut rng = rng_for(NAME);
    let mut compared = 0u64;
    for group in 0..groups {
        let node = TechnologyNode::ALL[group as usize % TechnologyNode::ALL.len()];
        let accounting = if group / 4 % 2 == 0 {
            RefetchAccounting::PaperStrict
        } else {
            RefetchAccounting::DeadAware
        };
        let preset = CircuitParams::for_node(node);
        let writeback = (group / 8 % 2 == 1).then(|| rng.unit_f64() * preset.refetch_energy());
        let size = match group % 5 {
            0 => 1,
            1 => 300,
            _ => 1 + rng.below(300) as usize,
        };
        let models: Vec<GeneralizedModel> = (0..size)
            .map(|k| {
                let scale = match k {
                    0 => 0.0,
                    1 => 3.0,
                    2 => 1.0,
                    _ => 3.0 * rng.unit_f64(),
                };
                let params = CircuitParams::builder()
                    .derived_from(node)
                    .powers(*preset.powers())
                    .timings(*preset.timings())
                    .transition_model(preset.transition_model())
                    .refetch_energy(scale * preset.refetch_energy())
                    .build();
                GeneralizedModel::from_context(match writeback {
                    Some(wb) => EnergyContext::with_writeback(params, accounting, wb),
                    None => EnergyContext::new(params, accounting),
                })
            })
            .collect();

        let t = preset.timings();
        let mut dist = CompactIntervalDist::new();
        // Group 0 keeps the empty distribution.
        let classes = if group == 0 { 0 } else { 1 + rng.below(400) };
        for _ in 0..classes {
            let b = models[rng.below(size as u64) as usize]
                .inflection_points()
                .drowsy_sleep;
            let overhead = [
                t.d1 + t.d3,
                t.s1 + t.s3 + t.s4,
                t.s3 + t.s4,
                t.s1,
                t.d1,
                t.d3,
            ][rng.below(6) as usize];
            let length = match rng.below(8) {
                0 => 0,
                1 => overhead.saturating_sub(1),
                2 => overhead,
                3 => b.saturating_sub(1),
                4 => b,
                5 => b + 1,
                6 => u64::MAX - rng.below(1 << 20),
                _ => rng.below(5_000_000),
            };
            let kind = match rng.below(5) {
                0 => IntervalKind::Interior { reaccess: true },
                1 => IntervalKind::Interior { reaccess: false },
                2 => IntervalKind::Leading,
                3 => IntervalKind::Trailing,
                _ => IntervalKind::Untouched,
            };
            let class = IntervalClass {
                length,
                kind,
                wake: WakeHints {
                    next_line: rng.below(2) == 1,
                    stride: rng.below(2) == 1,
                },
                dirty: rng.below(2) == 1,
            };
            dist.add(class, 1 + rng.below(1_000_000));
        }

        let batch = GeneralizedModel::optimal_savings_batch(&models, &dist);
        if batch.len() != models.len() {
            return CheckOutcome::fail(
                NAME,
                format!(
                    "group {group}: {} results for {} models",
                    batch.len(),
                    models.len()
                ),
            );
        }
        for (k, (model, got)) in models.iter().zip(&batch).enumerate() {
            let ctx = model.context();
            let b = ctx.inflection_points().drowsy_sleep;
            let oracle = [
                ctx.evaluate(&OptDrowsy, &dist).saving_percent(),
                ctx.evaluate(&OptSleep::new(b), &dist).saving_percent(),
                ctx.evaluate(&OptHybrid::new(), &dist).saving_percent(),
            ];
            let fused = [got.opt_drowsy, got.opt_sleep, got.opt_hybrid];
            if fused.map(f64::to_bits) != oracle.map(f64::to_bits) {
                return CheckOutcome::fail(
                    NAME,
                    format!(
                        "group {group} model {k} ({node:?} {accounting:?} writeback {writeback:?} C_D {}): batch {fused:?} vs per-policy {oracle:?}",
                        model.refetch_energy()
                    ),
                );
            }
            compared += 3;
        }
    }
    CheckOutcome::pass(
        NAME,
        format!("{compared} savings bit-identical over {groups} groups"),
    )
}

/// Runs the full differential suite. `scale` bounds the workload
/// replays (the fuzz and analytic checks are scale-independent);
/// `theorem_instances` sizes the Theorem 1 sweep — the acceptance
/// threshold is 10 000.
pub fn run_conformance(scale: Scale, theorem_instances: u32) -> ConformanceReport {
    let mut report = ConformanceReport::default();
    report.checks.push(check_theorem_dp(theorem_instances));
    report.checks.push(check_fig6());
    report.checks.push(check_cache_fuzz(200));
    report.checks.push(check_extractor_fuzz(200));
    report.checks.push(check_streaming_intervals(200));
    report.checks.push(check_prefetch_fuzz(200));
    report.checks.push(check_opt_batch_bitwise(64));
    let (cache, extract) = check_workloads(scale);
    report.checks.push(cache);
    report.checks.push(extract);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates_verdicts() {
        let mut report = ConformanceReport::default();
        report.checks.push(CheckOutcome::pass("a", String::new()));
        assert!(report.all_passed());
        report.checks.push(CheckOutcome::fail("b", "broke".into()));
        assert!(!report.all_passed());
        assert_eq!(report.failures(), vec!["b"]);
    }
}
