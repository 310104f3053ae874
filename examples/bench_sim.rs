//! Single-thread throughput of the per-access simulation kernel, in
//! accesses per second, as a ladder of steps that each add one layer
//! to the same loop over the benchmark's generator:
//!
//! * `workloads` — the generator alone, its accesses discarded;
//! * `cachesim` — plus `Hierarchy::access`;
//! * `intervals` — plus the L1 interval extractor and dense tally,
//!   closing every interval at the end;
//! * `prefetch` — plus the prefetch analyzers, the wake triggers and
//!   the prediction table: every access through the pipeline's full
//!   path;
//! * `profile_benchmark` — the fused profiling path the suite runs.
//!
//! The first four steps sum to the full path by construction, so each
//! step's increment over the previous one is that layer's cost. The
//! fused row differs from `prefetch` by what the pipeline skips (its
//! same-line fetch fast path) and by inlining.
//!
//! Each step runs over two families: the six SPEC analogs and the
//! executed `isa:*` programs, every benchmark at `Scale::Small`
//! (2M cycles). Rounds interleave the steps (rotating which goes
//! first); the report gives each (family, step) pair's median and
//! quartiles over the rounds. Before timing, the `cachesim` and
//! `prefetch` steps' L1 counters, and the `prefetch` step's prefetch
//! counters, are checked against the profiles', so every step
//! simulates the same accesses.
//!
//! ```text
//! cargo run --release --example bench_sim -- [--commit SHA]
//! ```
//!
//! `scripts/bench_sim.sh` runs it and writes `results/BENCH_sim.json`.

use cache_leakage_limits::cachesim::{CacheStats, Hierarchy, HierarchyConfig, Level1};
use cache_leakage_limits::experiments::profile_benchmark;
use cache_leakage_limits::intervals::{IntervalExtractor, IntervalTally, WakeHints};
use cache_leakage_limits::prefetch::{PrefetchAnalyzer, PrefetchStats, WakeTrigger};
use cache_leakage_limits::telemetry::json;
use cache_leakage_limits::trace::{Cycle, LineAddr, MemoryAccess, TraceSink, TraceSource};
use cache_leakage_limits::workloads::{by_name, Scale, ISA_SUITE_NAMES, SUITE_NAMES};
use std::hint::black_box;
use std::time::Instant;

mod bench_util;
use bench_util::{commit_arg, quartiles};

/// The ladder, in perfbench's layer names, then the fused path.
const STEPS: [&str; 5] = [
    "workloads",
    "cachesim",
    "intervals",
    "prefetch",
    "profile_benchmark",
];

/// Interleaved rounds; each times every step over both families once.
const ROUNDS: usize = 5;

const SCALE: Scale = Scale::Small;

/// One L1 side's analysis state in the ladder.
struct Side {
    extractor: IntervalExtractor,
    tally: IntervalTally,
    analyzer: PrefetchAnalyzer,
    /// Direct-mapped table of predictions for non-resident lines, the
    /// pipeline's: a fill of a predicted line makes the interval it
    /// closes prefetchable.
    predictions: Vec<Option<(LineAddr, Cycle, WakeHints)>>,
}

impl Side {
    const PREDICTION_SLOTS: usize = 16 * 1024;

    fn new(frames: u32, analyzer: PrefetchAnalyzer) -> Self {
        Side {
            extractor: IntervalExtractor::new(frames),
            tally: IntervalTally::new(),
            analyzer,
            predictions: vec![None; Self::PREDICTION_SLOTS],
        }
    }

    fn slot(line: LineAddr) -> usize {
        line.index() as usize & (Self::PREDICTION_SLOTS - 1)
    }
}

/// The first `DEPTH` layers of the pipeline over one access stream:
/// 1 discards the accesses, 2 adds the hierarchy, 3 the extractor and
/// tally, 4 the prefetch analysis. Every access takes the full path.
struct Ladder<const DEPTH: u8> {
    hierarchy: Hierarchy,
    icache: Side,
    dcache: Side,
    triggers: Vec<WakeTrigger>,
    end: Cycle,
}

impl<const DEPTH: u8> Ladder<DEPTH> {
    fn new() -> Self {
        let config = HierarchyConfig::alpha_like();
        Ladder {
            icache: Side::new(
                config.l1i.num_frames(),
                PrefetchAnalyzer::for_instruction_cache(config.l1i.line_bits()),
            ),
            dcache: Side::new(
                config.l1d.num_frames(),
                PrefetchAnalyzer::for_data_cache(config.l1d.line_bits()),
            ),
            hierarchy: Hierarchy::new(config),
            triggers: Vec::with_capacity(4),
            end: Cycle::ZERO,
        }
    }

    /// Closes the open intervals (from the `intervals` step on) and
    /// returns the L1 and prefetch counters.
    fn finish(self) -> [(CacheStats, PrefetchStats); 2] {
        let Ladder {
            hierarchy,
            icache,
            dcache,
            end,
            ..
        } = self;
        let mut counters = [(CacheStats::default(), PrefetchStats::default()); 2];
        for (i, (mut side, level)) in [(icache, Level1::Instruction), (dcache, Level1::Data)]
            .into_iter()
            .enumerate()
        {
            if DEPTH >= 3 {
                side.extractor.finish(end, &mut side.tally);
                black_box(side.tally.into_dist());
            }
            counters[i] = (*hierarchy.l1(level).stats(), side.analyzer.stats());
        }
        counters
    }
}

impl<const DEPTH: u8> TraceSink for Ladder<DEPTH> {
    fn accept(&mut self, access: MemoryAccess) {
        if DEPTH < 2 {
            black_box(access);
            return;
        }
        let event = self.hierarchy.access(&access).l1;
        if DEPTH < 3 {
            return;
        }
        let side = match event.cache {
            Level1::Instruction => &mut self.icache,
            Level1::Data => &mut self.dcache,
        };
        if DEPTH >= 4 && !event.hit {
            let slot = Side::slot(event.line);
            if let Some((line, when, hints)) = side.predictions[slot] {
                if line == event.line {
                    side.predictions[slot] = None;
                    let in_interval = side
                        .extractor
                        .last_access(event.frame)
                        .is_none_or(|start| when >= start);
                    if in_interval {
                        side.extractor.mark_wake(event.frame, hints);
                    }
                }
            }
        }
        let now_dirty = self.hierarchy.l1(event.cache).frame_dirty(event.frame);
        side.extractor.on_access_full(
            event.frame,
            event.cycle,
            event.hit,
            now_dirty,
            &mut side.tally,
        );
        if access.cycle >= self.end {
            self.end = access.cycle.advanced(1);
        }
        if DEPTH < 4 {
            return;
        }
        side.analyzer.observe_into(&access, &mut self.triggers);
        let cache = self.hierarchy.l1(event.cache);
        for trigger in &self.triggers {
            if let Some(frame) = cache.probe(trigger.line) {
                side.extractor.mark_wake(frame, trigger.hints);
            } else {
                let slot = Side::slot(trigger.line);
                let hints = match side.predictions[slot] {
                    Some((line, _, old)) if line == trigger.line => old.union(trigger.hints),
                    _ => trigger.hints,
                };
                side.predictions[slot] = Some((trigger.line, access.cycle, hints));
            }
        }
    }
}

/// Runs `name` through the first `DEPTH` layers: seconds taken,
/// accesses generated, and the counters at the end.
fn run_ladder<const DEPTH: u8>(name: &str) -> (f64, u64, [(CacheStats, PrefetchStats); 2]) {
    let mut bench = by_name(name, SCALE).expect("suite benchmark resolves");
    let started = Instant::now();
    let mut ladder = Ladder::<DEPTH>::new();
    bench.run(&mut ladder);
    let counters = black_box(ladder.finish());
    let seconds = started.elapsed().as_secs_f64();
    (
        seconds,
        counters[0].0.accesses + counters[1].0.accesses,
        counters,
    )
}

/// Seconds to run every benchmark of a family through `step`.
fn time_step(step: usize, names: &[&str]) -> f64 {
    let mut seconds = 0.0;
    for name in names {
        seconds += match step {
            0 => run_ladder::<1>(name).0,
            1 => run_ladder::<2>(name).0,
            2 => run_ladder::<3>(name).0,
            3 => run_ladder::<4>(name).0,
            _ => {
                let mut bench = by_name(name, SCALE).expect("suite benchmark resolves");
                let started = Instant::now();
                black_box(profile_benchmark(&mut bench));
                started.elapsed().as_secs_f64()
            }
        };
    }
    seconds
}

fn main() {
    let commit = commit_arg("bench_sim");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let families: [(&str, &[&str]); 2] = [("spec", &SUITE_NAMES), ("isa", &ISA_SUITE_NAMES)];

    // Every step must simulate the same accesses before any is timed.
    let mut accesses = vec![0u64; families.len()];
    for (family, (_, names)) in families.iter().enumerate() {
        for name in *names {
            let profile = profile_benchmark(&mut by_name(name, SCALE).expect("resolves"));
            let fused = [
                (profile.icache.cache, profile.icache.prefetch),
                (profile.dcache.cache, profile.dcache.prefetch),
            ];
            let (_, count, hierarchy) = run_ladder::<2>(name);
            let (_, _, full) = run_ladder::<4>(name);
            for side in 0..2 {
                assert_eq!(
                    hierarchy[side].0, fused[side].0,
                    "{name}: cachesim L1 counters"
                );
                assert_eq!(full[side], fused[side], "{name}: prefetch step counters");
            }
            accesses[family] += count;
        }
    }

    // rates[family][step] holds one accesses/s figure per round, over
    // the accesses the family simulates (the `workloads` step
    // generates the same accesses and simulates none).
    let mut rates: Vec<[Vec<f64>; STEPS.len()]> = vec![Default::default(); families.len()];
    for round in 0..ROUNDS {
        for turn in 0..STEPS.len() {
            let step = (round + turn) % STEPS.len();
            for (family, (_, names)) in families.iter().enumerate() {
                let seconds = time_step(step, names);
                rates[family][step].push(accesses[family] as f64 / seconds);
            }
        }
    }

    let report_families = families.iter().enumerate().map(|(i, (family, names))| {
        json::key(family) + &family_report(names.len(), accesses[i], &rates[i])
    });
    let report = json::object([
        json::key("schema") + &json::string("bench_sim/2"),
        json::key("commit") + &json::string(&commit),
        json::key("nproc") + &nproc.to_string(),
        json::key("threads") + "1",
        json::key("scale_cycles") + &SCALE.cycles().to_string(),
        json::key("rounds") + &ROUNDS.to_string(),
        json::key("families") + &json::object(report_families),
    ]);
    println!("{report}");
}

/// One family's JSON object: its size and each step's rates, with the
/// step's median ns/access over the previous step's.
fn family_report(benchmarks: usize, accesses: u64, rates: &[Vec<f64>; STEPS.len()]) -> String {
    let mut previous_ns = 0.0;
    let steps = STEPS.iter().zip(rates).map(|(name, rates)| {
        let (q1, median, q3) = quartiles(rates);
        let ns = 1e9 / median;
        let increment = ns - previous_ns;
        previous_ns = ns;
        json::key(name)
            + &json::object([
                json::key("accesses_per_s_median") + &format!("{median:.0}"),
                json::key("accesses_per_s_q1") + &format!("{q1:.0}"),
                json::key("accesses_per_s_q3") + &format!("{q3:.0}"),
                json::key("ns_per_access_median") + &format!("{ns:.2}"),
                json::key("ns_over_previous_step") + &format!("{increment:.2}"),
            ])
    });
    json::object([
        json::key("benchmarks") + &benchmarks.to_string(),
        json::key("accesses") + &accesses.to_string(),
        json::key("steps") + &json::object(steps),
    ])
}
