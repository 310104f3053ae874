//! Single-thread throughput of the per-access simulation kernel, in
//! accesses per second, along two paths:
//!
//! * `hierarchy_access` — `Hierarchy::access` alone, replaying a trace
//!   generated beforehand (generation is not timed);
//! * `profile_benchmark` — the fused profiling path the suite runs:
//!   generator, hierarchy, interval extractor, dense tally and
//!   prefetch analysis in one pass over the benchmark.
//!
//! Each path runs over two families: the six SPEC analogs and the
//! executed `isa:*` programs, every benchmark at `Scale::Small`
//! (2M cycles). Rounds interleave the two paths (alternating which goes
//! first); the report gives each (family, path) pair's median and
//! quartiles over the rounds. Before timing, the replayed hierarchy's
//! L1 counters are checked against the profiles', so both paths
//! simulate the same accesses.
//!
//! ```text
//! cargo run --release --example bench_sim -- [--commit SHA]
//! ```
//!
//! `scripts/bench_sim.sh` runs it and writes `results/BENCH_sim.json`.

use cache_leakage_limits::cachesim::{Hierarchy, HierarchyConfig};
use cache_leakage_limits::experiments::profile_benchmark;
use cache_leakage_limits::telemetry::json;
use cache_leakage_limits::trace::{MemoryAccess, TraceSource};
use cache_leakage_limits::workloads::{by_name, Scale, ISA_SUITE_NAMES, SUITE_NAMES};
use std::hint::black_box;
use std::time::Instant;

mod bench_util;
use bench_util::{commit_arg, quartiles};

const PATHS: [&str; 2] = ["hierarchy_access", "profile_benchmark"];

/// Interleaved rounds; each times both paths over both families once.
const ROUNDS: usize = 5;

const SCALE: Scale = Scale::Small;

/// The benchmark's accesses, generated up front.
fn trace_of(name: &str) -> Vec<MemoryAccess> {
    let mut trace = Vec::new();
    by_name(name, SCALE)
        .expect("suite benchmark resolves")
        .run(&mut trace);
    trace
}

/// Seconds to replay every benchmark's trace through a fresh
/// hierarchy, and the accesses replayed. Traces are generated one
/// benchmark at a time, outside the timed region.
fn time_hierarchy(names: &[&str]) -> (f64, u64) {
    let mut seconds = 0.0;
    let mut accesses = 0;
    for name in names {
        let trace = trace_of(name);
        let mut hierarchy = Hierarchy::new(HierarchyConfig::alpha_like());
        let started = Instant::now();
        for access in black_box(&trace) {
            black_box(hierarchy.access(access));
        }
        seconds += started.elapsed().as_secs_f64();
        accesses += trace.len() as u64;
    }
    (seconds, accesses)
}

/// Seconds to profile every benchmark on the fused path, and the L1
/// accesses simulated.
fn time_profiles(names: &[&str]) -> (f64, u64) {
    let mut seconds = 0.0;
    let mut accesses = 0;
    for name in names {
        let mut bench = by_name(name, SCALE).expect("suite benchmark resolves");
        let started = Instant::now();
        let profile = black_box(profile_benchmark(&mut bench));
        seconds += started.elapsed().as_secs_f64();
        accesses += profile.icache.cache.accesses + profile.dcache.cache.accesses;
    }
    (seconds, accesses)
}

fn main() {
    let commit = commit_arg("bench_sim");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let families: [(&str, &[&str]); 2] = [("spec", &SUITE_NAMES), ("isa", &ISA_SUITE_NAMES)];

    // Both paths must simulate the same accesses before either is timed.
    for (_, names) in &families {
        for name in *names {
            let trace = trace_of(name);
            let mut hierarchy = Hierarchy::new(HierarchyConfig::alpha_like());
            for access in &trace {
                hierarchy.access(access);
            }
            let profile = profile_benchmark(&mut by_name(name, SCALE).expect("resolves"));
            assert_eq!(
                *hierarchy.l1i().stats(),
                profile.icache.cache,
                "{name}: replayed L1I counters differ from the profile's"
            );
            assert_eq!(
                *hierarchy.l1d().stats(),
                profile.dcache.cache,
                "{name}: replayed L1D counters differ from the profile's"
            );
        }
    }

    // rates[family][path] holds one accesses/s figure per round.
    let mut rates: Vec<[Vec<f64>; 2]> = vec![Default::default(); families.len()];
    let mut accesses = vec![0u64; families.len()];
    for round in 0..ROUNDS {
        for turn in 0..PATHS.len() {
            let path = (round + turn) % PATHS.len();
            for (family, (_, names)) in families.iter().enumerate() {
                let (seconds, count) = match path {
                    0 => time_hierarchy(names),
                    _ => time_profiles(names),
                };
                accesses[family] = count;
                rates[family][path].push(count as f64 / seconds);
            }
        }
    }

    let report_families = families.iter().enumerate().map(|(i, (family, names))| {
        json::key(family) + &family_report(names.len(), accesses[i], &rates[i])
    });
    let report = json::object([
        json::key("schema") + &json::string("bench_sim/1"),
        json::key("commit") + &json::string(&commit),
        json::key("nproc") + &nproc.to_string(),
        json::key("threads") + "1",
        json::key("scale_cycles") + &SCALE.cycles().to_string(),
        json::key("rounds") + &ROUNDS.to_string(),
        json::key("families") + &json::object(report_families),
    ]);
    println!("{report}");
}

/// One family's JSON object: its size and each path's rates.
fn family_report(benchmarks: usize, accesses: u64, rates: &[Vec<f64>; 2]) -> String {
    let paths = PATHS.iter().zip(rates).map(|(name, rates)| {
        let (q1, median, q3) = quartiles(rates);
        json::key(name)
            + &json::object([
                json::key("accesses_per_s_median") + &format!("{median:.0}"),
                json::key("accesses_per_s_q1") + &format!("{q1:.0}"),
                json::key("accesses_per_s_q3") + &format!("{q3:.0}"),
                json::key("ns_per_access_median") + &format!("{:.2}", 1e9 / median),
            ])
    });
    json::object([
        json::key("benchmarks") + &benchmarks.to_string(),
        json::key("accesses") + &accesses.to_string(),
        json::key("paths") + &json::object(paths),
    ])
}
