//! Single-thread throughput of generalized-model sweep evaluation, in
//! points per second, along four paths over one job-shaped sweep:
//!
//! * `per_policy_oracle` — three `EnergyContext::evaluate` walks per
//!   point (`OPT-Drowsy`, `OPT-Sleep(b)`, `OPT-Hybrid`), the reference
//!   the fused evaluator must match bit for bit;
//! * `optimal_savings_k1` — `JobPoint::evaluate`, one fused walk per
//!   point (the `POST /v1/sweep` path);
//! * `grouped_chunk` — `protocol::chunk_response` over every chunk,
//!   one walk per (benchmark, side, node) run, including row rendering
//!   and the chunk checksum, as a job worker runs it;
//! * `sweep_route_point` — what a `POST /v1/sweep` point costs once its
//!   profile has answered: a memo hit
//!   (`BenchmarkProfile::optimal_savings`) plus `render_sweep_row`.
//!   The route has no refetch axis, so each point reads its
//!   (benchmark, side, node) cell's answer at the calibrated `C_D`.
//!
//! The sweep is the `sweep_job` benchmark's shape at test scale: every
//! suite and ISA benchmark × both L1 sides × the four nodes × 192
//! refetch-permille values, 1,024-point chunks (18,432 points). Rounds
//! interleave the paths, rotating which goes first, and the report
//! gives each path's median and quartiles over the rounds. Before
//! timing, the first three paths are checked to produce the same rows,
//! and every memo answer is checked to render the row
//! `optimal_savings_k1` gives its cell at the calibrated `C_D`.
//!
//! ```text
//! cargo run --release --example bench_core -- [--commit SHA]
//! ```
//!
//! `scripts/bench_core.sh` runs it and writes `results/BENCH_core.json`.

use cache_leakage_limits::cachesim::Level1;
use cache_leakage_limits::core::policy::{OptDrowsy, OptHybrid, OptSleep};
use cache_leakage_limits::core::OptimalSavings;
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::{BenchmarkProfile, ProfileStore};
use cache_leakage_limits::jobs::checkpoint::decode_chunk;
use cache_leakage_limits::jobs::protocol::{chunk_response, Assign};
use cache_leakage_limits::jobs::{
    render_job_row, render_sweep_row, JobPoint, JobSpec, PermilleAxis,
};
use cache_leakage_limits::telemetry::json;
use cache_leakage_limits::workloads::{Scale, ISA_SUITE_NAMES, SUITE_NAMES};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

mod bench_util;
use bench_util::{commit_arg, quartiles};

const PATHS: [&str; 4] = [
    "per_policy_oracle",
    "optimal_savings_k1",
    "grouped_chunk",
    "sweep_route_point",
];

/// Interleaved rounds; each times every path once.
const ROUNDS: usize = 5;

fn main() {
    let commit = commit_arg("bench_core");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());

    let spec = JobSpec::build(
        "bench-core",
        Scale::Test,
        SUITE_NAMES
            .iter()
            .chain(ISA_SUITE_NAMES.iter())
            .map(|s| s.to_string())
            .collect(),
        vec![Level1::Instruction, Level1::Data],
        TechnologyNode::ALL.to_vec(),
        PermilleAxis {
            from: 500,
            to: 691,
            step: 1,
        },
        1024,
    )
    .expect("benchmark spec is valid");
    let store = ProfileStore::new();
    let profiles: HashMap<String, Arc<BenchmarkProfile>> = spec
        .benchmarks
        .iter()
        .map(|name| (name.clone(), store.fetch(name, spec.scale)))
        .collect();
    let points: Vec<_> = (0..spec.point_count()).map(|i| spec.point(i)).collect();

    let oracle = |point: &cache_leakage_limits::jobs::JobPoint| {
        let model = point.model();
        let ctx = model.context();
        let dist = &profiles[&point.benchmark].side(point.side).dist;
        let b = ctx.inflection_points().drowsy_sleep;
        OptimalSavings {
            opt_drowsy: ctx.evaluate(&OptDrowsy, dist).saving_percent(),
            opt_sleep: ctx.evaluate(&OptSleep::new(b), dist).saving_percent(),
            opt_hybrid: ctx.evaluate(&OptHybrid::new(), dist).saving_percent(),
        }
    };
    let chunks = || {
        (0..spec.chunk_count()).map(|chunk| {
            let (start, end) = spec.chunk_range(chunk);
            chunk_response(&spec, &store, &Assign { chunk, start, end })
        })
    };

    // The first three paths must agree row for row before any is timed.
    let with_permille = spec.has_refetch_axis();
    let rows: Vec<String> = chunks()
        .flat_map(|response| {
            decode_chunk(response.as_bytes())
                .expect("chunk_response is a sealed chunk")
                .rows
        })
        .collect();
    assert_eq!(rows.len(), points.len());
    for (point, line) in points.iter().zip(&rows) {
        let expected = render_job_row(point, &oracle(point), with_permille);
        let fused = render_job_row(
            point,
            &point.evaluate(&profiles[&point.benchmark]),
            with_permille,
        );
        assert_eq!(
            fused, expected,
            "optimal_savings differs from the per-policy oracle"
        );
        assert_eq!(
            *line, expected,
            "chunk_response differs from the per-policy oracle"
        );
    }

    // Each memo answer renders the row the fused walk gives its cell at
    // the calibrated C_D; checking all cells also fills every memo.
    for (name, profile) in &profiles {
        for side in &spec.sides {
            for &node in &spec.nodes {
                let k1 = JobPoint {
                    benchmark: name.clone(),
                    side: *side,
                    node,
                    refetch_permille: 1000,
                };
                assert_eq!(
                    render_sweep_row(name, *side, node, &profile.optimal_savings(*side, node)),
                    render_job_row(&k1, &k1.evaluate(profile), false),
                    "the memo differs from optimal_savings"
                );
            }
        }
    }

    let mut seconds: [Vec<f64>; 4] = Default::default();
    for round in 0..ROUNDS {
        for turn in 0..PATHS.len() {
            let path = (round + turn) % PATHS.len();
            let started = Instant::now();
            match path {
                0 => points.iter().for_each(|p| {
                    black_box(oracle(p));
                }),
                1 => points.iter().for_each(|p| {
                    black_box(p.evaluate(&profiles[&p.benchmark]));
                }),
                2 => chunks().for_each(|response| {
                    black_box(response);
                }),
                _ => points.iter().for_each(|p| {
                    let savings = profiles[&p.benchmark].optimal_savings(p.side, p.node);
                    black_box(render_sweep_row(&p.benchmark, p.side, p.node, &savings));
                }),
            }
            seconds[path].push(started.elapsed().as_secs_f64());
        }
    }

    let count = spec.point_count() as f64;
    let rates: Vec<Vec<f64>> = seconds
        .iter()
        .map(|runs| runs.iter().map(|s| count / s).collect())
        .collect();
    let oracle_median = quartiles(&rates[0]).1;
    let paths = PATHS.iter().zip(&rates).map(|(name, rates)| {
        let (q1, median, q3) = quartiles(rates);
        json::key(name)
            + &json::object([
                json::key("points_per_s_median") + &format!("{median:.0}"),
                json::key("points_per_s_q1") + &format!("{q1:.0}"),
                json::key("points_per_s_q3") + &format!("{q3:.0}"),
                json::key("us_per_point_median") + &format!("{:.2}", 1e6 / median),
                json::key("speedup_vs_oracle") + &format!("{:.2}", median / oracle_median),
            ])
    });
    let report = json::object([
        json::key("schema") + &json::string("bench_core/1"),
        json::key("commit") + &json::string(&commit),
        json::key("nproc") + &nproc.to_string(),
        json::key("threads") + "1",
        json::key("points") + &spec.point_count().to_string(),
        json::key("spec")
            + &json::string("12 benchmarks x 2 sides x 4 nodes x permille 500..=691, scale test, 1024-point chunks"),
        json::key("rounds") + &ROUNDS.to_string(),
        json::key("paths") + &json::object(paths),
    ]);
    println!("{report}");
}
