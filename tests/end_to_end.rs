//! Cross-crate integration: the full pipeline on every benchmark.

use cache_leakage_limits::cachesim::Level1;
use cache_leakage_limits::core::policy::{
    AlwaysActive, DecaySleep, OptDrowsy, OptHybrid, OptSleep, PrefetchGuided, PrefetchScheme,
};
use cache_leakage_limits::core::{CircuitParams, EnergyContext, LeakagePolicy, RefetchAccounting};
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::{profile_benchmark, profile_suite};
use cache_leakage_limits::workloads::{suite, Scale};

fn ctx() -> EnergyContext {
    EnergyContext::new(
        CircuitParams::for_node(TechnologyNode::N70),
        RefetchAccounting::PaperStrict,
    )
}

#[test]
fn every_benchmark_satisfies_coverage_invariant() {
    for mut bench in suite(Scale::Test) {
        let name = bench.name();
        let profile = profile_benchmark(&mut bench);
        assert!(profile.icache.covers_timeline(), "{name} icache");
        assert!(profile.dcache.covers_timeline(), "{name} dcache");
        assert!(profile.icache.cache.accesses > 0, "{name}");
        assert!(profile.dcache.cache.accesses > 0, "{name}");
    }
}

#[test]
fn policy_orderings_hold_everywhere() {
    let ctx = ctx();
    let policies: Vec<Box<dyn LeakagePolicy>> = vec![
        Box::new(AlwaysActive),
        Box::new(OptDrowsy),
        Box::new(DecaySleep::ten_k()),
        Box::new(OptSleep::ten_k()),
        Box::new(OptHybrid::new()),
        Box::new(PrefetchGuided::new(PrefetchScheme::A)),
        Box::new(PrefetchGuided::new(PrefetchScheme::B)),
    ];
    for mut bench in suite(Scale::Test) {
        let name = bench.name();
        let profile = profile_benchmark(&mut bench);
        for side in [Level1::Instruction, Level1::Data] {
            let dist = &profile.side(side).dist;
            let savings: Vec<(String, f64)> = policies
                .iter()
                .map(|p| {
                    let eval = ctx.evaluate(p.as_ref(), dist);
                    assert_eq!(eval.infeasible_fallbacks, 0, "{name}/{side}: {}", p.name());
                    (p.name().to_string(), eval.saving_fraction())
                })
                .collect();
            let get = |label: &str| {
                savings
                    .iter()
                    .find(|(n, _)| n == label)
                    .map(|(_, s)| *s)
                    .unwrap()
            };
            // Bounds.
            for (policy, saving) in &savings {
                assert!(
                    (0.0..=1.0).contains(saving),
                    "{name}/{side}/{policy}: {saving}"
                );
            }
            // The baseline saves nothing; the oracle hybrid dominates all.
            assert_eq!(get("Always-Active"), 0.0);
            let hybrid = get("OPT-Hybrid");
            for (policy, saving) in &savings {
                assert!(
                    hybrid + 1e-9 >= *saving,
                    "{name}/{side}: OPT-Hybrid ({hybrid}) beaten by {policy} ({saving})"
                );
            }
            // Oracle sleep dominates implementable decay at the same
            // threshold; Prefetch-B dominates Prefetch-A.
            assert!(
                get("OPT-Sleep(10K)") + 1e-9 >= get("Sleep(10K)"),
                "{name}/{side}"
            );
            assert!(
                get("Prefetch-B") + 1e-9 >= get("Prefetch-A"),
                "{name}/{side}"
            );
        }
    }
}

#[test]
fn savings_improve_as_technology_shrinks() {
    let mut bench = suite(Scale::Test).remove(1); // applu
    let profile = profile_benchmark(&mut bench);
    let mut prev = f64::INFINITY;
    for node in TechnologyNode::ALL {
        let ctx = EnergyContext::new(
            CircuitParams::for_node(node),
            RefetchAccounting::PaperStrict,
        );
        let saving = ctx
            .evaluate(&OptHybrid::new(), &profile.dcache.dist)
            .saving_fraction();
        assert!(
            saving <= prev + 1e-9,
            "hybrid savings should not grow at older nodes"
        );
        prev = saving;
    }
}

#[test]
fn suite_profiling_is_deterministic_and_parallel_consistent() {
    // The rayon-parallel (and memoized) suite profiling equals
    // sequential runs.
    let parallel = profile_suite(Scale::Test);
    let names: Vec<&str> = parallel.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, ["ammp", "applu", "gcc", "gzip", "mesa", "vortex"]);
    for (mut bench, parallel_profile) in suite(Scale::Test).into_iter().zip(&parallel) {
        let sequential = profile_benchmark(&mut bench);
        assert_eq!(sequential.icache.dist, parallel_profile.icache.dist);
        assert_eq!(sequential.dcache.dist, parallel_profile.dcache.dist);
        assert_eq!(sequential.icache.prefetch, parallel_profile.icache.prefetch);
    }
}

#[test]
fn dead_aware_accounting_only_helps() {
    let strict = ctx();
    let aware = EnergyContext::new(
        CircuitParams::for_node(TechnologyNode::N70),
        RefetchAccounting::DeadAware,
    );
    for mut bench in suite(Scale::Test) {
        let profile = profile_benchmark(&mut bench);
        for side in [Level1::Instruction, Level1::Data] {
            let dist = &profile.side(side).dist;
            let s = strict.evaluate(&OptHybrid::new(), dist).saving_fraction();
            let a = aware.evaluate(&OptHybrid::new(), dist).saving_fraction();
            assert!(a + 1e-12 >= s, "{}/{side}", profile.name);
            // And per the paper, the refinement is small in the optimal
            // case (well under ten percentage points).
            assert!(
                a - s < 0.10,
                "{}/{side}: dead refinement {}",
                profile.name,
                a - s
            );
        }
    }
}
