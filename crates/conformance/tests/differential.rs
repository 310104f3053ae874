//! The differential conformance suite as a test battery.
//!
//! These tests are the acceptance gates of the conformance subsystem:
//! the greedy policy must equal the brute-force DP minimum on at least
//! 10 000 random (params, interval-set) instances, and the production
//! cache simulator and interval extractor must match the naive
//! references exactly on all six synthetic workloads at test scale.
//! `repro --conformance` runs the same checks via
//! [`leakage_conformance::run_conformance`].

use leakage_conformance::harness::{
    check_cache_fuzz, check_extractor_fuzz, check_fig6, check_opt_batch_bitwise,
    check_prefetch_fuzz, check_streaming_intervals, check_theorem_dp, check_workloads,
};
use leakage_conformance::run_conformance;
use leakage_workloads::Scale;

#[test]
fn greedy_equals_dp_on_ten_thousand_instances() {
    let outcome = check_theorem_dp(10_000);
    assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
}

#[test]
fn fig6_interpreter_matches_generalized_model() {
    let outcome = check_fig6();
    assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
}

#[test]
fn batched_opt_evaluator_is_bit_identical_to_per_policy_walks() {
    let outcome = check_opt_batch_bitwise(200);
    assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
}

#[test]
fn production_cache_matches_reference_on_fuzz_traces() {
    let outcome = check_cache_fuzz(500);
    assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
}

#[test]
fn streaming_extractors_match_quadratic_references_on_fuzz_traces() {
    let outcome = check_extractor_fuzz(500);
    assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
}

#[test]
fn streaming_line_extractor_matches_oracle_on_fuzz_and_isa_programs() {
    let outcome = check_streaming_intervals(500);
    assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
}

#[test]
fn prefetchers_match_references_on_fuzz_streams() {
    let outcome = check_prefetch_fuzz(500);
    assert!(outcome.passed, "{}: {}", outcome.name, outcome.detail);
}

#[test]
fn workloads_match_references_exactly_at_test_scale() {
    let (cache, extract) = check_workloads(Scale::Test);
    assert!(cache.passed, "{}: {}", cache.name, cache.detail);
    assert!(extract.passed, "{}: {}", extract.name, extract.detail);
}

#[test]
fn full_suite_reports_every_check() {
    // A fast full-suite pass exercising the aggregate report shape the
    // repro CLI consumes (instance counts reduced; the heavyweight
    // gates above run the real acceptance sizes).
    let report = run_conformance(Scale::Custom(20_000), 500);
    assert_eq!(report.checks.len(), 9);
    assert!(report.all_passed(), "failures: {:?}", report.failures());
}
