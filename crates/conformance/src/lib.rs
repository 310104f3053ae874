//! Differential conformance oracles for the leakage-limit study.
//!
//! Every number in the reproduction flows through a stack of simulators
//! — cache model, interval extractor, energy accounting, prefetch
//! analysis — and a silent divergence in any layer corrupts the results
//! without failing a test. This crate holds the *reference
//! implementations*: small, brute-force, obviously-correct versions of
//! each production component, plus a [`harness`] that replays the same
//! traces through both paths and demands agreement.
//!
//! | reference | checks | module |
//! |-----------|--------|--------|
//! | mode-assignment DP / exhaustive enumeration | Theorem 1 greedy optimality (`leakage-core`) | [`dp`] |
//! | naive MRU-list LRU cache | `leakage-cachesim` hit/miss/eviction/writeback | [`refcache`] |
//! | batch + O(n²) interval extractors | `leakage-intervals` streaming extractors | [`refextract`] |
//! | literal Fig. 6 state-machine interpreter | `leakage-core` generalized model | [`fig6`] |
//! | unbounded-table next-line / stride predictors | `leakage-prefetch` analyzers | [`refprefetch`] |
//! | per-policy `EnergyContext::evaluate` walks | `leakage-core` batched OPT evaluator, bit for bit | [`harness`] |
//!
//! The references deliberately trade every efficiency concern for
//! transparency: they buffer whole traces, scan quadratically, and
//! enumerate exponentially. They are test oracles, not simulators.
//!
//! Tolerance policy: structural quantities (hits, misses, interval
//! multisets, mode choices) must match **exactly**; energy totals are
//! compared to a relative tolerance of `1e-9` ([`ENERGY_RTOL`]), which
//! admits floating-point reassociation between the two accounting paths
//! and nothing else. The batched OPT evaluator is held to more: its
//! savings must equal the per-policy path's bit for bit.
//!
//! The `repro --conformance` mode runs the full [`harness`] suite and
//! records one verdict per check in the telemetry manifest; the same
//! checks back the `leakage-conformance` integration tests in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dp;
pub mod fig6;
pub mod golden;
pub mod harness;
pub mod refcache;
pub mod refextract;
pub mod refprefetch;

pub use harness::{run_conformance, CheckOutcome, ConformanceReport};

/// Relative tolerance for energy-total comparisons between production
/// and reference accounting. Structural comparisons are exact.
pub const ENERGY_RTOL: f64 = 1e-9;

/// Whether two energy totals agree to [`ENERGY_RTOL`].
pub fn energy_close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= ENERGY_RTOL * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_close_is_relative() {
        assert!(energy_close(1.0e12, 1.0e12 + 1.0));
        assert!(!energy_close(1.0e12, 1.001e12));
        assert!(energy_close(0.0, 0.0));
        assert!(energy_close(0.0, 1e-10));
    }
}
