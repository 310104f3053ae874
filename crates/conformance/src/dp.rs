//! Brute-force minimizers over per-interval mode assignments.
//!
//! Theorem 1 says the greedy choice — pick each interval's mode from its
//! length against the inflection points — achieves the *global* minimum
//! over all ways of assigning a mode to every interval. The production
//! code embodies the greedy side (`EnergyContext::optimal_energy`,
//! `OptHybrid`); this module embodies the other side of the theorem:
//!
//! * [`min_energy_dp`] — a dynamic program over the interval sequence
//!   whose state is the interval index and whose choice set is the mode
//!   of that interval. Intervals do not interact (every interval's
//!   energy includes its own ramps back to full voltage, Eq. 1/Eq. 2),
//!   so the DP is exact, and it scales to the millions of interval
//!   classes a workload profile produces.
//! * [`min_energy_exhaustive`] — literal enumeration of all `3^n` mode
//!   assignments for small `n`, the ground truth the DP itself is
//!   checked against.
//!
//! Both treat a mode that cannot physically fit an interval (too short
//! for its transition latencies) as unavailable, exactly like the
//! production feasibility rule (`EnergyContext::mode_energy` returning
//! `None`). Active is always feasible, so a minimum always exists.

use leakage_core::{EnergyContext, PowerMode};
use leakage_intervals::{CompactIntervalDist, IntervalClass};

/// Minimum total energy over all per-interval mode assignments, by
/// dynamic programming over the interval sequence.
///
/// `dp[i][m]` is the least energy of the first `i` interval classes with
/// class `i` resting in mode `m`; because interval energies are
/// self-contained, the transition cost between stages is zero and the
/// recurrence is `dp[i][m] = min_m' dp[i-1][m'] + count_i * E(m, class_i)`.
/// The answer is `min_m dp[n][m]`.
pub fn min_energy_dp(ctx: &EnergyContext, dist: &CompactIntervalDist) -> f64 {
    // One DP stage per class; the running value is min_m' dp[i-1][m'].
    let mut best_prev = 0.0f64;
    for (class, count) in dist.iter() {
        let mut stage_best = f64::INFINITY;
        for &mode in &PowerMode::ALL {
            if let Some(e) = ctx.mode_energy(mode, class) {
                let candidate = best_prev + e * count as f64;
                if candidate < stage_best {
                    stage_best = candidate;
                }
            }
        }
        best_prev = stage_best;
    }
    best_prev
}

/// Minimum total energy over all `3^n` mode assignments, by literal
/// enumeration. Ground truth for [`min_energy_dp`] and for the greedy
/// production policies on small instances.
///
/// Assignments containing a mode that is infeasible for its interval
/// are skipped (that schedule cannot physically execute). The all-active
/// assignment is always feasible.
///
/// # Panics
///
/// Panics if `classes.len() > 16` — `3^17` assignments is past the
/// point where "brute force" stops being a test strategy.
pub fn min_energy_exhaustive(ctx: &EnergyContext, classes: &[IntervalClass]) -> f64 {
    assert!(
        classes.len() <= 16,
        "exhaustive enumeration capped at 16 intervals, got {}",
        classes.len()
    );
    let n = classes.len();
    let total_assignments = 3usize.pow(n as u32);
    let mut best = f64::INFINITY;
    for assignment in 0..total_assignments {
        let mut code = assignment;
        let mut total = 0.0f64;
        let mut feasible = true;
        for class in classes {
            let mode = PowerMode::ALL[code % 3];
            code /= 3;
            match ctx.mode_energy(mode, class) {
                Some(e) => total += e,
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible && total < best {
            best = total;
        }
    }
    best
}

/// Total energy of the production greedy choice: each interval
/// independently takes its feasible argmin mode
/// (`EnergyContext::optimal_energy`). Theorem 1 claims this equals
/// [`min_energy_dp`] / [`min_energy_exhaustive`].
pub fn greedy_energy(ctx: &EnergyContext, dist: &CompactIntervalDist) -> f64 {
    dist.iter()
        .map(|(class, count)| ctx.optimal_energy(class) * count as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy_close;
    use leakage_core::RefetchAccounting;
    use leakage_energy::{CircuitParams, TechnologyNode};
    use leakage_intervals::{IntervalKind, WakeHints};

    fn ctx() -> EnergyContext {
        EnergyContext::new(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::PaperStrict,
        )
    }

    fn interior(length: u64) -> IntervalClass {
        IntervalClass {
            length,
            kind: IntervalKind::Interior { reaccess: true },
            wake: WakeHints::NONE,
            dirty: false,
        }
    }

    #[test]
    fn dp_matches_exhaustive_on_mixed_lengths() {
        let ctx = ctx();
        let classes: Vec<_> = [3, 6, 7, 500, 1057, 1058, 50_000]
            .iter()
            .map(|&l| interior(l))
            .collect();
        let mut dist = CompactIntervalDist::new();
        for class in &classes {
            dist.add(*class, 1);
        }
        let dp = min_energy_dp(&ctx, &dist);
        let exhaustive = min_energy_exhaustive(&ctx, &classes);
        assert!(
            energy_close(dp, exhaustive),
            "dp {dp} vs exhaustive {exhaustive}"
        );
    }

    #[test]
    fn greedy_achieves_the_dp_minimum() {
        let ctx = ctx();
        let mut dist = CompactIntervalDist::new();
        for (length, count) in [(4, 100), (300, 50), (5_000, 20), (2_000_000, 2)] {
            dist.add(interior(length), count);
        }
        let greedy = greedy_energy(&ctx, &dist);
        let dp = min_energy_dp(&ctx, &dist);
        assert!(energy_close(greedy, dp), "greedy {greedy} vs dp {dp}");
    }

    #[test]
    fn empty_distribution_costs_nothing() {
        let ctx = ctx();
        assert_eq!(min_energy_dp(&ctx, &CompactIntervalDist::new()), 0.0);
        assert_eq!(min_energy_exhaustive(&ctx, &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "capped at 16")]
    fn exhaustive_refuses_large_instances() {
        let classes = vec![interior(10); 17];
        let _ = min_energy_exhaustive(&ctx(), &classes);
    }
}
