//! Property-based verification of the paper's appendix (Theorem 1).
//!
//! The theorem: under the independent-interval model, assigning each
//! interval the mode dictated by the inflection points (active below
//! `a`, drowsy in `(a, b]`, sleep above `b`) minimizes total energy over
//! *all* per-interval mode assignments. We verify this against random
//! circuit parameters and random interval sets, not just the paper's
//! operating points.

use cache_leakage_limits::core::envelope::{envelope_energy, optimal_mode};
use cache_leakage_limits::core::{
    CircuitParams, EnergyContext, IntervalClass, IntervalEnergyModel, IntervalKind, ModePowers,
    ModeTimings, PowerMode, RefetchAccounting, WakeHints,
};
use proptest::prelude::*;

/// Random but physically sensible circuit parameters.
fn arb_params() -> impl Strategy<Value = CircuitParams> {
    (
        0.001f64..10.0,    // active power
        0.05f64..0.9,      // drowsy ratio
        0.0f64..0.04,      // sleep ratio
        1.0f64..100_000.0, // refetch energy in units of active power
        2u64..50,          // s1
        1u64..4,           // d ramps (d1 = d3; s3 = d3 ensures Lemma 1)
        0u64..20,          // s4
    )
        .prop_map(|(active, dr, sr, refetch_units, s1_extra, d, s4)| {
            let powers = ModePowers::from_ratios(active, dr.max(sr + 0.01), sr);
            let timings = ModeTimings {
                s1: d + s1_extra, // strictly larger than d1
                s3: d,
                s4,
                d1: d,
                d3: d,
            };
            CircuitParams::builder()
                .powers(powers)
                .timings(timings)
                .refetch_energy(refetch_units * active)
                .build()
        })
}

fn interior(length: u64) -> IntervalClass {
    IntervalClass {
        length,
        kind: IntervalKind::Interior { reaccess: true },
        wake: WakeHints::NONE,
        dirty: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lemma 1: the active-drowsy point lies strictly below the
    /// drowsy-sleep point.
    #[test]
    fn lemma1_inflection_ordering(params in arb_params()) {
        let model = IntervalEnergyModel::new(params);
        let points = model.inflection_points();
        prop_assert!(points.active_drowsy < points.drowsy_sleep,
            "a = {} must be below b = {}", points.active_drowsy, points.drowsy_sleep);
    }

    /// The classified mode's energy equals the lower envelope at every
    /// length (away from the exact inflection points, where modes tie).
    #[test]
    fn classification_achieves_envelope(
        params in arb_params(),
        length in 0u64..10_000_000,
    ) {
        let model = IntervalEnergyModel::new(params);
        let points = model.inflection_points();
        // Skip the tie points themselves.
        prop_assume!(length != points.active_drowsy && length != points.drowsy_sleep);

        let envelope = envelope_energy(&model, length);
        let mode = optimal_mode(length, &points);
        if let Some(energy) = model.energy(mode, length) {
            // Within float tolerance the classified mode is optimal.
            prop_assert!(energy <= envelope * (1.0 + 1e-9) + 1e-9,
                "mode {mode} at t={length}: {energy} > envelope {envelope}");
        } else {
            // Infeasible classified mode can only happen between a and
            // the sleep feasibility bound when b < s1+s3+s4; the solver
            // clamps b so this must not occur.
            prop_assert!(false, "classified mode infeasible at t={length}");
        }
    }

    /// Theorem 1 proper: the greedy assignment beats any constant-mode
    /// assignment over any interval multiset (linearity makes constant
    /// assignments the extreme points, and per-interval independence
    /// reduces arbitrary assignments to per-interval comparisons, which
    /// `classification_achieves_envelope` covers pointwise).
    #[test]
    fn theorem1_greedy_dominates_any_assignment(
        params in arb_params(),
        lengths in prop::collection::vec(0u64..3_000_000, 1..64),
        // A random adversary assignment, one mode per interval.
        adversary in prop::collection::vec(0u8..3, 64),
    ) {
        let ctx = EnergyContext::new(params, RefetchAccounting::PaperStrict);
        let mut greedy_total = 0.0;
        let mut adversary_total = 0.0;
        for (i, &length) in lengths.iter().enumerate() {
            let class = interior(length);
            greedy_total += ctx.optimal_energy(&class);
            let mode = match adversary[i % adversary.len()] {
                0 => PowerMode::Active,
                1 => PowerMode::Drowsy,
                _ => PowerMode::Sleep,
            };
            let (energy, _) = ctx.mode_energy_or_active(mode, &class);
            adversary_total += energy;
        }
        prop_assert!(greedy_total <= adversary_total * (1.0 + 1e-9) + 1e-9,
            "greedy {greedy_total} beaten by adversary {adversary_total}");
    }

    /// Savings are bounded: no policy can save more than 100% of the
    /// baseline, and the optimum never consumes more than the baseline.
    #[test]
    fn envelope_bounded_by_baseline(
        params in arb_params(),
        length in 0u64..10_000_000,
    ) {
        let ctx = EnergyContext::new(params, RefetchAccounting::PaperStrict);
        let class = interior(length);
        let optimal = ctx.optimal_energy(&class);
        prop_assert!(optimal >= 0.0);
        prop_assert!(optimal <= ctx.baseline_energy(&class) * (1.0 + 1e-9) + 1e-9);
    }

    /// The energy of every feasible mode is monotone in interval length.
    #[test]
    fn mode_energies_monotone(
        params in arb_params(),
        length in 100u64..1_000_000,
        delta in 1u64..10_000,
    ) {
        let model = IntervalEnergyModel::new(params);
        for mode in PowerMode::ALL {
            if let (Some(e1), Some(e2)) =
                (model.energy(mode, length), model.energy(mode, length + delta))
            {
                prop_assert!(e2 >= e1, "{mode} energy decreased with length");
            }
        }
    }

    /// At the solved drowsy-sleep point the two modes really do tie.
    #[test]
    fn inflection_point_is_a_crossing(params in arb_params()) {
        let model = IntervalEnergyModel::new(params);
        let b_exact = model.drowsy_sleep_point_exact();
        // Only check genuine interior crossings (not feasibility clamps).
        prop_assume!(b_exact > model.params().timings().sleep_overhead() as f64 + 1.0);
        let b = b_exact.round() as u64;
        let drowsy = model.energy_drowsy(b).unwrap();
        let sleep = model.energy_sleep(b, true).unwrap();
        let scale = drowsy.abs().max(1e-12);
        // Within one cycle of the crossing the energies differ by at
        // most one cycle of power difference.
        let slope_gap = model.params().powers().drowsy - model.params().powers().sleep;
        prop_assert!((drowsy - sleep).abs() <= slope_gap + scale * 1e-9,
            "E_D({b})={drowsy} vs E_S({b})={sleep}");
    }
}
