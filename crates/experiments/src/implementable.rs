//! Extension: implementable schemes under the power/performance lens.
//!
//! The paper's oracle bars are performance-neutral by assumption; its
//! §5.2 closes by noting that "the best design trade-off of power and
//! performance is somewhere in between of the Prefetch-A and Prefetch-B
//! methods, which will be studied in our future work". This experiment
//! is that study, for every implementable scheme in the workspace: each
//! row reports the leakage saving *and* the stall cycles the scheme's
//! unhidden wakeups and induced misses impose, per thousand closing
//! accesses.

use crate::eval::mean;
use crate::render::pct;
use crate::{BenchmarkProfile, Table, HEADLINE_NODE};
use leakage_cachesim::Level1;
use leakage_core::policy::{
    DecaySleep, DrowsyDecay, LeakagePolicy, OptHybrid, PeriodicDrowsy, PrefetchGuided,
    PrefetchScheme,
};
use leakage_core::{CircuitParams, EnergyContext, RefetchAccounting};

/// The schemes compared: the oracle as the reference point, then the
/// implementable ladder.
pub fn schemes() -> Vec<Box<dyn LeakagePolicy>> {
    vec![
        Box::new(OptHybrid::new()),
        Box::new(PeriodicDrowsy::four_k()),
        Box::new(DecaySleep::ten_k()),
        Box::new(DrowsyDecay::default_config()),
        Box::new(PrefetchGuided::new(PrefetchScheme::A)),
        Box::new(PrefetchGuided::new(PrefetchScheme::B)),
    ]
}

/// Per-scheme suite averages for one side:
/// `(name, savings %, stall cycles per 1K accesses, % accesses stalled)`.
pub fn series(profiles: &[BenchmarkProfile], side: Level1) -> Vec<(String, f64, f64, f64)> {
    let ctx = EnergyContext::new(
        CircuitParams::for_node(HEADLINE_NODE),
        RefetchAccounting::PaperStrict,
    );
    schemes()
        .iter()
        .map(|policy| {
            let mut savings = Vec::new();
            let mut stalls_per_k = Vec::new();
            let mut stall_rates = Vec::new();
            for profile in profiles {
                let (eval, stalls) =
                    ctx.evaluate_with_perf(policy.as_ref(), &profile.side(side).dist);
                savings.push(eval.saving_percent());
                stalls_per_k.push(stalls.stall_per_access() * 1_000.0);
                stall_rates.push(stalls.stall_rate() * 100.0);
            }
            (
                policy.name().to_string(),
                mean(&savings),
                mean(&stalls_per_k),
                mean(&stall_rates),
            )
        })
        .collect()
}

/// Regenerates the power/performance comparison as two tables.
pub fn generate(profiles: &[BenchmarkProfile]) -> (Table, Table) {
    let make = |side: Level1, label: &str| {
        let mut table = Table::new(
            format!("Extension{label}: implementable schemes, energy vs performance (70nm)"),
            vec![
                "Scheme".to_string(),
                "Savings %".to_string(),
                "Stall cy / 1K acc".to_string(),
                "Accesses stalled %".to_string(),
            ],
        );
        for (name, saving, stalls, rate) in series(profiles, side) {
            table.push_row(vec![name, pct(saving), format!("{stalls:.1}"), pct(rate)]);
        }
        table
    };
    (
        make(Level1::Instruction, " (a) Instruction Cache"),
        make(Level1::Data, " (b) Data Cache"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached_profile;
    use leakage_workloads::Scale;

    #[test]
    fn oracle_is_stall_free_and_dominant() {
        let profiles = vec![cached_profile("gzip", Scale::Test).as_ref().clone()];
        for side in [Level1::Instruction, Level1::Data] {
            let rows = series(&profiles, side);
            let oracle = &rows[0];
            assert_eq!(oracle.0, "OPT-Hybrid");
            assert_eq!(oracle.2, 0.0, "oracle stalls");
            for row in &rows[1..] {
                assert!(oracle.1 + 1e-9 >= row.1, "{}", row.0);
            }
        }
    }

    #[test]
    fn prefetch_b_trades_stalls_for_savings_vs_a() {
        let profiles = vec![cached_profile("gzip", Scale::Test).as_ref().clone()];
        let rows = series(&profiles, Level1::Data);
        let a = rows.iter().find(|r| r.0 == "Prefetch-A").unwrap();
        let b = rows.iter().find(|r| r.0 == "Prefetch-B").unwrap();
        assert!(b.1 >= a.1, "B saves at least as much");
        assert!(b.2 >= a.2, "B stalls at least as much");
    }

    #[test]
    fn decay_stalls_are_induced_misses() {
        let profiles = vec![cached_profile("gzip", Scale::Test).as_ref().clone()];
        let rows = series(&profiles, Level1::Data);
        let decay = rows.iter().find(|r| r.0 == "Sleep(10K)").unwrap();
        let drowsy = rows.iter().find(|r| r.0 == "Drowsy(4K)").unwrap();
        // Decay stalls fewer accesses (only long intervals) but each
        // stall is a full refetch; periodic drowsy stalls many accesses
        // cheaply. Verify both components are nonzero and sensible.
        assert!(decay.2 > 0.0);
        assert!(drowsy.2 > 0.0);
        assert!(decay.3 < drowsy.3, "decay stalls fewer accesses");
    }

    #[test]
    fn implementable_hybrid_beats_its_components() {
        // The paper's conclusion, measured: when neither technique has
        // oracle knowledge, combining them wins.
        let profiles = vec![cached_profile("gzip", Scale::Test).as_ref().clone()];
        let mut margin_over_drowsy = 0.0;
        for side in [Level1::Instruction, Level1::Data] {
            let rows = series(&profiles, side);
            let get = |needle: &str| {
                rows.iter()
                    .find(|r| r.0.contains(needle))
                    .map(|r| r.1)
                    .unwrap()
            };
            let hybrid = get("Drowsy(4K)+Sleep");
            // Adding decay to periodic drowsy can only help energy.
            assert!(hybrid + 1e-9 >= get("Drowsy(4K)"), "{side}");
            margin_over_drowsy += hybrid - get("Drowsy(4K)");
        }
        // And on this workload the gating actually bites somewhere.
        assert!(
            margin_over_drowsy > 5.0,
            "hybrid margin {margin_over_drowsy}"
        );
    }

    #[test]
    fn tables_render() {
        let profiles = vec![cached_profile("gzip", Scale::Test).as_ref().clone()];
        let (i, d) = generate(&profiles);
        assert_eq!(i.rows().len(), 6);
        assert!(d.to_text().contains("Stall"));
    }
}
