//! Fig. 3 quantified: what perfect prefetching is worth.
//!
//! The paper's Fig. 3 argues pictorially that without just-in-time
//! refetch the *system* stalls on every wakeup, and the energy the
//! stalled machine burns can devour the leakage saved. This experiment
//! puts numbers on the picture: each implementable scheme's stall
//! cycles (from the performance accounting) are charged at a system
//! power expressed as a multiple `kappa` of the cache's own all-active
//! leakage power, and the net saving is reported.
//!
//! `kappa = 0` reproduces the pure-leakage view; a modern core's total
//! power is orders of magnitude above one cache's leakage, so even
//! small `kappa` swings the implementable schemes hard — exactly why
//! the oracle's performance-neutrality (and §5's prefetch-guided
//! approximation of it) matters.

use crate::eval::mean;
use crate::render::pct;
use crate::{BenchmarkProfile, Table, HEADLINE_NODE};
use leakage_cachesim::Level1;
use leakage_core::policy::{
    DecaySleep, DrowsyDecay, LeakagePolicy, OptHybrid, PeriodicDrowsy, PrefetchGuided,
    PrefetchScheme,
};
use leakage_core::{CircuitParams, EnergyContext, RefetchAccounting};

/// The system-power multipliers swept (in units of the cache's
/// all-active leakage power).
pub const KAPPAS: [f64; 3] = [0.0, 1.0, 5.0];

fn schemes() -> Vec<Box<dyn LeakagePolicy>> {
    vec![
        Box::new(OptHybrid::new()),
        Box::new(DecaySleep::ten_k()),
        Box::new(PeriodicDrowsy::four_k()),
        Box::new(DrowsyDecay::default_config()),
        Box::new(PrefetchGuided::new(PrefetchScheme::B)),
    ]
}

/// Net savings (leakage saved minus stall energy) for one side, per
/// scheme and `kappa`: `(name, [net % per kappa])`.
pub fn series(profiles: &[BenchmarkProfile], side: Level1) -> Vec<(String, Vec<f64>)> {
    let ctx = EnergyContext::new(
        CircuitParams::for_node(HEADLINE_NODE),
        RefetchAccounting::PaperStrict,
    );
    schemes()
        .iter()
        .map(|policy| {
            let mut per_kappa = vec![Vec::new(); KAPPAS.len()];
            for profile in profiles {
                let cache = profile.side(side);
                let (eval, stalls) = ctx.evaluate_with_perf(policy.as_ref(), &cache.dist);
                // System power while stalled: kappa x the cache's own
                // all-active leakage (frames x P_active).
                let cache_power = f64::from(cache.num_frames) * ctx.params().powers().active;
                for (bucket, &kappa) in per_kappa.iter_mut().zip(&KAPPAS) {
                    let stall_energy = kappa * cache_power * stalls.stall_cycles;
                    let net = 100.0 * (1.0 - (eval.energy + stall_energy) / eval.baseline);
                    bucket.push(net);
                }
            }
            (
                policy.name().to_string(),
                per_kappa.iter().map(|v| mean(v)).collect(),
            )
        })
        .collect()
}

/// Regenerates the Fig. 3 quantification as two tables.
pub fn generate(profiles: &[BenchmarkProfile]) -> (Table, Table) {
    let make = |side: Level1, label: &str| {
        let mut headers = vec!["Scheme".to_string()];
        headers.extend(KAPPAS.iter().map(|k| format!("net % @ kappa={k}")));
        let mut table = Table::new(
            format!("Figure 3 quantified{label}: net savings with stall energy charged (70nm)"),
            headers,
        );
        for (name, nets) in series(profiles, side) {
            let mut row = vec![name];
            row.extend(nets.iter().map(|&n| pct(n)));
            table.push_row(row);
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

    fn profiles() -> Vec<BenchmarkProfile> {
        vec![cached_profile("gzip", Scale::Test).as_ref().clone()]
    }

    #[test]
    fn oracle_is_kappa_invariant() {
        let rows = series(&profiles(), Level1::Data);
        let oracle = &rows[0];
        assert_eq!(oracle.0, "OPT-Hybrid");
        for pair in oracle.1.windows(2) {
            assert!(
                (pair[0] - pair[1]).abs() < 1e-9,
                "no stalls, no kappa effect"
            );
        }
    }

    #[test]
    fn stall_energy_strictly_degrades_stalling_schemes() {
        let rows = series(&profiles(), Level1::Data);
        for (name, nets) in &rows[1..] {
            for pair in nets.windows(2) {
                assert!(
                    pair[1] <= pair[0] + 1e-9,
                    "{name}: net savings must fall with kappa"
                );
            }
        }
        // At kappa = 5 the drowsy schemes' frequent wakeups bite hard.
        let drowsy = rows.iter().find(|r| r.0 == "Drowsy(4K)").unwrap();
        assert!(drowsy.1[2] < drowsy.1[0] - 1.0);
    }

    #[test]
    fn tables_render() {
        let (i, d) = generate(&profiles());
        assert_eq!(i.headers().len(), 1 + KAPPAS.len());
        assert_eq!(d.rows().len(), 5);
    }
}
