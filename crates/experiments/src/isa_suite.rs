//! The executed-program (ISA) suite artifact.
//!
//! One row per `isa:*` benchmark and cache side, carrying the pipeline
//! counters (accesses, miss rate, interval census) next to the three
//! optimal savings at the paper's headline 70nm node. The synthetic
//! suite approximates SPEC2000 statistically; this table is the same
//! limit study applied to programs the mini-ISA simulator actually
//! *executes*, so every number is grounded in retired instructions
//! rather than sampled distributions.
//!
//! The table is fully deterministic at a fixed scale — it is locked by
//! the `isa_suite.csv` golden snapshot and regenerated by
//! `repro isa-suite`.

use crate::render::pct;
use crate::{fetch_partial, ProfileStore, Table, HEADLINE_NODE};
use leakage_cachesim::Level1;
use leakage_core::{CircuitParams, GeneralizedModel};
use leakage_workloads::{Scale, ISA_SUITE_NAMES};

/// Regenerates the ISA-suite table at `scale`, profiling the programs
/// in parallel through the global [`ProfileStore`] (so repeated runs
/// and the serving path share one simulation per program).
///
/// # Panics
///
/// Re-raises the first program whose profiling failed, as
/// [`crate::cached_suite`] does.
pub fn generate(scale: Scale) -> Table {
    let model = GeneralizedModel::from_params(CircuitParams::for_node(HEADLINE_NODE));

    let mut table = Table::new(
        format!("ISA suite: executed-program profiles and optimal savings ({HEADLINE_NODE})"),
        [
            "program",
            "cache",
            "accesses",
            "misses",
            "miss (%)",
            "intervals",
            "mean interval (cyc)",
            "OPT-Drowsy (%)",
            "OPT-Sleep (%)",
            "OPT-Hybrid (%)",
        ]
        .map(str::to_string)
        .to_vec(),
    );

    let profiles = fetch_partial(ProfileStore::global(), &ISA_SUITE_NAMES, scale).expect_healthy();
    for (name, profile) in ISA_SUITE_NAMES.iter().zip(&profiles) {
        for (label, side) in [("I", Level1::Instruction), ("D", Level1::Data)] {
            let cache = profile.side(side);
            let accesses = cache.cache.accesses;
            let miss_rate = if accesses == 0 {
                0.0
            } else {
                100.0 * cache.cache.misses as f64 / accesses as f64
            };
            let intervals = cache.dist.total_intervals();
            let mean_interval = if intervals == 0 {
                0.0
            } else {
                cache.dist.total_cycles() as f64 / intervals as f64
            };
            let savings = model.optimal_savings(&cache.dist);
            table.push_row(vec![
                name.to_string(),
                label.to_string(),
                accesses.to_string(),
                cache.cache.misses.to_string(),
                format!("{miss_rate:.2}"),
                intervals.to_string(),
                format!("{mean_interval:.1}"),
                pct(savings.opt_drowsy),
                pct(savings.opt_sleep),
                pct(savings.opt_hybrid),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_program_on_both_sides() {
        let table = generate(Scale::Test);
        assert_eq!(table.rows().len(), 2 * ISA_SUITE_NAMES.len());
        for row in table.rows() {
            let accesses: u64 = row[2].parse().expect("numeric accesses");
            assert!(accesses > 0, "{}/{} executed no accesses", row[0], row[1]);
        }
    }

    #[test]
    fn regeneration_is_deterministic() {
        let first = generate(Scale::Test);
        let second = generate(Scale::Test);
        assert_eq!(first.to_csv(), second.to_csv());
    }
}
