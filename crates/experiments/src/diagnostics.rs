//! Workload diagnostics: the statistics behind the headline numbers.
//!
//! These tables are the calibration instruments used to align the
//! synthetic workloads with the paper (see `DESIGN.md`), kept as a
//! first-class experiment because they explain *why* the savings come
//! out as they do: the cycle-weighted interval distribution, the
//! oracle's mode census (§4.3's "sleep plays a much more important role
//! in the data cache" made quantitative), and the code/data footprints.

use crate::eval::mean;
use crate::render::pct;
use crate::{BenchmarkProfile, Table, HEADLINE_NODE};
use leakage_cachesim::Level1;
use leakage_core::{CircuitParams, EnergyContext, ModeCensus, PowerMode, RefetchAccounting};
use leakage_intervals::IntervalKind;
use leakage_trace::{FootprintTracker, TraceSource};
use leakage_workloads::{suite, Scale};

/// Interval-distribution statistics for both caches: where the rest
/// cycles sit relative to the technology thresholds.
pub fn interval_stats(profiles: &[BenchmarkProfile]) -> (Table, Table) {
    let make = |side: Level1, label: &str| {
        let mut table = Table::new(
            format!("Diagnostics{label}: cycle-weighted interval distribution"),
            vec![
                "Benchmark".to_string(),
                "intervals".to_string(),
                ">1057 %".to_string(),
                ">10328 %".to_string(),
                ">103084 %".to_string(),
                "dirty %".to_string(),
                "prefetchable %".to_string(),
            ],
        );
        for profile in profiles {
            let dist = &profile.side(side).dist;
            let total = dist.total_cycles().max(1) as f64;
            let above = |threshold: u64| {
                100.0 * dist.cycles_matching(|c| c.length > threshold) as f64 / total
            };
            let dirty = 100.0 * dist.cycles_matching(|c| c.dirty) as f64 / total;
            let interior_total = dist
                .cycles_matching(|c| matches!(c.kind, IntervalKind::Interior { .. }))
                .max(1) as f64;
            let prefetchable = 100.0
                * dist.cycles_matching(|c| {
                    c.wake.any() && matches!(c.kind, IntervalKind::Interior { .. })
                }) as f64
                / interior_total;
            table.push_row(vec![
                profile.name.clone(),
                dist.total_intervals().to_string(),
                pct(above(1_057)),
                pct(above(10_328)),
                pct(above(103_084)),
                pct(dirty),
                pct(prefetchable),
            ]);
        }
        table
    };
    (
        make(Level1::Instruction, " (a) Instruction Cache"),
        make(Level1::Data, " (b) Data Cache"),
    )
}

/// The oracle's mode census at the headline node: fraction of rest
/// cycles the optimal hybrid spends in each mode, per benchmark.
pub fn census(profiles: &[BenchmarkProfile]) -> (Table, Table) {
    let ctx = EnergyContext::new(
        CircuitParams::for_node(HEADLINE_NODE),
        RefetchAccounting::PaperStrict,
    );
    let make = |side: Level1, label: &str| {
        let mut table = Table::new(
            format!("Diagnostics{label}: oracle mode census, 70nm (% of rest cycles)"),
            vec![
                "Benchmark".to_string(),
                "active".to_string(),
                "drowsy".to_string(),
                "sleep".to_string(),
            ],
        );
        let mut sums = [0.0f64; 3];
        for profile in profiles {
            let census = ModeCensus::compute(&ctx, &profile.side(side).dist);
            let fractions = [
                census.cycle_fraction(PowerMode::Active) * 100.0,
                census.cycle_fraction(PowerMode::Drowsy) * 100.0,
                census.cycle_fraction(PowerMode::Sleep) * 100.0,
            ];
            for (sum, f) in sums.iter_mut().zip(fractions) {
                *sum += f;
            }
            table.push_row(vec![
                profile.name.clone(),
                pct(fractions[0]),
                pct(fractions[1]),
                pct(fractions[2]),
            ]);
        }
        if !profiles.is_empty() {
            table.push_row(vec![
                "average".to_string(),
                pct(sums[0] / profiles.len() as f64),
                pct(sums[1] / profiles.len() as f64),
                pct(sums[2] / profiles.len() as f64),
            ]);
        }
        table
    };
    (
        make(Level1::Instruction, " (a) Instruction Cache"),
        make(Level1::Data, " (b) Data Cache"),
    )
}

/// Code and data footprints per benchmark (64-byte lines), with the
/// fraction of each 64 KB L1 the workload actually touches.
pub fn footprints(scale: Scale) -> Table {
    let mut table = Table::new(
        "Diagnostics: working-set footprints (64B lines)",
        vec![
            "Benchmark".to_string(),
            "code KB".to_string(),
            "code/L1I %".to_string(),
            "data KB".to_string(),
            "data/L1D %".to_string(),
        ],
    );
    let mut code_shares = Vec::new();
    for mut bench in suite(scale) {
        let mut tracker = FootprintTracker::new(6);
        bench.run(&mut tracker);
        let code_share = 100.0 * tracker.code_lines() as f64 / 1024.0;
        code_shares.push(code_share.min(100.0));
        table.push_row(vec![
            bench.name().to_string(),
            (tracker.code_bytes() / 1024).to_string(),
            pct(code_share.min(100.0)),
            (tracker.data_bytes() / 1024).to_string(),
            pct((100.0 * tracker.data_lines() as f64 / 1024.0).min(100.0)),
        ]);
    }
    table.push_row(vec![
        "average".to_string(),
        "-".to_string(),
        pct(mean(&code_shares)),
        "-".to_string(),
        "-".to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached_profile;

    fn profiles() -> Vec<BenchmarkProfile> {
        vec![cached_profile("gzip", Scale::Test).as_ref().clone()]
    }

    #[test]
    fn interval_stats_are_ordered_and_bounded() {
        let (i, d) = interval_stats(&profiles());
        for table in [i, d] {
            for row in table.rows() {
                let above_b: f64 = row[2].parse().unwrap();
                let above_10k: f64 = row[3].parse().unwrap();
                let above_103k: f64 = row[4].parse().unwrap();
                assert!(above_b >= above_10k && above_10k >= above_103k, "{row:?}");
                assert!((0.0..=100.0).contains(&above_b));
            }
        }
    }

    #[test]
    fn icache_never_dirty() {
        let (i, _) = interval_stats(&profiles());
        for row in i.rows() {
            let dirty: f64 = row[5].parse().unwrap();
            assert_eq!(dirty, 0.0, "instruction lines cannot be dirty");
        }
    }

    #[test]
    fn census_rows_sum_to_hundred() {
        let (i, d) = census(&profiles());
        for table in [i, d] {
            for row in table.rows() {
                let sum: f64 = (1..4).map(|c| row[c].parse::<f64>().unwrap()).sum();
                assert!((sum - 100.0).abs() < 0.2, "{row:?}");
            }
        }
    }

    #[test]
    fn sleep_dominates_the_census_at_70nm() {
        // §4.3: with b = 1057 almost all rest mass is sleepable.
        let (_, d) = census(&profiles());
        let sleep: f64 = d.rows()[0][3].parse().unwrap();
        assert!(sleep > 80.0, "D$ sleep census {sleep}");
    }

    #[test]
    fn footprints_fit_expectations() {
        let table = footprints(Scale::Test);
        assert_eq!(table.rows().len(), 7); // 6 benchmarks + average
        for row in &table.rows()[..6] {
            let code_kb: u64 = row[1].parse().unwrap();
            assert!(code_kb > 4, "{row:?}");
            let data_kb: u64 = row[3].parse().unwrap();
            assert!(data_kb > 16, "{row:?}");
        }
    }
}
