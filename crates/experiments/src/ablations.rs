//! Sensitivity studies beyond the paper's figures.
//!
//! The paper makes several modelling choices and asserts they do not
//! change its findings; these ablations check each claim quantitatively:
//!
//! * [`dead_intervals`] — §3.1 claims dead periods "did not contribute a
//!   large amount of leakage savings in the optimal case". Compare the
//!   paper's strict refetch accounting with the dead-aware refinement.
//! * [`power_ratios`] — how the drowsy/sleep leakage ratios move the
//!   inflection point and the hybrid's headroom.
//! * [`transition_models`] — how the voltage-ramp energy model
//!   (trapezoidal vs pessimistic/optimistic bounds) shifts Table 1.
//! * [`prefetch_frontier`] — §5.2's future work: the power/performance
//!   trade-off between Prefetch-A and Prefetch-B, as a mixing sweep.

use crate::eval::average_saving;
use crate::render::pct;
use crate::{BenchmarkProfile, Table, HEADLINE_NODE};
use leakage_cachesim::Level1;
use leakage_core::policy::{OptHybrid, PrefetchGuided, PrefetchScheme};
use leakage_core::{
    CircuitParams, EnergyContext, IntervalEnergyModel, ModePowers, RefetchAccounting,
    TransitionModel,
};
use leakage_energy::calibrate_refetch_energy;
use rayon::prelude::*;

/// Strict vs dead-aware refetch accounting for `OPT-Hybrid`, per cache.
pub fn dead_intervals(profiles: &[BenchmarkProfile]) -> Table {
    let params = CircuitParams::for_node(HEADLINE_NODE);
    let strict = EnergyContext::new(params.clone(), RefetchAccounting::PaperStrict);
    let aware = EnergyContext::new(params, RefetchAccounting::DeadAware);
    let mut table = Table::new(
        "Ablation: dead-interval refetch accounting (OPT-Hybrid savings %, 70nm)",
        vec![
            "Cache".to_string(),
            "Paper-strict".to_string(),
            "Dead-aware".to_string(),
            "Delta".to_string(),
        ],
    );
    for (side, label) in [(Level1::Instruction, "I-cache"), (Level1::Data, "D-cache")] {
        let s = average_saving(&strict, profiles, side, &OptHybrid::new());
        let a = average_saving(&aware, profiles, side, &OptHybrid::new());
        table.push_row(vec![label.to_string(), pct(s), pct(a), pct(a - s)]);
    }
    table
}

/// Sweeps the drowsy and sleep leakage ratios; reports the resulting
/// drowsy–sleep inflection point and hybrid savings.
pub fn power_ratios(profiles: &[BenchmarkProfile]) -> Table {
    let base = CircuitParams::for_node(HEADLINE_NODE);
    let mut table = Table::new(
        "Ablation: leakage power ratios (70nm refetch energy held fixed)",
        vec![
            "drowsy/active".to_string(),
            "sleep/active".to_string(),
            "b (cycles)".to_string(),
            "I$ OPT-Hybrid %".to_string(),
            "D$ OPT-Hybrid %".to_string(),
        ],
    );
    // The 3x3 grid points are independent; evaluate them in parallel
    // and push the rows in grid order afterwards.
    let mut grid = Vec::new();
    for &drowsy_ratio in &[0.2, 1.0 / 3.0, 0.5] {
        for &sleep_ratio in &[0.0, 0.005, 0.02] {
            grid.push((drowsy_ratio, sleep_ratio));
        }
    }
    let rows: Vec<Vec<String>> = grid
        .par_iter()
        .map(|&(drowsy_ratio, sleep_ratio)| {
            let params = CircuitParams::builder()
                .powers(ModePowers::from_ratios(
                    base.powers().active,
                    drowsy_ratio,
                    sleep_ratio,
                ))
                .timings(*base.timings())
                .refetch_energy(base.refetch_energy())
                .build();
            let b = IntervalEnergyModel::new(params.clone())
                .inflection_points()
                .drowsy_sleep;
            let ctx = EnergyContext::new(params, RefetchAccounting::PaperStrict);
            let i = average_saving(&ctx, profiles, Level1::Instruction, &OptHybrid::new());
            let d = average_saving(&ctx, profiles, Level1::Data, &OptHybrid::new());
            vec![
                format!("{drowsy_ratio:.3}"),
                format!("{sleep_ratio:.3}"),
                b.to_string(),
                pct(i),
                pct(d),
            ]
        })
        .collect();
    for row in rows {
        table.push_row(row);
    }
    table
}

/// Compares the three voltage-ramp energy models.
pub fn transition_models(profiles: &[BenchmarkProfile]) -> Table {
    let base = CircuitParams::for_node(HEADLINE_NODE);
    let mut table = Table::new(
        "Ablation: transition-power model (70nm)",
        vec![
            "Ramp model".to_string(),
            "b (cycles)".to_string(),
            "I$ OPT-Hybrid %".to_string(),
            "D$ OPT-Hybrid %".to_string(),
        ],
    );
    for (model, label) in [
        (TransitionModel::LowEndpoint, "low endpoint (optimistic)"),
        (TransitionModel::Trapezoidal, "trapezoidal (default)"),
        (TransitionModel::HighEndpoint, "high endpoint (pessimistic)"),
    ] {
        let params = CircuitParams::builder()
            .powers(*base.powers())
            .timings(*base.timings())
            .transition_model(model)
            .refetch_energy(base.refetch_energy())
            .build();
        let b = IntervalEnergyModel::new(params.clone())
            .inflection_points()
            .drowsy_sleep;
        let ctx = EnergyContext::new(params, RefetchAccounting::PaperStrict);
        let i = average_saving(&ctx, profiles, Level1::Instruction, &OptHybrid::new());
        let d = average_saving(&ctx, profiles, Level1::Data, &OptHybrid::new());
        table.push_row(vec![label.to_string(), b.to_string(), pct(i), pct(d)]);
    }
    table
}

/// The Prefetch-A ↔ Prefetch-B trade-off frontier: energy of a scheme
/// that treats a fraction `alpha` of non-prefetchable intervals like
/// Prefetch-B (drowsy) and the rest like Prefetch-A (active). `alpha=0`
/// is pure A (best performance), `alpha=1` pure B (best savings).
pub fn prefetch_frontier(profiles: &[BenchmarkProfile]) -> Table {
    let ctx = EnergyContext::new(
        CircuitParams::for_node(HEADLINE_NODE),
        RefetchAccounting::PaperStrict,
    );
    let mut table = Table::new(
        "Ablation: Prefetch-A/B mixing frontier (savings %, 70nm)",
        vec![
            "alpha (B fraction)".to_string(),
            "I-cache".to_string(),
            "D-cache".to_string(),
        ],
    );
    let a = [Level1::Instruction, Level1::Data].map(|side| {
        average_saving(
            &ctx,
            profiles,
            side,
            &PrefetchGuided::new(PrefetchScheme::A),
        )
    });
    let b = [Level1::Instruction, Level1::Data].map(|side| {
        average_saving(
            &ctx,
            profiles,
            side,
            &PrefetchGuided::new(PrefetchScheme::B),
        )
    });
    for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
        // Per-interval assignment is independent, so a random mix's
        // energy interpolates linearly between the endpoints.
        let i = a[0] + alpha * (b[0] - a[0]);
        let d = a[1] + alpha * (b[1] - a[1]);
        table.push_row(vec![format!("{alpha:.2}"), pct(i), pct(d)]);
    }
    table
}

/// Extends the limit study one level down: the unified 2 MB L2's
/// optimal savings across technology nodes. L2 frames rest enormously
/// longer than L1 frames (they see only L1 misses), so gated-Vdd
/// dominates there even at coarse nodes — the quantitative counterpart
/// of the paper's pointer to Parikh et al.'s L2-latency study.
pub fn l2_limits(scale: leakage_workloads::Scale) -> Table {
    use leakage_core::GeneralizedModel;
    let mut headers = vec!["Node".to_string()];
    headers.extend(["OPT-Drowsy %", "OPT-Sleep %", "OPT-Hybrid %"].map(String::from));
    let mut table = Table::new(
        "Ablation: the unified L2's leakage limits (suite average)",
        headers,
    );
    let profiles: Vec<_> = leakage_workloads::suite(scale)
        .into_par_iter()
        .map(|mut bench| crate::profile_l2(&mut bench))
        .collect();
    for node in leakage_core::TechnologyNode::ALL {
        let model = GeneralizedModel::from_params(CircuitParams::for_node(node));
        let savings: Vec<_> = profiles
            .iter()
            .map(|p| model.optimal_savings(&p.dist))
            .collect();
        let mean = |f: fn(&leakage_core::OptimalSavings) -> f64| {
            crate::eval::mean(&savings.iter().map(f).collect::<Vec<_>>())
        };
        table.push_row(vec![
            node.to_string(),
            pct(mean(|s| s.opt_drowsy)),
            pct(mean(|s| s.opt_sleep)),
            pct(mean(|s| s.opt_hybrid)),
        ]);
    }
    table
}

/// Sensitivity of the data-cache limits to cache geometry: line size
/// and associativity sweeps around the paper's 64 KB / 2-way / 64 B
/// point. Savings are relative to each geometry's own always-active
/// baseline, so they are comparable across rows.
pub fn geometry(scale: leakage_workloads::Scale) -> Table {
    use leakage_cachesim::{CacheConfig, HierarchyConfig};
    use leakage_core::policy::{OptHybrid, OptSleep};

    let mut table = Table::new(
        "Ablation: D-cache geometry sensitivity (70nm, suite average)",
        vec![
            "L1D geometry".to_string(),
            "Miss rate %".to_string(),
            "OPT-Sleep(10K) %".to_string(),
            "OPT-Hybrid %".to_string(),
        ],
    );
    let ctx = EnergyContext::new(
        CircuitParams::for_node(HEADLINE_NODE),
        RefetchAccounting::PaperStrict,
    );
    // All 30 (geometry, benchmark) profiles come from the shared store
    // — the paper-geometry row reuses the suite profiles every other
    // experiment already fetched — and the fetches run in parallel over
    // the flattened grid.
    let geometries = [
        ("64KB 2-way 64B (paper)", 2u32, 64u32),
        ("64KB 1-way 64B", 1, 64),
        ("64KB 4-way 64B", 4, 64),
        ("64KB 2-way 32B", 2, 32),
        ("64KB 2-way 128B", 2, 128),
    ];
    let points: Vec<(usize, &str)> = (0..geometries.len())
        .flat_map(|g| leakage_workloads::SUITE_NAMES.map(|name| (g, name)))
        .collect();
    let profiles: Vec<_> = points
        .par_iter()
        .map(|&(g, name)| {
            let (_, ways, line) = geometries[g];
            let config = HierarchyConfig {
                l1d: CacheConfig::new("L1D", 64 * 1024, ways, line, 3).expect("valid geometry"),
                ..HierarchyConfig::alpha_like()
            };
            crate::store::ProfileStore::global().fetch_with(name, scale, &config)
        })
        .collect();
    for (g, (label, _, _)) in geometries.iter().enumerate() {
        let mut hybrid = Vec::new();
        let mut sleep = Vec::new();
        let mut miss = Vec::new();
        for profile in profiles
            .iter()
            .zip(&points)
            .filter(|(_, &(point_g, _))| point_g == g)
            .map(|(profile, _)| profile)
        {
            hybrid.push(
                ctx.evaluate(&OptHybrid::new(), &profile.dcache.dist)
                    .saving_percent(),
            );
            sleep.push(
                ctx.evaluate(&OptSleep::ten_k(), &profile.dcache.dist)
                    .saving_percent(),
            );
            miss.push(profile.dcache.cache.miss_rate() * 100.0);
        }
        table.push_row(vec![
            label.to_string(),
            pct(crate::eval::mean(&miss)),
            pct(crate::eval::mean(&sleep)),
            pct(crate::eval::mean(&hybrid)),
        ]);
    }
    table
}

/// Frame-centric vs line-centric interval extraction (see `DESIGN.md`):
/// the paper's §3.1 defines intervals per memory *line*, ignoring
/// evictions; physical accounting follows the *frame*. Line-centric
/// intervals are longer (they span eviction gaps), which flatters sleep
/// mode at coarse nodes.
///
/// Normalization matters: summing line-centric savings against the
/// *frame* baseline over-counts wildly when the footprint exceeds the
/// cache (our data caches touch ~10x more lines than frames, giving
/// "600 %" savings) — which is exactly why this workspace accounts per
/// frame. To keep the comparison meaningful, the line columns here use
/// the distribution's own rest time as the baseline: the fraction of
/// total line rest that is sleepable under the literal definition.
pub fn line_centric(scale: leakage_workloads::Scale) -> Table {
    use leakage_core::policy::OptSleep;
    use leakage_core::TechnologyNode;

    let mut table = Table::new(
        "Ablation: frame-centric vs line-centric intervals (OPT-Sleep savings %)",
        vec![
            "Node".to_string(),
            "I$ frame".to_string(),
            "I$ line".to_string(),
            "D$ frame".to_string(),
            "D$ line".to_string(),
        ],
    );
    // Gather both views per benchmark: frame view from the shared
    // store, line view extracted in parallel (it has no cache — the
    // line-centric sweep is this ablation's private definition).
    let frame_profiles = crate::cached_suite(scale);
    let line_profiles: Vec<_> = leakage_workloads::suite(scale)
        .into_par_iter()
        .map(|mut bench| crate::profile_line_centric(&mut bench))
        .collect();
    for node in TechnologyNode::ALL {
        let ctx = EnergyContext::new(
            CircuitParams::for_node(node),
            RefetchAccounting::PaperStrict,
        );
        let b = ctx.inflection_points().drowsy_sleep;
        let policy = OptSleep::new(b);
        let mut cells = Vec::new();
        for side in [Level1::Instruction, Level1::Data] {
            // Frame view: the evaluation's own baseline is frames x T.
            let frame_savings: Vec<f64> = frame_profiles
                .iter()
                .map(|p| ctx.evaluate(&policy, &p.side(side).dist).saving_percent())
                .collect();
            // Line view: savings accumulated per interval, normalized by
            // the same frame baseline (paper Fig. 5).
            let line_savings: Vec<f64> = line_profiles
                .iter()
                .map(|(idist, ddist, _cycles)| {
                    let dist = match side {
                        Level1::Instruction => idist,
                        Level1::Data => ddist,
                    };
                    // The dist's own baseline is the total line rest
                    // time: the saving fraction is "how much of a
                    // line's rest is sleepable" under the literal
                    // definition.
                    ctx.evaluate(&policy, dist).saving_percent()
                })
                .collect();
            cells.push(pct(crate::eval::mean(&frame_savings)));
            cells.push(pct(crate::eval::mean(&line_savings)));
        }
        let mut row = vec![node.to_string()];
        row.extend(cells);
        table.push_row(row);
    }
    table
}

/// Writeback-aware gating: the paper's Eq. 1 refetches slept data but
/// never *writes back* the dirty lines the supply gate would destroy.
/// This ablation charges a per-line writeback (expressed as a multiple
/// of the refetch energy `C_D`) on every dirty interval a policy sleeps
/// and reports the impact on the data cache's headline numbers.
pub fn writebacks(profiles: &[BenchmarkProfile]) -> Table {
    use leakage_core::policy::{DecaySleep, OptHybrid};
    use leakage_intervals::IntervalKind;

    let params = CircuitParams::for_node(HEADLINE_NODE);
    let mut table = Table::new(
        "Ablation: writeback-aware gating (D-cache, 70nm, suite average)",
        vec![
            "Writeback cost".to_string(),
            "OPT-Hybrid %".to_string(),
            "Sleep(10K) %".to_string(),
        ],
    );
    // Context note: what share of D$ rest time is dirty at all?
    let dirty_share: Vec<f64> = profiles
        .iter()
        .map(|p| {
            let dist = &p.dcache.dist;
            let dirty = dist
                .cycles_matching(|c| c.dirty && matches!(c.kind, IntervalKind::Interior { .. }));
            100.0 * dirty as f64 / dist.total_cycles().max(1) as f64
        })
        .collect();
    for (label, factor) in [("none (paper)", 0.0), ("1 x C_D", 1.0), ("2 x C_D", 2.0)] {
        let ctx = if factor == 0.0 {
            EnergyContext::new(params.clone(), RefetchAccounting::PaperStrict)
        } else {
            EnergyContext::with_writeback(
                params.clone(),
                RefetchAccounting::PaperStrict,
                factor * params.refetch_energy(),
            )
        };
        let hybrid = average_saving(&ctx, profiles, Level1::Data, &OptHybrid::new());
        let decay = average_saving(&ctx, profiles, Level1::Data, &DecaySleep::ten_k());
        table.push_row(vec![label.to_string(), pct(hybrid), pct(decay)]);
    }
    table.push_row(vec![
        "dirty share of rest cycles".to_string(),
        pct(crate::eval::mean(&dirty_share)),
        "-".to_string(),
    ]);
    table
}

/// Verifies the calibration identity: re-deriving the refetch energy
/// from the solved inflection point returns the preset value (a
/// consistency check exposed for the `repro` binary's `--verify` mode).
pub fn calibration_consistency() -> Table {
    let mut table = Table::new(
        "Ablation: calibration consistency (refetch energy, pJ)",
        vec![
            "Node".to_string(),
            "Preset C_D".to_string(),
            "Re-derived C_D".to_string(),
        ],
    );
    for node in leakage_core::TechnologyNode::ALL {
        let params = CircuitParams::for_node(node);
        let rederived = calibrate_refetch_energy(
            params.powers(),
            params.timings(),
            params.transition_model(),
            IntervalEnergyModel::new(params.clone())
                .inflection_points()
                .drowsy_sleep,
        );
        table.push_row(vec![
            node.to_string(),
            format!("{:.4}", params.refetch_energy()),
            format!("{rederived:.4}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached_profile;
    use leakage_workloads::Scale;

    fn profiles() -> Vec<BenchmarkProfile> {
        vec![cached_profile("vortex", Scale::Test).as_ref().clone()]
    }

    #[test]
    fn dead_aware_never_hurts() {
        let table = dead_intervals(&profiles());
        for row in table.rows() {
            let delta: f64 = row[3].parse().unwrap();
            assert!(delta >= -1e-6, "waiving refetch can only help: {row:?}");
        }
    }

    #[test]
    fn power_ratio_sweep_moves_inflection_point() {
        let table = power_ratios(&profiles());
        assert_eq!(table.rows().len(), 9);
        let bs: Vec<u64> = table.rows().iter().map(|r| r[2].parse().unwrap()).collect();
        // A leakier drowsy mode pushes the crossover earlier.
        assert!(bs.iter().max() != bs.iter().min());
    }

    #[test]
    fn transition_model_ordering() {
        let table = transition_models(&profiles());
        let bs: Vec<u64> = table.rows().iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(bs[0] < bs[1] && bs[1] < bs[2]);
    }

    #[test]
    fn frontier_interpolates_monotonically() {
        let table = prefetch_frontier(&profiles());
        let col: Vec<f64> = table.rows().iter().map(|r| r[2].parse().unwrap()).collect();
        for pair in col.windows(2) {
            assert!(pair[1] + 1e-9 >= pair[0], "B fraction only adds savings");
        }
    }

    #[test]
    fn l2_limits_exceed_l1_limits() {
        use leakage_workloads::Scale;
        let table = l2_limits(Scale::Test);
        assert_eq!(table.rows().len(), 4);
        // The L2 rests so long that even at 180nm sleep nearly maxes out.
        let sleep_180: f64 = table.rows()[3][2].parse().unwrap();
        assert!(sleep_180 > 80.0, "L2 sleep at 180nm: {sleep_180}");
        // Hybrid dominates per row.
        for row in table.rows() {
            let sleep: f64 = row[2].parse().unwrap();
            let hybrid: f64 = row[3].parse().unwrap();
            assert!(hybrid + 0.1 >= sleep, "{row:?}");
        }
    }

    #[test]
    fn geometry_sweep_produces_sane_rows() {
        use leakage_workloads::Scale;
        let table = geometry(Scale::Test);
        assert_eq!(table.rows().len(), 5);
        for row in table.rows() {
            let miss: f64 = row[1].parse().unwrap();
            let hybrid: f64 = row[3].parse().unwrap();
            assert!((0.0..=100.0).contains(&miss), "{row:?}");
            assert!((50.0..=100.0).contains(&hybrid), "{row:?}");
        }
        // Smaller lines mean more frames and finer-grained gating: the
        // 32B row should not save less than the 128B row.
        let hybrid_32: f64 = table.rows()[3][3].parse().unwrap();
        let hybrid_128: f64 = table.rows()[4][3].parse().unwrap();
        assert!(hybrid_32 + 0.5 >= hybrid_128);
    }

    #[test]
    fn line_centric_table_shape() {
        use leakage_workloads::Scale;
        // Small scale: the 180nm contrast needs traces much longer than
        // the 103K-cycle inflection point.
        let table = line_centric(Scale::Small);
        assert_eq!(table.rows().len(), 4);
        for row in table.rows() {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!((0.0..=100.0).contains(&v), "{row:?}");
            }
        }
        // The line-centric D$ view barely degrades with the node (its
        // intervals span evictions and dwarf every inflection point),
        // while the frame view falls substantially.
        let d_frame_70: f64 = table.rows()[0][3].parse().unwrap();
        let d_frame_180: f64 = table.rows()[3][3].parse().unwrap();
        let d_line_70: f64 = table.rows()[0][4].parse().unwrap();
        let d_line_180: f64 = table.rows()[3][4].parse().unwrap();
        assert!(d_frame_70 - d_frame_180 > 10.0);
        assert!(d_line_70 - d_line_180 < 10.0);
    }

    #[test]
    fn calibration_roundtrips() {
        let table = calibration_consistency();
        for row in table.rows() {
            let preset: f64 = row[1].parse().unwrap();
            let rederived: f64 = row[2].parse().unwrap();
            assert!((preset - rederived).abs() / preset < 1e-2, "{row:?}");
        }
    }
}
