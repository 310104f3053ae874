//! Guardrail tests pinning the reproduced paper artifacts.
//!
//! Exact where the paper is exact (Table 1); banded where the numbers
//! depend on the synthetic workload substitution (savings percentages,
//! see `EXPERIMENTS.md`). Uses `Scale::Small` to keep test time modest;
//! the bands are wide enough to hold at `Scale::Paper` too.

use cache_leakage_limits::cachesim::Level1;
use cache_leakage_limits::core::{CircuitParams, IntervalEnergyModel};
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::{fig7, fig8, fig9, profile_suite, table1, table2};
use cache_leakage_limits::workloads::Scale;
use std::sync::OnceLock;

fn profiles() -> &'static [cache_leakage_limits::experiments::BenchmarkProfile] {
    static PROFILES: OnceLock<Vec<cache_leakage_limits::experiments::BenchmarkProfile>> =
        OnceLock::new();
    PROFILES.get_or_init(|| profile_suite(Scale::Small))
}

#[test]
fn table1_is_exact() {
    let expected = [(70, 1057u64), (100, 5088), (130, 10328), (180, 103084)];
    for (node, (nm, b)) in TechnologyNode::ALL.iter().zip(expected) {
        assert_eq!(node.feature_nm(), nm);
        let points = IntervalEnergyModel::new(CircuitParams::for_node(*node)).inflection_points();
        assert_eq!(points.active_drowsy, 6, "{node}");
        assert_eq!(points.drowsy_sleep, b, "{node}");
    }
    // And the rendered table carries the same values.
    let table = table1::generate();
    assert_eq!(table.rows()[1][4], "103084");
}

#[test]
fn headline_savings_bands() {
    // Paper (70nm): I$ OPT-Hybrid 96.4%, D$ 99.1%; OPT-Drowsy ~66.5%.
    let (icache, dcache) = table2::headline_hybrid(profiles());
    assert!((93.0..=98.5).contains(&icache), "I$ hybrid {icache}");
    assert!((95.0..=99.5).contains(&dcache), "D$ hybrid {dcache}");

    let savings = table2::node_savings(TechnologyNode::N70, profiles());
    assert!((64.0..=67.0).contains(&savings.icache.0), "I$ drowsy");
    assert!((64.0..=67.0).contains(&savings.dcache.0), "D$ drowsy");
    // Sleep mode matters more for the data cache than the instruction
    // cache (paper §4.3's observation).
    assert!(savings.dcache.1 >= savings.icache.1 - 1.0);
}

#[test]
fn table2_trend_matches_paper() {
    let all: Vec<_> = TechnologyNode::ALL
        .iter()
        .map(|&node| table2::node_savings(node, profiles()))
        .collect();
    for pair in all.windows(2) {
        // Savings fall (weakly) as feature size grows, for every column.
        assert!(
            pair[0].icache.1 + 1e-6 >= pair[1].icache.1,
            "I$ sleep trend"
        );
        assert!(
            pair[0].icache.2 + 1e-6 >= pair[1].icache.2,
            "I$ hybrid trend"
        );
        assert!(
            pair[0].dcache.1 + 1e-6 >= pair[1].dcache.1,
            "D$ sleep trend"
        );
        assert!(
            pair[0].dcache.2 + 1e-6 >= pair[1].dcache.2,
            "D$ hybrid trend"
        );
    }
    // At 180nm drowsy overtakes sleep on the instruction cache side in
    // the paper; at minimum the gap collapses dramatically.
    let gap_70 = all[0].icache.1 - all[0].icache.0;
    let gap_180 = all[3].icache.1 - all[3].icache.0;
    assert!(
        gap_180 < gap_70 * 0.55,
        "sleep's lead must shrink: {gap_70} -> {gap_180}"
    );
}

#[test]
fn fig7_hybrid_advantage_grows_with_conservatism() {
    for side in [Level1::Instruction, Level1::Data] {
        let series = fig7::series(profiles(), side);
        let gaps: Vec<f64> = series.iter().map(|(_, s, h)| h - s).collect();
        assert!(
            gaps.last().unwrap() > gaps.first().unwrap(),
            "{side}: hybrid gap should widen as the sleep floor rises"
        );
        // Near the inflection point the hybrid adds little (paper: "the
        // usefulness of applying the drowsy method decreases").
        assert!(
            gaps[0] < 5.0,
            "{side}: gap at b should be small, got {}",
            gaps[0]
        );
    }
}

#[test]
fn fig8_gaps_match_paper_shape() {
    let averages = |side| {
        fig8::series(profiles(), side)
            .into_iter()
            .map(|(name, s)| (name, *s.last().unwrap()))
            .collect::<std::collections::HashMap<_, _>>()
    };
    let icache = averages(Level1::Instruction);
    let dcache = averages(Level1::Data);

    // Paper: I$ hybrid beats OPT-Sleep(10K) by ~16 and Sleep(10K) by ~26.
    let i_gap_opt = icache["OPT-Hybrid"] - icache["OPT-Sleep(10K)"];
    assert!(
        (7.0..=25.0).contains(&i_gap_opt),
        "I$ hybrid-vs-optsleep gap {i_gap_opt}"
    );
    let i_gap_decay = icache["OPT-Hybrid"] - icache["Sleep(10K)"];
    assert!(
        (12.0..=32.0).contains(&i_gap_decay),
        "I$ hybrid-vs-decay gap {i_gap_decay}"
    );

    // Paper: the D$ gaps are smaller (12 and 15).
    let d_gap_decay = dcache["OPT-Hybrid"] - dcache["Sleep(10K)"];
    assert!(d_gap_decay < i_gap_decay, "D$ decay gap smaller than I$'s");

    // Prefetch-B approaches the oracle within ~10 points on both sides
    // (paper: within 5.3 / 6.7).
    assert!(icache["OPT-Hybrid"] - icache["Prefetch-B"] < 10.0);
    assert!(dcache["OPT-Hybrid"] - dcache["Prefetch-B"] < 10.0);
}

#[test]
fn fig9_prefetchability_bands() {
    // Paper: P-NL(I$) = 23% of intervals; total D$ prefetchability 21.4%
    // with a 16.3/5.1 NL/stride split. Bands here are generous: the
    // count-weighted statistics are the most workload-sensitive numbers
    // in the study.
    let icache = fig9::average(profiles(), Level1::Instruction);
    assert!(
        (15.0..=35.0).contains(&icache.total_nl()),
        "I$ P-NL {}",
        icache.total_nl()
    );
    assert_eq!(icache.total_stride(), 0.0, "I$ uses next-line only");

    let dcache = fig9::average(profiles(), Level1::Data);
    assert!(dcache.total_nl() > 5.0, "D$ P-NL {}", dcache.total_nl());
    assert!(
        dcache.total_stride() > 0.0,
        "D$ P-stride {}",
        dcache.total_stride()
    );
    assert!(
        dcache.total_nl() > dcache.total_stride(),
        "next-line covers more than stride, as in the paper"
    );
}
