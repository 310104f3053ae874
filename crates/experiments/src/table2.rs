//! Table 2: optimal leakage savings with technology scaling.

use crate::eval::mean;
use crate::render::pct;
use crate::{BenchmarkProfile, Table};
use leakage_cachesim::Level1;
use leakage_core::{CircuitParams, GeneralizedModel, OptimalSavings, TechnologyNode};
use rayon::prelude::*;

/// One Table 2 column: the three optimal savings for both caches at one
/// technology node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSavings {
    /// The node.
    pub node: TechnologyNode,
    /// `(OPT-Drowsy, OPT-Sleep, OPT-Hybrid)` for the instruction cache,
    /// percent.
    pub icache: (f64, f64, f64),
    /// The same for the data cache.
    pub dcache: (f64, f64, f64),
}

/// Computes Table 2's savings for one node, averaged over benchmarks.
///
/// `OPT-Sleep` here gates every interval beyond the node's drowsy–sleep
/// inflection point (the paper's "aggressively turning off all intervals
/// that are greater than the sleep-drowsy inflection point").
pub fn node_savings(node: TechnologyNode, profiles: &[BenchmarkProfile]) -> NodeSavings {
    let model = GeneralizedModel::from_params(CircuitParams::for_node(node));
    let side = |side: Level1| {
        let savings: Vec<OptimalSavings> = profiles
            .iter()
            .map(|p| model.optimal_savings(&p.side(side).dist))
            .collect();
        let average =
            |pick: fn(&OptimalSavings) -> f64| mean(&savings.iter().map(pick).collect::<Vec<_>>());
        (
            average(|s| s.opt_drowsy),
            average(|s| s.opt_sleep),
            average(|s| s.opt_hybrid),
        )
    };
    NodeSavings {
        node,
        icache: side(Level1::Instruction),
        dcache: side(Level1::Data),
    }
}

/// Regenerates Table 2 over all four nodes.
pub fn generate(profiles: &[BenchmarkProfile]) -> Table {
    let mut headers = vec!["".to_string()];
    headers.extend(TechnologyNode::ALL.iter().map(|n| n.to_string()));
    let mut table = Table::new(
        "Table 2: optimal leakage saving percentages with technology scaling",
        headers,
    );

    // Nodes are independent design points; evaluate them in parallel.
    let all: Vec<NodeSavings> = TechnologyNode::ALL
        .par_iter()
        .map(|&node| node_savings(node, profiles))
        .collect();

    let mut row = |label: &str, values: Vec<String>| {
        let mut cells = vec![label.to_string()];
        cells.extend(values);
        table.push_row(cells);
    };

    row(
        "Vdd (V)",
        all.iter().map(|s| format!("{:.1}", s.node.vdd())).collect(),
    );
    row(
        "Vth (V)",
        all.iter().map(|s| format!("{:.4}", s.node.vth())).collect(),
    );
    row(
        "I-Cache OPT-Drowsy (%)",
        all.iter().map(|s| pct(s.icache.0)).collect(),
    );
    row(
        "I-Cache OPT-Sleep (%)",
        all.iter().map(|s| pct(s.icache.1)).collect(),
    );
    row(
        "I-Cache OPT-Hybrid (%)",
        all.iter().map(|s| pct(s.icache.2)).collect(),
    );
    row(
        "D-Cache OPT-Drowsy (%)",
        all.iter().map(|s| pct(s.dcache.0)).collect(),
    );
    row(
        "D-Cache OPT-Sleep (%)",
        all.iter().map(|s| pct(s.dcache.1)).collect(),
    );
    row(
        "D-Cache OPT-Hybrid (%)",
        all.iter().map(|s| pct(s.dcache.2)).collect(),
    );

    table
}

/// Sanity metric for calibration: the suite-average hybrid savings at
/// the headline node, `(icache, dcache)`.
pub fn headline_hybrid(profiles: &[BenchmarkProfile]) -> (f64, f64) {
    let s = node_savings(crate::HEADLINE_NODE, profiles);
    (s.icache.2, s.dcache.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached_profile;
    use leakage_workloads::Scale;

    #[test]
    fn structure_and_monotonicity() {
        let profiles = vec![cached_profile("gzip", Scale::Test).as_ref().clone()];
        let table = generate(&profiles);
        assert_eq!(table.rows().len(), 8);
        assert_eq!(table.headers().len(), 5);

        // Hybrid dominates both components at every node.
        let all: Vec<NodeSavings> = TechnologyNode::ALL
            .iter()
            .map(|&n| node_savings(n, &profiles))
            .collect();
        for s in &all {
            assert!(s.icache.2 + 1e-9 >= s.icache.0);
            assert!(s.icache.2 + 1e-9 >= s.icache.1);
            assert!(s.dcache.2 + 1e-9 >= s.dcache.0);
            assert!(s.dcache.2 + 1e-9 >= s.dcache.1);
        }
        // Hybrid savings do not grow as technology gets older (b grows).
        for pair in all.windows(2) {
            assert!(pair[0].icache.2 + 1e-9 >= pair[1].icache.2);
            assert!(pair[0].dcache.2 + 1e-9 >= pair[1].dcache.2);
        }
    }
}
