//! Fig. 10: per-mode interval energies and the optimal lower envelope.

use crate::{Table, HEADLINE_NODE};
use leakage_core::envelope::{envelope_series, optimal_mode};
use leakage_core::{CircuitParams, IntervalEnergyModel};

/// Sample interval lengths for the energy curves: dense near the
/// inflection points, logarithmic elsewhere.
pub fn sample_lengths() -> Vec<u64> {
    let mut lengths = vec![1, 2, 4, 6, 8, 16, 37, 64, 128, 256, 512];
    lengths.extend([
        800, 1000, 1057, 1100, 1500, 2000, 4000, 8000, 16_000, 50_000, 100_000,
    ]);
    lengths
}

/// Regenerates Fig. 10: for each sampled interval length, the energy of
/// the three modes (where feasible), the lower envelope, and the mode
/// Theorem 1 assigns.
pub fn generate() -> Table {
    let model = IntervalEnergyModel::new(CircuitParams::for_node(HEADLINE_NODE));
    let points = model.inflection_points();
    let mut table = Table::new(
        "Figure 10: interval energies and the optimal envelope, 70nm (pJ/line)",
        vec![
            "Interval (cycles)".to_string(),
            "E_active".to_string(),
            "E_drowsy".to_string(),
            "E_sleep".to_string(),
            "Envelope".to_string(),
            "Optimal mode".to_string(),
        ],
    );
    let fmt = |value: Option<f64>| match value {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    };
    for (t, active, drowsy, sleep, envelope) in envelope_series(&model, &sample_lengths()) {
        table.push_row(vec![
            t.to_string(),
            fmt(active),
            fmt(drowsy),
            fmt(sleep),
            format!("{envelope:.3}"),
            optimal_mode(t, &points).to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_three_regimes() {
        let table = generate();
        let modes: Vec<&str> = table.rows().iter().map(|r| r[5].as_str()).collect();
        assert!(modes.contains(&"active"));
        assert!(modes.contains(&"drowsy"));
        assert!(modes.contains(&"sleep"));
    }

    #[test]
    fn infeasible_modes_render_as_dash() {
        let table = generate();
        // At one cycle neither drowsy nor sleep fits.
        let row = &table.rows()[0];
        assert_eq!(row[0], "1");
        assert_eq!(row[2], "-");
        assert_eq!(row[3], "-");
    }
}
