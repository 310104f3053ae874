//! Reproduction checks: cheap structural and invariant validation of
//! every emitted table, so `repro` can report a per-experiment
//! pass/fail verdict (recorded in the run manifest) and exit non-zero
//! when a regeneration is broken.
//!
//! Two layers:
//!
//! * **Structural** ([`check_table`]) — applied to every table: it
//!   must have rows, every row must match the header width, no cell
//!   may be empty, and any cell that parses as a float must be finite
//!   (a NaN in a table means an accounting bug upstream).
//!
//! * **Artifact-specific** ([`check_static_artifact`]) — exact-value
//!   checks for the scale-independent artifacts (Table 1, Table 3,
//!   Fig. 1 are analytic: they depend only on the ITRS constants, not
//!   on simulated profiles). Profile-dependent artifacts vary with
//!   `--scale`, so their reproduction envelope is owned by the tier-1
//!   test suite (`tests/paper_artifacts.rs`), not re-encoded here.

use crate::Table;

/// Structural validation applied to every emitted table.
pub fn check_table(table: &Table) -> Result<(), String> {
    let title = table.title();
    if table.rows().is_empty() {
        return Err(format!("{title:?}: no rows"));
    }
    let width = table.headers().len();
    for (index, row) in table.rows().iter().enumerate() {
        if row.len() != width {
            return Err(format!(
                "{title:?} row {index}: {} cells, header has {width}",
                row.len()
            ));
        }
        for (cell, header) in row.iter().zip(table.headers()) {
            if cell.trim().is_empty() {
                return Err(format!(
                    "{title:?} row {index}, column {header:?}: empty cell"
                ));
            }
            if let Ok(value) = cell.trim().parse::<f64>() {
                if !value.is_finite() {
                    return Err(format!(
                        "{title:?} row {index}, column {header:?}: non-finite value {cell:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Exact-value checks for the scale-independent artifacts, keyed by
/// experiment name. Unknown names pass vacuously (their tables still
/// go through [`check_table`]).
pub fn check_static_artifact(experiment: &str, table: &Table) -> Result<(), String> {
    match experiment {
        "table1" => {
            // Paper Table 1: one row per technology node, the 180nm
            // drowsy→sleep inflection at 103084 cycles and every
            // active→drowsy inflection at 6 cycles.
            let rows = table.rows();
            if rows.len() != 2 {
                return Err(format!("table1: expected 2 rows, got {}", rows.len()));
            }
            if rows[0].iter().skip(1).any(|cell| cell != "6") {
                return Err(format!(
                    "table1: active→drowsy row should be all 6s: {:?}",
                    rows[0]
                ));
            }
            if rows[1][4] != "103084" {
                return Err(format!(
                    "table1: 180nm drowsy→sleep inflection {} != 103084",
                    rows[1][4]
                ));
            }
            Ok(())
        }
        "fig1" => {
            // ITRS projection: the leakage fraction must increase
            // monotonically as feature size shrinks.
            let fractions: Vec<f64> = table
                .rows()
                .iter()
                .map(|row| {
                    row[1]
                        .trim_end_matches('%')
                        .parse::<f64>()
                        .map_err(|_| format!("fig1: unparsable leakage fraction {:?}", row[1]))
                })
                .collect::<Result<_, _>>()?;
            if fractions.windows(2).any(|pair| pair[1] < pair[0]) {
                return Err(format!(
                    "fig1: leakage fraction not increasing: {fractions:?}"
                ));
            }
            Ok(())
        }
        "table3" => {
            // Scheme definitions: both scheme columns present, every
            // assignment a valid operating mode.
            for scheme in ["Prefetch-A", "Prefetch-B"] {
                if !table.headers().iter().any(|h| h == scheme) {
                    return Err(format!("table3: missing scheme column {scheme}"));
                }
            }
            for row in table.rows() {
                for mode in &row[1..] {
                    if !["active", "drowsy", "sleep"].contains(&mode.as_str()) {
                        return Err(format!("table3: invalid mode {mode:?}"));
                    }
                }
            }
            Ok(())
        }
        "isa-suite" => {
            // Profile numbers vary with --scale, but the shape does
            // not: every library program must appear on both cache
            // sides, and an executed program cannot retire zero
            // accesses on either of them.
            let expected = 2 * leakage_workloads::ISA_SUITE_NAMES.len();
            if table.rows().len() != expected {
                return Err(format!(
                    "isa-suite: expected {expected} rows (program × side), got {}",
                    table.rows().len()
                ));
            }
            for row in table.rows() {
                if !leakage_workloads::ISA_SUITE_NAMES.contains(&row[0].as_str()) {
                    return Err(format!("isa-suite: unknown program {:?}", row[0]));
                }
                if row[2]
                    .parse::<u64>()
                    .ok()
                    .is_none_or(|accesses| accesses == 0)
                {
                    return Err(format!(
                        "isa-suite: {}/{} retired no cache accesses",
                        row[0], row[1]
                    ));
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(headers: &[&str], rows: &[&[&str]]) -> Table {
        let mut t = Table::new("t", headers.iter().map(|s| s.to_string()).collect());
        for row in rows {
            t.push_row(row.iter().map(|s| s.to_string()).collect());
        }
        t
    }

    #[test]
    fn structural_accepts_wellformed() {
        let t = table(&["a", "b"], &[&["1", "x"], &["2.5", "y"]]);
        assert!(check_table(&t).is_ok());
    }

    #[test]
    fn structural_rejects_empty_blank_and_nan() {
        // (Ragged rows are unconstructible: Table::push_row asserts
        // the width; check_table's width check is defense-in-depth.)
        assert!(check_table(&table(&["a"], &[])).is_err());
        assert!(check_table(&table(&["a"], &[&[" "]])).is_err());
        assert!(check_table(&table(&["a"], &[&["NaN"]])).is_err());
        assert!(check_table(&table(&["a"], &[&["inf"]])).is_err());
    }

    #[test]
    fn static_checks_pass_on_real_artifacts() {
        assert_eq!(
            check_static_artifact("table1", &crate::table1::generate()),
            Ok(())
        );
        assert_eq!(
            check_static_artifact("fig1", &crate::fig1::generate()),
            Ok(())
        );
        assert_eq!(
            check_static_artifact("table3", &crate::table3::generate()),
            Ok(())
        );
        // Unknown experiments pass vacuously.
        assert_eq!(
            check_static_artifact("fig8", &table(&["a"], &[&["1"]])),
            Ok(())
        );
    }

    #[test]
    fn static_check_catches_tampering() {
        let mut t = crate::table1::generate();
        let mut rows: Vec<Vec<String>> = t.rows().to_vec();
        rows[1][4] = "1".to_string();
        t = Table::new(t.title().to_string(), t.headers().to_vec());
        for row in rows {
            t.push_row(row);
        }
        assert!(check_static_artifact("table1", &t).is_err());
    }
}
