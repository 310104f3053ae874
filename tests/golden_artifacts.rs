//! Golden-snapshot locking of the paper artifacts.
//!
//! Tables 1–3 and Figs. 7–9 are regenerated at `Scale::Test` (fully
//! deterministic) and compared byte-for-byte against the CSV snapshots
//! committed under `tests/golden/`. A mismatch fails with a
//! line-by-line diff; intentional changes are re-blessed with
//! `LEAKAGE_BLESS=1 cargo test --test golden_artifacts`.
//!
//! These snapshots complement the semantic reproduction checks in
//! `leakage_experiments::checks`: the checks say the numbers are
//! *plausible*, the goldens say they are *unchanged*.

use std::path::{Path, PathBuf};

use leakage_conformance::golden::check_golden;
use leakage_experiments::{
    fig7, fig8, fig9, isa_suite, profile_suite_serial, table1, table2, table3, Table,
};
use leakage_workloads::Scale;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(failures: &mut Vec<String>, name: &str, table: &Table) {
    let path = golden_dir().join(format!("{name}.csv"));
    if let Err(err) = check_golden(&path, &table.to_csv()) {
        failures.push(err);
    }
}

#[test]
fn artifacts_match_committed_goldens() {
    let profiles = profile_suite_serial(Scale::Test);
    let mut failures = Vec::new();

    check(&mut failures, "table1", &table1::generate());
    check(&mut failures, "table2", &table2::generate(&profiles));
    check(&mut failures, "table3", &table3::generate());
    check(
        &mut failures,
        "isa_suite",
        &isa_suite::generate(Scale::Test),
    );
    for (name, (icache, dcache)) in [
        ("fig7", fig7::generate(&profiles)),
        ("fig8", fig8::generate(&profiles)),
        ("fig9", fig9::generate(&profiles)),
    ] {
        check(&mut failures, &format!("{name}_icache"), &icache);
        check(&mut failures, &format!("{name}_dcache"), &dcache);
    }

    assert!(
        failures.is_empty(),
        "{} golden artifact(s) diverged:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}
