//! Satellite coverage: the metrics registry and span profile under
//! concurrency.

use leakage_telemetry as telemetry;
use rayon::prelude::*;
use telemetry::{counter, gauge, histogram};

/// Concurrent counter increments under a rayon fan-out sum exactly:
/// no lost updates, no double counts.
#[test]
fn concurrent_counter_increments_sum_exactly() {
    const TASKS: usize = 64;
    const PER_TASK: u64 = 1_000;
    (0..TASKS).into_par_iter().for_each(|_| {
        for _ in 0..PER_TASK {
            counter!("registry_test_fanout_total").inc();
        }
    });
    assert_eq!(
        telemetry::registry()
            .counter("registry_test_fanout_total")
            .get(),
        TASKS as u64 * PER_TASK
    );
}

/// Striped counters lose no updates under a rayon fan-out and are
/// visible through the merged snapshot (and hence the Prometheus
/// exporter).
#[test]
fn concurrent_striped_counter_sums_exactly() {
    const TASKS: usize = 64;
    const PER_TASK: u64 = 1_000;
    (0..TASKS).into_par_iter().for_each(|_| {
        for _ in 0..PER_TASK {
            telemetry::striped_counter!("registry_test_striped_total").inc();
        }
    });
    assert_eq!(
        telemetry::registry()
            .striped_counter("registry_test_striped_total")
            .get(),
        TASKS as u64 * PER_TASK
    );
    let snap = telemetry::registry().snapshot();
    assert!(
        snap.counters
            .iter()
            .any(|(name, v)| name == "registry_test_striped_total"
                && *v == TASKS as u64 * PER_TASK),
        "striped counter missing from merged snapshot"
    );
}

/// Gauge `set_max` keeps the peak under parallel writers.
#[test]
fn gauge_set_max_tracks_peak_across_threads() {
    (0..64usize).into_par_iter().for_each(|i| {
        gauge!("registry_test_peak").set_max(i as u64);
    });
    assert_eq!(telemetry::registry().gauge("registry_test_peak").get(), 63);
}

/// Bucket boundaries as documented: upper bounds inclusive, lower
/// bounds exclusive, overflow above the last bound.
#[test]
fn histogram_bounds_inclusive_upper_exclusive_lower() {
    let h = histogram!("registry_test_edges", &[10, 100, 1000]);
    for value in [0, 9, 10] {
        h.record(value); // all ≤ 10 → bucket 0
    }
    for value in [11, 100] {
        h.record(value); // 10 < v ≤ 100 → bucket 1
    }
    h.record(101); // bucket 2
    h.record(1000); // still bucket 2 (inclusive upper)
    h.record(1001); // overflow
    let snap = h.snapshot();
    assert_eq!(snap.bounds, vec![10, 100, 1000]);
    assert_eq!(snap.counts, vec![3, 2, 2, 1]);
    assert_eq!(snap.count, 8);
    assert_eq!(snap.sum, 0 + 9 + 10 + 11 + 100 + 101 + 1000 + 1001);
}

/// Histogram totals survive a rayon fan-out.
#[test]
fn histogram_concurrent_records_sum_exactly() {
    (0..32usize).into_par_iter().for_each(|i| {
        for _ in 0..100 {
            histogram!("registry_test_concurrent", &[16]).record(i as u64);
        }
    });
    let snap = telemetry::registry()
        .histogram("registry_test_concurrent", &[16])
        .snapshot();
    assert_eq!(snap.count, 3200);
    assert_eq!(snap.counts.iter().sum::<u64>(), 3200);
    // 17 of the 32 values (0..=16) are ≤ 16.
    assert_eq!(snap.counts[0], 1700);
}

/// Span nesting reconstructs the correct parent tree even when the
/// children run on rayon worker threads with empty span stacks.
#[test]
fn span_nesting_reconstructs_parent_tree_across_workers() {
    telemetry::set_enabled(true);
    {
        let _root = telemetry::span("registry_test_suite");
        let parent = telemetry::current_path().expect("root span open");
        assert!(parent.ends_with("registry_test_suite"));
        ["gzip", "gcc", "mesa"].par_iter().for_each(|bench| {
            let _bench = telemetry::span_under(&parent, bench);
            let _side = telemetry::span("extract");
        });
    }

    let tree = telemetry::span_tree();
    let suite = tree
        .iter()
        .find(|node| node.name == "registry_test_suite")
        .expect("suite node present");
    assert_eq!(suite.stat.calls, 1);
    assert_eq!(suite.children.len(), 3, "{:?}", suite.children);
    for bench in ["gcc", "gzip", "mesa"] {
        let child = suite
            .children
            .iter()
            .find(|node| node.name == bench)
            .unwrap_or_else(|| panic!("{bench} under suite"));
        assert_eq!(child.stat.calls, 1);
        assert_eq!(child.path, format!("registry_test_suite/{bench}"));
        assert_eq!(child.children.len(), 1);
        assert_eq!(child.children[0].name, "extract");
        assert_eq!(child.children[0].stat.calls, 1);
    }

    // The flat report carries the same paths.
    let report = telemetry::span_report();
    assert!(report
        .iter()
        .any(|(path, stat)| path == "registry_test_suite/gzip/extract" && stat.calls == 1));
}
