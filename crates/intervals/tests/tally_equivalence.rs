//! Property test: [`IntervalTally`] folds to exactly the
//! [`CompactIntervalDist`] that recording every interval directly
//! builds — equal as a multiset and iterated in the same order.

use leakage_cachesim::FrameId;
use leakage_intervals::{
    CompactIntervalDist, Interval, IntervalClass, IntervalKind, IntervalSink, IntervalTally,
    WakeHints, DENSE_LEN,
};
use leakage_trace::Cycle;
use proptest::prelude::*;

const KINDS: [IntervalKind; 5] = [
    IntervalKind::Interior { reaccess: true },
    IntervalKind::Interior { reaccess: false },
    IntervalKind::Leading,
    IntervalKind::Trailing,
    IntervalKind::Untouched,
];

const BOUNDARY_LENGTHS: [u64; 7] = [
    0,
    1,
    DENSE_LEN - 1,
    DENSE_LEN,
    DENSE_LEN + 1,
    u64::MAX - 1,
    u64::MAX,
];

fn interval(length: u64, kind: usize, hints: u8, dirty: bool) -> Interval {
    Interval {
        frame: FrameId::new(0),
        start: Cycle::ZERO,
        length,
        kind: KINDS[kind],
        wake: WakeHints {
            next_line: hints & 1 != 0,
            stride: hints & 2 != 0,
        },
        dirty,
    }
}

/// Feeds `intervals` through both sinks and checks the fold against
/// the direct dist, including its iteration order.
fn assert_equivalent(intervals: &[Interval]) {
    let mut direct = CompactIntervalDist::new();
    let mut tally = IntervalTally::new();
    for &interval in intervals {
        direct.record(interval);
        tally.record(interval);
    }
    let folded = tally.into_dist();
    assert_eq!(folded, direct);
    let order = |dist: &CompactIntervalDist| -> Vec<(IntervalClass, u64)> {
        dist.iter().map(|(class, count)| (*class, count)).collect()
    };
    assert_eq!(order(&folded), order(&direct), "iteration order differs");
}

fn length() -> impl Strategy<Value = u64> {
    prop_oneof![
        // Few distinct short lengths, so dense cells repeat.
        0..64u64,
        0..DENSE_LEN + 64,
        DENSE_LEN..u64::MAX,
        prop::sample::select(BOUNDARY_LENGTHS.to_vec()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tally_folds_to_the_direct_dist(
        raw in prop::collection::vec((length(), 0..5usize, 0..4u8, 0..2u8), 0..3000),
    ) {
        let intervals: Vec<Interval> = raw
            .into_iter()
            .map(|(length, kind, hints, dirty)| interval(length, kind, hints, dirty == 1))
            .collect();
        assert_equivalent(&intervals);
    }
}

/// Every boundary length under every kind, hint combination and
/// dirtiness, each recorded twice.
#[test]
fn every_class_shape_at_the_boundaries() {
    let mut intervals = Vec::new();
    for length in BOUNDARY_LENGTHS {
        for kind in 0..KINDS.len() {
            for hints in 0..4 {
                for dirty in [false, true] {
                    intervals.push(interval(length, kind, hints, dirty));
                }
            }
        }
    }
    let twice: Vec<Interval> = intervals.iter().chain(&intervals).copied().collect();
    assert_equivalent(&twice);
}

/// Two short classes 200,000 times each: their cells fill, and spill
/// into the map, three times over.
#[test]
fn saturated_cells_spill_without_changing_the_result() {
    let intervals: Vec<Interval> = (0..400_000u64)
        .map(|i| interval(i % 2, 0, 3, i % 2 == 0))
        .chain([interval(u64::MAX, 0, 0, false)])
        .collect();
    assert_equivalent(&intervals);
}

#[test]
fn empty_tally_folds_to_an_empty_dist() {
    assert_eq!(IntervalTally::new().into_dist(), CompactIntervalDist::new());
}
