//! Batch reference interval extractors.
//!
//! The production extractors are streaming: `IntervalExtractor` keeps
//! one slot per frame and closes intervals online;
//! `StreamingExtractor` does the same keyed by line address. The
//! references here buffer the *whole* event list first and then derive
//! each frame's (or line's) intervals by re-reading it — the most
//! literal transcription of the interval definition in the paper: the
//! gaps between consecutive accesses to one frame, plus the leading gap
//! before its first access, the trailing gap after its last, and a
//! full-trace interval for frames never touched.
//!
//! Two variants:
//!
//! * [`reference_intervals`] buckets events by frame in one pass, then
//!   replays each bucket — O(n) memory, fast enough to run against all
//!   six workloads at full test scale.
//! * [`reference_intervals_quadratic`] rescans the entire event list
//!   once per frame — the O(frames · n) "no cleverness whatsoever"
//!   oracle, used on fuzzed traces (and to cross-check the bucketed
//!   variant).
//! * [`reference_line_intervals_quadratic`] does the same per distinct
//!   *line*, mirroring `StreamingExtractor` (interior intervals are
//!   always re-accesses; no leading/untouched intervals).

use leakage_intervals::{CompactIntervalDist, IntervalClass, IntervalKind, WakeHints};
use leakage_trace::LineAddr;

/// One recorded access event, the replay input for the reference
/// extractors: frame and line resolved by the cache, timestamp, hit
/// flag, and the frame's dirtiness *after* the access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// The frame the access resolved to (hit frame or fill target).
    pub frame: u32,
    /// The line accessed.
    pub line: LineAddr,
    /// Issue cycle.
    pub cycle: u64,
    /// Whether the access hit.
    pub hit: bool,
    /// Whether the frame's resident line is dirty after this access.
    pub dirty: bool,
}

/// Derives a frame's interval classes from its access list (cycles in
/// nondecreasing order) and the trace end.
fn frame_intervals(accesses: &[&AccessEvent], end: u64, dist: &mut CompactIntervalDist) {
    match accesses.split_first() {
        None => dist.add(
            IntervalClass {
                length: end,
                kind: IntervalKind::Untouched,
                wake: WakeHints::NONE,
                dirty: false,
            },
            1,
        ),
        Some((first, rest)) => {
            dist.add(
                IntervalClass {
                    length: first.cycle,
                    kind: IntervalKind::Leading,
                    wake: WakeHints::NONE,
                    dirty: false,
                },
                1,
            );
            let mut prev = *first;
            for event in rest {
                dist.add(
                    IntervalClass {
                        length: event.cycle - prev.cycle,
                        kind: IntervalKind::Interior {
                            reaccess: event.hit,
                        },
                        wake: WakeHints::NONE,
                        dirty: prev.dirty,
                    },
                    1,
                );
                prev = *event;
            }
            dist.add(
                IntervalClass {
                    length: end.saturating_sub(prev.cycle),
                    kind: IntervalKind::Trailing,
                    wake: WakeHints::NONE,
                    dirty: prev.dirty,
                },
                1,
            );
        }
    }
}

/// Bucketed reference: one pass to group events by frame (preserving
/// order), then per-frame interval derivation. Checks
/// `IntervalExtractor` exactly (for traces extracted without wake
/// hints).
pub fn reference_intervals(
    num_frames: u32,
    events: &[AccessEvent],
    end: u64,
) -> CompactIntervalDist {
    let mut buckets: Vec<Vec<&AccessEvent>> = vec![Vec::new(); num_frames as usize];
    for event in events {
        buckets[event.frame as usize].push(event);
    }
    let mut dist = CompactIntervalDist::new();
    for bucket in &buckets {
        frame_intervals(bucket, end, &mut dist);
    }
    dist
}

/// Quadratic reference: for every frame, rescan the whole event list.
/// Identical output to [`reference_intervals`]; exists so the oracle
/// used on fuzzed traces has no data-structure cleverness at all.
pub fn reference_intervals_quadratic(
    num_frames: u32,
    events: &[AccessEvent],
    end: u64,
) -> CompactIntervalDist {
    let mut dist = CompactIntervalDist::new();
    for frame in 0..num_frames {
        let mine: Vec<&AccessEvent> = events.iter().filter(|e| e.frame == frame).collect();
        frame_intervals(&mine, end, &mut dist);
    }
    dist
}

/// Quadratic line-centric reference, mirroring `StreamingExtractor`:
/// for every distinct line, rescan the whole event list; interior
/// intervals are always re-accesses (a line-keyed timeline has no
/// fills-over-other-data), each line contributes a trailing interval,
/// and there are no leading or untouched intervals.
pub fn reference_line_intervals_quadratic(events: &[AccessEvent], end: u64) -> CompactIntervalDist {
    let mut seen: Vec<LineAddr> = Vec::new();
    for event in events {
        if !seen.contains(&event.line) {
            seen.push(event.line);
        }
    }
    let mut dist = CompactIntervalDist::new();
    for &line in &seen {
        let mut prev: Option<u64> = None;
        for event in events.iter().filter(|e| e.line == line) {
            if let Some(last) = prev {
                dist.add(
                    IntervalClass {
                        length: event.cycle - last,
                        kind: IntervalKind::Interior { reaccess: true },
                        wake: WakeHints::NONE,
                        dirty: false,
                    },
                    1,
                );
            }
            prev = Some(event.cycle);
        }
        dist.add(
            IntervalClass {
                length: end.saturating_sub(prev.expect("line was seen")),
                kind: IntervalKind::Trailing,
                wake: WakeHints::NONE,
                dirty: false,
            },
            1,
        );
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(frame: u32, cycle: u64, hit: bool) -> AccessEvent {
        AccessEvent {
            frame,
            line: LineAddr::new(u64::from(frame)),
            cycle,
            hit,
            dirty: false,
        }
    }

    #[test]
    fn covers_leading_interior_trailing_untouched() {
        let events = [ev(0, 10, false), ev(0, 30, true)];
        let dist = reference_intervals(2, &events, 50);
        assert_eq!(dist.total_intervals(), 4); // leading, interior, trailing, untouched
        assert_eq!(dist.total_cycles(), 2 * 50); // coverage per frame
        assert_eq!(
            dist.count_matching(|c| c.kind == IntervalKind::Untouched),
            1
        );
    }

    #[test]
    fn quadratic_and_bucketed_agree() {
        let events = [
            ev(0, 3, false),
            ev(1, 7, false),
            ev(0, 9, true),
            ev(2, 11, false),
            ev(0, 30, false),
            ev(1, 31, true),
        ];
        assert_eq!(
            reference_intervals(4, &events, 64),
            reference_intervals_quadratic(4, &events, 64)
        );
    }

    #[test]
    fn line_reference_counts_only_touched_lines() {
        let events = [ev(0, 5, false), ev(0, 9, true), ev(3, 12, false)];
        let dist = reference_line_intervals_quadratic(&events, 20);
        // line 0: one interior + trailing; line 3: trailing.
        assert_eq!(dist.total_intervals(), 3);
        assert_eq!(
            dist.cycles_matching(|c| c.kind == IntervalKind::Trailing),
            (20 - 9) + (20 - 12)
        );
    }
}
