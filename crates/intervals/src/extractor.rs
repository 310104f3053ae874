//! Online interval extraction.

use crate::{Interval, IntervalKind, IntervalSink, WakeHints};
use leakage_cachesim::FrameId;
use leakage_trace::Cycle;

/// Per-frame extraction state.
#[derive(Debug, Clone, Copy)]
struct FrameSlot {
    /// Timestamp of the last access, if the frame has been touched.
    last_access: Option<Cycle>,
    /// Wake hints accumulated for the currently open interval.
    wake: WakeHints,
    /// Dirtiness of the data resting through the open interval.
    dirty: bool,
}

/// Streams L1 access events into closed [`Interval`]s.
///
/// Feed every access to a cache through [`on_access`], interleave
/// [`mark_wake`] calls from the prefetchability analysis, and call
/// [`finish`] once the trace ends to flush trailing and untouched
/// intervals.
///
/// The extractor guarantees the *coverage invariant*: the interval
/// lengths it emits for one frame sum exactly to the trace length, so
/// energy accounted per interval covers each frame-cycle exactly once.
///
/// [`on_access`]: IntervalExtractor::on_access
/// [`mark_wake`]: IntervalExtractor::mark_wake
/// [`finish`]: IntervalExtractor::finish
#[derive(Debug, Clone)]
pub struct IntervalExtractor {
    frames: Vec<FrameSlot>,
    /// Intervals closed by accesses so far. A plain (non-atomic) local
    /// tally — the hot loop pays one register increment; the total is
    /// flushed to the telemetry registry in
    /// [`finish`](IntervalExtractor::finish).
    closed: u64,
}

impl IntervalExtractor {
    /// Creates an extractor for a cache with `num_frames` frames.
    pub fn new(num_frames: u32) -> Self {
        IntervalExtractor {
            frames: vec![
                FrameSlot {
                    last_access: None,
                    wake: WakeHints::NONE,
                    dirty: false,
                };
                num_frames as usize
            ],
            closed: 0,
        }
    }

    /// Number of frames being tracked.
    pub fn num_frames(&self) -> u32 {
        self.frames.len() as u32
    }

    /// Records an access to `frame` at `cycle`, closing the interval
    /// that was open on the frame (if any) into `sink`.
    ///
    /// `hit` is whether the access found the resident line (a hit closes
    /// a *live* interval; a fill closes a *dead* one).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range, or (in debug builds) if
    /// accesses to a frame arrive out of cycle order.
    pub fn on_access(
        &mut self,
        frame: FrameId,
        cycle: Cycle,
        hit: bool,
        sink: &mut impl IntervalSink,
    ) {
        self.on_access_full(frame, cycle, hit, false, sink);
    }

    /// Like [`on_access`](IntervalExtractor::on_access), additionally
    /// tracking the frame's dirtiness: `now_dirty` is whether the
    /// resident line is dirty *after* this access (from
    /// [`Cache::frame_dirty`]); the interval being closed carries the
    /// dirtiness recorded when it opened.
    ///
    /// [`Cache::frame_dirty`]: leakage_cachesim::Cache::frame_dirty
    pub fn on_access_full(
        &mut self,
        frame: FrameId,
        cycle: Cycle,
        hit: bool,
        now_dirty: bool,
        sink: &mut impl IntervalSink,
    ) {
        let slot = &mut self.frames[frame.index() as usize];
        let interval = match slot.last_access {
            Some(last) => Interval {
                frame,
                start: last,
                length: cycle.since(last),
                kind: IntervalKind::Interior { reaccess: hit },
                wake: slot.wake,
                dirty: slot.dirty,
            },
            None => Interval {
                frame,
                start: Cycle::ZERO,
                length: cycle.since(Cycle::ZERO),
                kind: IntervalKind::Leading,
                wake: slot.wake,
                dirty: false,
            },
        };
        slot.last_access = Some(cycle);
        slot.wake = WakeHints::NONE;
        slot.dirty = now_dirty;
        self.closed += 1;
        sink.record(interval);
    }

    /// The timestamp of the last access to `frame`, if it has been
    /// touched — i.e. the start of the currently open interval.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn last_access(&self, frame: FrameId) -> Option<Cycle> {
        self.frames[frame.index() as usize].last_access
    }

    /// Merges prefetchability hints into the interval currently open on
    /// `frame`. Hints are consumed when the interval closes.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range.
    pub fn mark_wake(&mut self, frame: FrameId, hints: WakeHints) {
        let slot = &mut self.frames[frame.index() as usize];
        slot.wake = slot.wake.union(hints);
    }

    /// Ends the trace at `end` (exclusive), emitting a trailing interval
    /// for every touched frame and an untouched interval for the rest.
    ///
    /// Boundary lengths saturate rather than underflow: an `end` at the
    /// last access yields a zero-length trailing interval, and an `end`
    /// *before* a frame's last access (a truncated trace) clamps that
    /// frame's trailing interval to zero instead of wrapping to a huge
    /// length in release builds. The coverage invariant then holds with
    /// the effective trace end `max(end, last access per frame)`.
    pub fn finish(self, end: Cycle, sink: &mut impl IntervalSink) {
        leakage_telemetry::counter!("intervals_closed_total").add(self.closed);
        leakage_telemetry::counter!("intervals_flushed_total").add(self.frames.len() as u64);
        for (index, slot) in self.frames.into_iter().enumerate() {
            let frame = FrameId::new(index as u32);
            let interval = match slot.last_access {
                Some(last) => Interval {
                    frame,
                    start: last,
                    length: end.saturating_since(last),
                    kind: IntervalKind::Trailing,
                    wake: slot.wake,
                    dirty: slot.dirty,
                },
                None => Interval {
                    frame,
                    start: Cycle::ZERO,
                    length: end.since(Cycle::ZERO),
                    kind: IntervalKind::Untouched,
                    wake: slot.wake,
                    dirty: false,
                },
            };
            sink.record(interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectSink;

    fn f(i: u32) -> FrameId {
        FrameId::new(i)
    }

    fn c(i: u64) -> Cycle {
        Cycle::new(i)
    }

    #[test]
    fn leading_interior_trailing() {
        let mut x = IntervalExtractor::new(1);
        let mut sink = CollectSink::new();
        x.on_access(f(0), c(10), false, &mut sink);
        x.on_access(f(0), c(30), true, &mut sink);
        x.on_access(f(0), c(35), false, &mut sink); // refill: dead interval
        x.finish(c(50), &mut sink);

        let v = sink.into_intervals();
        assert_eq!(v.len(), 4);
        assert_eq!(v[0].kind, IntervalKind::Leading);
        assert_eq!(v[0].length, 10);
        assert_eq!(v[1].kind, IntervalKind::Interior { reaccess: true });
        assert_eq!(v[1].length, 20);
        assert_eq!(v[2].kind, IntervalKind::Interior { reaccess: false });
        assert_eq!(v[2].length, 5);
        assert_eq!(v[3].kind, IntervalKind::Trailing);
        assert_eq!(v[3].length, 15);
    }

    #[test]
    fn untouched_frames_cover_whole_trace() {
        let x = IntervalExtractor::new(3);
        let mut sink = CollectSink::new();
        x.finish(c(1000), &mut sink);
        let v = sink.into_intervals();
        assert_eq!(v.len(), 3);
        for i in &v {
            assert_eq!(i.kind, IntervalKind::Untouched);
            assert_eq!(i.length, 1000);
        }
    }

    #[test]
    fn coverage_invariant() {
        // Random-ish accesses on 4 frames; per-frame lengths sum to end.
        let mut x = IntervalExtractor::new(4);
        let mut sink = CollectSink::new();
        let accesses = [
            (0, 3, true),
            (1, 7, false),
            (0, 9, true),
            (2, 11, false),
            (0, 30, false),
            (1, 31, true),
        ];
        for (frame, cycle, hit) in accesses {
            x.on_access(f(frame), c(cycle), hit, &mut sink);
        }
        let end = 64;
        x.finish(c(end), &mut sink);
        let v = sink.into_intervals();
        for frame in 0..4u32 {
            let sum: u64 = v
                .iter()
                .filter(|i| i.frame == f(frame))
                .map(|i| i.length)
                .sum();
            assert_eq!(sum, end, "frame {frame} timeline not fully covered");
        }
    }

    #[test]
    fn wake_hints_attach_to_open_interval_and_reset() {
        let mut x = IntervalExtractor::new(1);
        let mut sink = CollectSink::new();
        x.on_access(f(0), c(5), false, &mut sink);
        x.mark_wake(
            f(0),
            WakeHints {
                next_line: true,
                stride: false,
            },
        );
        x.mark_wake(
            f(0),
            WakeHints {
                next_line: false,
                stride: true,
            },
        );
        x.on_access(f(0), c(20), true, &mut sink); // closes hinted interval
        x.on_access(f(0), c(40), true, &mut sink); // hint must not leak
        x.finish(c(41), &mut sink);

        let v = sink.into_intervals();
        assert!(v[1].wake.next_line);
        assert!(v[1].wake.stride);
        assert_eq!(v[2].wake, WakeHints::NONE);
    }

    #[test]
    fn zero_length_interval_allowed() {
        let mut x = IntervalExtractor::new(1);
        let mut sink = CollectSink::new();
        x.on_access(f(0), c(5), false, &mut sink);
        x.on_access(f(0), c(5), true, &mut sink);
        x.finish(c(5), &mut sink);
        let v = sink.into_intervals();
        assert_eq!(v[1].length, 0);
        assert_eq!(v[2].length, 0); // trailing
    }

    #[test]
    fn dirtiness_tracks_open_intervals() {
        let mut x = IntervalExtractor::new(1);
        let mut sink = CollectSink::new();
        x.on_access_full(f(0), c(5), false, true, &mut sink); // dirty fill
        x.on_access_full(f(0), c(20), true, true, &mut sink); // dirty rest
        x.on_access_full(f(0), c(40), false, false, &mut sink); // clean refill
        x.finish(c(60), &mut sink);
        let v = sink.into_intervals();
        assert!(!v[0].dirty, "leading: frame was empty");
        assert!(v[1].dirty, "interval after the dirty fill");
        assert!(v[2].dirty, "still dirty until the refill");
        assert!(!v[3].dirty, "trailing after a clean fill");
    }

    #[test]
    fn line_touched_exactly_once() {
        // A single access splits the frame's timeline into exactly
        // leading + trailing; the trailing interval carries the
        // dirtiness the one access left behind.
        let mut x = IntervalExtractor::new(1);
        let mut sink = CollectSink::new();
        x.on_access_full(f(0), c(17), false, true, &mut sink);
        x.finish(c(100), &mut sink);
        let v = sink.into_intervals();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].kind, IntervalKind::Leading);
        assert_eq!(v[0].length, 17);
        assert!(!v[0].dirty);
        assert_eq!(v[1].kind, IntervalKind::Trailing);
        assert_eq!(v[1].length, 83);
        assert!(v[1].dirty);
        assert_eq!(v[0].length + v[1].length, 100);
    }

    #[test]
    fn zero_length_intervals_at_both_trace_boundaries() {
        // Access at cycle 0 -> zero-length leading; finish at the last
        // access cycle -> zero-length trailing. Coverage still holds.
        let mut x = IntervalExtractor::new(1);
        let mut sink = CollectSink::new();
        x.on_access(f(0), c(0), false, &mut sink);
        x.on_access(f(0), c(40), true, &mut sink);
        x.finish(c(40), &mut sink);
        let v = sink.into_intervals();
        assert_eq!(v[0].kind, IntervalKind::Leading);
        assert_eq!(v[0].length, 0);
        assert_eq!(v[1].length, 40);
        assert_eq!(v[2].kind, IntervalKind::Trailing);
        assert_eq!(v[2].length, 0);
        assert_eq!(v.iter().map(|i| i.length).sum::<u64>(), 40);
    }

    #[test]
    fn finish_before_last_access_clamps_trailing() {
        // A truncated trace may hand finish() an end before the last
        // access; the trailing interval clamps to zero length instead
        // of wrapping (release) or panicking (debug).
        let mut x = IntervalExtractor::new(2);
        let mut sink = CollectSink::new();
        x.on_access(f(0), c(50), false, &mut sink);
        x.finish(c(30), &mut sink);
        let v = sink.into_intervals();
        let trailing = v
            .iter()
            .find(|i| i.frame == f(0) && i.kind == IntervalKind::Trailing);
        assert_eq!(trailing.unwrap().length, 0);
        // Untouched frames still cover [0, end).
        let untouched = v.iter().find(|i| i.frame == f(1)).unwrap();
        assert_eq!(untouched.kind, IntervalKind::Untouched);
        assert_eq!(untouched.length, 30);
    }

    #[test]
    #[should_panic]
    fn out_of_range_frame_panics() {
        let mut x = IntervalExtractor::new(1);
        let mut sink = CollectSink::new();
        x.on_access(f(5), c(0), false, &mut sink);
    }
}
