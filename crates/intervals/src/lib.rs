//! Cache access-interval extraction.
//!
//! The limit study decomposes each cache frame's lifetime into a series
//! of *intervals* — the rest periods between consecutive accesses to the
//! frame (paper §3.1). This crate extracts those intervals from the
//! stream of L1 access events produced by the cache simulator, entirely
//! online: memory use is proportional to the number of frames, never to
//! the trace length.
//!
//! Every point of a frame's timeline belongs to exactly one interval:
//!
//! * a [`IntervalKind::Leading`] interval from cycle 0 to the frame's
//!   first access,
//! * [`IntervalKind::Interior`] intervals between consecutive accesses —
//!   tagged with whether the closing access was a *hit* (sleeping the
//!   frame would have induced a miss) or a *fill* (the old data died
//!   anyway: a dead interval in the paper's generation terminology),
//! * a [`IntervalKind::Trailing`] interval after the last access, and
//! * a single [`IntervalKind::Untouched`] interval covering frames the
//!   program never references.
//!
//! Intervals also carry [`WakeHints`]: marks set by the prefetchability
//! analysis when a next-line or stride prefetch trigger fired for the
//! resident line *during* the interval (paper §5.1's definition of a
//! prefetchable interval).
//!
//! # Examples
//!
//! ```
//! use leakage_cachesim::FrameId;
//! use leakage_intervals::{CollectSink, IntervalExtractor, IntervalKind};
//! use leakage_trace::Cycle;
//!
//! let mut extractor = IntervalExtractor::new(2);
//! let mut sink = CollectSink::new();
//! extractor.on_access(FrameId::new(0), Cycle::new(10), false, &mut sink);
//! extractor.on_access(FrameId::new(0), Cycle::new(25), true, &mut sink);
//! extractor.finish(Cycle::new(100), &mut sink);
//!
//! let intervals = sink.into_intervals();
//! assert_eq!(intervals.len(), 4); // leading, interior, trailing, untouched
//! assert!(intervals.iter().any(|i| i.kind == IntervalKind::Interior { reaccess: true }
//!     && i.length == 15));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dist;
mod extractor;
mod interval;
mod streaming;
mod tally;

pub use dist::{CompactIntervalDist, IntervalClass};
pub use extractor::IntervalExtractor;
pub use interval::{Interval, IntervalKind, WakeHints};
pub use streaming::{front_slot, StreamingExtractor, FRONT_LEN};
pub use tally::{IntervalTally, DENSE_LEN};

/// A consumer of extracted intervals.
///
/// Implemented by the collectors in this crate and by the policy
/// evaluation machinery in `leakage-core`, so that a single extraction
/// pass can feed any number of analyses.
pub trait IntervalSink {
    /// Consumes one closed interval.
    fn record(&mut self, interval: Interval);
}

impl<S: IntervalSink + ?Sized> IntervalSink for &mut S {
    fn record(&mut self, interval: Interval) {
        (**self).record(interval);
    }
}

impl<A: IntervalSink, B: IntervalSink> IntervalSink for (A, B) {
    fn record(&mut self, interval: Interval) {
        self.0.record(interval);
        self.1.record(interval);
    }
}

/// A sink that appends every interval to a `Vec`, for tests and small
/// analyses.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    intervals: Vec<Interval>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The intervals collected so far.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// Extracts the collected intervals.
    pub fn into_intervals(self) -> Vec<Interval> {
        self.intervals
    }
}

impl IntervalSink for CollectSink {
    fn record(&mut self, interval: Interval) {
        self.intervals.push(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_cachesim::FrameId;
    use leakage_trace::Cycle;

    #[test]
    fn pair_sink_fans_out() {
        let mut a = CollectSink::new();
        let mut b = CollectSink::new();
        let mut extractor = IntervalExtractor::new(1);
        {
            let mut pair = (&mut a, &mut b);
            extractor.on_access(FrameId::new(0), Cycle::new(5), false, &mut pair);
            extractor.finish(Cycle::new(10), &mut pair);
        }
        assert_eq!(a.intervals().len(), 2);
        assert_eq!(b.intervals().len(), 2);
    }
}
