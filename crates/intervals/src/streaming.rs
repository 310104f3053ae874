//! Line-keyed interval extraction: the paper's literal definition.
//!
//! §3.1 defines an interval as "the time that a cache line rests between
//! two accesses" — a property of the *memory line*, regardless of
//! whether the line stays resident in its frame. The frame-centric
//! [`IntervalExtractor`](crate::IntervalExtractor) is what physical
//! energy accounting wants (frames leak, lines do not); the line-keyed
//! reading produces *longer* intervals whenever a line is evicted and
//! later re-fetched, because the rest period spans the eviction.
//!
//! [`StreamingExtractor`] is the workspace's one line-keyed extractor.
//! It backs both the `ablation-line-centric` experiment (batch
//! workloads, finalized at the trace end shared by the I and D
//! streams) and the trace-upload route (wire-fed traces). It consumes
//! raw [`MemoryAccess`] events one at a time (it implements
//! [`TraceSink`], so a trace decoder can feed it directly), closes
//! each line's interior interval the moment the line is re-accessed,
//! and keeps only *constant state per touched line* — one open-interval
//! timestamp. A line's entry is replaced on each access but never
//! retired before [`finish`](StreamingExtractor::finish), so memory
//! grows with the trace's line footprint (its distinct lines), never
//! with its length. That is what lets the analysis server ingest
//! arbitrarily long chunked uploads; the upload route caps the
//! footprint itself (`leakage_server::streaming::MAX_RESIDENT_LINES`).
//!
//! # Watermark finalization
//!
//! The extractor tracks a *watermark*: the highest cycle observed so
//! far (events arrive in non-decreasing cycle order, so the watermark
//! is simply the last event's cycle). When the stream ends, every line
//! still holding an open interval is finalized with a trailing
//! interval ending at the finalization cycle — by default one cycle
//! past the watermark, the same exclusive end the batch pipeline
//! derives via `TraceStats::end_cycle`. A caller that knows the true
//! trace end (e.g. from a manifest) can finalize at an explicit later
//! cycle instead; ends before a line's last access clamp to an empty
//! trailing interval rather than underflowing.
//!
//! The output is structurally identical to the line-keyed batch oracle
//! (`reference_line_intervals_quadratic` in `leakage-conformance`) on
//! every finite trace: interiors always close with a re-access, every
//! touched line contributes exactly one trailing interval, and there
//! are no leading or untouched intervals (a line-keyed timeline has no
//! frames to idle).

use crate::{Interval, IntervalKind, IntervalSink, WakeHints};
use leakage_cachesim::FrameId;
use leakage_trace::{Cycle, LineAddr, MemoryAccess, TraceSink};
use std::collections::HashMap;

/// Incremental line-centric interval extractor with state bounded by
/// the trace's line footprint.
///
/// # Examples
///
/// ```
/// use leakage_intervals::{CollectSink, IntervalKind, StreamingExtractor};
/// use leakage_trace::{Cycle, MemoryAccess, Pc, TraceSink};
///
/// // 64-byte lines: the two fetches below land on the same line.
/// let mut extractor = StreamingExtractor::new(6, CollectSink::new());
/// extractor.accept(MemoryAccess::fetch(Cycle::new(0), Pc::new(0x100)));
/// extractor.accept(MemoryAccess::fetch(Cycle::new(9), Pc::new(0x104)));
/// assert_eq!(extractor.resident_lines(), 1);
///
/// let sink = extractor.finish();
/// let intervals = sink.into_intervals();
/// assert_eq!(intervals.len(), 2); // one interior + one trailing
/// assert!(intervals.iter().any(|i| i.length == 9
///     && i.kind == (IntervalKind::Interior { reaccess: true })));
/// ```
#[derive(Debug, Clone)]
pub struct StreamingExtractor<S> {
    line_bits: u32,
    open: HashMap<LineAddr, Cycle>,
    watermark: Option<Cycle>,
    peak_resident: usize,
    events: u64,
    finalized: u64,
    sink: S,
}

impl<S: IntervalSink> StreamingExtractor<S> {
    /// Creates an extractor mapping byte addresses to lines of
    /// `2^line_bits` bytes, emitting closed intervals into `sink`.
    pub fn new(line_bits: u32, sink: S) -> Self {
        StreamingExtractor {
            line_bits,
            open: HashMap::new(),
            watermark: None,
            peak_resident: 0,
            events: 0,
            finalized: 0,
            sink,
        }
    }

    /// Lines currently holding an open interval: every line touched so
    /// far, since none is retired before finalization. This is the
    /// extractor's entire per-trace state.
    pub fn resident_lines(&self) -> usize {
        self.open.len()
    }

    /// High-water mark of [`resident_lines`](Self::resident_lines)
    /// over the whole stream, for bounded-memory assertions.
    pub fn peak_resident_lines(&self) -> usize {
        self.peak_resident
    }

    /// The highest (= latest) cycle observed, if any event arrived.
    pub fn watermark(&self) -> Option<Cycle> {
        self.watermark
    }

    /// Events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Access to the wrapped sink (e.g. to inspect counts mid-stream).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Records one access to `line` at `cycle`, closing the line's
    /// previous interval (if any) into the sink.
    pub fn on_access(&mut self, line: LineAddr, cycle: Cycle) {
        self.events += 1;
        self.watermark = Some(match self.watermark {
            Some(mark) => mark.max(cycle),
            None => cycle,
        });
        if let Some(last) = self.open.insert(line, cycle) {
            self.emit(
                last,
                cycle.saturating_since(last),
                IntervalKind::Interior { reaccess: true },
            );
        } else {
            self.peak_resident = self.peak_resident.max(self.open.len());
        }
    }

    fn emit(&mut self, start: Cycle, length: u64, kind: IntervalKind) {
        self.sink.record(Interval {
            frame: FrameId::new(0),
            start,
            length,
            kind,
            wake: WakeHints::NONE,
            dirty: false,
        });
        self.finalized += 1;
    }

    /// Finalizes at one cycle past the watermark (the exclusive trace
    /// end), returning the sink. Equivalent to
    /// [`finish_at`](Self::finish_at) with `TraceStats::end_cycle`'s
    /// value; an extractor that saw no events emits nothing.
    pub fn finish(self) -> S {
        match self.watermark {
            Some(mark) => self.finish_at(mark.advanced(1)),
            None => self.finish_at(Cycle::ZERO),
        }
    }

    /// Finalizes every open interval as trailing at `end`, returning
    /// the sink. Ends before a line's last access clamp to length 0.
    /// Lines drain in address order, so output is deterministic.
    pub fn finish_at(mut self, end: Cycle) -> S {
        let mut lines: Vec<(LineAddr, Cycle)> = self.open.drain().collect();
        lines.sort_unstable_by_key(|(line, _)| line.index());
        for (_, last) in lines {
            self.emit(last, end.saturating_since(last), IntervalKind::Trailing);
        }
        leakage_telemetry::gauge!("streaming_extractor_resident_lines")
            .set_max(self.peak_resident as u64);
        leakage_telemetry::counter!("streaming_intervals_finalized_total").add(self.finalized);
        self.sink
    }
}

impl<S: IntervalSink> TraceSink for StreamingExtractor<S> {
    fn accept(&mut self, access: MemoryAccess) {
        self.on_access(access.addr.line(self.line_bits), access.cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectSink;
    use leakage_trace::{Address, Pc};

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    fn c(i: u64) -> Cycle {
        Cycle::new(i)
    }

    #[test]
    fn interleaved_lines_close_independently() {
        let pattern = [(1u64, 0u64), (2, 5), (1, 20), (3, 21), (2, 30), (1, 44)];
        let mut x = StreamingExtractor::new(6, CollectSink::new());
        for (l, cy) in pattern {
            x.on_access(line(l), c(cy));
        }
        let intervals = x.finish_at(c(50)).into_intervals();
        let lengths = |kind: IntervalKind| -> Vec<u64> {
            intervals
                .iter()
                .filter(|i| i.kind == kind)
                .map(|i| i.length)
                .collect()
        };
        // Interiors in closing order: line 1 (0→20), line 2 (5→30),
        // line 1 (20→44).
        assert_eq!(
            lengths(IntervalKind::Interior { reaccess: true }),
            vec![20, 25, 24]
        );
        // One trailing interval per line, in address order.
        assert_eq!(lengths(IntervalKind::Trailing), vec![6, 20, 29]);
    }

    #[test]
    fn watermark_tracks_last_event_and_default_finish() {
        let mut x = StreamingExtractor::new(6, CollectSink::new());
        assert_eq!(x.watermark(), None);
        x.on_access(line(0), c(7));
        assert_eq!(x.watermark(), Some(c(7)));
        let intervals = x.finish().into_intervals();
        // Trailing runs to one past the watermark: [7, 8).
        assert_eq!(intervals.len(), 1);
        assert_eq!(intervals[0].kind, IntervalKind::Trailing);
        assert_eq!(intervals[0].length, 1);
    }

    #[test]
    fn empty_stream_finishes_empty() {
        let x: StreamingExtractor<CollectSink> = StreamingExtractor::new(6, CollectSink::new());
        assert!(x.finish().into_intervals().is_empty());
    }

    #[test]
    fn early_end_clamps_to_zero_length() {
        let mut x = StreamingExtractor::new(6, CollectSink::new());
        x.on_access(line(1), c(100));
        let intervals = x.finish_at(c(40)).into_intervals();
        assert_eq!(intervals[0].length, 0);
    }

    #[test]
    fn state_is_bounded_by_live_lines() {
        let mut x = StreamingExtractor::new(6, CollectSink::new());
        // 1000 events over 4 lines: resident state stays at 4.
        for i in 0..1000u64 {
            x.on_access(line(i % 4), c(i));
        }
        assert_eq!(x.resident_lines(), 4);
        assert_eq!(x.peak_resident_lines(), 4);
        assert_eq!(x.events(), 1000);
        let sink = x.finish_at(c(1000));
        assert_eq!(sink.intervals().len(), 1000 - 4 + 4);
    }

    #[test]
    fn accepts_raw_accesses_via_line_mapping() {
        let mut x = StreamingExtractor::new(6, CollectSink::new());
        // Two addresses in the same 64-byte line, one outside it.
        x.accept(MemoryAccess::load(c(0), Pc::new(0), Address::new(0x100)));
        x.accept(MemoryAccess::store(c(3), Pc::new(4), Address::new(0x13F)));
        x.accept(MemoryAccess::load(c(5), Pc::new(8), Address::new(0x140)));
        assert_eq!(x.resident_lines(), 2);
        let intervals = x.finish().into_intervals();
        assert_eq!(intervals.len(), 3); // one interior + two trailing
    }

    #[test]
    fn trailing_output_order_is_deterministic() {
        let run = || {
            let mut x = StreamingExtractor::new(6, CollectSink::new());
            for l in [9u64, 2, 7, 4, 1, 8] {
                x.on_access(line(l), c(l));
            }
            x.finish_at(c(50)).into_intervals()
        };
        assert_eq!(run(), run());
        let starts: Vec<u64> = run().iter().map(|i| i.start.raw()).collect();
        assert_eq!(starts, vec![1, 2, 4, 7, 8, 9]); // address order
    }
}
