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
//! # Line table
//!
//! The timestamps live in a std `HashMap` with its keyed SipHash,
//! because uploaded addresses are untrusted: a fixed hash would let a
//! client pick colliding lines. In front of it sits a direct-mapped
//! array of [`FRONT_LEN`] `(line, timestamp)` entries (a fixed 96 KiB)
//! indexed by [`front_slot`], a multiplicative hash of the line: low
//! bits alone would make arrays aligned to a large power of two share
//! entries. An access whose line is in its front entry updates the
//! timestamp there and hashes nothing; on the twelve traces the
//! serving benchmark uploads that is 98.5% of accesses. A miss does
//! one map update for its own line and takes over the entry; the
//! entry's previous line costs a second update only if a hit changed
//! its timestamp after it entered the front (its *dirty* flag), so
//! every write-back is paid for by an earlier hit that hashed nothing.
//!
//! A client can pick lines that share front entries so that every
//! access misses. Such an access pays the map update the map alone
//! paid plus a compare and a store in the front; with the lookup inline
//! and the write-back out of line, that input costs the upload handler
//! what it cost before the front (`front_miss` in
//! `scripts/bench_streaming.sh`).
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

/// Entries in [`StreamingExtractor`]'s direct-mapped front, a power of
/// two: 4,096 entries take 96 KiB.
pub const FRONT_LEN: usize = 4096;

/// The front entry `line` is looked up in: the top bits of its index
/// times 2^64 / φ (Fibonacci hashing), which spreads both runs of
/// consecutive lines and lines a power of two apart over the entries.
#[inline]
pub fn front_slot(line: LineAddr) -> usize {
    (line.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FRONT_LEN.trailing_zeros())) as usize
}

/// One front entry: a line and the start of its open interval.
#[derive(Debug, Clone, Copy)]
struct FrontEntry {
    line: u64,
    last: Cycle,
    /// `last` is newer than the line table's copy.
    dirty: bool,
}

/// An empty front: every entry holds line 0, except line 0's own
/// entry, which holds line 1. Each holds a line that is never looked up
/// there, so an empty entry matches no line (`u64::MAX` included) and
/// needs no flag.
fn empty_front() -> Box<[FrontEntry; FRONT_LEN]> {
    let empty = FrontEntry {
        line: 0,
        last: Cycle::ZERO,
        dirty: false,
    };
    let mut front: Box<[FrontEntry; FRONT_LEN]> = vec![empty; FRONT_LEN]
        .into_boxed_slice()
        .try_into()
        .expect("FRONT_LEN entries");
    front[front_slot(LineAddr::new(0))].line = 1;
    front
}

/// Writes a dirty entry the front evicts back to the line table.
/// Out of line: it runs only after a hit dirtied the entry.
#[cold]
#[inline(never)]
fn write_back(open: &mut HashMap<LineAddr, Cycle>, entry: &FrontEntry) {
    if let Some(stale) = open.get_mut(&LineAddr::new(entry.line)) {
        *stale = entry.last;
    }
}

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
    /// Every touched line and its last access, except that a dirty
    /// front entry holds a newer one.
    open: HashMap<LineAddr, Cycle>,
    /// A write-back cache of `open`, indexed by [`front_slot`]; its
    /// fixed length lets the lookup skip a bounds check.
    front: Box<[FrontEntry; FRONT_LEN]>,
    /// The highest cycle seen (meaningful once `events > 0`).
    max_cycle: Cycle,
    peak_resident: usize,
    events: u64,
    sink: S,
}

impl<S: IntervalSink> StreamingExtractor<S> {
    /// Creates an extractor mapping byte addresses to lines of
    /// `2^line_bits` bytes, emitting closed intervals into `sink`.
    pub fn new(line_bits: u32, sink: S) -> Self {
        StreamingExtractor {
            line_bits,
            open: HashMap::new(),
            front: empty_front(),
            max_cycle: Cycle::ZERO,
            peak_resident: 0,
            events: 0,
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
        (self.events > 0).then_some(self.max_cycle)
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
    #[inline]
    pub fn on_access(&mut self, line: LineAddr, cycle: Cycle) {
        self.events += 1;
        self.max_cycle = self.max_cycle.max(cycle);
        match self.through_front(line, cycle) {
            Some(last) => self.emit(
                last,
                cycle.saturating_since(last),
                IntervalKind::Interior { reaccess: true },
            ),
            None => self.peak_resident = self.peak_resident.max(self.open.len()),
        }
    }

    /// Looks `line` up in the front, then the table, and records
    /// `cycle` as its last access: the previous one, if any.
    #[inline]
    fn through_front(&mut self, line: LineAddr, cycle: Cycle) -> Option<Cycle> {
        let key = line.index();
        let entry = &mut self.front[front_slot(line)];
        if entry.line == key {
            entry.dirty = true;
            return Some(std::mem::replace(&mut entry.last, cycle));
        }
        if entry.dirty {
            write_back(&mut self.open, entry);
        }
        *entry = FrontEntry {
            line: key,
            last: cycle,
            dirty: false,
        };
        self.open.insert(line, cycle)
    }

    /// Writes every dirty front entry back to the table.
    fn flush_front(&mut self) {
        for entry in self.front.iter_mut().filter(|entry| entry.dirty) {
            self.open.insert(LineAddr::new(entry.line), entry.last);
            entry.dirty = false;
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
    }

    /// Finalizes at one cycle past the watermark (the exclusive trace
    /// end), returning the sink. Equivalent to
    /// [`finish_at`](Self::finish_at) with `TraceStats::end_cycle`'s
    /// value; an extractor that saw no events emits nothing.
    pub fn finish(self) -> S {
        match self.watermark() {
            Some(mark) => self.finish_at(mark.advanced(1)),
            None => self.finish_at(Cycle::ZERO),
        }
    }

    /// Finalizes every open interval as trailing at `end`, returning
    /// the sink. Ends before a line's last access clamp to length 0.
    /// Lines drain in address order, so output is deterministic.
    pub fn finish_at(mut self, end: Cycle) -> S {
        self.flush_front();
        // The line table is freed before the sink grows by one
        // trailing interval per line.
        let mut lines: Vec<(LineAddr, Cycle)> =
            std::mem::take(&mut self.open).into_iter().collect();
        lines.sort_unstable_by_key(|(line, _)| line.index());
        for (_, last) in lines {
            self.emit(last, end.saturating_since(last), IntervalKind::Trailing);
        }
        leakage_telemetry::gauge!("streaming_extractor_resident_lines")
            .set_max(self.peak_resident as u64);
        // Every event but a line's first closed an interior interval,
        // and every line closed a trailing one: one interval per event.
        leakage_telemetry::counter!("streaming_intervals_finalized_total").add(self.events);
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

    /// The first `n` lines looked up in front entry `slot`.
    fn sharing_slot(slot: usize, n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&l| front_slot(line(l)) == slot)
            .take(n)
            .collect()
    }

    #[test]
    fn lines_sharing_a_front_entry_keep_their_own_intervals() {
        // Three lines in front entry 5 evict each other on every
        // access; each still closes its own interval.
        let [a, b, d] = sharing_slot(5, 3)[..] else {
            unreachable!()
        };
        let pattern = [(a, 0), (b, 1), (a, 4), (d, 6), (b, 9), (a, 9)];
        let mut x = StreamingExtractor::new(0, CollectSink::new());
        for (l, cy) in pattern {
            x.on_access(line(l), c(cy));
        }
        assert_eq!(x.resident_lines(), 3);
        let intervals = x.finish_at(c(10)).into_intervals();
        let lengths: Vec<(u64, bool)> = intervals
            .iter()
            .map(|i| (i.length, i.kind == IntervalKind::Trailing))
            .collect();
        // Interiors in closing order, then trailing in address order
        // (the three lines are ascending).
        assert_eq!(
            lengths,
            vec![
                (4, false),
                (8, false),
                (5, false),
                (1, true),
                (1, true),
                (4, true)
            ]
        );
    }

    #[test]
    fn consecutive_and_power_of_two_lines_spread_over_the_front() {
        // Runs of lines, and lines 2^k apart, land in distinct entries.
        let run: std::collections::HashSet<usize> =
            (0..64).map(|l| front_slot(line(1000 + l))).collect();
        assert_eq!(run.len(), 64);
        let strided: std::collections::HashSet<usize> =
            (0..64).map(|k| front_slot(line(7 + (k << 14)))).collect();
        assert!(strided.len() >= 60, "{} distinct entries", strided.len());
    }

    #[test]
    fn empty_front_entries_match_no_line() {
        // An untouched entry must not pass for a line, u64::MAX (the
        // last entry's line at line_bits=0) and 0 included.
        for first in [u64::MAX, 0, 1, FRONT_LEN as u64 - 2] {
            let mut x = StreamingExtractor::new(0, CollectSink::new());
            x.on_access(line(first), c(2));
            x.on_access(line(first ^ 1), c(3));
            assert_eq!(x.resident_lines(), 2, "first line {first:#x}");
            let intervals = x.finish_at(c(5)).into_intervals();
            assert!(
                intervals.iter().all(|i| i.kind == IntervalKind::Trailing),
                "first line {first:#x}"
            );
        }
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
