//! Differential pin of the line-keyed `StreamingExtractor` against a
//! copy of its earlier map-only form, which kept each line's last
//! access in one `HashMap<LineAddr, Cycle>` and nothing else.
//!
//! The extractor now keeps recently used lines in a direct-mapped,
//! write-back front before that map. That must change nothing
//! observable: on each trace below the two produce the same
//! distribution *in iteration order* (so float sums over it are
//! bit-identical), the same event count, resident and peak-resident
//! lines and watermark. The traces
//! are the twelve upload-sized benchmark traces the serving benchmark
//! uploads, `profile_line_centric` at test scale, a `line_bits=0`
//! trace opening on line `u64::MAX`, which an empty front entry must
//! not be mistaken for, and a trace that evicts dirty front entries by
//! cycling lines that share one entry. The upload route's
//! `IntervalTally` sink is pinned to the `CompactIntervalDist` sink the
//! same way.

use cache_leakage_limits::cachesim::FrameId;
use cache_leakage_limits::experiments::profile_line_centric;
use cache_leakage_limits::intervals::{
    front_slot, CompactIntervalDist, Interval, IntervalClass, IntervalKind, IntervalSink,
    IntervalTally, StreamingExtractor, WakeHints,
};
use cache_leakage_limits::trace::{
    Address, Cycle, LineAddr, MemoryAccess, Pc, TraceSink, TraceSource, VecTrace,
};
use cache_leakage_limits::workloads::{by_name, Scale, ISA_SUITE_NAMES, SUITE_NAMES};
use std::collections::HashMap;

#[path = "support/uploads.rs"]
mod uploads;

/// The extractor as it was before the front: one map from each
/// touched line to its last access.
struct MapExtractor<S> {
    line_bits: u32,
    open: HashMap<LineAddr, Cycle>,
    watermark: Option<Cycle>,
    peak_resident: usize,
    events: u64,
    sink: S,
}

impl<S: IntervalSink> MapExtractor<S> {
    fn new(line_bits: u32, sink: S) -> Self {
        MapExtractor {
            line_bits,
            open: HashMap::new(),
            watermark: None,
            peak_resident: 0,
            events: 0,
            sink,
        }
    }

    fn on_access(&mut self, line: LineAddr, cycle: Cycle) {
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
    }

    fn finish_at(mut self, end: Cycle) -> S {
        let mut lines: Vec<(LineAddr, Cycle)> = self.open.drain().collect();
        lines.sort_unstable_by_key(|(line, _)| line.index());
        for (_, last) in lines {
            self.emit(last, end.saturating_since(last), IntervalKind::Trailing);
        }
        self.sink
    }

    fn finish(self) -> S {
        match self.watermark {
            Some(mark) => self.finish_at(mark.advanced(1)),
            None => self.finish_at(Cycle::ZERO),
        }
    }
}

impl<S: IntervalSink> TraceSink for MapExtractor<S> {
    fn accept(&mut self, access: MemoryAccess) {
        self.on_access(access.addr.line(self.line_bits), access.cycle);
    }
}

/// A distribution's `(class, count)` pairs in its iteration order.
fn in_order(dist: &CompactIntervalDist) -> Vec<(IntervalClass, u64)> {
    dist.iter().map(|(class, count)| (*class, count)).collect()
}

/// Runs `events` through both extractors at `line_bits` and asserts
/// they agree on every observable, then that the tally sink folds to
/// the same distribution in the same order.
fn assert_same(what: &str, line_bits: u32, events: &[MemoryAccess]) {
    let mut map = MapExtractor::new(line_bits, CompactIntervalDist::new());
    let mut front = StreamingExtractor::new(line_bits, CompactIntervalDist::new());
    let mut tally = StreamingExtractor::new(line_bits, IntervalTally::new());
    for access in events {
        map.accept(*access);
        front.accept(*access);
        tally.accept(*access);
    }
    assert_eq!(front.events(), map.events, "{what}: events");
    assert_eq!(front.resident_lines(), map.open.len(), "{what}: lines");
    assert_eq!(
        front.peak_resident_lines(),
        map.peak_resident,
        "{what}: peak resident lines"
    );
    assert_eq!(front.watermark(), map.watermark, "{what}: watermark");
    let expected = in_order(&map.finish());
    assert_eq!(in_order(&front.finish()), expected, "{what}: dist order");
    assert_eq!(
        in_order(&tally.finish().into_dist()),
        expected,
        "{what}: tally dist order"
    );
}

#[test]
fn upload_sized_benchmark_traces_match_the_map_extractor() {
    for name in SUITE_NAMES.iter().chain(ISA_SUITE_NAMES.iter()) {
        assert_same(name, 6, &uploads::upload_events(name));
    }
}

#[test]
fn line_centric_profiles_match_the_map_extractor() {
    for name in SUITE_NAMES {
        let mut bench = by_name(name, Scale::Test).expect("suite benchmark");
        let (icache, dcache, cycles) = profile_line_centric(&mut bench);

        let mut trace = VecTrace::new();
        by_name(name, Scale::Test)
            .expect("suite benchmark")
            .run(&mut trace);
        let mut fetches = MapExtractor::new(6, CompactIntervalDist::new());
        let mut data = MapExtractor::new(6, CompactIntervalDist::new());
        for access in trace.events() {
            if access.kind.is_fetch() {
                fetches.accept(*access);
            } else {
                data.accept(*access);
            }
        }
        let end = fetches
            .watermark
            .max(data.watermark)
            .map_or(Cycle::ZERO, |last| last.advanced(1));
        assert_eq!(cycles, end.raw(), "{name}: trace end");
        assert_eq!(
            in_order(&icache),
            in_order(&fetches.finish_at(end)),
            "{name}: icache"
        );
        assert_eq!(
            in_order(&dcache),
            in_order(&data.finish_at(end)),
            "{name}: dcache"
        );
    }
}

/// `n` lines looked up in the same front entry as `line`, `line` first.
fn sharing_slot_with(line: u64, n: usize) -> Vec<u64> {
    let slot = front_slot(LineAddr::new(line));
    std::iter::once(line)
        .chain((0u64..).filter(|&l| l != line && front_slot(LineAddr::new(l)) == slot))
        .take(n)
        .collect()
}

fn loads(lines: &[u64], cycle_step: u64) -> Vec<MemoryAccess> {
    lines
        .iter()
        .enumerate()
        .map(|(i, &line)| {
            MemoryAccess::load(
                Cycle::new(cycle_step * i as u64),
                Pc::new(0),
                Address::new(line),
            )
        })
        .collect()
}

#[test]
fn line_u64_max_first_matches_the_map_extractor() {
    // At line_bits=0 a line is its byte address. The trace opens on
    // u64::MAX, then mixes lines that share its front entry, the lines
    // an empty entry holds (0 and 1), and repeats of each.
    let max = sharing_slot_with(u64::MAX, 3);
    let lines = [
        max[0], max[1], 0, 1, max[0], max[2], 1, max[1], 0, max[0], max[2], 0,
    ];
    assert_same("u64::MAX first", 0, &loads(&lines, 3));
}

#[test]
fn evicted_dirty_front_entries_match_the_map_extractor() {
    // A local phase that leaves many front entries dirty, 20,000
    // accesses cycling eight lines that share one front entry (every
    // lookup misses), the local lines again, which now write back or
    // miss, and the end with entries still dirty.
    let local = |i: u64| 1000 + (i / 5) % 700 + (i % 3) * 4096;
    let shared = sharing_slot_with(42, 8);
    let lines: Vec<u64> = (0..10_000)
        .map(local)
        .chain((0..20_000).map(|i| shared[i % 8]))
        .chain((0..10_000).map(local))
        .collect();
    assert_same("evicted dirty entries", 0, &loads(&lines, 1));
}
