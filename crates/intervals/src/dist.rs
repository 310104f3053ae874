//! Compact interval distributions.

use crate::{Interval, IntervalKind, IntervalSink, WakeHints};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Multiply-xor hasher (FxHash-style) for [`IntervalClass`] keys.
///
/// The distribution map is updated once per cache access in the
/// pipeline's hot loop, and `IntervalClass` is a few small integers —
/// SipHash's DoS resistance buys nothing here and costs ~2x on the
/// per-access path. Not for untrusted keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClassHasher {
    hash: u64,
}

impl ClassHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for ClassHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.mix(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }
}

/// [`BuildHasher`] producing [`ClassHasher`]s; the hash state of
/// [`CompactIntervalDist`]'s map.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClassHashBuilder;

impl BuildHasher for ClassHashBuilder {
    type Hasher = ClassHasher;

    #[inline]
    fn build_hasher(&self) -> ClassHasher {
        ClassHasher::default()
    }
}

/// The equivalence class of an interval for policy evaluation.
///
/// Every leakage policy in this workspace decides an interval's operating
/// mode from its length, kind and wake hints alone — never from *which*
/// frame or *when*. Aggregating a trace's intervals by class therefore
/// loses nothing, and collapses the tens of millions of intervals of a
/// long benchmark into a few hundred thousand classes, over which a
/// whole bank of policies (and all four technology nodes) can be
/// evaluated in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IntervalClass {
    /// Interval length in cycles.
    pub length: u64,
    /// Position/liveness classification.
    pub kind: IntervalKind,
    /// Prefetchability marks.
    pub wake: WakeHints,
    /// Whether the resting data was dirty.
    pub dirty: bool,
}

impl From<&Interval> for IntervalClass {
    fn from(interval: &Interval) -> Self {
        IntervalClass {
            length: interval.length,
            kind: interval.kind,
            wake: interval.wake,
            dirty: interval.dirty,
        }
    }
}

/// A multiset of [`IntervalClass`]es: the sufficient statistic of a
/// trace for every analysis in this workspace.
///
/// # Examples
///
/// ```
/// use leakage_cachesim::FrameId;
/// use leakage_intervals::{CompactIntervalDist, IntervalExtractor, IntervalSink};
/// use leakage_trace::Cycle;
///
/// let mut extractor = IntervalExtractor::new(1);
/// let mut dist = CompactIntervalDist::new();
/// extractor.on_access(FrameId::new(0), Cycle::new(4), false, &mut dist);
/// extractor.finish(Cycle::new(10), &mut dist);
/// assert_eq!(dist.total_intervals(), 2);
/// assert_eq!(dist.total_cycles(), 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompactIntervalDist {
    classes: HashMap<IntervalClass, u64, ClassHashBuilder>,
}

impl CompactIntervalDist {
    /// Creates an empty distribution.
    pub fn new() -> Self {
        CompactIntervalDist::default()
    }

    /// Adds `count` intervals of the given class.
    pub fn add(&mut self, class: IntervalClass, count: u64) {
        *self.classes.entry(class).or_insert(0) += count;
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total number of intervals.
    pub fn total_intervals(&self) -> u64 {
        self.classes.values().sum()
    }

    /// Total cycle mass: `Σ length · count`. For a full extraction this
    /// equals `num_frames × trace_cycles` (the coverage invariant).
    pub fn total_cycles(&self) -> u64 {
        self.classes
            .iter()
            .map(|(class, count)| class.length * count)
            .sum()
    }

    /// Iterates over `(class, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&IntervalClass, u64)> {
        self.classes.iter().map(|(class, &count)| (class, count))
    }

    /// Merges another distribution into this one.
    pub fn merge(&mut self, other: &CompactIntervalDist) {
        for (class, count) in other.iter() {
            self.add(*class, count);
        }
    }

    /// Total intervals matching a predicate.
    pub fn count_matching(&self, mut pred: impl FnMut(&IntervalClass) -> bool) -> u64 {
        self.iter()
            .filter(|(class, _)| pred(class))
            .map(|(_, count)| count)
            .sum()
    }

    /// Total cycle mass of intervals matching a predicate.
    pub fn cycles_matching(&self, mut pred: impl FnMut(&IntervalClass) -> bool) -> u64 {
        self.iter()
            .filter(|(class, _)| pred(class))
            .map(|(class, count)| class.length * count)
            .sum()
    }
}

impl IntervalSink for CompactIntervalDist {
    fn record(&mut self, interval: Interval) {
        self.add(IntervalClass::from(&interval), 1);
    }
}

impl FromIterator<Interval> for CompactIntervalDist {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        let mut dist = CompactIntervalDist::new();
        for interval in iter {
            dist.record(interval);
        }
        dist
    }
}

impl Extend<(IntervalClass, u64)> for CompactIntervalDist {
    fn extend<I: IntoIterator<Item = (IntervalClass, u64)>>(&mut self, iter: I) {
        for (class, count) in iter {
            self.add(class, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntervalKind;

    fn class(length: u64) -> IntervalClass {
        IntervalClass {
            length,
            kind: IntervalKind::Interior { reaccess: true },
            wake: WakeHints::NONE,
            dirty: false,
        }
    }

    #[test]
    fn class_hasher_is_deterministic_and_spreads() {
        use std::hash::BuildHasher;
        let hash_of = |c: &IntervalClass| ClassHashBuilder.hash_one(c);
        assert_eq!(hash_of(&class(100)), hash_of(&class(100)));
        // Adjacent lengths must not collide (they are the common case).
        let hashes: std::collections::HashSet<u64> =
            (0..1000u64).map(|n| hash_of(&class(n))).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn dedup_by_class() {
        let mut dist = CompactIntervalDist::new();
        dist.add(class(100), 1);
        dist.add(class(100), 2);
        dist.add(class(200), 5);
        assert_eq!(dist.num_classes(), 2);
        assert_eq!(dist.total_intervals(), 8);
        assert_eq!(dist.total_cycles(), 3 * 100 + 5 * 200);
    }

    #[test]
    fn distinct_kinds_are_distinct_classes() {
        let mut dist = CompactIntervalDist::new();
        dist.add(class(10), 1);
        dist.add(
            IntervalClass {
                kind: IntervalKind::Interior { reaccess: false },
                ..class(10)
            },
            1,
        );
        dist.add(
            IntervalClass {
                wake: WakeHints {
                    next_line: true,
                    stride: false,
                },
                ..class(10)
            },
            1,
        );
        assert_eq!(dist.num_classes(), 3);
    }

    #[test]
    fn merge_and_extend() {
        let mut a = CompactIntervalDist::new();
        a.add(class(1), 1);
        let mut b = CompactIntervalDist::new();
        b.add(class(1), 2);
        b.add(class(2), 3);
        a.merge(&b);
        assert_eq!(a.total_intervals(), 6);

        let mut c = CompactIntervalDist::new();
        c.extend(a.iter().map(|(k, v)| (*k, v)));
        assert_eq!(c, a);
    }

    #[test]
    fn predicates() {
        let mut dist = CompactIntervalDist::new();
        dist.add(class(5), 4);
        dist.add(class(50), 2);
        assert_eq!(dist.count_matching(|c| c.length > 10), 2);
        assert_eq!(dist.cycles_matching(|c| c.length <= 10), 20);
    }

    #[test]
    fn from_intervals_iterator() {
        use leakage_cachesim::FrameId;
        use leakage_trace::Cycle;
        let make = |len| Interval {
            frame: FrameId::new(0),
            start: Cycle::ZERO,
            length: len,
            kind: IntervalKind::Leading,
            wake: WakeHints::NONE,
            dirty: false,
        };
        let dist: CompactIntervalDist = vec![make(3), make(3), make(4)].into_iter().collect();
        assert_eq!(dist.num_classes(), 2);
        assert_eq!(dist.total_intervals(), 3);
    }
}
