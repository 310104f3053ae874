//! A dense fast path in front of [`CompactIntervalDist`] for the
//! profiling hot loop.

use crate::{CompactIntervalDist, Interval, IntervalClass, IntervalKind, IntervalSink, WakeHints};

/// Interior intervals shorter than this many cycles are counted in
/// [`IntervalTally`]'s flat array rather than its map.
///
/// Chosen from the interior-length histogram of the twelve profiled
/// benchmarks at paper scale (144.5M interior intervals): lengths
/// below 4,096 cycles are 98.3% of them but only 23% of the distinct
/// classes, so the array takes nearly every update while the sparse
/// long tail stays in the map. The array costs 128 KiB per tally.
pub const DENSE_LEN: u64 = 4096;

/// Cells per length: one per combination of the four flag bits.
const FLAG_CELLS: usize = 16;

/// An [`IntervalSink`] that counts the same multiset as
/// [`CompactIntervalDist`], faster, for sinks that see millions of
/// intervals.
///
/// An `Interior` interval with `length < DENSE_LEN` increments one
/// cell of a flat `Vec<u16>` indexed by
/// `length << 4 | reaccess | next_line << 1 | stride << 2 | dirty << 3`;
/// every other interval goes to an inner [`CompactIntervalDist`]. The
/// array is small enough to stay in the CPU caches, where the map's
/// hundreds of thousands of classes do not. A cell that reaches
/// `u16::MAX` spills its count into the inner dist. Narrow cells keep
/// the array small: the freed arrays of a profile run stay in the
/// allocator's heap, and with 512 KiB `u64` arrays that left ~3 MiB
/// more resident memory behind in a serving process. A spill costs
/// one map update per 65,535 intervals.
///
/// The first interval of each dense class also inserts that class into
/// the inner dist with count 0, so the map sees new classes in exactly
/// the order direct recording would. [`into_dist`] only adds the array
/// counts to those existing entries: the result is not just equal to
/// the dist direct recording builds but laid out, and iterated,
/// identically, so floating-point sums over it are bit-for-bit the same.
///
/// [`into_dist`]: IntervalTally::into_dist
///
/// # Examples
///
/// ```
/// use leakage_cachesim::FrameId;
/// use leakage_intervals::{
///     CompactIntervalDist, IntervalExtractor, IntervalSink, IntervalTally,
/// };
/// use leakage_trace::Cycle;
///
/// fn feed(sink: &mut impl IntervalSink) {
///     let mut extractor = IntervalExtractor::new(2);
///     extractor.on_access(FrameId::new(0), Cycle::new(4), false, sink);
///     extractor.on_access(FrameId::new(0), Cycle::new(9), true, sink);
///     extractor.finish(Cycle::new(10_000), sink);
/// }
///
/// let mut direct = CompactIntervalDist::new();
/// feed(&mut direct);
/// let mut tally = IntervalTally::new();
/// feed(&mut tally);
/// assert_eq!(tally.into_dist(), direct);
/// ```
#[derive(Debug)]
pub struct IntervalTally {
    dense: Vec<u16>,
    inner: CompactIntervalDist,
}

impl Default for IntervalTally {
    fn default() -> Self {
        IntervalTally::new()
    }
}

impl IntervalTally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        IntervalTally {
            dense: vec![0; DENSE_LEN as usize * FLAG_CELLS],
            inner: CompactIntervalDist::new(),
        }
    }

    /// The distribution of every interval recorded so far.
    pub fn into_dist(self) -> CompactIntervalDist {
        let mut dist = self.inner;
        for (index, &count) in self.dense.iter().enumerate() {
            if count > 0 {
                dist.add(dense_class(index), u64::from(count));
            }
        }
        dist
    }
}

/// The array cell of a class, if it is counted densely.
#[inline]
fn dense_index(class: &IntervalClass) -> Option<usize> {
    match class.kind {
        IntervalKind::Interior { reaccess } if class.length < DENSE_LEN => Some(
            (class.length as usize) << 4
                | usize::from(reaccess)
                | usize::from(class.wake.next_line) << 1
                | usize::from(class.wake.stride) << 2
                | usize::from(class.dirty) << 3,
        ),
        _ => None,
    }
}

/// The class an array cell counts: the inverse of [`dense_index`].
fn dense_class(index: usize) -> IntervalClass {
    IntervalClass {
        length: (index >> 4) as u64,
        kind: IntervalKind::Interior {
            reaccess: index & 1 != 0,
        },
        wake: WakeHints {
            next_line: index & 2 != 0,
            stride: index & 4 != 0,
        },
        dirty: index & 8 != 0,
    }
}

impl IntervalSink for IntervalTally {
    #[inline]
    fn record(&mut self, interval: Interval) {
        let class = IntervalClass::from(&interval);
        match dense_index(&class) {
            Some(index) => {
                let cell = &mut self.dense[index];
                if *cell == 0 {
                    // Claim the class's map entry in first-seen order.
                    self.inner.add(class, 0);
                }
                *cell += 1;
                if *cell == u16::MAX {
                    // Spill a full cell; the entry already exists, so
                    // re-claiming it after the reset changes nothing.
                    self.inner.add(class, u64::from(u16::MAX));
                    *cell = 0;
                }
            }
            None => self.inner.add(class, 1),
        }
    }
}
