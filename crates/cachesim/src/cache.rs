//! A single set-associative cache level with true-LRU replacement.

use crate::{CacheConfig, CacheStats};
use leakage_trace::LineAddr;
use serde::{Deserialize, Serialize};

/// Identifies a physical line frame inside one cache.
///
/// Frames are numbered `set * ways + way`; the numbering is stable for
/// the lifetime of the cache, so a `FrameId` can key per-frame state such
/// as the interval extractor's last-access table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FrameId(u32);

impl FrameId {
    /// Creates a frame id from its raw index.
    pub const fn new(index: u32) -> Self {
        FrameId(index)
    }

    /// Raw frame index in `0..num_frames`.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for FrameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// The outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was already resident.
    pub hit: bool,
    /// The frame the line occupies after the access (the hit frame, or
    /// the frame filled on a miss).
    pub frame: FrameId,
    /// On a miss that displaced a valid line, the displaced line address.
    pub evicted: Option<LineAddr>,
    /// Whether the frame's *previous* contents were dirty when this
    /// access arrived (i.e. the data resting through the just-ended
    /// interval carried unwritten stores).
    pub was_dirty: bool,
    /// Whether this access displaced a dirty line (a writeback to the
    /// next level).
    pub writeback: bool,
}

/// One way of one set.
#[derive(Debug, Clone, Copy)]
struct Way {
    line: LineAddr,
    valid: bool,
    dirty: bool,
}

/// A single cache level.
///
/// The cache operates on [`LineAddr`]s (the caller maps byte addresses
/// using [`CacheConfig::line_bits`]); it models residency only — data
/// values are irrelevant to the leakage study.
///
/// # Examples
///
/// ```
/// use leakage_cachesim::{Cache, CacheConfig};
/// use leakage_trace::LineAddr;
///
/// # fn main() -> Result<(), leakage_cachesim::CacheConfigError> {
/// let mut cache = Cache::new(CacheConfig::new("toy", 256, 2, 64, 1)?);
/// let miss = cache.access(LineAddr::new(7));
/// assert!(!miss.hit);
/// let hit = cache.access(LineAddr::new(7));
/// assert!(hit.hit);
/// assert_eq!(hit.frame, miss.frame);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `ways[set * ways_per_set + way]`.
    ways: Vec<Way>,
    /// Per-set recency order: the way indices of a set, most recent
    /// first. `recency[set * ways_per_set + rank]` is a way index.
    recency: Vec<u8>,
    stats: CacheStats,
    set_mask: u64,
    /// Ways `[0, enabled_ways)` participate in lookups and fills; the
    /// rest are gated off (DRI-style cache resizing).
    enabled_ways: u32,
    /// The line of the most recent access and the frame it left that
    /// line in (resident and most recent in its set), until an
    /// invalidation or a resize may have moved it.
    last: Option<(LineAddr, FrameId)>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 256 ways (the recency encoding
    /// uses one byte per way; real L1/L2 caches are far below this).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.ways() <= 256,
            "associativity above 256 ways is not supported"
        );
        let frames = config.num_frames() as usize;
        let ways_per_set = config.ways() as usize;
        let mut recency = Vec::with_capacity(frames);
        for _ in 0..config.num_sets() {
            for way in 0..ways_per_set {
                recency.push(way as u8);
            }
        }
        Cache {
            set_mask: u64::from(config.num_sets()) - 1,
            ways: vec![
                Way {
                    line: LineAddr::new(0),
                    valid: false,
                    dirty: false,
                };
                frames
            ],
            recency,
            stats: CacheStats::default(),
            enabled_ways: config.ways(),
            last: None,
            config,
        }
    }

    /// Restricts lookups and fills to ways `[0, ways)`, invalidating
    /// everything in the gated ways — the structural effect of
    /// DRI-style cache resizing (the leakage effect is accounted by the
    /// caller, e.g. `leakage-online`'s DRI simulator). Re-enabling ways
    /// does not restore their contents.
    ///
    /// Returns the number of valid lines invalidated.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ways <= associativity`.
    pub fn set_enabled_ways(&mut self, ways: u32) -> u64 {
        assert!(
            ways >= 1 && ways <= self.config.ways(),
            "enabled ways must be in 1..=associativity"
        );
        let mut invalidated = 0;
        let ways_per_set = self.config.ways() as usize;
        for set in 0..self.config.num_sets() as usize {
            for way in ways as usize..ways_per_set {
                let slot = &mut self.ways[set * ways_per_set + way];
                if slot.valid {
                    slot.valid = false;
                    slot.dirty = false;
                    invalidated += 1;
                }
            }
        }
        self.enabled_ways = ways;
        self.last = None;
        invalidated
    }

    /// The number of ways currently participating in lookups.
    pub fn enabled_ways(&self) -> u32 {
        self.enabled_ways
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set a line maps to.
    pub fn set_of(&self, line: LineAddr) -> u32 {
        (line.index() & self.set_mask) as u32
    }

    /// Returns the line currently resident in `frame`, if any.
    pub fn resident(&self, frame: FrameId) -> Option<LineAddr> {
        let way = self.ways[frame.index() as usize];
        way.valid.then_some(way.line)
    }

    /// Looks up a line without touching replacement state or statistics.
    ///
    /// Returns the frame the line occupies if it is resident. The
    /// prefetch analyzer uses this to ask "is the predicted line
    /// resident?" without perturbing LRU order.
    pub fn probe(&self, line: LineAddr) -> Option<FrameId> {
        let base = self.set_of(line) as usize * self.config.ways() as usize;
        self.find_way(base, line)
            .map(|way| FrameId::new((base + way) as u32))
    }

    /// The enabled way of the set at `base` that holds `line`, if any.
    fn find_way(&self, base: usize, line: LineAddr) -> Option<usize> {
        self.ways[base..base + self.enabled_ways as usize]
            .iter()
            .position(|entry| entry.valid && entry.line == line)
    }

    /// The frame a fill of `line` would land in right now: the line's
    /// own frame if resident, otherwise the LRU victim of its set.
    /// Read-only — replacement state is not touched.
    ///
    /// The prefetchability analysis uses this to attribute a prefetch
    /// trigger for a non-resident line to the frame whose rest interval
    /// the prefetched fill will terminate.
    pub fn fill_target(&self, line: LineAddr) -> FrameId {
        if let Some(frame) = self.probe(line) {
            return frame;
        }
        let set = self.set_of(line) as usize;
        let base = set * self.config.ways() as usize;
        FrameId::new((base + self.lru_enabled_way(base) as usize) as u32)
    }

    /// The least-recently-used way among the enabled ones of the set at
    /// `base`.
    fn lru_enabled_way(&self, base: usize) -> u8 {
        let ways_per_set = self.config.ways() as usize;
        let order = &self.recency[base..base + ways_per_set];
        *order
            .iter()
            .rev()
            .find(|&&way| u32::from(way) < self.enabled_ways)
            .expect("at least one way is always enabled")
    }

    /// Accesses a line for reading; see
    /// [`access_with`](Cache::access_with).
    pub fn access(&mut self, line: LineAddr) -> AccessResult {
        self.access_with(line, false)
    }

    /// Reads `line` again if it is the line of the most recent access:
    /// counts the hit and returns its frame. Otherwise returns `None`
    /// and changes nothing.
    ///
    /// When it returns a frame it is exactly [`access`](Cache::access):
    /// the line is still resident and already most recent in its set,
    /// so the LRU update is a no-op and a read leaves the dirty bit as
    /// it was. An [`invalidate`](Cache::invalidate) or
    /// [`set_enabled_ways`](Cache::set_enabled_ways) since that access
    /// forgets the line, so a hit is never counted that did not happen.
    #[inline]
    pub fn repeat_hit(&mut self, line: LineAddr) -> Option<FrameId> {
        let (last, frame) = self.last?;
        if last != line {
            return None;
        }
        self.stats.accesses += 1;
        self.stats.hits += 1;
        Some(frame)
    }

    /// Accesses a line: a hit refreshes LRU order; a miss fills the LRU
    /// way (possibly evicting) and makes it most recent. A `store`
    /// marks the line dirty (write-back, write-allocate); displacing a
    /// dirty line reports a writeback.
    pub fn access_with(&mut self, line: LineAddr, store: bool) -> AccessResult {
        let base = self.set_of(line) as usize * self.config.ways() as usize;
        self.stats.accesses += 1;

        // Hit path: scan the enabled ways of the set.
        if let Some(way) = self.find_way(base, line) {
            let entry = &mut self.ways[base + way];
            let was_dirty = entry.dirty;
            entry.dirty |= store;
            self.stats.hits += 1;
            self.touch(base, way as u8);
            let frame = FrameId::new((base + way) as u32);
            self.last = Some((line, frame));
            return AccessResult {
                hit: true,
                frame,
                evicted: None,
                was_dirty,
                writeback: false,
            };
        }

        // Miss path: victim is the least recently used *enabled* way.
        self.stats.misses += 1;
        let victim_way = self.lru_enabled_way(base);
        let slot = base + victim_way as usize;
        let was_dirty = self.ways[slot].valid && self.ways[slot].dirty;
        let evicted = if self.ways[slot].valid {
            self.stats.evictions += 1;
            if was_dirty {
                self.stats.writebacks += 1;
            }
            Some(self.ways[slot].line)
        } else {
            None
        };
        self.ways[slot] = Way {
            line,
            valid: true,
            dirty: store,
        };
        self.touch(base, victim_way);
        let frame = FrameId::new(slot as u32);
        self.last = Some((line, frame));
        AccessResult {
            hit: false,
            frame,
            evicted,
            was_dirty,
            writeback: was_dirty,
        }
    }

    /// Invalidates a line if resident, returning the frame it occupied.
    ///
    /// Used by tests and by sleep-mode simulations that model induced
    /// misses structurally.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<FrameId> {
        let frame = self.probe(line)?;
        let way = &mut self.ways[frame.index() as usize];
        way.valid = false;
        way.dirty = false;
        self.last = None;
        Some(frame)
    }

    /// Whether the line resident in `frame` is dirty (false for an
    /// invalid frame).
    pub fn frame_dirty(&self, frame: FrameId) -> bool {
        let way = self.ways[frame.index() as usize];
        way.valid && way.dirty
    }

    /// Moves `way` to most-recently-used position within its set.
    ///
    /// One forward pass: `way` is carried in at the front and each
    /// entry shifts one place right until the old slot of `way` is
    /// reached, so the ways ahead of it keep their relative order and
    /// the ways behind it do not move. A hit on the most recent way
    /// stops at the first compare.
    fn touch(&mut self, base: usize, way: u8) {
        let ways_per_set = self.config.ways() as usize;
        let mut carried = way;
        for slot in &mut self.recency[base..base + ways_per_set] {
            let displaced = std::mem::replace(slot, carried);
            if displaced == way {
                return;
            }
            carried = displaced;
        }
        unreachable!("way present in recency order");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(ways: u32) -> Cache {
        // 4 sets x `ways` ways, 64-byte lines.
        let size = u64::from(ways) * 4 * 64;
        Cache::new(CacheConfig::new("toy", size, ways, 64, 1).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = toy(2);
        let first = c.access(LineAddr::new(5));
        assert!(!first.hit);
        assert_eq!(first.evicted, None);
        let second = c.access(LineAddr::new(5));
        assert!(second.hit);
        assert_eq!(second.frame, first.frame);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = toy(2);
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(4));
        c.access(LineAddr::new(0)); // 0 is now MRU; 4 is LRU
        let res = c.access(LineAddr::new(8));
        assert_eq!(res.evicted, Some(LineAddr::new(4)));
        assert!(c.probe(LineAddr::new(0)).is_some());
        assert!(c.probe(LineAddr::new(4)).is_none());
        assert!(c.probe(LineAddr::new(8)).is_some());
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = toy(1);
        c.access(LineAddr::new(0));
        let res = c.access(LineAddr::new(4)); // same set, 1 way
        assert_eq!(res.evicted, Some(LineAddr::new(0)));
        assert!(!c.access(LineAddr::new(0)).hit); // ping-pong
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = toy(1);
        for line in 0..4 {
            c.access(LineAddr::new(line));
        }
        for line in 0..4 {
            assert!(c.access(LineAddr::new(line)).hit, "line {line}");
        }
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = toy(2);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(4));
        // 0 is LRU. Probing it must not refresh it.
        assert!(c.probe(LineAddr::new(0)).is_some());
        let res = c.access(LineAddr::new(8));
        assert_eq!(res.evicted, Some(LineAddr::new(0)));
    }

    #[test]
    fn resident_reports_frame_contents() {
        let mut c = toy(2);
        let res = c.access(LineAddr::new(12));
        assert_eq!(c.resident(res.frame), Some(LineAddr::new(12)));
        let empty_frames = (0..c.config().num_frames())
            .filter(|&f| c.resident(FrameId::new(f)).is_none())
            .count();
        assert_eq!(empty_frames, 7);
    }

    #[test]
    fn invalidate_causes_refetch() {
        let mut c = toy(2);
        c.access(LineAddr::new(3));
        assert!(c.invalidate(LineAddr::new(3)).is_some());
        assert!(c.invalidate(LineAddr::new(3)).is_none());
        assert!(!c.access(LineAddr::new(3)).hit);
    }

    #[test]
    fn fill_target_prediction() {
        let mut c = toy(2);
        // Resident line: fill target is its own frame.
        let res = c.access(LineAddr::new(0));
        assert_eq!(c.fill_target(LineAddr::new(0)), res.frame);
        // Non-resident line mapping to the same set: target is the LRU
        // way, and the next access indeed lands there.
        c.access(LineAddr::new(4));
        c.access(LineAddr::new(0)); // line 4 is now LRU
        let predicted = c.fill_target(LineAddr::new(8));
        let actual = c.access(LineAddr::new(8));
        assert_eq!(predicted, actual.frame);
    }

    #[test]
    fn fill_target_does_not_disturb_lru() {
        let mut c = toy(2);
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(4));
        let _ = c.fill_target(LineAddr::new(8));
        // LRU victim is still line 0.
        let res = c.access(LineAddr::new(8));
        assert_eq!(res.evicted, Some(LineAddr::new(0)));
    }

    #[test]
    fn eviction_count_matches() {
        let mut c = toy(1);
        for line in 0..16 {
            c.access(LineAddr::new(line));
        }
        // 4 frames; first 4 fills evict nothing, remaining 12 evict.
        assert_eq!(c.stats().evictions, 12);
        assert_eq!(c.stats().misses, 16);
    }

    #[test]
    fn full_associativity_lru_order() {
        let mut c = Cache::new(CacheConfig::new("fa", 4 * 64, 4, 64, 1).unwrap());
        for line in 0..4 {
            c.access(LineAddr::new(line));
        }
        c.access(LineAddr::new(0)); // refresh 0; LRU is now 1
        let res = c.access(LineAddr::new(99));
        assert_eq!(res.evicted, Some(LineAddr::new(1)));
    }

    #[test]
    fn frame_ids_are_stable_across_reuse() {
        let mut c = toy(1);
        let a = c.access(LineAddr::new(0));
        let b = c.access(LineAddr::new(4));
        assert_eq!(a.frame, b.frame, "same set, direct mapped");
        let again = c.access(LineAddr::new(0));
        assert_eq!(again.frame, a.frame);
    }

    #[test]
    fn stores_set_dirty_and_evictions_write_back() {
        let mut c = toy(1);
        let fill = c.access_with(LineAddr::new(0), true); // dirty fill
        assert!(!fill.was_dirty, "frame was empty");
        assert!(c.frame_dirty(fill.frame));
        let hit = c.access(LineAddr::new(0));
        assert!(hit.was_dirty, "interval rested dirty");
        assert!(c.frame_dirty(hit.frame), "reads do not clean");
        // Displace the dirty line: a writeback.
        let displace = c.access_with(LineAddr::new(4), false);
        assert!(displace.writeback);
        assert!(displace.was_dirty);
        assert!(!c.frame_dirty(displace.frame), "clean fill");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_evictions_do_not_write_back() {
        let mut c = toy(1);
        c.access(LineAddr::new(0));
        let displace = c.access(LineAddr::new(4));
        assert!(!displace.writeback);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn invalidate_clears_dirty() {
        let mut c = toy(1);
        c.access_with(LineAddr::new(0), true);
        c.invalidate(LineAddr::new(0));
        let refill = c.access(LineAddr::new(0));
        assert!(!refill.was_dirty);
    }

    #[test]
    fn way_gating_resizes_the_cache() {
        let mut c = toy(2);
        // Fill both ways of set 0 (lines 0 and 4).
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(4));
        assert_eq!(c.enabled_ways(), 2);
        // Gate way 1: whatever lives there is invalidated.
        let invalidated = c.set_enabled_ways(1);
        assert_eq!(invalidated, 1, "only set 0's way 1 held a valid line");
        assert_eq!(c.enabled_ways(), 1);
        // Only one of the two lines can still be resident.
        let resident = [0u64, 4]
            .iter()
            .filter(|&&l| c.probe(LineAddr::new(l)).is_some())
            .count();
        assert_eq!(resident, 1);
        // Fills now ping-pong in the single enabled way.
        c.access(LineAddr::new(0));
        c.access(LineAddr::new(4));
        assert!(!c.access(LineAddr::new(0)).hit);
        // Re-enable: capacity returns, contents do not.
        assert_eq!(c.set_enabled_ways(2), 0, "gated ways were already empty");
        c.access(LineAddr::new(4));
        assert!(c.access(LineAddr::new(0)).hit, "two lines fit again");
        assert!(c.access(LineAddr::new(4)).hit);
    }

    #[test]
    fn gated_ways_never_receive_fills() {
        let mut c = toy(4);
        c.set_enabled_ways(2);
        for line in 0..64 {
            let result = c.access(LineAddr::new(line));
            let way = result.frame.index() % 4;
            assert!(way < 2, "fill landed in gated way {way}");
        }
    }

    #[test]
    fn gating_keeps_fills_in_enabled_ways_and_recency_a_permutation() {
        const WAYS: u32 = 8;
        let mut c = toy(WAYS);
        let mut rng = proptest::TestRng::for_test("cache::gating");
        for k in [WAYS, 3, 1, 5, WAYS, 2, WAYS] {
            // The lines the about-to-be-gated ways hold now.
            let gated: Vec<(FrameId, LineAddr)> = (0..c.config().num_frames())
                .map(FrameId::new)
                .filter(|frame| frame.index() % WAYS >= k)
                .filter_map(|frame| c.resident(frame).map(|line| (frame, line)))
                .collect();
            assert_eq!(c.set_enabled_ways(k), gated.len() as u64);
            for &(frame, line) in &gated {
                assert_eq!(c.resident(frame), None, "gated {frame} kept {line}");
                assert_eq!(c.probe(line), None, "gated line {line} still resident");
            }
            // Re-enabling every way must not revive what gating dropped.
            if k < WAYS {
                c.set_enabled_ways(WAYS);
                for &(frame, line) in &gated {
                    assert_eq!(c.resident(frame), None, "re-enabled {frame} revived {line}");
                }
                for &(_, line) in &gated {
                    assert!(!c.access(line).hit, "re-enabled way revived {line}");
                }
                c.set_enabled_ways(k);
            }
            for _ in 0..500 {
                let line = LineAddr::new(rng.below(96));
                let result = c.access_with(line, rng.below(3) == 0);
                let way = result.frame.index() % WAYS;
                assert!(
                    way < k,
                    "access to {line} landed in gated way {way} (k = {k})"
                );
                for order in c.recency.chunks(WAYS as usize) {
                    let mut sorted = order.to_vec();
                    sorted.sort_unstable();
                    assert!(
                        sorted.iter().copied().eq(0..WAYS as u8),
                        "recency {order:?} is not a permutation"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "enabled ways")]
    fn zero_enabled_ways_rejected() {
        let mut c = toy(2);
        c.set_enabled_ways(0);
    }

    #[test]
    fn hit_rate_accounting() {
        let mut c = toy(2);
        for _ in 0..3 {
            c.access(LineAddr::new(42));
        }
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
