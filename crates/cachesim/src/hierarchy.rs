//! The two-level memory hierarchy of the study.

use crate::{AccessResult, Cache, CacheConfig, FrameId};
use leakage_trace::{AccessKind, Cycle, LineAddr, MemoryAccess};
use serde::{Deserialize, Serialize};

/// Which L1 cache served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Level1 {
    /// The L1 instruction cache.
    Instruction,
    /// The L1 data cache.
    Data,
}

impl std::fmt::Display for Level1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level1::Instruction => "I-cache",
            Level1::Data => "D-cache",
        })
    }
}

/// Hierarchy configuration: the three cache geometries plus the main
/// memory latency charged on an L2 miss.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Cycles to fetch a line from memory on an L2 miss.
    pub memory_latency: u32,
}

impl HierarchyConfig {
    /// The paper's Alpha-21264-like configuration: 64 KB 2-way L1I
    /// (1-cycle), 64 KB 2-way L1D (3-cycle), 2 MB direct-mapped unified
    /// L2 (7-cycle), 100-cycle memory.
    pub fn alpha_like() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::alpha_l1i(),
            l1d: CacheConfig::alpha_l1d(),
            l2: CacheConfig::alpha_l2(),
            memory_latency: 100,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::alpha_like()
    }
}

/// Outcome at a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelOutcome {
    /// Hit or miss, and fill placement.
    pub result: AccessResult,
    /// The line address at this level's granularity.
    pub line: LineAddr,
}

/// The L1-side event the interval analysis consumes: one access to one
/// frame of one L1 cache, at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Event {
    /// Which L1 was accessed.
    pub cache: Level1,
    /// When the access was issued.
    pub cycle: Cycle,
    /// The line accessed, in this cache's line granularity.
    pub line: LineAddr,
    /// The frame the line occupies after the access.
    pub frame: FrameId,
    /// Whether the line was already resident (a hit). A miss means the
    /// frame was refilled, ending the previous occupant's generation.
    pub hit: bool,
    /// The line displaced by a miss, if the frame held valid data.
    pub evicted: Option<LineAddr>,
    /// Whether the frame's previous contents were dirty when the access
    /// arrived — the liveness-with-unwritten-stores of the interval
    /// this access closes.
    pub was_dirty: bool,
}

/// Full outcome of routing one [`MemoryAccess`] through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// The L1 event (always present: every access touches an L1).
    pub l1: L1Event,
    /// The L2 outcome if the L1 missed.
    pub l2: Option<LevelOutcome>,
    /// Total access latency in cycles: L1 hit latency on a hit, plus L2
    /// hit latency or memory latency as misses cascade.
    pub latency: u32,
}

impl HierarchyOutcome {
    /// Shorthand for "the L1 missed".
    pub fn l1_miss(&self) -> bool {
        !self.l1.hit
    }
}

/// A two-level cache hierarchy: split L1 caches over a unified L2.
///
/// [`Hierarchy::access`] routes an event by its [`AccessKind`], cascades
/// misses into the L2, and reports everything the downstream analyses
/// need: the frame-level L1 event (for interval extraction) and the total
/// latency (for the workload generators' stall model).
///
/// # Examples
///
/// ```
/// use leakage_cachesim::{Hierarchy, HierarchyConfig, Level1};
/// use leakage_trace::{Address, Cycle, MemoryAccess, Pc};
///
/// let mut h = Hierarchy::new(HierarchyConfig::alpha_like());
/// let out = h.access(&MemoryAccess::load(Cycle::ZERO, Pc::new(0), Address::new(0x2000)));
/// assert_eq!(out.l1.cache, Level1::Data);
/// assert!(out.l1_miss());
/// assert_eq!(out.latency, 3 + 7 + 100); // L1D miss, L2 miss, memory
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    memory_latency: u32,
}

impl Hierarchy {
    /// Builds an empty hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            memory_latency: config.memory_latency,
        }
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The L1 cache of the given side.
    #[inline]
    pub fn l1(&self, side: Level1) -> &Cache {
        match side {
            Level1::Instruction => &self.l1i,
            Level1::Data => &self.l1d,
        }
    }

    /// Adds this hierarchy's accumulated hit/miss counters to the
    /// global telemetry registry (`cachesim_<level>_{accesses,misses,
    /// writebacks}_total`).
    ///
    /// Bulk post-hoc flushing keeps the per-access loop free of even
    /// relaxed-atomic traffic: callers (the profiling pipeline) invoke
    /// this once per simulated benchmark.
    pub fn flush_telemetry(&self) {
        for (level, cache) in [("l1i", &self.l1i), ("l1d", &self.l1d), ("l2", &self.l2)] {
            let stats = cache.stats();
            let registry = leakage_telemetry::registry();
            registry.counter(&format!("cachesim_{level}_accesses_total")).add(stats.accesses);
            registry.counter(&format!("cachesim_{level}_misses_total")).add(stats.misses);
            registry
                .counter(&format!("cachesim_{level}_writebacks_total"))
                .add(stats.writebacks);
        }
    }

    /// Routes one access through the hierarchy.
    #[inline]
    pub fn access(&mut self, access: &MemoryAccess) -> HierarchyOutcome {
        let (side, l1) = match access.kind {
            AccessKind::InstFetch => (Level1::Instruction, &mut self.l1i),
            AccessKind::Load | AccessKind::Store => (Level1::Data, &mut self.l1d),
        };
        let l1_line = access.addr.line(l1.config().line_bits());
        let l1_latency = l1.config().hit_latency();
        let result = l1.access_with(l1_line, access.kind == AccessKind::Store);
        let event = L1Event {
            cache: side,
            cycle: access.cycle,
            line: l1_line,
            frame: result.frame,
            hit: result.hit,
            evicted: result.evicted,
            was_dirty: result.was_dirty,
        };

        if result.hit {
            return HierarchyOutcome {
                l1: event,
                l2: None,
                latency: l1_latency,
            };
        }

        let l2_line = access.addr.line(self.l2.config().line_bits());
        let l2_result = self.l2.access(l2_line);
        let latency = l1_latency
            + self.l2.config().hit_latency()
            + if l2_result.hit { 0 } else { self.memory_latency };
        HierarchyOutcome {
            l1: event,
            l2: Some(LevelOutcome {
                result: l2_result,
                line: l2_line,
            }),
            latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_trace::{Address, Pc};

    fn fetch(cycle: u64, addr: u64) -> MemoryAccess {
        MemoryAccess::fetch(Cycle::new(cycle), Pc::new(addr))
    }

    fn load(cycle: u64, addr: u64) -> MemoryAccess {
        MemoryAccess::load(Cycle::new(cycle), Pc::new(0), Address::new(addr))
    }

    #[test]
    fn routes_by_kind() {
        let mut h = Hierarchy::new(HierarchyConfig::alpha_like());
        let f = h.access(&fetch(0, 0x1000));
        assert_eq!(f.l1.cache, Level1::Instruction);
        let l = h.access(&load(1, 0x1000));
        assert_eq!(l.l1.cache, Level1::Data);
        assert_eq!(h.l1i().stats().accesses, 1);
        assert_eq!(h.l1d().stats().accesses, 1);
    }

    #[test]
    fn latency_cascade() {
        let mut h = Hierarchy::new(HierarchyConfig::alpha_like());
        // Cold: L1D miss + L2 miss.
        assert_eq!(h.access(&load(0, 0x4000)).latency, 3 + 7 + 100);
        // Warm L1: hit latency only.
        assert_eq!(h.access(&load(1, 0x4000)).latency, 3);
        // Evict from L1 but not L2 (L2 is much larger): refill from L2.
        // Lines 0x4000, 0x4000 + 64KB/2... construct two conflicting lines:
        // L1D has 512 sets x 64B = 32KB per way; +64KB keeps the same set
        // in a 2-way cache; need 2 more conflicting lines to evict.
        let conflict1 = 0x4000 + 64 * 1024;
        let conflict2 = 0x4000 + 128 * 1024;
        h.access(&load(2, conflict1));
        h.access(&load(3, conflict2));
        let refill = h.access(&load(4, 0x4000));
        assert!(refill.l1_miss());
        assert_eq!(refill.latency, 3 + 7, "L2 still holds the line");
    }

    #[test]
    fn l2_is_unified() {
        let mut h = Hierarchy::new(HierarchyConfig::alpha_like());
        h.access(&fetch(0, 0x8000)); // brings line into L2 via I-side
        let l = h.access(&load(1, 0x8000)); // D-side L1 miss, L2 hit
        assert!(l.l1_miss());
        assert_eq!(l.latency, 3 + 7);
        assert_eq!(h.l2().stats().hits, 1);
    }

    #[test]
    fn l1_event_reports_frames_and_evictions() {
        let mut h = Hierarchy::new(HierarchyConfig::alpha_like());
        let a = h.access(&load(0, 0x0));
        let b = h.access(&load(1, 64 * 1024)); // same L1D set, way 2
        let c = h.access(&load(2, 128 * 1024)); // evicts line 0
        assert_eq!(a.l1.evicted, None);
        assert_eq!(b.l1.evicted, None);
        assert_eq!(c.l1.evicted, Some(Address::new(0).line(6)));
        assert_ne!(a.l1.frame, b.l1.frame);
        assert_eq!(c.l1.frame, a.l1.frame, "LRU victim was the first line");
    }

    #[test]
    fn stores_mark_dirty_intervals() {
        let mut h = Hierarchy::new(HierarchyConfig::alpha_like());
        let a = h.access(&MemoryAccess::store(
            Cycle::new(0),
            Pc::new(0),
            Address::new(0x9000),
        ));
        assert!(!a.l1.was_dirty, "frame was empty");
        let b = h.access(&load(1, 0x9000));
        assert!(b.l1.was_dirty, "the rest interval carried a store");
        // Instruction fetches never dirty anything.
        let f = h.access(&fetch(2, 0x9000));
        assert!(!f.l1.was_dirty);
        let f2 = h.access(&fetch(3, 0x9000));
        assert!(!f2.l1.was_dirty);
    }

    #[test]
    fn accessor_by_side() {
        let h = Hierarchy::new(HierarchyConfig::alpha_like());
        assert_eq!(h.l1(Level1::Instruction).config().name(), "L1I");
        assert_eq!(h.l1(Level1::Data).config().name(), "L1D");
    }

    #[test]
    fn default_config_is_alpha_like() {
        assert_eq!(HierarchyConfig::default(), HierarchyConfig::alpha_like());
    }

    #[test]
    fn level1_display() {
        assert_eq!(Level1::Instruction.to_string(), "I-cache");
        assert_eq!(Level1::Data.to_string(), "D-cache");
    }
}
