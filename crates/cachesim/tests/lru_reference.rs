//! Property test: the packed set-associative cache against a naive,
//! obviously-correct LRU reference model.

use leakage_cachesim::{Cache, CacheConfig, FrameId};
use leakage_trace::LineAddr;
use proptest::prelude::*;

/// Transparent reference: per set, a vector of lines in MRU→LRU order.
struct ReferenceLru {
    sets: Vec<Vec<LineAddr>>,
    ways: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceLru {
    fn new(num_sets: usize, ways: usize) -> Self {
        ReferenceLru {
            sets: vec![Vec::new(); num_sets],
            ways,
            set_mask: num_sets as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns `(hit, evicted)`.
    fn access(&mut self, line: LineAddr) -> (bool, Option<LineAddr>) {
        let set = &mut self.sets[(line.index() & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            set.insert(0, line);
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        let evicted = if set.len() == self.ways {
            set.pop()
        } else {
            None
        };
        set.insert(0, line);
        (false, evicted)
    }

    fn resident(&self, line: LineAddr) -> bool {
        self.sets[(line.index() & self.set_mask) as usize].contains(&line)
    }
}

fn geometry() -> impl Strategy<Value = (u32, u32)> {
    // (ways, sets) both powers of two.
    (
        prop::sample::select(vec![1u32, 2, 4, 8]),
        prop::sample::select(vec![1u32, 2, 8, 32]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_reference_lru(
        (ways, sets) in geometry(),
        accesses in prop::collection::vec(0u64..96, 1..600),
    ) {
        let line_bytes = 64u64;
        let size = u64::from(ways) * u64::from(sets) * line_bytes;
        let config = CacheConfig::new("pt", size, ways, line_bytes as u32, 1).unwrap();
        let mut cache = Cache::new(config);
        let mut reference = ReferenceLru::new(sets as usize, ways as usize);

        for &raw in &accesses {
            let line = LineAddr::new(raw);
            let expected = reference.access(line);
            let actual = cache.access(line);
            prop_assert_eq!(actual.hit, expected.0, "hit/miss divergence on {}", raw);
            prop_assert_eq!(actual.evicted, expected.1, "eviction divergence on {}", raw);
            // Frame-set consistency: the frame must belong to the line's set.
            let set = cache.set_of(line);
            let frame_set = actual.frame.index() / ways;
            prop_assert_eq!(frame_set, set);
            // Residency agrees after the access.
            prop_assert!(cache.probe(line).is_some());
        }
        prop_assert_eq!(cache.stats().hits, reference.hits);
        prop_assert_eq!(cache.stats().misses, reference.misses);

        // Full residency sweep.
        for raw in 0u64..96 {
            let line = LineAddr::new(raw);
            prop_assert_eq!(
                cache.probe(line).is_some(),
                reference.resident(line),
                "residency divergence on {}", raw
            );
        }
    }

    #[test]
    fn fill_target_always_predicts_the_next_fill_frame(
        (ways, sets) in geometry(),
        accesses in prop::collection::vec(0u64..64, 1..200),
        probe_line in 0u64..64,
    ) {
        let line_bytes = 64u64;
        let size = u64::from(ways) * u64::from(sets) * line_bytes;
        let config = CacheConfig::new("pt", size, ways, line_bytes as u32, 1).unwrap();
        let mut cache = Cache::new(config);
        for &raw in &accesses {
            cache.access(LineAddr::new(raw));
        }
        let line = LineAddr::new(probe_line);
        let predicted = cache.fill_target(line);
        let actual = cache.access(line);
        prop_assert_eq!(predicted, actual.frame);
    }

    #[test]
    fn invalidate_then_access_misses(
        accesses in prop::collection::vec(0u64..32, 1..100),
        victim in 0u64..32,
    ) {
        let config = CacheConfig::new("pt", 16 * 64, 2, 64, 1).unwrap();
        let mut cache = Cache::new(config);
        for &raw in &accesses {
            cache.access(LineAddr::new(raw));
        }
        let line = LineAddr::new(victim);
        let was_resident = cache.probe(line).is_some();
        let frame = cache.invalidate(line);
        prop_assert_eq!(frame.is_some(), was_resident);
        prop_assert!(cache.probe(line).is_none());
        prop_assert!(!cache.access(line).hit);
    }

    #[test]
    fn repeat_hit_is_an_access_of_the_last_line(
        (ways, sets) in geometry(),
        ops in prop::collection::vec((0u8..8, 0u64..48), 1..400),
    ) {
        // `fast` reads through `repeat_hit` first, `plain` always
        // accesses; gating and invalidations hit both in lockstep.
        let line_bytes = 64u64;
        let size = u64::from(ways) * u64::from(sets) * line_bytes;
        let config = CacheConfig::new("pt", size, ways, line_bytes as u32, 1).unwrap();
        let mut fast = Cache::new(config.clone());
        let mut plain = Cache::new(config);
        let mut last = LineAddr::new(0);
        for &(op, raw) in &ops {
            match op {
                // Repeats of the line accessed last, the common case.
                0..=2 => {
                    let frame = fast
                        .repeat_hit(last)
                        .unwrap_or_else(|| fast.access(last).frame);
                    prop_assert_eq!(frame, plain.access(last).frame);
                }
                // A repeat of any other line must not pass as a hit.
                3 => {
                    let line = LineAddr::new(raw);
                    let frame = fast
                        .repeat_hit(line)
                        .unwrap_or_else(|| fast.access(line).frame);
                    prop_assert_eq!(frame, plain.access(line).frame);
                    last = line;
                }
                4 | 5 => {
                    let line = LineAddr::new(raw);
                    let store = op == 5;
                    prop_assert_eq!(fast.access_with(line, store), plain.access_with(line, store));
                    last = line;
                }
                6 => {
                    let line = if raw % 2 == 0 { last } else { LineAddr::new(raw) };
                    prop_assert_eq!(fast.invalidate(line), plain.invalidate(line));
                }
                _ => {
                    let enabled = 1 + (raw as u32) % ways;
                    prop_assert_eq!(fast.set_enabled_ways(enabled), plain.set_enabled_ways(enabled));
                }
            }
            prop_assert_eq!(fast.stats(), plain.stats());
        }
        for raw in 0u64..48 {
            let line = LineAddr::new(raw);
            prop_assert_eq!(fast.probe(line), plain.probe(line), "residency of {}", raw);
            prop_assert_eq!(fast.fill_target(line), plain.fill_target(line), "LRU of {}", raw);
        }
    }

    #[test]
    fn frame_ids_stay_in_range(
        accesses in prop::collection::vec(0u64..1_000_000, 1..300),
    ) {
        let config = CacheConfig::alpha_l1d();
        let mut cache = Cache::new(config);
        let frames = cache.config().num_frames();
        for &raw in &accesses {
            let result = cache.access(LineAddr::new(raw));
            prop_assert!(result.frame < FrameId::new(frames));
        }
    }
}
