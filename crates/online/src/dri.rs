//! A DRI-cache-style resizing simulator (Powell et al., the paper's
//! reference \[12\] — the original gated-Vdd architecture).
//!
//! Where decay gates individual lines, the DRI i-cache gates *ways*: a
//! miss counter is compared against a target once per epoch, and the
//! cache halves (doubles) its enabled associativity when misses run
//! under (over) the bound. Coarse, simple — and the first architecture
//! to use the circuit technique this paper takes as one of its two
//! primitives.
//!
//! The simulator runs the resizable cache against a full-size *shadow*
//! cache: the shadow provides the baseline miss stream, so the resize
//! penalty (extra misses, each costing a refetch `C_D`) is measured
//! rather than assumed. Leakage is integrated over time as
//! `enabled frames × P_active + gated frames × P_sleep`.

use leakage_cachesim::{Cache, CacheConfig};
use leakage_core::CircuitParams;
use leakage_trace::{Cycle, LineAddr};
use serde::{Deserialize, Serialize};

/// Configuration of the resize controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriConfig {
    /// Re-evaluation period, cycles.
    pub epoch: u64,
    /// Miss-count bound per epoch: fewer misses → shrink, more than
    /// `2×` this → grow (Powell et al.'s miss-bound scheme).
    pub miss_bound: u64,
    /// Smallest permitted associativity.
    pub min_ways: u32,
}

impl Default for DriConfig {
    fn default() -> Self {
        DriConfig {
            epoch: 100_000,
            miss_bound: 100,
            min_ways: 1,
        }
    }
}

/// Results of one DRI run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriReport {
    /// Total leakage + refetch energy, pJ.
    pub energy: f64,
    /// Always-active full-capacity baseline energy, pJ.
    pub baseline: f64,
    /// Accesses observed.
    pub accesses: u64,
    /// Misses of the resized cache.
    pub misses: u64,
    /// Misses the full-size shadow cache would have had.
    pub shadow_misses: u64,
    /// Time-averaged enabled associativity.
    pub avg_ways: f64,
    /// `(cycle, ways)` resize history (initial setting first).
    pub resize_history: Vec<(u64, u32)>,
}

impl DriReport {
    /// Leakage saving vs the always-active full-size baseline.
    pub fn saving_fraction(&self) -> f64 {
        if self.baseline == 0.0 {
            0.0
        } else {
            1.0 - self.energy / self.baseline
        }
    }

    /// Saving in percent.
    pub fn saving_percent(&self) -> f64 {
        self.saving_fraction() * 100.0
    }

    /// Extra misses the resizing caused, per 1000 accesses.
    pub fn extra_misses_per_kilo_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1_000.0 * self.misses.saturating_sub(self.shadow_misses) as f64 / self.accesses as f64
        }
    }
}

/// The resizable cache plus its full-size shadow.
#[derive(Debug, Clone)]
pub struct DriCacheSim {
    cache: Cache,
    shadow: Cache,
    params: CircuitParams,
    config: DriConfig,
    ways: u32,
    epoch_end: u64,
    epoch_misses: u64,
    // Leakage integration: frames enabled since `last_change`.
    last_change: u64,
    energy: f64,
    weighted_way_cycles: f64,
    accesses: u64,
    misses: u64,
    shadow_misses: u64,
    resize_history: Vec<(u64, u32)>,
    now: u64,
}

impl DriCacheSim {
    /// Creates a simulator over the given cache geometry.
    pub fn new(geometry: CacheConfig, params: CircuitParams, config: DriConfig) -> Self {
        let cache = Cache::new(geometry.clone());
        let ways = geometry.ways();
        DriCacheSim {
            shadow: Cache::new(geometry),
            cache,
            params,
            ways,
            epoch_end: config.epoch,
            config,
            epoch_misses: 0,
            last_change: 0,
            energy: 0.0,
            weighted_way_cycles: 0.0,
            accesses: 0,
            misses: 0,
            shadow_misses: 0,
            resize_history: vec![(0, ways)],
            now: 0,
        }
    }

    /// The currently enabled associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Integrates leakage from `last_change` to `now` at the current
    /// way count.
    fn integrate(&mut self, now: u64) {
        let span = now.saturating_sub(self.last_change) as f64;
        if span > 0.0 {
            let frames = self.cache.config().num_frames() as f64;
            let per_set = self.cache.config().ways() as f64;
            let enabled = frames * f64::from(self.ways) / per_set;
            let gated = frames - enabled;
            self.energy +=
                span * (enabled * self.params.powers().active + gated * self.params.powers().sleep);
            self.weighted_way_cycles += span * f64::from(self.ways);
            self.last_change = now;
        }
    }

    fn retune(&mut self, now: u64) {
        while now >= self.epoch_end {
            let new_ways = if self.epoch_misses < self.config.miss_bound {
                (self.ways / 2).max(self.config.min_ways)
            } else if self.epoch_misses > 2 * self.config.miss_bound {
                (self.ways * 2).min(self.cache.config().ways())
            } else {
                self.ways
            };
            if new_ways != self.ways {
                self.integrate(self.epoch_end.min(now));
                self.ways = new_ways;
                self.cache.set_enabled_ways(new_ways);
                self.resize_history.push((self.epoch_end, new_ways));
            }
            self.epoch_misses = 0;
            self.epoch_end += self.config.epoch;
        }
    }

    /// Feeds one access at `cycle`.
    pub fn on_access(&mut self, line: LineAddr, cycle: Cycle) {
        let now = cycle.raw();
        self.now = self.now.max(now + 1);
        self.retune(now);
        self.accesses += 1;
        let result = self.cache.access(line);
        if !result.hit {
            self.misses += 1;
            self.epoch_misses += 1;
            // Every miss refetches; the baseline pays only for shadow
            // misses, so the *difference* is the resize penalty.
            self.energy += self.params.refetch_energy();
        }
        if !self.shadow.access(line).hit {
            self.shadow_misses += 1;
        }
    }

    /// Ends the run and reports.
    pub fn finish(mut self) -> DriReport {
        let end = self.now;
        self.integrate(end);
        let frames = self.cache.config().num_frames() as f64;
        // The baseline (full-size, always-active) also refetches its own
        // (shadow) misses; subtract that common term so savings isolate
        // the leakage trade-off.
        let baseline = frames * self.params.powers().active * end as f64
            + self.shadow_misses as f64 * self.params.refetch_energy();
        DriReport {
            energy: self.energy,
            baseline,
            accesses: self.accesses,
            misses: self.misses,
            shadow_misses: self.shadow_misses,
            avg_ways: if end == 0 {
                f64::from(self.ways)
            } else {
                self.weighted_way_cycles / end as f64
            },
            resize_history: self.resize_history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_core::TechnologyNode;

    fn sim(config: DriConfig) -> DriCacheSim {
        DriCacheSim::new(
            CacheConfig::new("dri", 8 * 1024, 4, 64, 1).unwrap(),
            CircuitParams::for_node(TechnologyNode::N70),
            config,
        )
    }

    #[test]
    fn quiet_workload_shrinks_the_cache() {
        let mut s = sim(DriConfig {
            epoch: 10_000,
            miss_bound: 50,
            min_ways: 1,
        });
        // A tiny working set: 8 lines, no capacity pressure.
        for i in 0..100u64 {
            for line in 0..8u64 {
                s.on_access(LineAddr::new(line), Cycle::new(i * 1_000 + line));
            }
        }
        assert_eq!(s.ways(), 1, "shrunk to the minimum");
        let report = s.finish();
        assert!(report.avg_ways < 4.0);
        assert!(
            report.saving_fraction() > 0.4,
            "{}",
            report.saving_percent()
        );
        assert!(report.resize_history.len() > 1);
    }

    #[test]
    fn thrashing_workload_grows_back() {
        let mut s = sim(DriConfig {
            epoch: 5_000,
            miss_bound: 10,
            min_ways: 1,
        });
        // First: quiet phase shrinks it.
        for i in 0..30u64 {
            s.on_access(LineAddr::new(0), Cycle::new(i * 1_000));
        }
        assert_eq!(s.ways(), 1);
        // Then: a working set needing full associativity (lines mapping
        // to one set).
        let mut t = 40_000u64;
        for _ in 0..200 {
            for conflict in 0..4u64 {
                s.on_access(LineAddr::new(conflict * 32), Cycle::new(t));
                t += 25;
            }
        }
        assert!(s.ways() > 1, "grew back under miss pressure");
    }

    #[test]
    fn extra_misses_are_measured_not_assumed() {
        let mut s = sim(DriConfig {
            epoch: 5_000,
            miss_bound: 1_000_000, // always shrink
            min_ways: 1,
        });
        // Working set of 2 conflicting lines: fits in 4 ways, thrashes in 1.
        let mut t = 0u64;
        for _ in 0..3_000 {
            s.on_access(LineAddr::new(0), Cycle::new(t));
            s.on_access(LineAddr::new(32), Cycle::new(t + 5));
            t += 10;
        }
        let report = s.finish();
        assert!(report.misses > report.shadow_misses);
        assert!(report.extra_misses_per_kilo_access() > 10.0);
    }

    #[test]
    fn no_resize_means_baseline_energy_modulo_refetch() {
        let mut s = sim(DriConfig {
            epoch: 1_000_000_000, // never retunes
            miss_bound: 0,
            min_ways: 1,
        });
        for i in 0..1_000u64 {
            s.on_access(LineAddr::new(i % 16), Cycle::new(i * 10));
        }
        let report = s.finish();
        assert_eq!(report.misses, report.shadow_misses);
        assert!((report.energy - report.baseline).abs() / report.baseline < 1e-9);
        assert!(report.saving_fraction().abs() < 1e-9);
        assert_eq!(report.avg_ways, 4.0);
    }
}
