//! The per-cache online simulator and the hierarchy-level sink.

use crate::{Controller, OnlineReport};
use leakage_cachesim::{FrameId, Hierarchy, HierarchyConfig, Level1};
use leakage_core::CircuitParams;
use leakage_trace::{Cycle, MemoryAccess, TraceSink};

/// Per-frame simulation state.
#[derive(Debug, Clone, Copy)]
struct FrameState {
    /// When the frame's controller timer last armed (its last access,
    /// or cycle 0 at reset).
    armed_at: Cycle,
    /// The adaptive decay threshold in force when the timer armed.
    armed_theta: u64,
}

/// Simulates one controller managing one cache's frames, driven by the
/// cache's access stream.
///
/// Frames power up active at cycle 0 with their timers freshly armed —
/// the same reset state the analytic accounting assumes — so energies
/// are directly comparable with
/// [`EnergyContext::evaluate`](leakage_core::EnergyContext::evaluate)
/// under dead-aware refetch accounting.
#[derive(Debug, Clone)]
pub struct OnlineCacheSim {
    params: CircuitParams,
    controller: Controller,
    frames: Vec<FrameState>,
    // Adaptive state.
    theta: u64,
    epoch_end: u64,
    epoch_accesses: u64,
    epoch_induced: u64,
    theta_history: Vec<(u64, u64)>,
    // Accumulators.
    energy: f64,
    accesses: u64,
    induced_misses: u64,
    stall_cycles: u64,
    stalled_accesses: u64,
    mode_cycles: [u64; 3],
}

impl OnlineCacheSim {
    /// Creates a simulator for a cache with `num_frames` frames.
    pub fn new(params: CircuitParams, controller: Controller, num_frames: u32) -> Self {
        let (theta, epoch) = match &controller {
            Controller::AdaptiveDecay { theta0, epoch, .. } => (*theta0, *epoch),
            _ => (0, u64::MAX),
        };
        let mut theta_history = Vec::new();
        if matches!(controller, Controller::AdaptiveDecay { .. }) {
            theta_history.push((0, theta));
        }
        OnlineCacheSim {
            frames: vec![
                FrameState {
                    armed_at: Cycle::ZERO,
                    armed_theta: theta,
                };
                num_frames as usize
            ],
            theta,
            epoch_end: epoch,
            epoch_accesses: 0,
            epoch_induced: 0,
            theta_history,
            energy: 0.0,
            accesses: 0,
            induced_misses: 0,
            stall_cycles: 0,
            stalled_accesses: 0,
            mode_cycles: [0; 3],
            params,
            controller,
        }
    }

    /// The controller being simulated.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The adaptive threshold currently in force (the fixed threshold
    /// for non-adaptive decay controllers; 0 for periodic drowsy).
    pub fn current_theta(&self) -> u64 {
        self.theta
    }

    /// Feeds one access to `frame` at `cycle`; `hit` is the functional
    /// cache's outcome (whether the resident line was the one wanted).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range, or (in debug builds) if
    /// accesses arrive out of order for a frame.
    pub fn on_access(&mut self, frame: FrameId, cycle: Cycle, hit: bool) {
        self.maybe_retune(cycle);
        let state = self.frames[frame.index() as usize];
        let traj = self.controller.trajectory(
            &self.params,
            state.armed_at,
            cycle,
            true,
            state.armed_theta,
        );
        self.energy += traj.energy;
        for (bucket, cycles) in self.mode_cycles.iter_mut().zip(traj.mode_cycles) {
            *bucket += cycles;
        }
        self.accesses += 1;
        self.epoch_accesses += 1;
        if traj.stall > 0 {
            self.stall_cycles += traj.stall;
            self.stalled_accesses += 1;
        }
        // An induced miss is a would-be hit on destroyed data: the line
        // must be refetched from L2 at dynamic cost C_D.
        if traj.data_destroyed && hit {
            self.induced_misses += 1;
            self.epoch_induced += 1;
            self.energy += self.params.refetch_energy();
        }
        self.frames[frame.index() as usize] = FrameState {
            armed_at: cycle,
            armed_theta: self.theta,
        };
    }

    /// Adaptive feedback: at epoch boundaries, move the threshold
    /// against the observed induced-miss rate.
    fn maybe_retune(&mut self, now: Cycle) {
        let Controller::AdaptiveDecay {
            theta_min,
            theta_max,
            epoch,
            target_per_kilo_access,
            ..
        } = self.controller
        else {
            return;
        };
        while now.raw() >= self.epoch_end {
            if self.epoch_accesses > 0 {
                let rate = 1_000.0 * self.epoch_induced as f64 / self.epoch_accesses as f64;
                let new_theta = if rate > target_per_kilo_access {
                    (self.theta * 2).min(theta_max)
                } else if rate < target_per_kilo_access / 2.0 {
                    (self.theta / 2).max(theta_min)
                } else {
                    self.theta
                };
                if new_theta != self.theta {
                    self.theta = new_theta;
                    self.theta_history.push((self.epoch_end, new_theta));
                }
            }
            self.epoch_accesses = 0;
            self.epoch_induced = 0;
            self.epoch_end += epoch;
        }
    }

    /// Ends the simulation at `end` (exclusive), charging every frame's
    /// open tail, and returns the report.
    pub fn finish(mut self, end: Cycle) -> OnlineReport {
        let frames = self.frames.len() as u64;
        for state in std::mem::take(&mut self.frames) {
            let traj = self.controller.trajectory(
                &self.params,
                state.armed_at,
                end,
                false,
                state.armed_theta,
            );
            self.energy += traj.energy;
            for (bucket, cycles) in self.mode_cycles.iter_mut().zip(traj.mode_cycles) {
                *bucket += cycles;
            }
        }
        // Decay-counter overhead runs on every line all the time.
        let span = end.raw() as f64;
        self.energy +=
            self.controller.counter_ratio() * self.params.powers().active * span * frames as f64;
        leakage_telemetry::counter!("online_accesses_total").add(self.accesses);
        leakage_telemetry::counter!("online_induced_misses_total").add(self.induced_misses);
        leakage_telemetry::counter!("online_stall_cycles_total").add(self.stall_cycles);
        OnlineReport {
            controller: self.controller.name(),
            energy: self.energy,
            baseline: self.params.powers().active * span * frames as f64,
            accesses: self.accesses,
            induced_misses: self.induced_misses,
            stall_cycles: self.stall_cycles,
            stalled_accesses: self.stalled_accesses,
            mode_cycles: self.mode_cycles,
            theta_history: self.theta_history,
        }
    }
}

/// Drives one controller per L1 cache behind the standard hierarchy: a
/// [`TraceSink`] a workload can run into directly.
///
/// # Examples
///
/// ```
/// use leakage_core::{CircuitParams, TechnologyNode};
/// use leakage_online::{Controller, OnlineSink};
/// use leakage_trace::TraceSource;
/// use leakage_workloads::{gzip, Scale};
///
/// let params = CircuitParams::for_node(TechnologyNode::N70);
/// let mut sink = OnlineSink::new(params, Controller::decay(10_000));
/// gzip(Scale::Test).run(&mut sink);
/// let (icache, dcache) = sink.finish();
/// assert!(icache.saving_fraction() > 0.0);
/// assert!(dcache.saving_fraction() > 0.0);
/// ```
#[derive(Debug)]
pub struct OnlineSink {
    hierarchy: Hierarchy,
    icache: OnlineCacheSim,
    dcache: OnlineCacheSim,
    end: Cycle,
}

impl OnlineSink {
    /// Builds the standard Alpha-like hierarchy with the same controller
    /// on both L1 caches.
    pub fn new(params: CircuitParams, controller: Controller) -> Self {
        OnlineSink::with_controllers(params, controller.clone(), controller)
    }

    /// Builds with distinct controllers per side.
    pub fn with_controllers(params: CircuitParams, icache: Controller, dcache: Controller) -> Self {
        let config = HierarchyConfig::alpha_like();
        OnlineSink {
            icache: OnlineCacheSim::new(params.clone(), icache, config.l1i.num_frames()),
            dcache: OnlineCacheSim::new(params, dcache, config.l1d.num_frames()),
            hierarchy: Hierarchy::new(config),
            end: Cycle::ZERO,
        }
    }

    /// Ends the run, returning `(icache, dcache)` reports.
    pub fn finish(self) -> (OnlineReport, OnlineReport) {
        let end = self.end;
        (self.icache.finish(end), self.dcache.finish(end))
    }
}

impl TraceSink for OnlineSink {
    fn accept(&mut self, access: MemoryAccess) {
        let outcome = self.hierarchy.access(&access);
        let event = outcome.l1;
        match event.cache {
            Level1::Instruction => self.icache.on_access(event.frame, event.cycle, event.hit),
            Level1::Data => self.dcache.on_access(event.frame, event.cycle, event.hit),
        }
        if access.cycle >= self.end {
            self.end = access.cycle.advanced(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_core::TechnologyNode;

    fn params() -> CircuitParams {
        CircuitParams::for_node(TechnologyNode::N70)
    }

    fn f(i: u32) -> FrameId {
        FrameId::new(i)
    }

    fn c(raw: u64) -> Cycle {
        Cycle::new(raw)
    }

    #[test]
    fn mode_cycles_tile_frames_times_span() {
        let mut sim = OnlineCacheSim::new(params(), Controller::decay(1_000), 8);
        sim.on_access(f(0), c(100), false);
        sim.on_access(f(0), c(50_000), true);
        sim.on_access(f(3), c(70_000), false);
        let report = sim.finish(c(100_000));
        let total: u64 = report.mode_cycles.iter().sum();
        assert_eq!(total, 8 * 100_000);
    }

    #[test]
    fn induced_misses_only_on_destroyed_hits() {
        let mut sim = OnlineCacheSim::new(params(), Controller::decay(1_000), 2);
        sim.on_access(f(0), c(50_000), true); // decayed + hit: induced
        sim.on_access(f(1), c(50_000), false); // decayed + fill: free
        sim.on_access(f(0), c(50_100), true); // active: free
        let report = sim.finish(c(60_000));
        assert_eq!(report.induced_misses, 1);
        assert_eq!(report.stalled_accesses, 2, "both decayed accesses stall");
    }

    #[test]
    fn periodic_drowsy_never_induces_misses() {
        let mut sim = OnlineCacheSim::new(params(), Controller::periodic_drowsy(1_000), 2);
        sim.on_access(f(0), c(10_000), true);
        sim.on_access(f(0), c(90_000), true);
        let report = sim.finish(c(100_000));
        assert_eq!(report.induced_misses, 0);
        assert_eq!(report.stalled_accesses, 2);
        assert!(report.saving_fraction() > 0.5, "mostly drowsy");
    }

    #[test]
    fn adaptive_decay_retunes_downward_when_quiet() {
        // No induced misses at all: theta should halve over epochs.
        let ctrl = Controller::AdaptiveDecay {
            theta0: 64_000,
            theta_min: 1_000,
            theta_max: 256_000,
            epoch: 10_000,
            target_per_kilo_access: 5.0,
            counter_ratio: 0.0,
        };
        let mut sim = OnlineCacheSim::new(params(), ctrl, 4);
        // Frequent short-interval accesses: never destroyed, zero rate.
        for i in 1..60 {
            sim.on_access(f(0), c(i * 2_000), true);
        }
        assert!(
            sim.current_theta() < 64_000,
            "theta fell: {}",
            sim.current_theta()
        );
        let report = sim.finish(c(200_000));
        assert!(report.theta_history.len() > 1);
        assert_eq!(report.theta_history[0], (0, 64_000));
    }

    #[test]
    fn adaptive_decay_backs_off_when_inducing() {
        let ctrl = Controller::AdaptiveDecay {
            theta0: 1_000,
            theta_min: 500,
            theta_max: 1_024_000,
            epoch: 50_000,
            target_per_kilo_access: 5.0,
            counter_ratio: 0.0,
        };
        let mut sim = OnlineCacheSim::new(params(), ctrl, 4);
        // Every access hits destroyed data (gaps >> theta): 1000/1K rate.
        for i in 1..40 {
            sim.on_access(f(0), c(i * 10_000), true);
        }
        assert!(
            sim.current_theta() > 1_000,
            "theta rose: {}",
            sim.current_theta()
        );
    }

    #[test]
    fn online_sink_runs_a_workload() {
        use leakage_trace::TraceSource;
        use leakage_workloads::{applu, Scale};
        let mut sink = OnlineSink::with_controllers(
            params(),
            Controller::decay(10_000),
            Controller::periodic_drowsy(4_000),
        );
        applu(Scale::Test).run(&mut sink);
        let (icache, dcache) = sink.finish();
        assert!(icache.controller.contains("Decay"));
        assert!(dcache.controller.contains("PeriodicDrowsy"));
        assert!(icache.saving_fraction() > 0.0);
        assert!(dcache.saving_fraction() > 0.0);
        assert_eq!(dcache.induced_misses, 0);
        let total: u64 = icache.mode_cycles.iter().sum();
        assert_eq!(total % 1024, 0, "1024 frames tile the span");
    }

    #[test]
    fn counter_overhead_is_charged() {
        let with = OnlineCacheSim::new(
            params(),
            Controller::Decay {
                theta: 10_000,
                counter_ratio: 0.05,
                idealized: false,
            },
            4,
        )
        .finish(c(100_000));
        let without = OnlineCacheSim::new(
            params(),
            Controller::Decay {
                theta: 10_000,
                counter_ratio: 0.0,
                idealized: false,
            },
            4,
        )
        .finish(c(100_000));
        let expected = 0.05 * params().powers().active * 100_000.0 * 4.0;
        assert!((with.energy - without.energy - expected).abs() < 1e-6);
    }
}
