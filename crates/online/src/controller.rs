//! The implementable controllers and their per-interval trajectories.

use leakage_core::CircuitParams;
use leakage_trace::Cycle;
use serde::{Deserialize, Serialize};

/// What one frame did over one rest interval: the simulator's unit of
/// accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Trajectory {
    /// Leakage + transition energy over the interval (excluding any
    /// refetch and per-line counter overhead, which the simulator adds).
    pub energy: f64,
    /// Stall cycles charged to the closing access (0 without one).
    pub stall: u64,
    /// Whether the closing access needs a refetch *if it was a hit*
    /// (the line's data was destroyed while it slept).
    pub data_destroyed: bool,
    /// Cycles spent per mode (ramps count toward their destination);
    /// indexed by [`PowerMode::ALL`](leakage_core::PowerMode::ALL)
    /// order: active, drowsy, sleep.
    pub mode_cycles: [u64; 3],
}

/// An implementable leakage controller.
///
/// Controllers are *time-since-last-access* machines (plus global
/// clocks), so a frame's behaviour over a whole rest interval is a pure
/// function of the interval's absolute endpoints — which is what lets
/// the simulator run at one unit of work per access instead of per
/// cycle, while remaining exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Controller {
    /// Cache decay: gate a line off `theta` cycles after its last
    /// access.
    Decay {
        /// Decay threshold in cycles.
        theta: u64,
        /// Per-line decay-counter leakage as a fraction of active line
        /// leakage.
        counter_ratio: f64,
        /// `true` reproduces the analytic [`DecaySleep`] semantics
        /// exactly (a line only decays when the whole power-down /
        /// power-up sequence fits in the interval); `false` commits at
        /// the timer like hardware and pays for overshoots.
        ///
        /// [`DecaySleep`]: leakage_core::policy::DecaySleep
        idealized: bool,
    },
    /// Hierarchical-counter decay (Kaxiras et al.): a global clock
    /// ticks every `tick` cycles; each line holds a `bits`-bit
    /// saturating counter reset on access; the line gates off when its
    /// counter saturates. Effective decay is quantized into
    /// `[(2^bits − 1) · tick, 2^bits · tick)` depending on phase.
    QuantizedDecay {
        /// Global tick period in cycles.
        tick: u64,
        /// Per-line counter width in bits.
        bits: u32,
        /// Per-line counter leakage as a fraction of active leakage.
        counter_ratio: f64,
    },
    /// Periodic drowsy (Flautner/Kim): every `window` cycles all lines
    /// drop to the drowsy voltage; an access wakes its line.
    PeriodicDrowsy {
        /// Global drowsy-tick period in cycles.
        window: u64,
    },
    /// The implementable hybrid: drowsy at the first global tick after
    /// the last access, gated off once the per-line decay timer hits
    /// `theta` — both circuit techniques, no oracle.
    DrowsyThenSleep {
        /// Global drowsy-tick period in cycles.
        window: u64,
        /// Decay-to-gated threshold in cycles.
        theta: u64,
        /// Per-line counter leakage as a fraction of active leakage.
        counter_ratio: f64,
    },
    /// Feedback-controlled decay: the threshold starts at `theta0` and
    /// is re-tuned every `epoch` cycles from the observed induced-miss
    /// rate — doubled when misses exceed `target_per_kilo_access`
    /// induced misses per 1000 accesses, halved when under half of it,
    /// clamped to `[theta_min, theta_max]`.
    AdaptiveDecay {
        /// Initial decay threshold, cycles.
        theta0: u64,
        /// Lower clamp for the threshold.
        theta_min: u64,
        /// Upper clamp for the threshold.
        theta_max: u64,
        /// Re-tuning period, cycles.
        epoch: u64,
        /// Target induced misses per 1000 accesses.
        target_per_kilo_access: f64,
        /// Per-line counter leakage as a fraction of active leakage.
        counter_ratio: f64,
    },
}

impl Controller {
    /// A realistic decay controller with the default 1 % counter.
    pub fn decay(theta: u64) -> Self {
        Controller::Decay {
            theta,
            counter_ratio: 0.01,
            idealized: false,
        }
    }

    /// The idealized decay controller matching the analytic model.
    pub fn decay_idealized(theta: u64) -> Self {
        Controller::Decay {
            theta,
            counter_ratio: 0.01,
            idealized: true,
        }
    }

    /// Kaxiras-style two-bit hierarchical decay approximating `theta`.
    pub fn quantized_decay(theta: u64) -> Self {
        Controller::QuantizedDecay {
            // Saturation after 2^bits - 1 ticks lands the effective
            // threshold near theta on average.
            tick: (theta / 3).max(1),
            bits: 2,
            counter_ratio: 0.01,
        }
    }

    /// A periodic drowsy controller.
    pub fn periodic_drowsy(window: u64) -> Self {
        Controller::PeriodicDrowsy { window }
    }

    /// The implementable hybrid with the evaluated configuration.
    pub fn drowsy_then_sleep(window: u64, theta: u64) -> Self {
        Controller::DrowsyThenSleep {
            window,
            theta,
            counter_ratio: 0.01,
        }
    }

    /// A reasonable adaptive-decay configuration.
    pub fn adaptive_decay() -> Self {
        Controller::AdaptiveDecay {
            theta0: 10_000,
            theta_min: 1_000,
            theta_max: 512_000,
            epoch: 100_000,
            target_per_kilo_access: 5.0,
            counter_ratio: 0.01,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            Controller::Decay {
                theta, idealized, ..
            } => {
                if *idealized {
                    format!("Decay({theta}, idealized)")
                } else {
                    format!("Decay({theta})")
                }
            }
            Controller::QuantizedDecay { tick, bits, .. } => {
                format!("QuantizedDecay({bits}-bit x {tick})")
            }
            Controller::PeriodicDrowsy { window } => format!("PeriodicDrowsy({window})"),
            Controller::DrowsyThenSleep { window, theta, .. } => {
                format!("DrowsyThenSleep({window}, {theta})")
            }
            Controller::AdaptiveDecay { theta0, .. } => format!("AdaptiveDecay(from {theta0})"),
        }
    }

    /// Per-cycle per-line static overhead (decay counters), as a
    /// fraction of active leakage.
    pub fn counter_ratio(&self) -> f64 {
        match self {
            Controller::Decay { counter_ratio, .. }
            | Controller::QuantizedDecay { counter_ratio, .. }
            | Controller::DrowsyThenSleep { counter_ratio, .. }
            | Controller::AdaptiveDecay { counter_ratio, .. } => *counter_ratio,
            Controller::PeriodicDrowsy { .. } => 0.0,
        }
    }

    /// The effective decay threshold for a timer armed at `t0`, for the
    /// decay-family controllers (`None` for periodic drowsy). For
    /// quantized decay this depends on the phase of `t0` against the
    /// global tick.
    pub fn effective_theta(&self, t0: Cycle, adaptive_theta: u64) -> Option<u64> {
        match self {
            Controller::Decay { theta, .. } => Some(*theta),
            Controller::QuantizedDecay { tick, bits, .. } => {
                let max_count = (1u64 << bits) - 1;
                let first_tick = (t0.raw() / tick + 1) * tick;
                Some(first_tick + (max_count - 1) * tick - t0.raw())
            }
            Controller::AdaptiveDecay { .. } => Some(adaptive_theta),
            Controller::DrowsyThenSleep { theta, .. } => Some(*theta),
            Controller::PeriodicDrowsy { .. } => None,
        }
    }

    /// Computes the frame's trajectory over the rest interval
    /// `[t0, t1)`, where `t0` is the previous access (or arming point)
    /// and `closes_with_access` says whether `t1` is an access (paying
    /// wakeup costs) or the end of the trace.
    ///
    /// `adaptive_theta` is the decay threshold that was in force when
    /// the timer armed (ignored by non-adaptive controllers).
    pub fn trajectory(
        &self,
        params: &CircuitParams,
        t0: Cycle,
        t1: Cycle,
        closes_with_access: bool,
        adaptive_theta: u64,
    ) -> Trajectory {
        let d = t1.since(t0);
        match self {
            Controller::Decay { idealized, .. } => {
                let theta = self.effective_theta(t0, adaptive_theta).expect("decay");
                decay_trajectory(params, d, theta, *idealized, closes_with_access)
            }
            Controller::QuantizedDecay { .. } | Controller::AdaptiveDecay { .. } => {
                let theta = self.effective_theta(t0, adaptive_theta).expect("decay");
                decay_trajectory(params, d, theta, false, closes_with_access)
            }
            Controller::PeriodicDrowsy { window } => {
                periodic_trajectory(params, t0, d, *window, closes_with_access)
            }
            Controller::DrowsyThenSleep { window, theta, .. } => {
                hybrid_trajectory(params, t0, d, *window, *theta, closes_with_access)
            }
        }
    }
}

/// Decay-family trajectory over a rest interval of `d` cycles with
/// threshold `theta`.
fn decay_trajectory(
    params: &CircuitParams,
    d: u64,
    theta: u64,
    idealized: bool,
    closes_with_access: bool,
) -> Trajectory {
    let t = params.timings();
    let pa = params.powers().active;
    let ps = params.powers().sleep;
    let ramp = params.transition_model();
    let exit = if closes_with_access { t.s3 + t.s4 } else { 0 };

    let stays_active = if idealized {
        d <= theta + t.s1 + exit
    } else {
        d <= theta
    };
    if stays_active {
        return Trajectory {
            energy: pa * d as f64,
            stall: 0,
            data_destroyed: false,
            mode_cycles: [d, 0, 0],
        };
    }

    // Committed: active head, power-down ramp (possibly truncated by the
    // access), then gated. The idealized variant books the wakeup ramp
    // *inside* the interval (the analytic model's convention); the
    // realistic one wakes after the access arrives, stretching into the
    // stall.
    let down = (d - theta).min(t.s1);
    let slept = if idealized && closes_with_access {
        d - theta - down - exit
    } else {
        d - theta - down
    };
    let mut energy = pa * theta as f64 + ramp.ramp_power(pa, ps) * down as f64 + ps * slept as f64;
    let mut stall = 0;
    if closes_with_access {
        // The line must be powered back up and (on a hit) refetched; the
        // wakeup is unhidden under the realistic variant, so the access
        // stalls for it.
        energy += ramp.ramp_power(ps, pa) * t.s3 as f64 + pa * t.s4 as f64;
        stall = t.s3 + t.s4;
    }
    Trajectory {
        energy,
        stall,
        data_destroyed: true,
        mode_cycles: [theta, 0, d - theta],
    }
}

/// Periodic-drowsy trajectory: the first global tick after `t0` drops
/// the line to the drowsy voltage.
fn periodic_trajectory(
    params: &CircuitParams,
    t0: Cycle,
    d: u64,
    window: u64,
    closes_with_access: bool,
) -> Trajectory {
    let t = params.timings();
    let pa = params.powers().active;
    let pd = params.powers().drowsy;
    let ramp = params.transition_model();
    // First tick strictly after t0.
    let head = window - (t0.raw() % window);
    if d <= head {
        return Trajectory {
            energy: pa * d as f64,
            stall: 0,
            data_destroyed: false,
            mode_cycles: [d, 0, 0],
        };
    }
    let down = (d - head).min(t.d1);
    let rest = d - head - down;
    let mut energy = pa * head as f64 + ramp.ramp_power(pa, pd) * down as f64 + pd * rest as f64;
    let mut stall = 0;
    if closes_with_access {
        energy += ramp.ramp_power(pd, pa) * t.d3 as f64;
        stall = t.d3;
    }
    Trajectory {
        energy,
        stall,
        data_destroyed: false, // drowsy preserves state
        mode_cycles: [head, d - head, 0],
    }
}

/// The implementable hybrid trajectory: drowsy at the first tick after
/// `t0`, gated at `t0 + theta`.
fn hybrid_trajectory(
    params: &CircuitParams,
    t0: Cycle,
    d: u64,
    window: u64,
    theta: u64,
    closes_with_access: bool,
) -> Trajectory {
    let t = params.timings();
    let pa = params.powers().active;
    let pd = params.powers().drowsy;
    let ps = params.powers().sleep;
    let ramp = params.transition_model();
    let head = window - (t0.raw() % window);
    // If the decay fires before (or at) the drowsy tick, this degrades
    // to plain decay.
    if theta <= head {
        return Controller::Decay {
            theta,
            counter_ratio: 0.0,
            idealized: false,
        }
        .trajectory(params, t0, t0.advanced(d), closes_with_access, 0);
    }
    if d <= head {
        return Trajectory {
            energy: pa * d as f64,
            stall: 0,
            data_destroyed: false,
            mode_cycles: [d, 0, 0],
        };
    }
    // Drowsy descent.
    let down = (d - head).min(t.d1);
    if d <= theta {
        let rest = d - head - down;
        let mut energy =
            pa * head as f64 + ramp.ramp_power(pa, pd) * down as f64 + pd * rest as f64;
        let mut stall = 0;
        if closes_with_access {
            energy += ramp.ramp_power(pd, pa) * t.d3 as f64;
            stall = t.d3;
        }
        return Trajectory {
            energy,
            stall,
            data_destroyed: false,
            mode_cycles: [head, d - head, 0],
        };
    }
    // Gated descent at theta.
    let drowsy_span = theta - head - down.min(theta - head);
    let gate_down = (d - theta).min(t.s1);
    let slept = d - theta - gate_down;
    let mut energy = pa * head as f64
        + ramp.ramp_power(pa, pd) * down as f64
        + pd * drowsy_span as f64
        + ramp.ramp_power(pd, ps) * gate_down as f64
        + ps * slept as f64;
    let mut stall = 0;
    if closes_with_access {
        energy += ramp.ramp_power(ps, pa) * t.s3 as f64 + pa * t.s4 as f64;
        stall = t.s3 + t.s4;
    }
    Trajectory {
        energy,
        stall,
        data_destroyed: true,
        mode_cycles: [head, theta - head, d - theta],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_core::TechnologyNode;

    fn params() -> CircuitParams {
        CircuitParams::for_node(TechnologyNode::N70)
    }

    fn c(raw: u64) -> Cycle {
        Cycle::new(raw)
    }

    #[test]
    fn decay_short_interval_stays_active() {
        let p = params();
        let traj = Controller::decay(10_000).trajectory(&p, c(0), c(5_000), true, 0);
        assert_eq!(traj.stall, 0);
        assert!(!traj.data_destroyed);
        assert_eq!(traj.mode_cycles, [5_000, 0, 0]);
        assert!((traj.energy - p.powers().active * 5_000.0).abs() < 1e-9);
    }

    #[test]
    fn decay_long_interval_sleeps_and_stalls() {
        let p = params();
        let traj = Controller::decay(10_000).trajectory(&p, c(0), c(100_000), true, 0);
        assert_eq!(traj.stall, 7); // s3 + s4
        assert!(traj.data_destroyed);
        assert_eq!(traj.mode_cycles[0], 10_000);
        assert_eq!(traj.mode_cycles[2], 90_000);
        // Far below always-active energy.
        assert!(traj.energy < p.powers().active * 100_000.0 * 0.2);
    }

    #[test]
    fn realistic_decay_pays_for_overshoot_idealized_does_not() {
        let p = params();
        // Interval just past theta: hardware commits to the ramp.
        let d = 10_010;
        let real = Controller::decay(10_000).trajectory(&p, c(0), c(d), true, 0);
        let ideal = Controller::decay_idealized(10_000).trajectory(&p, c(0), c(d), true, 0);
        assert!(real.data_destroyed);
        assert_eq!(real.stall, 7);
        assert!(!ideal.data_destroyed);
        assert_eq!(ideal.stall, 0);
        // The overshoot is pure loss: the realistic variant pays more.
        assert!(real.energy > ideal.energy);
    }

    #[test]
    fn idealized_matches_committed_far_beyond_threshold() {
        let p = params();
        let d = 1_000_000;
        let real = Controller::decay(10_000).trajectory(&p, c(0), c(d), true, 0);
        let ideal = Controller::decay_idealized(10_000).trajectory(&p, c(0), c(d), true, 0);
        // Deep asleep both ways; tiny difference from where the rest
        // cycles sit relative to the ramps.
        assert!((real.energy - ideal.energy).abs() / ideal.energy < 1e-3);
    }

    #[test]
    fn quantized_decay_effective_theta_depends_on_phase() {
        let ctrl = Controller::quantized_decay(12_000); // tick = 4000, 2 bits
                                                        // Armed right after a tick: nearly 3 full ticks until saturation.
        let just_after = ctrl.effective_theta(c(4_001), 0).unwrap();
        // Armed right before a tick: barely over 2 ticks.
        let just_before = ctrl.effective_theta(c(7_999), 0).unwrap();
        assert!(just_after > just_before);
        assert!(just_before >= 8_000);
        assert!(just_after <= 12_000);
    }

    #[test]
    fn effective_theta_at_exact_tick_boundaries() {
        // tick = 4000, 2 bits => max_count = 3: a timer armed *on* a
        // tick sees the next tick one full period away and saturates
        // after (max_count - 1) further ticks, so the effective
        // threshold is exactly 3 ticks — the maximum the quantized
        // hardware can express.
        let ctrl = Controller::quantized_decay(12_000);
        assert_eq!(ctrl.effective_theta(c(4_000), 0), Some(12_000));
        assert_eq!(ctrl.effective_theta(c(8_000), 0), Some(12_000));
        assert_eq!(ctrl.effective_theta(c(0), 0), Some(12_000));
        // One cycle past the boundary loses exactly that cycle; one
        // cycle before it sits at the minimum (barely over 2 ticks).
        assert_eq!(ctrl.effective_theta(c(4_001), 0), Some(11_999));
        assert_eq!(ctrl.effective_theta(c(8_001), 0), Some(11_999));
        assert_eq!(ctrl.effective_theta(c(3_999), 0), Some(8_001));
        assert_eq!(ctrl.effective_theta(c(7_999), 0), Some(8_001));
        // The phase-dependent threshold is always within (2, 3] ticks.
        for t0 in [0u64, 1, 3_999, 4_000, 4_001, 7_999, 8_000, 8_001, 11_999] {
            let theta = ctrl.effective_theta(c(t0), 0).unwrap();
            assert!(theta > 8_000 && theta <= 12_000, "t0={t0}: theta {theta}");
        }
    }

    #[test]
    fn effective_theta_family_coverage() {
        // The guarded `expect("decay")` transitions in `trajectory`
        // rely on exactly this Some/None split; assert it explicitly
        // at the boundary cycles used above.
        for t0 in [c(4_000), c(8_000)] {
            assert_eq!(
                Controller::decay(10_000).effective_theta(t0, 0),
                Some(10_000)
            );
            assert_eq!(
                Controller::decay_idealized(10_000).effective_theta(t0, 0),
                Some(10_000)
            );
            assert_eq!(
                Controller::drowsy_then_sleep(4_000, 60_000).effective_theta(t0, 0),
                Some(60_000)
            );
            // Adaptive decay reports whatever threshold armed the timer.
            assert_eq!(
                Controller::adaptive_decay().effective_theta(t0, 7_777),
                Some(7_777)
            );
            assert_eq!(
                Controller::periodic_drowsy(4_000).effective_theta(t0, 0),
                None
            );
        }
    }

    #[test]
    fn periodic_drowsy_phase_exactness() {
        let p = params();
        let ctrl = Controller::periodic_drowsy(4_000);
        // Armed at cycle 3,900: the tick at 4,000 hits after 100 cycles.
        let traj = ctrl.trajectory(&p, c(3_900), c(13_900), true, 0);
        assert_eq!(traj.mode_cycles[0], 100);
        assert_eq!(traj.mode_cycles[1], 9_900);
        assert_eq!(traj.stall, p.timings().d3);
        assert!(!traj.data_destroyed, "drowsy preserves data");
        // Armed at cycle 0 (on a tick): full window of active head.
        let traj = ctrl.trajectory(&p, c(0), c(10_000), true, 0);
        assert_eq!(traj.mode_cycles[0], 4_000);
    }

    #[test]
    fn trajectories_tile_the_interval() {
        let p = params();
        for ctrl in [
            Controller::decay(5_000),
            Controller::decay_idealized(5_000),
            Controller::quantized_decay(6_000),
            Controller::periodic_drowsy(4_000),
            Controller::drowsy_then_sleep(4_000, 60_000),
            Controller::adaptive_decay(),
        ] {
            for d in [1u64, 100, 5_001, 80_000] {
                let traj = ctrl.trajectory(&p, c(123_456), c(123_456 + d), true, 10_000);
                let covered: u64 = traj.mode_cycles.iter().sum();
                assert_eq!(covered, d, "{}, d={d}", ctrl.name());
            }
        }
    }

    #[test]
    fn hybrid_controller_descends_both_modes() {
        let p = params();
        let ctrl = Controller::drowsy_then_sleep(4_000, 50_000);
        // Medium interval: drowsy only, data preserved.
        let mid = ctrl.trajectory(&p, c(0), c(30_000), true, 0);
        assert!(!mid.data_destroyed);
        assert_eq!(mid.stall, p.timings().d3);
        assert!(mid.mode_cycles[1] > 0 && mid.mode_cycles[2] == 0);
        // Long interval: gated, refetch needed.
        let long = ctrl.trajectory(&p, c(0), c(500_000), true, 0);
        assert!(long.data_destroyed);
        assert_eq!(long.stall, p.timings().s3 + p.timings().s4);
        assert!(long.mode_cycles[2] > 0);
        // The hybrid's energy on the long interval beats pure periodic
        // drowsy and pure decay with the same knobs.
        let drowsy = Controller::periodic_drowsy(4_000).trajectory(&p, c(0), c(500_000), true, 0);
        let decay = Controller::Decay {
            theta: 50_000,
            counter_ratio: 0.0,
            idealized: false,
        }
        .trajectory(&p, c(0), c(500_000), true, 0);
        assert!(long.energy < drowsy.energy);
        assert!(long.energy < decay.energy);
    }

    #[test]
    fn names_are_informative() {
        assert!(Controller::decay(10_000).name().contains("10000"));
        assert!(Controller::decay_idealized(1).name().contains("idealized"));
        assert!(Controller::quantized_decay(12_000).name().contains("2-bit"));
        assert!(Controller::adaptive_decay().name().contains("Adaptive"));
    }

    #[test]
    fn counter_ratios() {
        assert!(Controller::decay(1).counter_ratio() > 0.0);
        assert_eq!(Controller::periodic_drowsy(100).counter_ratio(), 0.0);
    }
}
