//! The paper's interval energy equations (Eq. 1–3) and inflection points.

use crate::{CircuitParams, Energy, PowerMode};
use serde::{Deserialize, Serialize};

/// The two inflection points of Definition 3, in cycles.
///
/// * Intervals no longer than `active_drowsy` must stay active.
/// * Intervals in `(active_drowsy, drowsy_sleep]` are cheapest drowsy.
/// * Intervals longer than `drowsy_sleep` are cheapest asleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InflectionPoints {
    /// The active–drowsy point `a = d1 + d3`.
    pub active_drowsy: u64,
    /// The drowsy–sleep point `b`, where `E_S(b) = E_D(b)`.
    pub drowsy_sleep: u64,
}

impl std::fmt::Display for InflectionPoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a = {} cycles, b = {} cycles",
            self.active_drowsy, self.drowsy_sleep
        )
    }
}

/// Evaluates the energy a cache line consumes over one access interval in
/// each operating mode — the paper's Equations 1 and 2 — and solves for
/// the inflection points (Equation 3).
///
/// For an interval of `t` cycles between two accesses:
///
/// ```text
/// E_A(t) = P_active · t
/// E_D(t) = ramp(P_a→P_d)·d1 + P_d·(t − d1 − d3) + ramp(P_d→P_a)·d3
/// E_S(t) = ramp(P_a→P_s)·s1 + P_s·(t − s1 − s3 − s4)
///          + ramp(P_s→P_a)·s3 + P_a·s4 + C_D
/// ```
///
/// where `ramp` charges transition power according to the configured
/// [`TransitionModel`](crate::TransitionModel) and `C_D` is the dynamic
/// energy of the induced miss (refetch from L2).
///
/// # Examples
///
/// ```
/// use leakage_energy::{CircuitParams, IntervalEnergyModel, TechnologyNode};
///
/// let m = IntervalEnergyModel::new(CircuitParams::for_node(TechnologyNode::N70));
/// let b = m.inflection_points().drowsy_sleep;
/// // At the inflection point the two modes cost the same energy:
/// let ed = m.energy_drowsy(b).unwrap();
/// let es = m.energy_sleep(b, true).unwrap();
/// assert!((ed - es).abs() / ed < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalEnergyModel {
    params: CircuitParams,
}

impl IntervalEnergyModel {
    /// Wraps a set of circuit parameters.
    pub fn new(params: CircuitParams) -> Self {
        IntervalEnergyModel { params }
    }

    /// The underlying circuit parameters.
    pub fn params(&self) -> &CircuitParams {
        &self.params
    }

    /// Energy of resting fully active for `t` cycles (the baseline).
    pub fn energy_active(&self, t: u64) -> Energy {
        self.params.powers().active * t as f64
    }

    /// Energy of spending an interval of `t` cycles in drowsy mode
    /// (Eq. 2). Returns `None` when the interval is too short to hold the
    /// two voltage ramps (`t < d1 + d3`).
    pub fn energy_drowsy(&self, t: u64) -> Option<Energy> {
        let p = &self.params;
        let timings = p.timings();
        let overhead = timings.drowsy_overhead();
        if t < overhead {
            return None;
        }
        let pa = p.powers().active;
        let pd = p.powers().drowsy;
        let ramp = p.transition_model();
        Some(
            ramp.ramp_power(pa, pd) * timings.d1 as f64
                + pd * (t - overhead) as f64
                + ramp.ramp_power(pd, pa) * timings.d3 as f64,
        )
    }

    /// Energy of spending an interval of `t` cycles asleep (Eq. 1).
    ///
    /// `charge_refetch` controls whether the induced-miss dynamic energy
    /// `C_D` is included: it is for an interval that ends with a re-access
    /// to the line (the paper's model), and is not for intervals whose
    /// data would have been evicted anyway (the dead-interval refinement)
    /// or for the leading/trailing edges of a trace.
    ///
    /// Returns `None` when the interval cannot hold the transitions
    /// (`t < s1 + s3 + s4`).
    pub fn energy_sleep(&self, t: u64, charge_refetch: bool) -> Option<Energy> {
        let p = &self.params;
        let timings = p.timings();
        let overhead = timings.sleep_overhead();
        if t < overhead {
            return None;
        }
        let pa = p.powers().active;
        let ps = p.powers().sleep;
        let ramp = p.transition_model();
        let refetch = if charge_refetch {
            p.refetch_energy()
        } else {
            0.0
        };
        Some(
            ramp.ramp_power(pa, ps) * timings.s1 as f64
                + ps * (t - overhead) as f64
                + ramp.ramp_power(ps, pa) * timings.s3 as f64
                + pa * timings.s4 as f64
                + refetch,
        )
    }

    /// Energy of spending `t` cycles in `mode`, charging the refetch on
    /// sleep. `None` when the mode is infeasible at this length.
    pub fn energy(&self, mode: PowerMode, t: u64) -> Option<Energy> {
        match mode {
            PowerMode::Active => Some(self.energy_active(t)),
            PowerMode::Drowsy => self.energy_drowsy(t),
            PowerMode::Sleep => self.energy_sleep(t, true),
        }
    }

    /// Solves Eq. 3 for the exact (fractional) drowsy–sleep inflection
    /// point: the interval length where `E_S(b) = E_D(b)`.
    ///
    /// Both energies are linear in `t` beyond their overheads, so the
    /// crossing is closed-form. The result is clamped from below to the
    /// sleep feasibility bound `s1 + s3 + s4`.
    pub fn drowsy_sleep_point_exact(&self) -> f64 {
        let p = &self.params;
        let t = p.timings();
        let pa = p.powers().active;
        let pd = p.powers().drowsy;
        let ps = p.powers().sleep;
        let ramp = p.transition_model();

        // E_S(b) = K_s + ps·b with
        // K_s = ramp(a→s)·s1 − ps·(s1+s3+s4) + ramp(s→a)·s3 + pa·s4 + C_D
        let k_s = ramp.ramp_power(pa, ps) * t.s1 as f64 - ps * t.sleep_overhead() as f64
            + ramp.ramp_power(ps, pa) * t.s3 as f64
            + pa * t.s4 as f64
            + p.refetch_energy();
        // E_D(b) = K_d + pd·b with
        // K_d = ramp(a→d)·d1 − pd·(d1+d3) + ramp(d→a)·d3
        let k_d = ramp.ramp_power(pa, pd) * t.d1 as f64 - pd * t.drowsy_overhead() as f64
            + ramp.ramp_power(pd, pa) * t.d3 as f64;

        let b = (k_s - k_d) / (pd - ps);
        b.max(t.sleep_overhead() as f64)
    }

    /// The interval length beyond which sleeping beats staying *active*
    /// (used by the sleep-only ablation; always at most the drowsy–sleep
    /// point).
    pub fn sleep_active_point_exact(&self) -> f64 {
        let p = &self.params;
        let t = p.timings();
        let pa = p.powers().active;
        let ps = p.powers().sleep;
        let ramp = p.transition_model();
        let k_s = ramp.ramp_power(pa, ps) * t.s1 as f64 - ps * t.sleep_overhead() as f64
            + ramp.ramp_power(ps, pa) * t.s3 as f64
            + pa * t.s4 as f64
            + p.refetch_energy();
        // Solve K_s + ps·t = pa·t.
        let b = k_s / (pa - ps);
        b.max(t.sleep_overhead() as f64)
    }

    /// Both inflection points of Definition 3, rounded to whole cycles —
    /// the quantities the paper reports in Table 1.
    pub fn inflection_points(&self) -> InflectionPoints {
        InflectionPoints {
            active_drowsy: self.params.timings().drowsy_overhead(),
            drowsy_sleep: self.drowsy_sleep_point_exact().round() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModePowers, ModeTimings, TechnologyNode, TransitionModel};

    fn model_70nm() -> IntervalEnergyModel {
        IntervalEnergyModel::new(CircuitParams::for_node(TechnologyNode::N70))
    }

    #[test]
    fn table1_inflection_points_all_nodes() {
        for node in TechnologyNode::ALL {
            let m = IntervalEnergyModel::new(CircuitParams::for_node(node));
            let pts = m.inflection_points();
            assert_eq!(
                pts.active_drowsy,
                node.paper_active_drowsy_point(),
                "{node}: active-drowsy"
            );
            assert_eq!(
                pts.drowsy_sleep,
                node.paper_drowsy_sleep_point(),
                "{node}: drowsy-sleep"
            );
        }
    }

    #[test]
    fn energies_agree_at_inflection() {
        let m = model_70nm();
        let b = m.inflection_points().drowsy_sleep;
        let ed = m.energy_drowsy(b).unwrap();
        let es = m.energy_sleep(b, true).unwrap();
        assert!((ed - es).abs() / ed < 1e-6);
    }

    #[test]
    fn ordering_below_and_above_inflection() {
        let m = model_70nm();
        let b = m.inflection_points().drowsy_sleep;
        // Below b (but feasible for both): drowsy cheaper.
        let t = b - 10;
        assert!(m.energy_drowsy(t).unwrap() < m.energy_sleep(t, true).unwrap());
        // Above b: sleep cheaper.
        let t = b + 10;
        assert!(m.energy_sleep(t, true).unwrap() < m.energy_drowsy(t).unwrap());
    }

    #[test]
    fn drowsy_beats_active_beyond_a() {
        let m = model_70nm();
        let a = m.inflection_points().active_drowsy;
        for t in [a, a + 1, 100, 1_000_000] {
            assert!(m.energy_drowsy(t).unwrap() < m.energy_active(t), "t={t}");
        }
    }

    #[test]
    fn infeasible_lengths_return_none() {
        let m = model_70nm();
        assert_eq!(m.energy_drowsy(5), None);
        assert!(m.energy_drowsy(6).is_some());
        assert_eq!(m.energy_sleep(36, true), None);
        assert!(m.energy_sleep(37, true).is_some());
        assert_eq!(m.energy(PowerMode::Drowsy, 1), None);
        assert!(m.energy(PowerMode::Active, 1).is_some());
    }

    #[test]
    fn refetch_flag_removes_exactly_cd() {
        let m = model_70nm();
        let with = m.energy_sleep(1000, true).unwrap();
        let without = m.energy_sleep(1000, false).unwrap();
        assert!((with - without - m.params().refetch_energy()).abs() < 1e-12);
    }

    #[test]
    fn sleep_active_point_below_drowsy_sleep_point() {
        for node in TechnologyNode::ALL {
            let m = IntervalEnergyModel::new(CircuitParams::for_node(node));
            assert!(m.sleep_active_point_exact() < m.drowsy_sleep_point_exact());
        }
    }

    #[test]
    fn transition_model_bounds_inflection() {
        // HighEndpoint charges ramps more for sleep (bigger swing), so the
        // crossover moves later; LowEndpoint moves it earlier.
        let base = CircuitParams::for_node(TechnologyNode::N70);
        let mk = |tm: TransitionModel| {
            IntervalEnergyModel::new(
                CircuitParams::builder()
                    .powers(*base.powers())
                    .timings(*base.timings())
                    .refetch_energy(base.refetch_energy())
                    .transition_model(tm)
                    .build(),
            )
            .drowsy_sleep_point_exact()
        };
        let lo = mk(TransitionModel::LowEndpoint);
        let mid = mk(TransitionModel::Trapezoidal);
        let hi = mk(TransitionModel::HighEndpoint);
        assert!(lo < mid && mid < hi, "{lo} < {mid} < {hi}");
    }

    #[test]
    fn custom_params_scale_free() {
        // Scaling all powers and energies by the same factor leaves the
        // inflection points unchanged (only ratios matter).
        let powers = ModePowers::from_ratios(1.0, 1.0 / 3.0, 0.005);
        let scaled = ModePowers::from_ratios(17.0, 1.0 / 3.0, 0.005);
        let a = IntervalEnergyModel::new(
            CircuitParams::builder()
                .powers(powers)
                .timings(ModeTimings::paper_defaults())
                .refetch_energy(100.0)
                .build(),
        );
        let b = IntervalEnergyModel::new(
            CircuitParams::builder()
                .powers(scaled)
                .timings(ModeTimings::paper_defaults())
                .refetch_energy(1700.0)
                .build(),
        );
        assert!((a.drowsy_sleep_point_exact() - b.drowsy_sleep_point_exact()).abs() < 1e-6);
    }

    #[test]
    fn display_inflection_points() {
        let pts = model_70nm().inflection_points();
        assert!(pts.to_string().contains("1057"));
    }
}
