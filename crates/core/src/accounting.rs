//! Edge-aware interval energy accounting.

use crate::perf::StallAccount;
use crate::{LeakagePolicy, PowerMode};
use leakage_energy::{CircuitParams, Energy, InflectionPoints, IntervalEnergyModel};
use leakage_intervals::{CompactIntervalDist, IntervalClass, IntervalKind};
use serde::{Deserialize, Serialize};

/// How the induced-miss refetch energy `C_D` is charged when a policy
/// sleeps an interior interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RefetchAccounting {
    /// The paper's model (§3.1): every interior interval slept pays the
    /// refetch, live or dead. ("For the rest of this paper we ignore the
    /// effect of live and dead intervals.")
    #[default]
    PaperStrict,
    /// The refined model: a slept interval whose closing access was a
    /// *fill* of different data pays nothing — the resident line was
    /// dead, its demand miss was going to happen anyway. Used by the
    /// dead-interval ablation.
    DeadAware,
}

/// Sleep energy of one interval from its refetch-free
/// [prefix](EnergyContext::sleep_prefix), summed as `prefix + refetch +
/// writeback` from left to right. f64 addition is not associative: the
/// per-policy path and the batched evaluator both sum here, which is
/// what keeps them bit-identical.
#[inline]
pub(crate) fn sleep_total(prefix: Energy, refetch: Energy, writeback: Energy) -> Energy {
    prefix + refetch + writeback
}

/// The result of evaluating one policy over one interval distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyEvaluation {
    /// Total leakage + transition + refetch energy under the policy, pJ.
    pub energy: Energy,
    /// Energy of the always-active baseline over the same cycles, pJ.
    pub baseline: Energy,
    /// Number of intervals where the policy's requested mode was
    /// infeasible (too short for the transitions) and fell back to
    /// active. Well-formed policies keep this at zero.
    pub infeasible_fallbacks: u64,
}

impl PolicyEvaluation {
    /// Leakage power saving as a fraction of the baseline
    /// (the y-axis of the paper's Figs. 7 and 8).
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
}

/// Evaluates mode energies for intervals *in context*: interior
/// intervals follow the paper's Eq. 1 and Eq. 2 exactly, while the
/// leading, trailing and untouched edges of a frame's timeline drop the
/// transitions (and refetch) that physically cannot or need not occur.
///
/// | kind       | entry ramp | exit ramp + refetch wait | refetch `C_D` |
/// |------------|------------|--------------------------|---------------|
/// | interior   | yes        | yes                      | per accounting |
/// | leading    | no         | yes                      | never (no prior data) |
/// | trailing   | yes        | no                       | never |
/// | untouched  | no         | no                       | never |
///
/// # Examples
///
/// ```
/// use leakage_core::{EnergyContext, PowerMode, RefetchAccounting};
/// use leakage_core::{IntervalClass, IntervalKind, WakeHints};
/// use leakage_energy::{CircuitParams, TechnologyNode};
///
/// let ctx = EnergyContext::new(
///     CircuitParams::for_node(TechnologyNode::N70),
///     RefetchAccounting::PaperStrict,
/// );
/// let interior = IntervalClass {
///     length: 5_000,
///     kind: IntervalKind::Interior { reaccess: true },
///     wake: WakeHints::NONE,
///     dirty: false,
/// };
/// let sleep = ctx.mode_energy(PowerMode::Sleep, &interior).unwrap();
/// let active = ctx.mode_energy(PowerMode::Active, &interior).unwrap();
/// assert!(sleep < active);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyContext {
    model: IntervalEnergyModel,
    accounting: RefetchAccounting,
    points: InflectionPoints,
    writeback_energy: Option<Energy>,
    drowsy: Transitions,
    sleep: Transitions,
}

/// One low-power mode's share of Eq. 1–2 that does not depend on the
/// interval: the rest-state power and the cycles and energy of the
/// entry and exit transitions. Each term is computed once per context
/// by the same f64 expression an interval-by-interval evaluation would
/// use, so hoisting it out of the interval loop changes no bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transitions {
    rest_power: Energy,
    entry: (u64, Energy),
    exit: (u64, Energy),
}

impl Transitions {
    fn new(params: &CircuitParams) -> [Transitions; 2] {
        let t = params.timings();
        let pa = params.powers().active;
        let pd = params.powers().drowsy;
        let ps = params.powers().sleep;
        let ramp = params.transition_model();
        [
            Transitions {
                rest_power: pd,
                entry: (t.d1, ramp.ramp_power(pa, pd) * t.d1 as f64),
                exit: (t.d3, ramp.ramp_power(pd, pa) * t.d3 as f64),
            },
            Transitions {
                rest_power: ps,
                entry: (t.s1, ramp.ramp_power(pa, ps) * t.s1 as f64),
                // The exit ramp, then the wait for the L2 refetch.
                exit: (
                    t.s3 + t.s4,
                    ramp.ramp_power(ps, pa) * t.s3 as f64 + pa * t.s4 as f64,
                ),
            },
        ]
    }

    /// Energy of spending `class` in this mode, summed as `entry +
    /// rest + exit`; `None` when the interval is too short to hold the
    /// transitions it needs.
    #[inline]
    fn energy(&self, class: &IntervalClass) -> Option<Energy> {
        let (entry_cycles, entry) = if class.kind.starts_after_access() {
            self.entry
        } else {
            (0, 0.0)
        };
        let (exit_cycles, exit) = if class.kind.ends_with_access() {
            self.exit
        } else {
            (0, 0.0)
        };
        let overhead = entry_cycles + exit_cycles;
        if class.length < overhead {
            return None;
        }
        Some(entry + self.rest_power * (class.length - overhead) as f64 + exit)
    }
}

impl EnergyContext {
    /// Builds a context from circuit parameters.
    pub fn new(params: CircuitParams, accounting: RefetchAccounting) -> Self {
        let [drowsy, sleep] = Transitions::new(&params);
        let model = IntervalEnergyModel::new(params);
        let points = model.inflection_points();
        EnergyContext {
            model,
            accounting,
            points,
            writeback_energy: None,
            drowsy,
            sleep,
        }
    }

    /// Builds a writeback-aware context: gating a *dirty* interval
    /// additionally pays `writeback_energy` to flush the line to L2
    /// before the supply can be cut. The paper's model omits this cost
    /// (its Eq. 1 refetches but never writes back); the
    /// `ablation-writeback` experiment quantifies the omission.
    pub fn with_writeback(
        params: CircuitParams,
        accounting: RefetchAccounting,
        writeback_energy: Energy,
    ) -> Self {
        assert!(writeback_energy >= 0.0, "writeback energy cannot be negative");
        let mut ctx = EnergyContext::new(params, accounting);
        ctx.writeback_energy = Some(writeback_energy);
        ctx
    }

    /// The writeback energy charged when sleeping dirty data, if the
    /// context is writeback-aware.
    pub fn writeback_energy(&self) -> Option<Energy> {
        self.writeback_energy
    }

    /// The wrapped interval energy model.
    pub fn model(&self) -> &IntervalEnergyModel {
        &self.model
    }

    /// The circuit parameters.
    pub fn params(&self) -> &CircuitParams {
        self.model.params()
    }

    /// The inflection points for these parameters.
    pub fn inflection_points(&self) -> InflectionPoints {
        self.points
    }

    /// The refetch accounting rule in force.
    pub fn accounting(&self) -> RefetchAccounting {
        self.accounting
    }

    /// Whether `other` matches this context in everything but the
    /// refetch energy `C_D`.
    pub(crate) fn same_but_refetch(&self, other: &EnergyContext) -> bool {
        let (a, b) = (self.params(), other.params());
        a.powers() == b.powers()
            && a.timings() == b.timings()
            && a.transition_model() == b.transition_model()
            && self.accounting == other.accounting
            && self.writeback_energy == other.writeback_energy
    }

    /// Whether sleeping through an interval of this class pays `C_D`.
    #[inline]
    pub fn charges_refetch(&self, class: &IntervalClass) -> bool {
        match self.accounting {
            RefetchAccounting::PaperStrict => {
                matches!(class.kind, IntervalKind::Interior { .. })
            }
            RefetchAccounting::DeadAware => class.kind.sleep_needs_refetch(),
        }
    }

    /// Energy of spending the interval in `mode`, or `None` when the
    /// interval is too short to hold the required transitions.
    #[inline]
    pub fn mode_energy(&self, mode: PowerMode, class: &IntervalClass) -> Option<Energy> {
        match mode {
            PowerMode::Active => Some(self.baseline_energy(class)),
            PowerMode::Drowsy => self.drowsy.energy(class),
            PowerMode::Sleep => {
                let prefix = self.sleep_prefix(class)?;
                let refetch = if self.charges_refetch(class) {
                    self.params().refetch_energy()
                } else {
                    0.0
                };
                Some(sleep_total(prefix, refetch, self.sleep_writeback(class)))
            }
        }
    }

    /// The part of [`mode_energy`](Self::mode_energy)`(Sleep, class)`
    /// that does not depend on the refetch energy `C_D`: entry ramp,
    /// gated residency and exit ramp plus refetch wait. `None` when the
    /// interval is too short to hold the transitions.
    #[inline]
    pub(crate) fn sleep_prefix(&self, class: &IntervalClass) -> Option<Energy> {
        self.sleep.energy(class)
    }

    /// The writeback energy sleeping this interval pays: the
    /// context's writeback cost for dirty data, zero otherwise.
    #[inline]
    pub(crate) fn sleep_writeback(&self, class: &IntervalClass) -> Energy {
        match self.writeback_energy {
            Some(wb) if class.dirty => wb,
            _ => 0.0,
        }
    }

    /// Energy of `mode` with fallback to active when infeasible; the
    /// boolean reports whether the fallback fired.
    pub fn mode_energy_or_active(&self, mode: PowerMode, class: &IntervalClass) -> (Energy, bool) {
        match self.mode_energy(mode, class) {
            Some(e) => (e, false),
            None => (self.params().powers().active * class.length as f64, true),
        }
    }

    /// The always-active baseline energy of one interval.
    #[inline]
    pub fn baseline_energy(&self, class: &IntervalClass) -> Energy {
        self.params().powers().active * class.length as f64
    }

    /// The minimum feasible energy over all three modes — the lower
    /// envelope of Fig. 10, in context.
    pub fn optimal_energy(&self, class: &IntervalClass) -> Energy {
        PowerMode::ALL
            .iter()
            .filter_map(|&m| self.mode_energy(m, class))
            .fold(f64::INFINITY, f64::min)
    }

    /// The mode achieving [`EnergyContext::optimal_energy`].
    pub fn optimal_mode(&self, class: &IntervalClass) -> PowerMode {
        let mut best = (PowerMode::Active, f64::INFINITY);
        for &mode in &PowerMode::ALL {
            if let Some(e) = self.mode_energy(mode, class) {
                if e < best.1 {
                    best = (mode, e);
                }
            }
        }
        best.0
    }

    /// Evaluates a policy over a whole interval distribution.
    pub fn evaluate(
        &self,
        policy: &dyn LeakagePolicy,
        dist: &CompactIntervalDist,
    ) -> PolicyEvaluation {
        self.evaluate_with_perf(policy, dist).0
    }

    /// Evaluates a policy's energy *and* its performance cost: the stall
    /// cycles the scheme's unhidden wakeups and induced misses impose on
    /// closing accesses (see [`crate::perf`]).
    pub fn evaluate_with_perf(
        &self,
        policy: &dyn LeakagePolicy,
        dist: &CompactIntervalDist,
    ) -> (PolicyEvaluation, StallAccount) {
        let mut energy = 0.0;
        let mut baseline = 0.0;
        let mut fallbacks = 0;
        let mut stalls = StallAccount::default();
        for (class, count) in dist.iter() {
            let (per_interval, fell_back) = policy.interval_energy(self, class);
            energy += per_interval * count as f64;
            baseline += self.baseline_energy(class) * count as f64;
            if fell_back {
                fallbacks += count;
            }
            if class.kind.ends_with_access() {
                stalls.closing_accesses += count;
                let stall = policy.interval_stall(self, class).cycles();
                if stall > 0 {
                    stalls.stalled_accesses += count;
                    stalls.stall_cycles += (stall * count) as f64;
                }
            }
        }
        (
            PolicyEvaluation {
                energy,
                baseline,
                infeasible_fallbacks: fallbacks,
            },
            stalls,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WakeHints;
    use leakage_energy::TechnologyNode;

    fn ctx() -> EnergyContext {
        EnergyContext::new(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::PaperStrict,
        )
    }

    fn interior(length: u64, reaccess: bool) -> IntervalClass {
        IntervalClass {
            length,
            kind: IntervalKind::Interior { reaccess },
            wake: WakeHints::NONE,
            dirty: false,
        }
    }

    fn of_kind(length: u64, kind: IntervalKind) -> IntervalClass {
        IntervalClass {
            length,
            kind,
            wake: WakeHints::NONE,
            dirty: false,
        }
    }

    #[test]
    fn interior_matches_eq1_eq2() {
        let ctx = ctx();
        let class = interior(10_000, true);
        let model = ctx.model();
        assert_eq!(
            ctx.mode_energy(PowerMode::Sleep, &class),
            model.energy_sleep(10_000, true)
        );
        assert_eq!(
            ctx.mode_energy(PowerMode::Drowsy, &class),
            model.energy_drowsy(10_000)
        );
        assert_eq!(
            ctx.mode_energy(PowerMode::Active, &class),
            Some(model.energy_active(10_000))
        );
    }

    #[test]
    fn strict_accounting_charges_dead_intervals_too() {
        let ctx = ctx();
        let live = interior(10_000, true);
        let dead = interior(10_000, false);
        assert_eq!(
            ctx.mode_energy(PowerMode::Sleep, &live),
            ctx.mode_energy(PowerMode::Sleep, &dead)
        );
    }

    #[test]
    fn dead_aware_accounting_waives_refetch() {
        let ctx = EnergyContext::new(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::DeadAware,
        );
        let live = ctx
            .mode_energy(PowerMode::Sleep, &interior(10_000, true))
            .unwrap();
        let dead = ctx
            .mode_energy(PowerMode::Sleep, &interior(10_000, false))
            .unwrap();
        assert!((live - dead - ctx.params().refetch_energy()).abs() < 1e-9);
    }

    #[test]
    fn edges_never_pay_refetch() {
        let ctx = ctx();
        for kind in [
            IntervalKind::Leading,
            IntervalKind::Trailing,
            IntervalKind::Untouched,
        ] {
            assert!(!ctx.charges_refetch(&of_kind(10_000, kind)), "{kind:?}");
        }
    }

    #[test]
    fn untouched_sleep_is_pure_residual_leakage() {
        let ctx = ctx();
        let class = of_kind(1_000_000, IntervalKind::Untouched);
        let e = ctx.mode_energy(PowerMode::Sleep, &class).unwrap();
        let expected = ctx.params().powers().sleep * 1_000_000.0;
        assert!((e - expected).abs() < 1e-9);
    }

    #[test]
    fn leading_sleep_needs_only_exit_transitions() {
        let ctx = ctx();
        let t = ctx.params().timings();
        // Feasible from s3+s4 upward, not s1+s3+s4.
        let min = t.s3 + t.s4;
        assert!(ctx
            .mode_energy(PowerMode::Sleep, &of_kind(min, IntervalKind::Leading))
            .is_some());
        assert!(ctx
            .mode_energy(PowerMode::Sleep, &of_kind(min - 1, IntervalKind::Leading))
            .is_none());
        // An interior interval of the same length cannot sleep.
        assert!(ctx
            .mode_energy(PowerMode::Sleep, &interior(min, true))
            .is_none());
    }

    #[test]
    fn trailing_drowsy_needs_only_entry() {
        let ctx = ctx();
        let t = ctx.params().timings();
        assert!(ctx
            .mode_energy(PowerMode::Drowsy, &of_kind(t.d1, IntervalKind::Trailing))
            .is_some());
        assert!(ctx
            .mode_energy(
                PowerMode::Drowsy,
                &of_kind(t.d1 - 1, IntervalKind::Trailing)
            )
            .is_none());
    }

    #[test]
    fn optimal_mode_follows_theorem_on_interior_intervals() {
        let ctx = ctx();
        let pts = ctx.inflection_points();
        assert_eq!(ctx.optimal_mode(&interior(3, true)), PowerMode::Active);
        assert_eq!(
            ctx.optimal_mode(&interior(pts.active_drowsy + 1, true)),
            PowerMode::Drowsy
        );
        // At exactly b the two modes tie (up to float noise); either
        // choice is optimal.
        let at_b = interior(pts.drowsy_sleep, true);
        let ed = ctx.mode_energy(PowerMode::Drowsy, &at_b).unwrap();
        let es = ctx.mode_energy(PowerMode::Sleep, &at_b).unwrap();
        assert!((ed - es).abs() / ed < 1e-9);
        assert_eq!(
            ctx.optimal_mode(&interior(pts.drowsy_sleep + 2, true)),
            PowerMode::Sleep
        );
    }

    #[test]
    fn optimal_energy_is_min_of_feasible_modes() {
        let ctx = ctx();
        let class = interior(123_456, true);
        let best = ctx.optimal_energy(&class);
        for mode in PowerMode::ALL {
            if let Some(e) = ctx.mode_energy(mode, &class) {
                assert!(best <= e + 1e-12);
            }
        }
        // Degenerate zero-length interval: only active is feasible, at
        // zero cost.
        assert_eq!(ctx.optimal_energy(&interior(0, true)), 0.0);
    }

    #[test]
    fn fallback_reports() {
        let ctx = ctx();
        let short = interior(2, true);
        let (e, fell_back) = ctx.mode_energy_or_active(PowerMode::Sleep, &short);
        assert!(fell_back);
        assert_eq!(e, ctx.baseline_energy(&short));
        let (_, ok) = ctx.mode_energy_or_active(PowerMode::Active, &short);
        assert!(!ok);
    }

    #[test]
    fn writeback_awareness_charges_dirty_sleeps_only() {
        let params = CircuitParams::for_node(TechnologyNode::N70);
        let plain = EnergyContext::new(params.clone(), RefetchAccounting::PaperStrict);
        let aware = EnergyContext::with_writeback(
            params,
            RefetchAccounting::PaperStrict,
            5.0,
        );
        assert_eq!(plain.writeback_energy(), None);
        assert_eq!(aware.writeback_energy(), Some(5.0));

        let clean = interior(10_000, true);
        let dirty = IntervalClass { dirty: true, ..clean };

        // Clean intervals are unaffected.
        assert_eq!(
            plain.mode_energy(PowerMode::Sleep, &clean),
            aware.mode_energy(PowerMode::Sleep, &clean)
        );
        // Dirty sleeps pay exactly the writeback.
        let plain_dirty = plain.mode_energy(PowerMode::Sleep, &dirty).unwrap();
        let aware_dirty = aware.mode_energy(PowerMode::Sleep, &dirty).unwrap();
        assert!((aware_dirty - plain_dirty - 5.0).abs() < 1e-12);
        // Drowsy preserves state: no writeback even when aware.
        assert_eq!(
            plain.mode_energy(PowerMode::Drowsy, &dirty),
            aware.mode_energy(PowerMode::Drowsy, &dirty)
        );
        // The optimum can flip to drowsy when the writeback makes sleep
        // uneconomical near the inflection point.
        let near_b = IntervalClass {
            length: 1_100,
            dirty: true,
            ..clean
        };
        assert_eq!(aware.optimal_mode(&near_b), PowerMode::Drowsy);
        assert_eq!(plain.optimal_mode(&near_b), PowerMode::Sleep);
    }

    #[test]
    fn saving_fraction_math() {
        let eval = PolicyEvaluation {
            energy: 25.0,
            baseline: 100.0,
            infeasible_fallbacks: 0,
        };
        assert!((eval.saving_fraction() - 0.75).abs() < 1e-12);
        assert!((eval.saving_percent() - 75.0).abs() < 1e-12);
        let empty = PolicyEvaluation {
            energy: 0.0,
            baseline: 0.0,
            infeasible_fallbacks: 0,
        };
        assert_eq!(empty.saving_fraction(), 0.0);
    }
}
