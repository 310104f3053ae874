//! The generalized optimal-savings model of Fig. 6.

use crate::accounting::sleep_total;
use crate::policy::frame_invalid;
use crate::{EnergyContext, PolicyEvaluation, PowerMode, RefetchAccounting};
use leakage_energy::{CircuitParams, Energy, InflectionPoints};
use leakage_intervals::CompactIntervalDist;
use serde::{Deserialize, Serialize};

/// Output of the generalized model: the optimal leakage saving
/// percentages of the three technique families (the rows of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimalSavings {
    /// `OPT-Drowsy` saving, percent of baseline leakage.
    pub opt_drowsy: f64,
    /// `OPT-Sleep` saving (gating every interval beyond the drowsy–sleep
    /// inflection point), percent.
    pub opt_sleep: f64,
    /// `OPT-Hybrid` saving, percent.
    pub opt_hybrid: f64,
}

impl std::fmt::Display for OptimalSavings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OPT-Drowsy {:.1}% | OPT-Sleep {:.1}% | OPT-Hybrid {:.1}%",
            self.opt_drowsy, self.opt_sleep, self.opt_hybrid
        )
    }
}

/// The paper's parameterized model (Fig. 6): three states — Active,
/// Drowsy, Sleep — each with a static power, connected by transitions
/// with fixed energy costs. Feed it any circuit assumptions
/// ([`CircuitParams`]) and any interval distribution, and it reports the
/// optimal achievable savings of drowsy-only, sleep-only and hybrid
/// management.
///
/// This is the reusable artifact the paper describes as "coded in C
/// language and … publicly available for cache leakage studies",
/// rebuilt in Rust.
///
/// # Examples
///
/// ```
/// use leakage_core::{GeneralizedModel, CircuitParams, PowerMode};
/// use leakage_energy::TechnologyNode;
///
/// let model = GeneralizedModel::from_params(CircuitParams::for_node(TechnologyNode::N70));
/// // Edge weights of the Fig. 6 state machine:
/// let e_ad = model.transition_energy(PowerMode::Active, PowerMode::Drowsy);
/// let e_as = model.transition_energy(PowerMode::Active, PowerMode::Sleep);
/// assert!(e_as > e_ad, "the deeper transition swings more voltage");
/// ```
#[derive(Debug, Clone)]
pub struct GeneralizedModel {
    ctx: EnergyContext,
}

impl GeneralizedModel {
    /// Builds the model from circuit parameters with the paper's strict
    /// refetch accounting.
    pub fn from_params(params: CircuitParams) -> Self {
        GeneralizedModel {
            ctx: EnergyContext::new(params, RefetchAccounting::PaperStrict),
        }
    }

    /// Builds the model with explicit refetch accounting.
    pub fn with_accounting(params: CircuitParams, accounting: RefetchAccounting) -> Self {
        GeneralizedModel {
            ctx: EnergyContext::new(params, accounting),
        }
    }

    /// Builds the model over an existing energy context, keeping its
    /// refetch accounting and writeback energy.
    pub fn from_context(ctx: EnergyContext) -> Self {
        GeneralizedModel { ctx }
    }

    /// The underlying energy context.
    pub fn context(&self) -> &EnergyContext {
        &self.ctx
    }

    /// The static power of one state (`P(Active)`, `P(Drowsy)`,
    /// `P(Sleep)` in Fig. 6), pJ/cycle.
    pub fn state_power(&self, mode: PowerMode) -> f64 {
        self.ctx.params().powers().of(mode)
    }

    /// The energy of one state-machine edge (`E_AD`, `E_DA`, `E_AS`,
    /// `E_SA` in Fig. 6), pJ. Self-edges are free; the `Sleep → Active`
    /// edge includes the refetch-wait cycles at full power but *not* the
    /// dynamic refetch energy `C_D`, which Fig. 6 accounts on the induced
    /// miss itself ([`refetch_energy`](Self::refetch_energy)).
    ///
    /// Direct `Drowsy ↔ Sleep` edges do not exist in the paper's model —
    /// §3.1 shows an optimal policy never changes technique mid-interval
    /// — and return `None`.
    pub fn transition_energy(&self, from: PowerMode, to: PowerMode) -> Energy {
        self.try_transition_energy(from, to)
            .expect("drowsy<->sleep transitions are not part of the Fig. 6 model")
    }

    /// Like [`transition_energy`](Self::transition_energy) but returning
    /// `None` for the nonexistent `Drowsy ↔ Sleep` edges.
    pub fn try_transition_energy(&self, from: PowerMode, to: PowerMode) -> Option<Energy> {
        use PowerMode::*;
        let p = self.ctx.params();
        let t = p.timings();
        let ramp = p.transition_model();
        let pa = p.powers().active;
        let pd = p.powers().drowsy;
        let ps = p.powers().sleep;
        Some(match (from, to) {
            (Active, Drowsy) => ramp.ramp_power(pa, pd) * t.d1 as f64,
            (Drowsy, Active) => ramp.ramp_power(pd, pa) * t.d3 as f64,
            (Active, Sleep) => ramp.ramp_power(pa, ps) * t.s1 as f64,
            (Sleep, Active) => ramp.ramp_power(ps, pa) * t.s3 as f64 + pa * t.s4 as f64,
            (Active, Active) | (Drowsy, Drowsy) | (Sleep, Sleep) => 0.0,
            (Drowsy, Sleep) | (Sleep, Drowsy) => return None,
        })
    }

    /// The dynamic energy of an induced miss, `C_D`.
    pub fn refetch_energy(&self) -> Energy {
        self.ctx.params().refetch_energy()
    }

    /// The inflection points implied by the parameters.
    pub fn inflection_points(&self) -> InflectionPoints {
        self.ctx.inflection_points()
    }

    /// Runs the model: optimal savings of the three technique families
    /// over the given interval distribution (one Table 2 cell group).
    ///
    /// This is the one-model case of
    /// [`optimal_savings_batch`](Self::optimal_savings_batch), and
    /// bit-identical to evaluating `OPT-Drowsy`, `OPT-Sleep(b)` and
    /// `OPT-Hybrid` one by one through [`EnergyContext::evaluate`].
    pub fn optimal_savings(&self, dist: &CompactIntervalDist) -> OptimalSavings {
        Self::optimal_savings_batch(std::slice::from_ref(self), dist)[0]
    }

    /// Runs several models that differ only in the refetch energy
    /// `C_D` over one distribution in a single walk, one result per
    /// model, in order.
    ///
    /// Per interval class the baseline, drowsy and refetch-free sleep
    /// energies are computed once; each model then adds only its own
    /// `C_D` and the writeback. The walk follows the distribution's
    /// own iteration order and every sum is formed in the order the
    /// per-policy path forms it, so each result is bit-identical to
    /// [`optimal_savings`](Self::optimal_savings) on that model alone.
    /// Each model keeps its own drowsy–sleep point `b`, because `b`
    /// moves with `C_D`.
    ///
    /// # Panics
    ///
    /// If two models differ in anything but `C_D`: powers, timings,
    /// transition rule, refetch accounting or writeback energy.
    pub fn optimal_savings_batch(
        models: &[GeneralizedModel],
        dist: &CompactIntervalDist,
    ) -> Vec<OptimalSavings> {
        let Some(first) = models.first() else {
            return Vec::new();
        };
        let ctx = &first.ctx;
        assert!(
            models.iter().all(|m| ctx.same_but_refetch(&m.ctx)),
            "a batch of models may differ only in refetch energy"
        );
        // Per model: C_D, and the sleep threshold b (it moves with C_D).
        let refetch: Vec<Energy> = models.iter().map(|m| m.refetch_energy()).collect();
        let floors: Vec<u64> = models
            .iter()
            .map(|m| m.inflection_points().drowsy_sleep)
            .collect();
        // What intervals that pay no refetch add instead of C_D.
        let no_refetch = vec![0.0; models.len()];
        let mut baseline = 0.0;
        let mut drowsy = 0.0;
        let mut sleep = vec![0.0; models.len()];
        let mut hybrid = vec![0.0; models.len()];
        for (class, count) in dist.iter() {
            let count = count as f64;
            let active = ctx.baseline_energy(class);
            baseline += active * count;
            // OPT-Drowsy's choice, and OPT-Hybrid's when sleep is out.
            let rest = match ctx.mode_energy(PowerMode::Drowsy, class) {
                Some(e) => active.min(e),
                None => active,
            };
            drowsy += rest * count;
            let Some(prefix) = ctx.sleep_prefix(class) else {
                // Too short to sleep under every model (the overhead
                // does not depend on C_D): OPT-Sleep stays active.
                let (slept, best) = (active * count, rest * count);
                for (s, h) in sleep.iter_mut().zip(&mut hybrid) {
                    *s += slept;
                    *h += best;
                }
                continue;
            };
            let writeback = ctx.sleep_writeback(class);
            let paid = if ctx.charges_refetch(class) {
                &refetch
            } else {
                &no_refetch
            };
            let per_model = sleep.iter_mut().zip(&mut hybrid).zip(paid);
            if frame_invalid(class) {
                // OPT-Sleep gates invalid frames whenever that is cheaper.
                for ((s, h), &refetch) in per_model {
                    let e = sleep_total(prefix, refetch, writeback);
                    *s += active.min(e) * count;
                    *h += rest.min(e) * count;
                }
            } else {
                for (((s, h), &refetch), &b) in per_model.zip(&floors) {
                    let e = sleep_total(prefix, refetch, writeback);
                    *s += if class.length > b { e } else { active } * count;
                    *h += rest.min(e) * count;
                }
            }
        }
        let percent = |energy| {
            PolicyEvaluation {
                energy,
                baseline,
                infeasible_fallbacks: 0,
            }
            .saving_percent()
        };
        sleep
            .iter()
            .zip(&hybrid)
            .map(|(&s, &h)| OptimalSavings {
                opt_drowsy: percent(drowsy),
                opt_sleep: percent(s),
                opt_hybrid: percent(h),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{OptDrowsy, OptHybrid, OptSleep};
    use crate::{IntervalClass, IntervalKind, WakeHints};
    use leakage_energy::TechnologyNode;

    fn model() -> GeneralizedModel {
        GeneralizedModel::from_params(CircuitParams::for_node(TechnologyNode::N70))
    }

    fn dist(entries: &[(u64, u64)]) -> CompactIntervalDist {
        let mut d = CompactIntervalDist::new();
        for &(length, count) in entries {
            d.add(
                IntervalClass {
                    length,
                    kind: IntervalKind::Interior { reaccess: true },
                    wake: WakeHints::NONE,
                    dirty: false,
                },
                count,
            );
        }
        d
    }

    #[test]
    fn state_powers_match_params() {
        let m = model();
        assert!(m.state_power(PowerMode::Active) > m.state_power(PowerMode::Drowsy));
        assert!(m.state_power(PowerMode::Drowsy) > m.state_power(PowerMode::Sleep));
    }

    #[test]
    fn edge_energies() {
        let m = model();
        use PowerMode::*;
        assert_eq!(m.transition_energy(Active, Active), 0.0);
        assert!(m.transition_energy(Active, Sleep) > m.transition_energy(Active, Drowsy));
        // Sleep->Active includes the refetch wait at full power.
        assert!(m.transition_energy(Sleep, Active) > m.transition_energy(Drowsy, Active));
        assert_eq!(m.try_transition_energy(Drowsy, Sleep), None);
        assert_eq!(m.try_transition_energy(Sleep, Drowsy), None);
    }

    #[test]
    #[should_panic(expected = "Fig. 6")]
    fn drowsy_sleep_edge_panics() {
        let _ = model().transition_energy(PowerMode::Drowsy, PowerMode::Sleep);
    }

    #[test]
    fn hybrid_never_worse_than_components() {
        let m = model();
        let d = dist(&[(4, 1000), (500, 500), (20_000, 100), (2_000_000, 3)]);
        let s = m.optimal_savings(&d);
        assert!(s.opt_hybrid + 1e-9 >= s.opt_drowsy);
        assert!(s.opt_hybrid + 1e-9 >= s.opt_sleep);
        assert!(s.opt_hybrid <= 100.0);
    }

    #[test]
    fn drowsy_only_distribution_prefers_drowsy() {
        let m = model();
        // All intervals between a and b: sleep can do nothing optimal.
        let d = dist(&[(500, 10_000)]);
        let s = m.optimal_savings(&d);
        assert!(s.opt_drowsy > s.opt_sleep);
        assert!((s.opt_hybrid - s.opt_drowsy).abs() < 1e-9);
    }

    #[test]
    fn sleep_dominated_distribution_prefers_sleep() {
        let m = model();
        let d = dist(&[(10_000_000, 64)]);
        let s = m.optimal_savings(&d);
        assert!(s.opt_sleep > s.opt_drowsy);
        assert!(s.opt_sleep > 95.0);
    }

    fn with_refetch(scale: f64) -> GeneralizedModel {
        let preset = CircuitParams::for_node(TechnologyNode::N70);
        let params = CircuitParams::builder()
            .derived_from(TechnologyNode::N70)
            .powers(*preset.powers())
            .timings(*preset.timings())
            .transition_model(preset.transition_model())
            .refetch_energy(preset.refetch_energy() * scale)
            .build();
        GeneralizedModel::from_params(params)
    }

    #[test]
    fn batch_is_bit_identical_to_one_model_at_a_time() {
        let d = dist(&[
            (0, 7),
            (4, 1000),
            (500, 500),
            (1_057, 40),
            (20_000, 100),
            (2_000_000, 3),
        ]);
        let models: Vec<GeneralizedModel> = [0.0, 0.5, 1.0, 2.0, 3.0]
            .into_iter()
            .map(with_refetch)
            .collect();
        let batch = GeneralizedModel::optimal_savings_batch(&models, &d);
        assert_eq!(batch.len(), models.len());
        for (model, got) in models.iter().zip(&batch) {
            let ctx = model.context();
            let b = ctx.inflection_points().drowsy_sleep;
            let oracle = [
                ctx.evaluate(&OptDrowsy, &d).saving_percent(),
                ctx.evaluate(&OptSleep::new(b), &d).saving_percent(),
                ctx.evaluate(&OptHybrid::new(), &d).saving_percent(),
            ];
            let fused = [got.opt_drowsy, got.opt_sleep, got.opt_hybrid];
            assert_eq!(fused.map(f64::to_bits), oracle.map(f64::to_bits));
            assert_eq!(*got, model.optimal_savings(&d));
        }
        // A dearer refetch moves b up and can only cost OPT-Sleep.
        assert!(batch[0].opt_sleep >= batch[4].opt_sleep);
        assert!(GeneralizedModel::optimal_savings_batch(&[], &d).is_empty());
    }

    #[test]
    #[should_panic(expected = "differ only in refetch energy")]
    fn batch_rejects_models_that_differ_beyond_refetch() {
        let strict = model();
        let aware = GeneralizedModel::with_accounting(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::DeadAware,
        );
        let _ = GeneralizedModel::optimal_savings_batch(&[strict, aware], &dist(&[(500, 1)]));
    }

    #[test]
    fn display_formats_percentages() {
        let s = OptimalSavings {
            opt_drowsy: 66.4,
            opt_sleep: 95.2,
            opt_hybrid: 96.4,
        };
        let text = s.to_string();
        assert!(text.contains("66.4") && text.contains("96.4"));
    }

    #[test]
    fn table2_qualitative_shape_across_nodes() {
        // With a fixed heavy-tailed distribution, hybrid savings grow as
        // technology scales down (smaller b ⇒ more sleepable intervals),
        // reproducing Table 2's trend.
        let d = dist(&[
            (4, 2_000),
            (300, 3_000),
            (3_000, 500),
            (30_000, 300),
            (300_000, 50),
        ]);
        let mut prev = f64::INFINITY;
        for node in TechnologyNode::ALL {
            let m = GeneralizedModel::from_params(CircuitParams::for_node(node));
            let s = m.optimal_savings(&d);
            assert!(
                s.opt_hybrid <= prev + 1e-9,
                "savings should not grow at older nodes"
            );
            prev = s.opt_hybrid;
        }
    }
}
