//! The leakage management schemes evaluated in the paper.
//!
//! Each scheme implements [`LeakagePolicy`]: given an
//! [`EnergyContext`] and an interval's [`IntervalClass`], it reports the
//! energy the managed line consumes over that interval. The oracle
//! schemes (`OPT-*`) assume perfect future knowledge — they choose a
//! mode for the *whole* interval and hide every wakeup with perfect
//! prefetching (paper §3.2); the decay scheme (`Sleep(θ)`) and the
//! prefetch-guided schemes (§5.2) are implementable approximations.
//!
//! ## Invalid frames
//!
//! Leading and untouched intervals hold no program data (the frame is
//! invalid), so every power-gating-capable scheme turns such frames off
//! — the hardware reset state — and `OPT-Drowsy`, which has no gating
//! transistor, holds them at the drowsy voltage. This keeps the
//! comparison fair across schemes and matches the all-active baseline
//! the paper divides by.

use crate::perf::Stall;
use crate::{EnergyContext, PowerMode};
use leakage_energy::Energy;
use leakage_intervals::{IntervalClass, IntervalKind};

/// A leakage management scheme.
///
/// Policies are plain data, so the trait requires `Send + Sync`: the
/// experiment layer evaluates boxed schemes from parallel sweep workers.
pub trait LeakagePolicy: Send + Sync {
    /// Human-readable scheme name (e.g. `"OPT-Hybrid"`).
    fn name(&self) -> &str;

    /// Energy one line consumes over one interval under this scheme.
    ///
    /// The boolean is `true` when the scheme wanted an infeasible mode
    /// and fell back to staying active (well-formed schemes return
    /// `false` everywhere).
    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool);

    /// The stall the interval's *closing access* suffers under this
    /// scheme.
    ///
    /// Oracle schemes hide every transition behind perfect future
    /// knowledge and keep the default of [`Stall::None`]; implementable
    /// schemes (decay, periodic drowsy, the unpredicted side of the
    /// prefetch-guided schemes) override this.
    fn interval_stall(&self, _ctx: &EnergyContext, _class: &IntervalClass) -> Stall {
        Stall::None
    }
}

/// Is this interval's frame invalid (holding no program data)?
#[inline]
pub(crate) fn frame_invalid(class: &IntervalClass) -> bool {
    matches!(
        class.kind,
        IntervalKind::Leading | IntervalKind::Untouched
    )
}

/// Minimum energy over the allowed feasible modes (active is always
/// allowed and always feasible).
fn deepest_energy(
    ctx: &EnergyContext,
    class: &IntervalClass,
    allow_drowsy: bool,
    allow_sleep: bool,
) -> Energy {
    let mut best = ctx.baseline_energy(class);
    if allow_drowsy {
        if let Some(e) = ctx.mode_energy(PowerMode::Drowsy, class) {
            best = best.min(e);
        }
    }
    if allow_sleep {
        if let Some(e) = ctx.mode_energy(PowerMode::Sleep, class) {
            best = best.min(e);
        }
    }
    best
}

/// The all-active baseline (0 % savings by construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysActive;

impl LeakagePolicy for AlwaysActive {
    fn name(&self) -> &str {
        "Always-Active"
    }

    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool) {
        (ctx.baseline_energy(class), false)
    }
}

/// `OPT-Drowsy`: the optimal drowsy-only cache (paper §4.4). Every
/// interval longer than the active–drowsy point rests at the drowsy
/// voltage, with wakeups hidden by the oracle. No gating hardware, so
/// invalid frames also sit at the drowsy voltage.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptDrowsy;

impl LeakagePolicy for OptDrowsy {
    fn name(&self) -> &str {
        "OPT-Drowsy"
    }

    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool) {
        (deepest_energy(ctx, class, true, false), false)
    }
}

/// `OPT-Sleep(θ)`: the optimal sleeping cache. Any interval longer than
/// the threshold is gated off for its entire duration, with the refetch
/// issued just in time by the oracle; shorter intervals stay active (no
/// drowsy hardware). Invalid frames are gated off.
///
/// With `threshold = b` (the drowsy–sleep inflection point) this is
/// Table 2's `OPT-Sleep`; with `threshold = 10_000` it is Fig. 8's
/// `OPT-Sleep(10K)`.
#[derive(Debug, Clone)]
pub struct OptSleep {
    threshold: u64,
    name: String,
}

impl OptSleep {
    /// An optimal sleep scheme gating every interval longer than
    /// `threshold` cycles.
    pub fn new(threshold: u64) -> Self {
        OptSleep {
            threshold,
            name: format!("OPT-Sleep({threshold})"),
        }
    }

    /// The paper's `OPT-Sleep(10K)`.
    pub fn ten_k() -> Self {
        let mut p = OptSleep::new(10_000);
        p.name = "OPT-Sleep(10K)".to_string();
        p
    }

    /// The sleep threshold in cycles.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl LeakagePolicy for OptSleep {
    fn name(&self) -> &str {
        &self.name
    }

    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool) {
        if frame_invalid(class) {
            return (deepest_energy(ctx, class, false, true), false);
        }
        if class.length > self.threshold {
            ctx.mode_energy_or_active(PowerMode::Sleep, class)
        } else {
            (ctx.baseline_energy(class), false)
        }
    }
}

/// `Sleep(θ)`: the implementable cache-decay scheme (Kaxiras et al.),
/// paper §4.4. A per-line counter holds the line *active* for `θ`
/// cycles after each access; only then does the line power down for the
/// remainder of the interval. The decay counter itself leaks.
///
/// Unlike `OPT-Sleep(θ)` the scheme cannot skip the active head of the
/// interval, which is exactly the gap between the two bars in Fig. 8.
#[derive(Debug, Clone)]
pub struct DecaySleep {
    decay: u64,
    counter_ratio: f64,
    name: String,
}

impl DecaySleep {
    /// Per-line decay-counter leakage as a fraction of active line
    /// leakage. A few bits of ripple counter against a whole SRAM line:
    /// one percent is deliberately generous.
    pub const DEFAULT_COUNTER_RATIO: f64 = 0.01;

    /// A decay scheme with the given decay interval in cycles.
    pub fn new(decay: u64) -> Self {
        DecaySleep::with_counter_ratio(decay, Self::DEFAULT_COUNTER_RATIO)
    }

    /// A decay scheme with an explicit counter-leakage ratio.
    ///
    /// # Panics
    ///
    /// Panics if `counter_ratio` is negative.
    pub fn with_counter_ratio(decay: u64, counter_ratio: f64) -> Self {
        assert!(counter_ratio >= 0.0, "counter ratio cannot be negative");
        DecaySleep {
            decay,
            counter_ratio,
            name: format!("Sleep({decay})"),
        }
    }

    /// The paper's `Sleep(10K)` configuration.
    pub fn ten_k() -> Self {
        let mut p = DecaySleep::new(10_000);
        p.name = "Sleep(10K)".to_string();
        p
    }

    /// The decay interval in cycles.
    pub fn decay(&self) -> u64 {
        self.decay
    }
}

impl DecaySleep {
    /// Whether an interval of this class actually decays to sleep.
    fn sleeps(&self, ctx: &EnergyContext, class: &IntervalClass) -> bool {
        let t = ctx.params().timings();
        let exit_cycles = if class.kind.ends_with_access() {
            t.s3 + t.s4
        } else {
            0
        };
        class.length > self.decay + t.s1 + exit_cycles
    }
}

impl LeakagePolicy for DecaySleep {
    fn name(&self) -> &str {
        &self.name
    }

    fn interval_stall(&self, ctx: &EnergyContext, class: &IntervalClass) -> Stall {
        // A decayed line's next access is an induced miss served at L2
        // latency; the decay counter has no foresight to hide it.
        if class.kind.ends_with_access() && self.sleeps(ctx, class) {
            let t = ctx.params().timings();
            Stall::InducedMiss(t.s3 + t.s4)
        } else {
            Stall::None
        }
    }

    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool) {
        let p = ctx.params();
        let pa = p.powers().active;
        let ps = p.powers().sleep;
        let t = p.timings();
        let ramp = p.transition_model();
        let counter = self.counter_ratio * pa * class.length as f64;

        // The line must survive the active head (decay), the power-down
        // ramp, and — if the interval closes with an access — the wakeup
        // and refetch. The wakeup is *not* hidden (no oracle): its energy
        // is charged here and its stall cost is a performance matter the
        // paper's savings metric does not include.
        let exit = class.kind.ends_with_access();
        let exit_cycles = if exit { t.s3 + t.s4 } else { 0 };
        let overhead = self.decay + t.s1 + exit_cycles;
        if class.length <= overhead {
            return (pa * class.length as f64 + counter, false);
        }
        let refetch = if ctx.charges_refetch(class) {
            p.refetch_energy()
        } else {
            0.0
        };
        let writeback = match ctx.writeback_energy() {
            Some(wb) if class.dirty => wb,
            _ => 0.0,
        };
        let energy = pa * self.decay as f64
            + ramp.ramp_power(pa, ps) * t.s1 as f64
            + ps * (class.length - overhead) as f64
            + if exit {
                ramp.ramp_power(ps, pa) * t.s3 as f64 + pa * t.s4 as f64
            } else {
                0.0
            }
            + refetch
            + writeback
            + counter;
        (energy, false)
    }
}

/// `OPT-Hybrid`: the paper's headline oracle, combining both circuit
/// techniques. Each interval gets Theorem 1's optimal mode; the
/// `min_sleep` knob (Fig. 7's x-axis) restricts sleeping to intervals
/// longer than a floor, modelling conservative gating.
#[derive(Debug, Clone)]
pub struct OptHybrid {
    min_sleep: Option<u64>,
    name: String,
}

impl OptHybrid {
    /// The unrestricted optimal hybrid.
    pub fn new() -> Self {
        OptHybrid {
            min_sleep: None,
            name: "OPT-Hybrid".to_string(),
        }
    }

    /// A hybrid that only sleeps intervals longer than `min_sleep`
    /// cycles (Fig. 7's `Sleep+Drowsy` series).
    pub fn with_min_sleep(min_sleep: u64) -> Self {
        OptHybrid {
            min_sleep: Some(min_sleep),
            name: format!("OPT-Hybrid(min-sleep {min_sleep})"),
        }
    }

    /// The configured sleep floor, if any.
    pub fn min_sleep(&self) -> Option<u64> {
        self.min_sleep
    }
}

impl Default for OptHybrid {
    fn default() -> Self {
        OptHybrid::new()
    }
}

impl LeakagePolicy for OptHybrid {
    fn name(&self) -> &str {
        &self.name
    }

    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool) {
        if frame_invalid(class) {
            return (deepest_energy(ctx, class, true, true), false);
        }
        let sleep_allowed = match self.min_sleep {
            Some(floor) => class.length > floor,
            None => true,
        };
        (deepest_energy(ctx, class, true, sleep_allowed), false)
    }
}

/// Which of the two prefetch-guided management schemes of §5.2 to apply
/// to non-prefetchable intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchScheme {
    /// `Prefetch-A`: emphasizes performance — non-prefetchable intervals
    /// stay fully active.
    A,
    /// `Prefetch-B`: emphasizes savings — non-prefetchable intervals are
    /// put into drowsy mode (paying its small unhidden wakeup).
    B,
}

/// The prefetch-guided schemes (`Prefetch-A` / `Prefetch-B`, Table 3).
///
/// An interval is *prefetchable* when a next-line or stride trigger
/// fired for its line while it was open ([`WakeHints`] set by the
/// analysis in `leakage-prefetch`). Prefetchable intervals receive the
/// mode Theorem 1 prescribes — the prefetcher supplies the timing that
/// hides the wakeup/refetch. Non-prefetchable intervals fall back per
/// the scheme. Invalid frames are gated off as always.
///
/// [`WakeHints`]: leakage_intervals::WakeHints
#[derive(Debug, Clone)]
pub struct PrefetchGuided {
    scheme: PrefetchScheme,
    name: &'static str,
}

impl PrefetchGuided {
    /// Creates the scheme variant.
    pub fn new(scheme: PrefetchScheme) -> Self {
        PrefetchGuided {
            scheme,
            name: match scheme {
                PrefetchScheme::A => "Prefetch-A",
                PrefetchScheme::B => "Prefetch-B",
            },
        }
    }

    /// Which variant this is.
    pub fn scheme(&self) -> PrefetchScheme {
        self.scheme
    }
}

impl LeakagePolicy for PrefetchGuided {
    fn name(&self) -> &str {
        self.name
    }

    fn interval_stall(&self, ctx: &EnergyContext, class: &IntervalClass) -> Stall {
        // Prefetch triggers hide the wakeups of covered intervals (that
        // is the whole point of §5); what stalls is Prefetch-B's blanket
        // drowsing of unpredicted intervals.
        if self.scheme == PrefetchScheme::B
            && class.kind.ends_with_access()
            && !frame_invalid(class)
            && !class.wake.any()
        {
            let t = ctx.params().timings();
            if ctx.mode_energy(PowerMode::Drowsy, class).is_some() {
                return Stall::DrowsyWakeup(t.d3);
            }
        }
        Stall::None
    }

    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool) {
        if frame_invalid(class) {
            return (deepest_energy(ctx, class, true, true), false);
        }
        if class.wake.any() {
            // The prefetcher covers this interval: apply the optimal mode.
            return (deepest_energy(ctx, class, true, true), false);
        }
        match self.scheme {
            PrefetchScheme::A => (ctx.baseline_energy(class), false),
            PrefetchScheme::B => (deepest_energy(ctx, class, true, false), false),
        }
    }
}

/// The implementable periodic drowsy cache of Flautner/Kim et al.
/// (the paper's reference \[8\]): every `window` cycles, *all* cache
/// lines are put into drowsy mode; a line wakes (paying the unhidden
/// `d3`-cycle ramp) when next accessed.
///
/// Per interval the model is analytic: under a uniformly random phase
/// between the interval start and the next global drowsy tick, the line
/// stays active for `window / 2` cycles in expectation, then rests at
/// the drowsy voltage until the closing access wakes it. Intervals
/// shorter than the expected active head never go drowsy.
///
/// This is the implementable counterpart of [`OptDrowsy`] exactly as
/// [`DecaySleep`] is the implementable counterpart of [`OptSleep`]: the
/// comparison quantifies how much of the drowsy-side oracle headroom a
/// real policy already captures.
#[derive(Debug, Clone)]
pub struct PeriodicDrowsy {
    window: u64,
    name: String,
}

impl PeriodicDrowsy {
    /// Kim et al.'s evaluated window of 4000 cycles.
    pub fn four_k() -> Self {
        let mut p = PeriodicDrowsy::new(4_000);
        p.name = "Drowsy(4K)".to_string();
        p
    }

    /// A periodic drowsy policy with the given window in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "drowsy window must be nonzero");
        PeriodicDrowsy {
            window,
            name: format!("Drowsy({window})"),
        }
    }

    /// The drowsy window in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Whether an interval of this class goes drowsy at all.
    fn drowses(&self, ctx: &EnergyContext, class: &IntervalClass) -> bool {
        let t = ctx.params().timings();
        let head = self.window / 2;
        let exit = if class.kind.ends_with_access() { t.d3 } else { 0 };
        class.length > head + t.d1 + exit
    }
}

impl LeakagePolicy for PeriodicDrowsy {
    fn name(&self) -> &str {
        &self.name
    }

    fn interval_stall(&self, ctx: &EnergyContext, class: &IntervalClass) -> Stall {
        if class.kind.ends_with_access() && self.drowses(ctx, class) {
            Stall::DrowsyWakeup(ctx.params().timings().d3)
        } else {
            Stall::None
        }
    }

    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool) {
        let p = ctx.params();
        let t = p.timings();
        let pa = p.powers().active;
        let pd = p.powers().drowsy;
        let ramp = p.transition_model();
        if !self.drowses(ctx, class) {
            return (ctx.baseline_energy(class), false);
        }
        let head = self.window / 2;
        let exit = if class.kind.ends_with_access() { t.d3 } else { 0 };
        let rest = class.length - head - t.d1 - exit;
        let energy = pa * head as f64
            + ramp.ramp_power(pa, pd) * t.d1 as f64
            + pd * rest as f64
            + ramp.ramp_power(pd, pa) * exit as f64;
        (energy, false)
    }
}

/// The *implementable* hybrid the paper's conclusion calls for: a
/// periodic drowsy cache whose lines additionally decay to gated-off
/// after `theta` idle cycles.
///
/// "While a hybrid method that combines both sleep and drowsy modes is
/// not very useful if each is used optimally, it can substantially
/// reduce leakage power … when the assumptions are less favorable" —
/// this policy is that claim made executable: it needs no oracle (a
/// global drowsy tick plus per-line decay counters), yet captures both
/// circuit techniques' strengths. Compare against [`PeriodicDrowsy`]
/// and [`DecaySleep`] in the `implementable` experiment.
#[derive(Debug, Clone)]
pub struct DrowsyDecay {
    window: u64,
    theta: u64,
    counter_ratio: f64,
    name: String,
}

impl DrowsyDecay {
    /// The evaluated configuration: a 4K drowsy window over a 100K decay.
    pub fn default_config() -> Self {
        let mut p = DrowsyDecay::new(4_000, 100_000, DecaySleep::DEFAULT_COUNTER_RATIO);
        p.name = "Drowsy(4K)+Sleep(100K)".to_string();
        p
    }

    /// Creates the hybrid with a drowsy window, decay threshold and
    /// decay-counter leakage ratio.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero, `theta` does not exceed the expected
    /// drowsy head (`window / 2`), or `counter_ratio` is negative.
    pub fn new(window: u64, theta: u64, counter_ratio: f64) -> Self {
        assert!(window > 0, "drowsy window must be nonzero");
        assert!(
            theta > window / 2,
            "decay threshold must exceed the drowsy head"
        );
        assert!(counter_ratio >= 0.0, "counter ratio cannot be negative");
        DrowsyDecay {
            window,
            theta,
            counter_ratio,
            name: format!("Drowsy({window})+Sleep({theta})"),
        }
    }

    /// The drowsy window in cycles.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// The decay threshold in cycles.
    pub fn theta(&self) -> u64 {
        self.theta
    }

    /// Whether an interval decays all the way to gated-off.
    fn sleeps(&self, ctx: &EnergyContext, class: &IntervalClass) -> bool {
        let t = ctx.params().timings();
        let exit = if class.kind.ends_with_access() {
            t.s3 + t.s4
        } else {
            0
        };
        class.length > self.theta + t.s1 + exit
    }

    /// Whether an interval at least reaches the drowsy state.
    fn drowses(&self, ctx: &EnergyContext, class: &IntervalClass) -> bool {
        let t = ctx.params().timings();
        let exit = if class.kind.ends_with_access() { t.d3 } else { 0 };
        class.length > self.window / 2 + t.d1 + exit
    }
}

impl LeakagePolicy for DrowsyDecay {
    fn name(&self) -> &str {
        &self.name
    }

    fn interval_stall(&self, ctx: &EnergyContext, class: &IntervalClass) -> Stall {
        if !class.kind.ends_with_access() {
            return Stall::None;
        }
        let t = ctx.params().timings();
        if self.sleeps(ctx, class) {
            Stall::InducedMiss(t.s3 + t.s4)
        } else if self.drowses(ctx, class) {
            Stall::DrowsyWakeup(t.d3)
        } else {
            Stall::None
        }
    }

    fn interval_energy(&self, ctx: &EnergyContext, class: &IntervalClass) -> (Energy, bool) {
        let p = ctx.params();
        let t = p.timings();
        let pa = p.powers().active;
        let pd = p.powers().drowsy;
        let ps = p.powers().sleep;
        let ramp = p.transition_model();
        let counter = self.counter_ratio * pa * class.length as f64;
        let head = self.window / 2;

        if !self.drowses(ctx, class) {
            return (pa * class.length as f64 + counter, false);
        }
        if !self.sleeps(ctx, class) {
            // Drowsy only: active head, down-ramp, rest, wake on close.
            let exit = if class.kind.ends_with_access() { t.d3 } else { 0 };
            let rest = class.length - head - t.d1 - exit;
            let energy = pa * head as f64
                + ramp.ramp_power(pa, pd) * t.d1 as f64
                + pd * rest as f64
                + ramp.ramp_power(pd, pa) * exit as f64
                + counter;
            return (energy, false);
        }
        // Full descent: active head, drowsy plateau until theta, then
        // gate; refetch on close if the data was still wanted.
        let exit = if class.kind.ends_with_access() {
            t.s3 + t.s4
        } else {
            0
        };
        let drowsy_span = self.theta.saturating_sub(head + t.d1);
        let slept = class.length - head - t.d1 - drowsy_span - t.s1 - exit;
        let refetch = if ctx.charges_refetch(class) {
            p.refetch_energy()
        } else {
            0.0
        };
        let writeback = match ctx.writeback_energy() {
            Some(wb) if class.dirty => wb,
            _ => 0.0,
        };
        let energy = pa * head as f64
            + ramp.ramp_power(pa, pd) * t.d1 as f64
            + pd * drowsy_span as f64
            + ramp.ramp_power(pd, ps) * t.s1 as f64
            + ps * slept as f64
            + if class.kind.ends_with_access() {
                ramp.ramp_power(ps, pa) * t.s3 as f64 + pa * t.s4 as f64
            } else {
                0.0
            }
            + refetch
            + writeback
            + counter;
        (energy, false)
    }
}

/// A named collection of policies evaluated together over one interval
/// distribution — one pass per distribution regardless of how many
/// schemes are compared.
///
/// # Examples
///
/// ```
/// use leakage_core::policy::{OptDrowsy, OptHybrid, PolicyBank};
/// use leakage_core::{CircuitParams, CompactIntervalDist, EnergyContext, RefetchAccounting};
/// use leakage_energy::TechnologyNode;
///
/// let mut bank = PolicyBank::new();
/// bank.push(OptDrowsy);
/// bank.push(OptHybrid::new());
/// let ctx = EnergyContext::new(
///     CircuitParams::for_node(TechnologyNode::N70),
///     RefetchAccounting::PaperStrict,
/// );
/// let results = bank.evaluate(&ctx, &CompactIntervalDist::new());
/// assert_eq!(results.len(), 2);
/// ```
#[derive(Default)]
pub struct PolicyBank {
    policies: Vec<Box<dyn LeakagePolicy>>,
}

impl PolicyBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        PolicyBank::default()
    }

    /// Adds a policy.
    pub fn push(&mut self, policy: impl LeakagePolicy + 'static) {
        self.policies.push(Box::new(policy));
    }

    /// The policies in insertion order.
    pub fn policies(&self) -> &[Box<dyn LeakagePolicy>] {
        &self.policies
    }

    /// Evaluates every policy over `dist`, returning `(name, result)`
    /// pairs in insertion order.
    pub fn evaluate(
        &self,
        ctx: &EnergyContext,
        dist: &crate::CompactIntervalDist,
    ) -> Vec<(String, crate::PolicyEvaluation)> {
        self.policies
            .iter()
            .map(|p| (p.name().to_string(), ctx.evaluate(p.as_ref(), dist)))
            .collect()
    }
}

impl std::fmt::Debug for PolicyBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.policies.iter().map(|p| p.name()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RefetchAccounting, WakeHints};
    use leakage_energy::{CircuitParams, TechnologyNode};
    use leakage_intervals::CompactIntervalDist;

    fn ctx() -> EnergyContext {
        EnergyContext::new(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::PaperStrict,
        )
    }

    fn interior(length: u64) -> IntervalClass {
        IntervalClass {
            length,
            kind: IntervalKind::Interior { reaccess: true },
            wake: WakeHints::NONE,
            dirty: false,
        }
    }

    fn prefetchable(length: u64) -> IntervalClass {
        IntervalClass {
            wake: WakeHints {
                next_line: true,
                stride: false,
            },
            ..interior(length)
        }
    }

    fn dist_of(classes: &[(IntervalClass, u64)]) -> CompactIntervalDist {
        let mut d = CompactIntervalDist::new();
        for &(c, n) in classes {
            d.add(c, n);
        }
        d
    }

    #[test]
    fn always_active_saves_nothing() {
        let ctx = ctx();
        let dist = dist_of(&[(interior(1000), 10)]);
        let eval = ctx.evaluate(&AlwaysActive, &dist);
        assert_eq!(eval.saving_fraction(), 0.0);
    }

    #[test]
    fn opt_drowsy_approaches_one_minus_ratio() {
        let ctx = ctx();
        // One enormous interval: savings → 1 − P_d/P_a = 2/3.
        let dist = dist_of(&[(interior(100_000_000), 1)]);
        let eval = ctx.evaluate(&OptDrowsy, &dist);
        let limit = 1.0 - ctx.params().powers().drowsy_ratio();
        assert!((eval.saving_fraction() - limit).abs() < 1e-4);
    }

    #[test]
    fn opt_sleep_ignores_short_intervals() {
        let ctx = ctx();
        let policy = OptSleep::ten_k();
        assert_eq!(policy.threshold(), 10_000);
        let (e, _) = policy.interval_energy(&ctx, &interior(9_999));
        assert_eq!(e, ctx.baseline_energy(&interior(9_999)));
        let (e, fell_back) = policy.interval_energy(&ctx, &interior(100_000));
        assert!(!fell_back);
        assert!(e < ctx.baseline_energy(&interior(100_000)));
    }

    #[test]
    fn opt_sleep_beats_decay_sleep_by_the_active_head() {
        let ctx = ctx();
        let opt = OptSleep::ten_k();
        let decay = DecaySleep::with_counter_ratio(10_000, 0.0);
        let class = interior(1_000_000);
        let (e_opt, _) = opt.interval_energy(&ctx, &class);
        let (e_decay, _) = decay.interval_energy(&ctx, &class);
        let pa = ctx.params().powers().active;
        let ps = ctx.params().powers().sleep;
        // Decay pays ~10K cycles of active leakage that OPT avoids.
        let head = 10_000.0 * (pa - ps);
        assert!((e_decay - e_opt - head).abs() / head < 0.01);
    }

    #[test]
    fn decay_sleep_counter_overhead_counts() {
        let ctx = ctx();
        let with = DecaySleep::with_counter_ratio(10_000, 0.02);
        let without = DecaySleep::with_counter_ratio(10_000, 0.0);
        let class = interior(50_000);
        let (e_with, _) = with.interval_energy(&ctx, &class);
        let (e_without, _) = without.interval_energy(&ctx, &class);
        let expected = 0.02 * ctx.params().powers().active * 50_000.0;
        assert!((e_with - e_without - expected).abs() < 1e-9);
    }

    #[test]
    fn decay_sleep_short_interval_stays_active() {
        let ctx = ctx();
        let policy = DecaySleep::with_counter_ratio(10_000, 0.0);
        let class = interior(10_020); // decay + transitions don't fit
        let (e, _) = policy.interval_energy(&ctx, &class);
        assert_eq!(e, ctx.baseline_energy(&class));
    }

    #[test]
    fn hybrid_dominates_single_technique_policies() {
        let ctx = ctx();
        let hybrid = OptHybrid::new();
        let drowsy = OptDrowsy;
        let sleep = OptSleep::new(ctx.inflection_points().drowsy_sleep);
        for length in [0, 3, 6, 10, 500, 1057, 1058, 5000, 100_000] {
            let class = interior(length);
            let (h, _) = hybrid.interval_energy(&ctx, &class);
            let (d, _) = drowsy.interval_energy(&ctx, &class);
            let (s, _) = sleep.interval_energy(&ctx, &class);
            assert!(h <= d + 1e-9 && h <= s + 1e-9, "length {length}");
        }
    }

    #[test]
    fn hybrid_min_sleep_floor_limits_gating() {
        let ctx = ctx();
        let restricted = OptHybrid::with_min_sleep(5_000);
        assert_eq!(restricted.min_sleep(), Some(5_000));
        // A 2000-cycle interval would sleep optimally, but the floor
        // forces drowsy.
        let class = interior(2_000);
        let (e, _) = restricted.interval_energy(&ctx, &class);
        let drowsy = ctx.mode_energy(PowerMode::Drowsy, &class).unwrap();
        assert!((e - drowsy).abs() < 1e-12);
        // Above the floor it sleeps like the unrestricted hybrid.
        let long = interior(50_000);
        let (e_r, _) = restricted.interval_energy(&ctx, &long);
        let (e_u, _) = OptHybrid::new().interval_energy(&ctx, &long);
        assert_eq!(e_r, e_u);
    }

    #[test]
    fn prefetch_a_vs_b_on_nonprefetchable() {
        let ctx = ctx();
        let a = PrefetchGuided::new(PrefetchScheme::A);
        let b = PrefetchGuided::new(PrefetchScheme::B);
        let class = interior(100_000); // long but unprefetchable
        let (ea, _) = a.interval_energy(&ctx, &class);
        let (eb, _) = b.interval_energy(&ctx, &class);
        assert_eq!(ea, ctx.baseline_energy(&class));
        assert!(eb < ea, "B drowses what A keeps active");
    }

    #[test]
    fn prefetchable_intervals_get_optimal_treatment() {
        let ctx = ctx();
        let a = PrefetchGuided::new(PrefetchScheme::A);
        let class = prefetchable(100_000);
        let (ea, _) = a.interval_energy(&ctx, &class);
        let (opt, _) = OptHybrid::new().interval_energy(&ctx, &class);
        assert_eq!(ea, opt);
    }

    #[test]
    fn invalid_frames_are_gated_by_capable_schemes() {
        let ctx = ctx();
        let untouched = IntervalClass {
            length: 1_000_000,
            kind: IntervalKind::Untouched,
            wake: WakeHints::NONE,
            dirty: false,
        };
        let ps = ctx.params().powers().sleep;
        let pd = ctx.params().powers().drowsy;
        for policy in [
            Box::new(OptSleep::ten_k()) as Box<dyn LeakagePolicy>,
            Box::new(OptHybrid::new()),
            Box::new(PrefetchGuided::new(PrefetchScheme::A)),
            Box::new(DecaySleep::with_counter_ratio(10_000, 0.0)),
        ] {
            let (e, _) = policy.interval_energy(&ctx, &untouched);
            assert!(
                e <= ps * 1_000_000.0 + ctx.params().powers().active * 11_000.0,
                "{} should gate an untouched frame",
                policy.name()
            );
        }
        let (e, _) = OptDrowsy.interval_energy(&ctx, &untouched);
        assert!((e - pd * 1_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn bank_preserves_order_and_names() {
        let mut bank = PolicyBank::new();
        bank.push(OptDrowsy);
        bank.push(OptSleep::ten_k());
        bank.push(DecaySleep::ten_k());
        bank.push(OptHybrid::new());
        let dist = dist_of(&[(interior(100_000), 5), (interior(50), 100)]);
        let results = bank.evaluate(&ctx(), &dist);
        let names: Vec<&str> = results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["OPT-Drowsy", "OPT-Sleep(10K)", "Sleep(10K)", "OPT-Hybrid"]
        );
        // Fig. 8's ordering on a long-interval-dominated distribution:
        let by_name: std::collections::HashMap<&str, f64> = results
            .iter()
            .map(|(n, e)| (n.as_str(), e.saving_fraction()))
            .collect();
        assert!(by_name["OPT-Hybrid"] >= by_name["OPT-Sleep(10K)"]);
        assert!(by_name["OPT-Sleep(10K)"] >= by_name["Sleep(10K)"]);
        assert!(format!("{bank:?}").contains("OPT-Hybrid"));
    }


    #[test]
    fn drowsy_decay_descends_through_both_modes() {
        let ctx = ctx();
        let hybrid = DrowsyDecay::new(4_000, 100_000, 0.0);
        assert_eq!(hybrid.window(), 4_000);
        assert_eq!(hybrid.theta(), 100_000);

        // Short: active.
        let (e, _) = hybrid.interval_energy(&ctx, &interior(1_000));
        assert_eq!(e, ctx.baseline_energy(&interior(1_000)));
        // Medium: matches the pure periodic drowsy policy.
        let (e_mid, _) = hybrid.interval_energy(&ctx, &interior(50_000));
        let (e_drowsy, _) = PeriodicDrowsy::new(4_000).interval_energy(&ctx, &interior(50_000));
        assert!((e_mid - e_drowsy).abs() < 1e-9);
        // Long: beats both single-technique implementables.
        let long = interior(5_000_000);
        let (e_hybrid, _) = hybrid.interval_energy(&ctx, &long);
        let (e_p, _) = PeriodicDrowsy::new(4_000).interval_energy(&ctx, &long);
        let (e_d, _) = DecaySleep::with_counter_ratio(100_000, 0.0).interval_energy(&ctx, &long);
        assert!(e_hybrid < e_p, "gating beats resting drowsy on huge intervals");
        assert!(e_hybrid < e_d, "drowsing the 100K head beats staying active");
        // And the oracle still bounds it.
        let (e_opt, _) = OptHybrid::new().interval_energy(&ctx, &long);
        assert!(e_opt <= e_hybrid);
    }

    #[test]
    fn drowsy_decay_stall_classification() {
        use crate::perf::Stall;
        let ctx = ctx();
        let t = *ctx.params().timings();
        let hybrid = DrowsyDecay::default_config();
        assert_eq!(hybrid.interval_stall(&ctx, &interior(500)), Stall::None);
        assert_eq!(
            hybrid.interval_stall(&ctx, &interior(50_000)),
            Stall::DrowsyWakeup(t.d3)
        );
        assert_eq!(
            hybrid.interval_stall(&ctx, &interior(1_000_000)),
            Stall::InducedMiss(t.s3 + t.s4)
        );
    }

    #[test]
    #[should_panic(expected = "exceed the drowsy head")]
    fn drowsy_decay_rejects_inverted_thresholds() {
        let _ = DrowsyDecay::new(10_000, 4_000, 0.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn decay_rejects_negative_counter() {
        let _ = DecaySleep::with_counter_ratio(100, -0.1);
    }

    #[test]
    fn periodic_drowsy_between_active_and_opt_drowsy() {
        let ctx = ctx();
        let policy = PeriodicDrowsy::four_k();
        assert_eq!(policy.window(), 4_000);
        // A long interval: periodic drowsy saves something, but less
        // than the oracle drowsy (it wastes the window/2 active head).
        let class = interior(100_000);
        let (periodic, _) = policy.interval_energy(&ctx, &class);
        let (oracle, _) = OptDrowsy.interval_energy(&ctx, &class);
        let active = ctx.baseline_energy(&class);
        assert!(periodic < active);
        assert!(oracle < periodic);
        // The gap is exactly the active head's extra leakage.
        let pa = ctx.params().powers().active;
        let pd = ctx.params().powers().drowsy;
        let head = 2_000.0 * (pa - pd);
        assert!((periodic - oracle - head).abs() / head < 0.01);
    }

    #[test]
    fn periodic_drowsy_short_intervals_stay_active() {
        let ctx = ctx();
        let policy = PeriodicDrowsy::new(4_000);
        let class = interior(1_500); // below window/2
        let (e, fell_back) = policy.interval_energy(&ctx, &class);
        assert!(!fell_back);
        assert_eq!(e, ctx.baseline_energy(&class));
        assert_eq!(policy.interval_stall(&ctx, &class), crate::perf::Stall::None);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn periodic_drowsy_rejects_zero_window() {
        let _ = PeriodicDrowsy::new(0);
    }

    #[test]
    fn stall_accounting_by_scheme() {
        use crate::perf::Stall;
        let ctx = ctx();
        let long = interior(100_000);
        let t = *ctx.params().timings();

        // Oracles never stall.
        assert_eq!(OptHybrid::new().interval_stall(&ctx, &long), Stall::None);
        assert_eq!(OptSleep::ten_k().interval_stall(&ctx, &long), Stall::None);
        assert_eq!(OptDrowsy.interval_stall(&ctx, &long), Stall::None);

        // Decay pays the full induced miss.
        assert_eq!(
            DecaySleep::ten_k().interval_stall(&ctx, &long),
            Stall::InducedMiss(t.s3 + t.s4)
        );
        // ...but not on intervals it never decays.
        assert_eq!(
            DecaySleep::ten_k().interval_stall(&ctx, &interior(5_000)),
            Stall::None
        );

        // Periodic drowsy pays the wakeup ramp.
        assert_eq!(
            PeriodicDrowsy::four_k().interval_stall(&ctx, &long),
            Stall::DrowsyWakeup(t.d3)
        );

        // Prefetch-B stalls only on unpredicted intervals; A never.
        let b = PrefetchGuided::new(PrefetchScheme::B);
        assert_eq!(b.interval_stall(&ctx, &long), Stall::DrowsyWakeup(t.d3));
        assert_eq!(b.interval_stall(&ctx, &prefetchable(100_000)), Stall::None);
        let a = PrefetchGuided::new(PrefetchScheme::A);
        assert_eq!(a.interval_stall(&ctx, &long), Stall::None);
    }

    #[test]
    fn evaluate_with_perf_accumulates_stalls() {
        let ctx = ctx();
        let dist = dist_of(&[(interior(100_000), 10), (interior(100), 5)]);
        let (eval, stalls) = ctx.evaluate_with_perf(&DecaySleep::ten_k(), &dist);
        assert!(eval.saving_fraction() > 0.0);
        assert_eq!(stalls.closing_accesses, 15);
        assert_eq!(stalls.stalled_accesses, 10);
        let t = ctx.params().timings();
        assert_eq!(stalls.stall_cycles, (10 * (t.s3 + t.s4)) as f64);

        // The oracle pays nothing.
        let (_, stalls) = ctx.evaluate_with_perf(&OptHybrid::new(), &dist);
        assert_eq!(stalls.stall_cycles, 0.0);
        assert_eq!(stalls.closing_accesses, 15);
    }
}
