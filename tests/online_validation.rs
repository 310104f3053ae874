//! Cross-validation: the online timeline simulator against the
//! interval-analytic accounting.
//!
//! The idealized online decay controller implements *exactly* the
//! semantics the analytic `DecaySleep` policy assumes (a line decays
//! only when the full power-down/power-up sequence fits, refetch charged
//! only on destroyed-then-wanted data). Running both over the same
//! trace must therefore produce the same energy — a strong end-to-end
//! check that two independently written accountings agree.

use cache_leakage_limits::core::policy::DecaySleep;
use cache_leakage_limits::core::{CircuitParams, EnergyContext, RefetchAccounting};
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::profile_benchmark;
use cache_leakage_limits::online::{Controller, OnlineSink};
use cache_leakage_limits::trace::TraceSource;
use cache_leakage_limits::workloads::{gzip, vortex, Scale};

#[test]
fn idealized_online_decay_matches_analytic_exactly() {
    for make in [gzip, vortex] {
        // Analytic: profile -> dead-aware evaluation of DecaySleep.
        let mut bench = make(Scale::Test);
        let name = bench.name();
        let profile = profile_benchmark(&mut bench);
        let ctx = EnergyContext::new(
            CircuitParams::for_node(TechnologyNode::N70),
            RefetchAccounting::DeadAware,
        );
        let policy = DecaySleep::with_counter_ratio(10_000, 0.01);
        let analytic_i = ctx.evaluate(&policy, &profile.icache.dist);
        let analytic_d = ctx.evaluate(&policy, &profile.dcache.dist);

        // Online: the same trace through the idealized controller.
        let mut sink = OnlineSink::new(
            CircuitParams::for_node(TechnologyNode::N70),
            Controller::Decay {
                theta: 10_000,
                counter_ratio: 0.01,
                idealized: true,
            },
        );
        make(Scale::Test).run(&mut sink);
        let (online_i, online_d) = sink.finish();

        for (label, analytic, online) in [
            ("icache", analytic_i, online_i),
            ("dcache", analytic_d, online_d),
        ] {
            assert!(
                (analytic.baseline - online.baseline).abs() / analytic.baseline < 1e-12,
                "{name}/{label}: baselines differ"
            );
            let rel = (analytic.energy - online.energy).abs() / analytic.energy;
            assert!(
                rel < 1e-9,
                "{name}/{label}: analytic {} vs online {} (rel {rel})",
                analytic.energy,
                online.energy
            );
        }
    }
}

#[test]
fn idealization_error_is_bounded_and_hit_overshoots_cost() {
    // Hardware that commits at the timer differs from the idealized
    // accounting only on overshoot intervals (length within one
    // transition time of theta): a hit there costs a full refetch, a
    // fill there actually *saves* (early power-down into dead data).
    // Either way the net error must be small — this bounds the
    // "idealization error" of interval-analytic decay studies.
    for theta in [1_000u64, 10_000, 50_000] {
        let run = |ctrl: Controller| {
            let mut sink = OnlineSink::new(CircuitParams::for_node(TechnologyNode::N70), ctrl);
            gzip(Scale::Test).run(&mut sink);
            sink.finish()
        };
        let (ideal_i, ideal_d) = run(Controller::decay_idealized(theta));
        let (real_i, real_d) = run(Controller::decay(theta));
        for (label, ideal, real) in [("icache", ideal_i, real_i), ("dcache", ideal_d, real_d)] {
            let gap = (real.saving_percent() - ideal.saving_percent()).abs();
            assert!(
                gap < 3.0,
                "theta={theta} {label}: idealization error {gap} points"
            );
            // The realistic variant can only see *more* induced misses
            // (it also destroys data on overshoot intervals).
            assert!(
                real.induced_misses >= ideal.induced_misses,
                "theta={theta} {label}"
            );
        }
    }
}

#[test]
fn quantized_decay_brackets_ideal_decay() {
    // 2-bit counters with tick = theta/3 decay between 2 and 3 ticks:
    // the effective threshold straddles theta, so savings land near the
    // ideal timer's.
    let run = |ctrl: Controller| {
        let mut sink = OnlineSink::new(CircuitParams::for_node(TechnologyNode::N70), ctrl);
        vortex(Scale::Test).run(&mut sink);
        sink.finish().1
    };
    let ideal = run(Controller::decay(12_000));
    let quantized = run(Controller::quantized_decay(12_000));
    let gap = (ideal.saving_percent() - quantized.saving_percent()).abs();
    assert!(gap < 5.0, "quantization moved savings by {gap} points");
    assert!(quantized.saving_fraction() > 0.0);
}

#[test]
fn adaptive_decay_lands_between_fixed_extremes() {
    let run = |ctrl: Controller| {
        let mut sink = OnlineSink::new(CircuitParams::for_node(TechnologyNode::N70), ctrl);
        gzip(Scale::Small).run(&mut sink);
        sink.finish().1
    };
    let tight = run(Controller::decay(1_000));
    let loose = run(Controller::decay(512_000));
    let adaptive = run(Controller::adaptive_decay());
    // Adaptivity: fewer induced misses than the tight timer, more
    // savings than the loose one.
    assert!(
        adaptive.induced_miss_per_kilo_access() <= tight.induced_miss_per_kilo_access(),
        "adaptive {} vs tight {}",
        adaptive.induced_miss_per_kilo_access(),
        tight.induced_miss_per_kilo_access()
    );
    assert!(
        adaptive.saving_fraction() >= loose.saving_fraction(),
        "adaptive {} vs loose {}",
        adaptive.saving_fraction(),
        loose.saving_fraction()
    );
    assert!(!adaptive.theta_history.is_empty());
}
