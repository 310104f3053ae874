//! Approximating the oracle with prefetching (paper §5).
//!
//! ```text
//! cargo run --release --example prefetch_guided
//! ```
//!
//! The oracle's perfect future knowledge is unimplementable, but a
//! next-line/stride prefetcher predicts a useful slice of it. This
//! example runs two contrasting workloads — the regular `applu` and the
//! pointer-chasing `gcc` — and shows how far the implementable
//! `Prefetch-A` / `Prefetch-B` schemes close the gap from the decay
//! baseline `Sleep(10K)` to the oracle `OPT-Hybrid`, and how
//! prefetchability explains the difference.

use cache_leakage_limits::cachesim::Level1;
use cache_leakage_limits::core::policy::{
    DecaySleep, OptHybrid, PolicyBank, PrefetchGuided, PrefetchScheme,
};
use cache_leakage_limits::core::{CircuitParams, EnergyContext, RefetchAccounting};
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::profile_benchmark;
use cache_leakage_limits::intervals::IntervalKind;
use cache_leakage_limits::workloads::{applu, gcc, Scale};

fn main() {
    let ctx = EnergyContext::new(
        CircuitParams::for_node(TechnologyNode::N70),
        RefetchAccounting::PaperStrict,
    );
    let mut bank = PolicyBank::new();
    bank.push(DecaySleep::ten_k());
    bank.push(PrefetchGuided::new(PrefetchScheme::A));
    bank.push(PrefetchGuided::new(PrefetchScheme::B));
    bank.push(OptHybrid::new());

    for mut workload in [applu(Scale::Small), gcc(Scale::Small)] {
        let profile = profile_benchmark(&mut workload);
        let side = profile.side(Level1::Data);

        // How much of the data cache's rest time could a prefetcher
        // cover? (Cycle-weighted, interior intervals only.)
        let interior = |covered: bool| {
            side.dist.cycles_matching(|class| {
                matches!(class.kind, IntervalKind::Interior { .. }) && class.wake.any() == covered
            })
        };
        let covered = interior(true);
        let uncovered = interior(false);
        println!(
            "\n=== {} (D-cache) ===\n\
             prefetch triggers: {} next-line, {} stride\n\
             rest-cycle coverage: {:.1}% prefetchable",
            profile.name,
            side.prefetch.next_line_triggers,
            side.prefetch.stride_triggers,
            100.0 * covered as f64 / (covered + uncovered) as f64,
        );

        for (name, eval) in bank.evaluate(&ctx, &side.dist) {
            println!("  {name:<14} {:>5.1}% savings", eval.saving_percent());
        }
    }
    println!(
        "\nRegular sweeps (applu) let Prefetch-B ride within a few percent of\n\
         the oracle; pointer chasing (gcc) defeats both prefetchers, so its\n\
         unpredicted intervals fall back to drowsy (B) or stay awake (A)."
    );
}
