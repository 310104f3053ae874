//! The paper's Fig. 2 scenario: how an inner loop's trip count decides
//! the operating mode of the enclosing code's cache line.
//!
//! ```text
//! cargo run --release --example loop_inspector
//! ```
//!
//! The paper motivates interval classification with a two-level loop:
//! the interval between consecutive executions of the outer-loop `add`
//! instruction equals the inner loop's running time, so the `add` line
//! should stay active for tiny inner loops, go drowsy for moderate ones,
//! and be gated off for long ones. This example reconstructs that
//! experiment literally: it emits the fetch trace of a two-level loop
//! for a range of inner trip counts and reports the measured interval of
//! the `add` line and the mode the oracle assigns it.

use cache_leakage_limits::cachesim::{Hierarchy, HierarchyConfig, Level1};
use cache_leakage_limits::core::envelope::optimal_mode;
use cache_leakage_limits::core::{CircuitParams, IntervalEnergyModel};
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::trace::{Cycle, MemoryAccess, Pc};

/// Fetch trace of `for i in 0..outer { inner_body * trips; add }`.
/// The inner body occupies one fetch block per iteration step; the `add`
/// lives on its own line after the loop body.
fn measured_add_interval(inner_trips: u64) -> u64 {
    let mut hierarchy = Hierarchy::new(HierarchyConfig::alpha_like());
    let inner_pc = Pc::new(0x1000);
    let add_pc = Pc::new(0x2000); // a different cache line
    let mut cycle = 0u64;
    let mut add_accesses = Vec::new();
    for _outer in 0..3 {
        for _trip in 0..inner_trips {
            let outcome = hierarchy.access(&MemoryAccess::fetch(Cycle::new(cycle), inner_pc));
            assert_eq!(outcome.l1.cache, Level1::Instruction);
            cycle += 1;
        }
        let outcome = hierarchy.access(&MemoryAccess::fetch(Cycle::new(cycle), add_pc));
        add_accesses.push((cycle, outcome.l1.frame));
        cycle += 1;
    }
    // Interval between the 2nd and 3rd executions of `add` (steady state).
    assert_eq!(add_accesses[1].1, add_accesses[2].1, "same frame");
    add_accesses[2].0 - add_accesses[1].0
}

fn main() {
    let model = IntervalEnergyModel::new(CircuitParams::for_node(TechnologyNode::N70));
    let points = model.inflection_points();
    println!(
        "70nm inflection points: a = {} cycles, b = {} cycles\n",
        points.active_drowsy, points.drowsy_sleep
    );
    println!(
        "{:>12}  {:>16}  {:>8}  {:>14}",
        "inner trips", "add interval (cy)", "mode", "energy (pJ)"
    );
    for trips in [
        1u64, 4, 40, 400, 1_000, 1_056, 1_057, 4_000, 40_000, 400_000,
    ] {
        let interval = measured_add_interval(trips);
        let mode = optimal_mode(interval, &points);
        let energy = model
            .energy(mode, interval)
            .expect("classified mode is feasible");
        println!("{trips:>12}  {interval:>16}  {mode:>8}  {energy:>14.4}");
    }
    println!(
        "\nAs the paper's Fig. 2 argues: the same static instruction moves\n\
         from active through drowsy to sleep purely by its inner loop's range."
    );
}
