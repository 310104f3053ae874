//! Using the generalized model (paper §3.3, Fig. 6) to explore an
//! operating point the paper never measured.
//!
//! ```text
//! cargo run --release --example tech_scaling
//! ```
//!
//! The paper's parameterized model exists precisely so that "while the
//! implementation technologies change over time" the limit analysis can
//! be redone from a handful of circuit numbers. This example builds a
//! hypothetical 45 nm point from the physical submodels — subthreshold
//! leakage for the powers, capacitance scaling for the refetch energy —
//! and compares its optimal savings against the paper's four nodes on
//! the same workload.

use cache_leakage_limits::core::{CircuitParams, GeneralizedModel, ModePowers, ModeTimings};
use cache_leakage_limits::energy::{
    DynamicEnergyModel, SubthresholdModel, TechnologyNode, PRESET_DROWSY_RATIO, PRESET_SLEEP_RATIO,
};
use cache_leakage_limits::experiments::profile_benchmark;
use cache_leakage_limits::workloads::{ammp, Scale};

fn main() {
    let profile = profile_benchmark(&mut ammp(Scale::Small));

    println!(
        "{:>10}  {:>10}  {:>12}  {:>12}  {:>12}",
        "node", "b (cycles)", "OPT-Drowsy", "OPT-Sleep", "OPT-Hybrid"
    );

    // The paper's four calibrated nodes...
    for node in TechnologyNode::ALL {
        let model = GeneralizedModel::from_params(CircuitParams::for_node(node));
        let b = model.inflection_points().drowsy_sleep;
        let savings = model.optimal_savings(&profile.dcache.dist);
        println!(
            "{:>10}  {b:>10}  {:>11.1}%  {:>11.1}%  {:>11.1}%",
            node.to_string(),
            savings.opt_drowsy,
            savings.opt_sleep,
            savings.opt_hybrid
        );
    }

    // ...and a hypothetical 45 nm point from the physical submodels.
    let leakage = SubthresholdModel::default();
    let dynamic = DynamicEnergyModel::default();
    let (vdd, vth) = (0.8, 0.15);
    let active = leakage.leakage_power(vdd, vth);
    let params = CircuitParams::builder()
        .powers(ModePowers::from_ratios(
            active,
            PRESET_DROWSY_RATIO,
            PRESET_SLEEP_RATIO,
        ))
        .timings(ModeTimings::with_l2_latency(7))
        .refetch_from_model(&dynamic, 45.0, vdd)
        .build();
    let model = GeneralizedModel::from_params(params);
    let b = model.inflection_points().drowsy_sleep;
    let savings = model.optimal_savings(&profile.dcache.dist);
    println!(
        "{:>10}  {b:>10}  {:>11.1}%  {:>11.1}%  {:>11.1}%   <- extrapolated",
        "45nm", savings.opt_drowsy, savings.opt_sleep, savings.opt_hybrid
    );

    println!(
        "\nThe drowsy-sleep inflection point keeps falling with feature size,\n\
         so gated-Vdd keeps gaining ground on drowsy — the paper's Table 2\n\
         trend, extended one node further."
    );
}
