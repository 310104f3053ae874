//! Building your own workload analog and taking it through the whole
//! stack: declarative spec → trace capture/replay → limit analysis →
//! online controller.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```
//!
//! The six shipped benchmarks are instances of the same vocabulary this
//! example uses: phases of tiered code plus weighted data streams. Here
//! we sketch a little "key-value server": a request-parsing hot loop, a
//! hash-probe stream, a value-log sweep, and an idle housekeeping phase.

use cache_leakage_limits::core::policy::{OptHybrid, PolicyBank, PrefetchGuided, PrefetchScheme};
use cache_leakage_limits::core::{CircuitParams, EnergyContext, RefetchAccounting};
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::profile_benchmark_with;
use cache_leakage_limits::online::{Controller, OnlineSink};
use cache_leakage_limits::trace::io::{read_trace, TraceWriter};
use cache_leakage_limits::trace::TraceSource;
use cache_leakage_limits::workloads::{CodeTier, Phase, Spec, StreamSpec};
use leakage_cachesim::HierarchyConfig;

const KB: u64 = 1024;

fn kv_server_spec() -> Spec {
    Spec {
        name: "kv-server",
        seed: 0xCAFE,
        phases: vec![
            // Serving: parse requests, probe the index, append values.
            Phase {
                duration: 300_000,
                code: vec![
                    CodeTier {
                        base: 0x0100_0000,
                        bytes: 3 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: 0x0110_0000,
                        bytes: 8 * KB,
                        every: 12,
                    },
                    CodeTier {
                        base: 0x0120_0000,
                        bytes: 12 * KB,
                        every: 150,
                    },
                ],
                streams: vec![
                    (
                        StreamSpec::HotCold {
                            base: 0x4000_0000,
                            hot_bytes: KB,
                            cold_bytes: 3 * KB,
                            p_hot: 0.75,
                        },
                        2.4,
                    ),
                    (
                        StreamSpec::Chase {
                            base: 0x5000_0000,
                            nodes: 8192,
                            node_bytes: 128,
                            reads_per_node: 6,
                        },
                        0.5,
                    ),
                    (
                        StreamSpec::Seq {
                            base: 0x6000_0000,
                            bytes: 256 * KB,
                            stride: 8,
                            store_frac: 0.6,
                        },
                        0.4,
                    ),
                ],
                data_density: 0.32,
                branchiness: 0.06,
                segment_shuffle: 12,
            },
            // Housekeeping: compaction bookkeeping over small metadata.
            Phase {
                duration: 350_000,
                code: vec![
                    CodeTier {
                        base: 0x0130_0000,
                        bytes: 2 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: 0x0140_0000,
                        bytes: 5 * KB,
                        every: 10,
                    },
                ],
                streams: vec![(
                    StreamSpec::HotCold {
                        base: 0x7000_0000,
                        hot_bytes: KB,
                        cold_bytes: 3 * KB,
                        p_hot: 0.8,
                    },
                    1.0,
                )],
                data_density: 0.10,
                branchiness: 0.03,
                segment_shuffle: 12,
            },
        ],
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = kv_server_spec();
    spec.validate().expect("structurally valid workload");
    let mut workload = cache_leakage_limits::workloads::Benchmark::from_spec(
        spec,
        cache_leakage_limits::workloads::Scale::Small,
    );

    // Capture the trace to the binary format and replay it — the same
    // bytes could feed an external simulator.
    let mut bytes = Vec::new();
    let records = {
        let mut writer = TraceWriter::new(&mut bytes)?;
        workload.run(&mut writer);
        writer.flush()?;
        writer.records()
    };
    println!(
        "captured {records} accesses ({:.1} MB)",
        bytes.len() as f64 / 1e6
    );
    let trace = read_trace(&bytes[..])?;
    println!("replayed: {}", trace.stats());

    // Limit analysis at 70 nm.
    let profile = profile_benchmark_with(&mut workload, HierarchyConfig::alpha_like());
    let ctx = EnergyContext::new(
        CircuitParams::for_node(TechnologyNode::N70),
        RefetchAccounting::PaperStrict,
    );
    let mut bank = PolicyBank::new();
    bank.push(OptHybrid::new());
    bank.push(PrefetchGuided::new(PrefetchScheme::B));
    println!("\nD-cache limits for the kv-server analog:");
    for (name, eval) in bank.evaluate(&ctx, &profile.dcache.dist) {
        println!("  {name:<12} {:>5.1}%", eval.saving_percent());
    }

    // And an implementable controller on the timeline.
    let mut sink = OnlineSink::new(
        CircuitParams::for_node(TechnologyNode::N70),
        Controller::adaptive_decay(),
    );
    let mut replay = trace;
    replay.run(&mut sink);
    let (_, dcache) = sink.finish();
    println!("\nonline: {dcache}");
    Ok(())
}
