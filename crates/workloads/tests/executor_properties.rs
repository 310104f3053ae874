//! Property tests on the workload executor: any structurally valid spec
//! must produce a well-formed trace.

use leakage_trace::{TraceSource, VecTrace};
use leakage_workloads::{Benchmark, CodeTier, Phase, Scale, Spec, StreamSpec};
use proptest::prelude::*;

fn arb_stream() -> impl Strategy<Value = StreamSpec> {
    prop_oneof![
        (1u64..64, 1u64..8, 0.0f64..1.0).prop_map(|(kb, stride_words, store_frac)| {
            StreamSpec::Seq {
                base: 0x4000_0000,
                bytes: kb * 1024,
                stride: stride_words * 8,
                store_frac,
            }
        }),
        (1u64..64, 2u64..64).prop_map(|(kb, lines)| StreamSpec::Strided {
            base: 0x5000_0000,
            bytes: kb * 1024,
            stride: lines * 8,
        }),
        (2u64..2048, 1u32..8).prop_map(|(nodes, reads)| StreamSpec::Chase {
            base: 0x6000_0000,
            nodes,
            node_bytes: 128,
            reads_per_node: reads,
        }),
        (1u64..8, 1u64..64, 0.0f64..=1.0).prop_map(|(hot_kb, cold_kb, p_hot)| {
            StreamSpec::HotCold {
                base: 0x7000_0000,
                hot_bytes: hot_kb * 1024,
                cold_bytes: cold_kb * 1024,
                p_hot,
            }
        }),
    ]
}

fn arb_phase() -> impl Strategy<Value = Phase> {
    (
        5_000u64..60_000,                                  // duration
        1u64..16,                                          // hot KB
        prop::collection::vec((1u64..32, 2u64..64), 0..3), // extra tiers
        prop::collection::vec((arb_stream(), 0.1f64..4.0), 1..4),
        0.0f64..0.6, // density
        0.0f64..0.2, // branchiness
        prop::sample::select(vec![0u32, 8, 12, 16]),
    )
        .prop_map(
            |(duration, hot_kb, extra, streams, data_density, branchiness, shuffle)| {
                let mut code = vec![CodeTier {
                    base: 0x0100_0000,
                    bytes: hot_kb * 1024,
                    every: 1,
                }];
                for (i, (kb, every)) in extra.into_iter().enumerate() {
                    code.push(CodeTier {
                        base: 0x0200_0000 + i as u64 * 0x10_0000,
                        bytes: kb * 1024,
                        every,
                    });
                }
                Phase {
                    duration,
                    code,
                    streams,
                    data_density,
                    branchiness,
                    segment_shuffle: shuffle,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any valid spec runs to (or just past) its budget, emits monotone
    /// timestamps, exactly one fetch per cycle with no gaps, and is
    /// fully deterministic.
    #[test]
    fn executor_invariants(
        phases in prop::collection::vec(arb_phase(), 1..4),
        seed in 0u64..u64::MAX,
        budget in 30_000u64..120_000,
    ) {
        let spec = Spec { name: "prop", seed, phases };
        prop_assert!(spec.validate().is_ok());

        let run = || {
            let mut trace = VecTrace::new();
            Benchmark::from_spec(spec.clone(), Scale::Custom(budget)).run(&mut trace);
            trace
        };
        let trace = run();

        // Budget reached, with bounded overshoot (one tier pass).
        let last = trace.stats().last_cycle.unwrap().raw();
        prop_assert!(last + 1 >= budget, "stopped early: {last} < {budget}");
        prop_assert!(last < budget + 40_000, "overshot: {last}");

        // Monotone, gap-free fetch clock: fetch cycles are 0,1,2,...
        let mut expected = 0u64;
        for event in trace.iter() {
            prop_assert!(event.cycle.raw() <= last);
            if event.kind.is_fetch() {
                prop_assert_eq!(event.cycle.raw(), expected, "fetch clock skipped");
                expected += 1;
            } else {
                // Data ops are stamped at the cycle following their
                // fetch (the engine's overlap convention), which is the
                // next fetch's cycle.
                prop_assert_eq!(event.cycle.raw(), expected);
            }
        }

        // Determinism.
        let again = run();
        prop_assert_eq!(again.events(), trace.events());
    }
}
