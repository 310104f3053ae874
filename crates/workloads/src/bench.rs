//! The six SPEC2000 benchmark analogs.
//!
//! Each constructor assembles a [`Spec`] whose phase structure, code
//! footprint and data patterns mimic the qualitative cache behaviour of
//! its namesake. Constants were calibrated against the paper's
//! aggregate interval statistics (see `EXPERIMENTS.md`); they are not
//! meant to replicate instruction-level behaviour of the real programs.

use crate::spec::SpecWorkload;
use crate::{CodeTier, Phase, Spec, StreamSpec};
use leakage_trace::{TraceSink, TraceSource};

const KB: u64 = 1024;

/// Version of the synthetic workload generator.
///
/// Any change that alters the trace a benchmark emits for a given
/// `(name, Scale)` — spec constants, the engine's interleaving, the
/// RNG — MUST bump this constant. Profile caches (the experiment
/// layer's `ProfileStore`) mix it into their keys, so a bump
/// invalidates every memoized profile instead of silently serving
/// results from the old generator.
pub const GENERATOR_VERSION: u32 = 1;

/// Simulation length presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// ~200K cycles: unit-test sized.
    Test,
    /// ~2M cycles: quick sanity runs.
    Small,
    /// ~12M cycles: the default for regenerating the paper's numbers.
    #[default]
    Paper,
    /// An explicit cycle budget.
    Custom(u64),
}

impl Scale {
    /// The cycle budget of this scale.
    pub fn cycles(self) -> u64 {
        match self {
            Scale::Test => 200_000,
            Scale::Small => 2_000_000,
            Scale::Paper => 12_000_000,
            Scale::Custom(cycles) => cycles,
        }
    }

    /// Parses a scale argument as the `repro` CLI and the analysis
    /// server accept it: a preset name (`test` | `small` | `paper`) or
    /// a raw cycle count. `None` for anything else.
    pub fn parse_arg(arg: &str) -> Option<Scale> {
        match arg {
            "test" => Some(Scale::Test),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            number => number.parse::<u64>().ok().map(Scale::Custom),
        }
    }
}

/// A runnable benchmark analog.
///
/// # Examples
///
/// ```
/// use leakage_trace::{TraceSource, VecTrace};
/// use leakage_workloads::{gzip, Scale};
///
/// let mut workload = gzip(Scale::Test);
/// let mut trace = VecTrace::new();
/// workload.run(&mut trace);
/// assert!(trace.len() > 100_000);
/// ```
#[derive(Debug, Clone)]
pub struct Benchmark {
    inner: Inner,
}

/// The two workload families behind the [`Benchmark`] facade: the
/// declarative synthetic generators and the executed `isa:*` programs.
#[derive(Debug, Clone)]
enum Inner {
    Spec(SpecWorkload),
    Isa(crate::isa::IsaWorkload),
}

impl Benchmark {
    fn new(spec: Spec, scale: Scale) -> Self {
        Benchmark {
            inner: Inner::Spec(SpecWorkload::new(spec, scale.cycles())),
        }
    }

    /// Builds a runnable workload from a user-defined [`Spec`] — the
    /// same machinery the six shipped analogs use (see the
    /// `custom_workload` example).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Spec::validate`].
    pub fn from_spec(spec: Spec, scale: Scale) -> Self {
        Benchmark::new(spec, scale)
    }

    /// The benchmark's name (e.g. `"gcc"` or `"isa:matmul"`).
    pub fn name(&self) -> &'static str {
        match &self.inner {
            Inner::Spec(spec) => spec.name(),
            Inner::Isa(isa) => isa.name(),
        }
    }

    /// The underlying declarative spec, for synthetic benchmarks.
    /// Executed `isa:*` benchmarks are programs, not specs.
    ///
    /// # Panics
    ///
    /// Panics for an `isa:*` benchmark.
    pub fn spec(&self) -> &Spec {
        match &self.inner {
            Inner::Spec(spec) => spec.spec(),
            Inner::Isa(isa) => {
                panic!(
                    "{} is an executed program, not a declarative spec",
                    isa.name()
                )
            }
        }
    }
}

impl TraceSource for Benchmark {
    fn run(&mut self, sink: &mut dyn TraceSink) {
        match &mut self.inner {
            Inner::Spec(spec) => spec.run(sink),
            Inner::Isa(isa) => isa.run(sink),
        }
    }
}

/// The suite's benchmark names in the paper's figure order.
pub const SUITE_NAMES: [&str; 6] = ["ammp", "applu", "gcc", "gzip", "mesa", "vortex"];

/// The full six-benchmark suite in the paper's figure order:
/// `ammp`, `applu`, `gcc`, `gzip`, `mesa`, `vortex`.
pub fn suite(scale: Scale) -> Vec<Benchmark> {
    vec![
        ammp(scale),
        applu(scale),
        gcc(scale),
        gzip(scale),
        mesa(scale),
        vortex(scale),
    ]
}

/// The executed-program suite: every `isa:*` benchmark at `scale`, in
/// [`crate::ISA_SUITE_NAMES`] order.
pub fn isa_suite(scale: Scale) -> Vec<Benchmark> {
    crate::ISA_SUITE_NAMES
        .iter()
        .map(|name| by_name(name, scale).expect("library program resolves"))
        .collect()
}

/// Constructs a suite benchmark by name — a synthetic analog from
/// [`SUITE_NAMES`] or an executed program from
/// [`crate::ISA_SUITE_NAMES`] — or `None` for anything else. This is
/// the lookup profile caches use to re-simulate a missing entry.
pub fn by_name(name: &str, scale: Scale) -> Option<Benchmark> {
    match name {
        "ammp" => Some(ammp(scale)),
        "applu" => Some(applu(scale)),
        "gcc" => Some(gcc(scale)),
        "gzip" => Some(gzip(scale)),
        "mesa" => Some(mesa(scale)),
        "vortex" => Some(vortex(scale)),
        _ => crate::isa::IsaWorkload::by_name(name, scale.cycles()).map(|isa| Benchmark {
            inner: Inner::Isa(isa),
        }),
    }
}

// Address-space layout helpers: code regions live in low memory, one
// megabyte apart; data arrays high, sixteen megabytes apart.
const fn code(region: u64) -> u64 {
    0x0100_0000 + region * 0x10_0000
}

const fn data(region: u64) -> u64 {
    0x4000_0000 + region * 0x100_0000
}

/// `ammp` analog: molecular dynamics. Sequential coordinate sweeps mixed
/// with an unprefetchable neighbour-list gather, plus a quiet
/// integration phase over a small working set.
pub fn ammp(scale: Scale) -> Benchmark {
    let spec = Spec {
        name: "ammp",
        seed: 0xA307,
        phases: vec![
            // Force computation: streaming + gather.
            Phase {
                duration: 260_000,
                code: vec![
                    CodeTier {
                        base: code(0),
                        bytes: 3 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(1),
                        bytes: 6 * KB,
                        every: 10,
                    },
                    CodeTier {
                        base: code(2),
                        bytes: 10 * KB,
                        every: 56,
                    },
                    CodeTier {
                        base: code(3),
                        bytes: 12 * KB,
                        every: 160,
                    },
                    CodeTier {
                        base: code(7),
                        bytes: 10 * KB,
                        every: 300,
                    },
                    CodeTier {
                        base: code(8),
                        bytes: 8 * KB,
                        every: 260,
                    },
                ],
                streams: vec![
                    (
                        StreamSpec::HotCold {
                            base: data(2),
                            hot_bytes: KB,
                            cold_bytes: 3 * KB,
                            p_hot: 0.7,
                        },
                        2.8,
                    ),
                    (
                        StreamSpec::Seq {
                            base: data(0),
                            bytes: 512 * KB,
                            stride: 8,
                            store_frac: 0.05,
                        },
                        0.55,
                    ),
                    (
                        StreamSpec::Chase {
                            base: data(1),
                            nodes: 8192,
                            node_bytes: 96,
                            reads_per_node: 4,
                        },
                        0.12,
                    ),
                ],
                data_density: 0.36,
                branchiness: 0.10,
                segment_shuffle: 12,
            },
            // Velocity/position integration: quiet, tiny working set.
            Phase {
                duration: 340_000,
                code: vec![
                    CodeTier {
                        base: code(4),
                        bytes: 2 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(5),
                        bytes: 4 * KB,
                        every: 12,
                    },
                    CodeTier {
                        base: code(6),
                        bytes: 8 * KB,
                        every: 80,
                    },
                ],
                streams: vec![(
                    StreamSpec::HotCold {
                        base: data(3),
                        hot_bytes: KB,
                        cold_bytes: 3 * KB,
                        p_hot: 0.7,
                    },
                    1.0,
                )],
                data_density: 0.12,
                branchiness: 0.08,
                segment_shuffle: 12,
            },
        ],
    };
    Benchmark::new(spec, scale)
}

/// `applu` analog: an implicit CFD solver. Highly regular — sequential
/// grid sweeps plus strided plane walks, the stride prefetcher's best
/// case — alternating with a quieter triangular-solve phase.
pub fn applu(scale: Scale) -> Benchmark {
    let spec = Spec {
        name: "applu",
        seed: 0xAB12,
        phases: vec![
            Phase {
                duration: 250_000,
                code: vec![
                    CodeTier {
                        base: code(0),
                        bytes: 2 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(1),
                        bytes: 5 * KB,
                        every: 12,
                    },
                    CodeTier {
                        base: code(2),
                        bytes: 9 * KB,
                        every: 64,
                    },
                    CodeTier {
                        base: code(3),
                        bytes: 10 * KB,
                        every: 170,
                    },
                    CodeTier {
                        base: code(7),
                        bytes: 8 * KB,
                        every: 320,
                    },
                    CodeTier {
                        base: code(8),
                        bytes: 8 * KB,
                        every: 280,
                    },
                ],
                streams: vec![
                    (
                        StreamSpec::HotCold {
                            base: data(3),
                            hot_bytes: KB,
                            cold_bytes: 3 * KB,
                            p_hot: 0.75,
                        },
                        2.4,
                    ),
                    (
                        StreamSpec::Seq {
                            base: data(0),
                            bytes: 768 * KB,
                            stride: 8,
                            store_frac: 0.1,
                        },
                        0.32,
                    ),
                    (
                        StreamSpec::Seq {
                            base: data(1),
                            bytes: 768 * KB,
                            stride: 8,
                            store_frac: 0.3,
                        },
                        0.32,
                    ),
                    (
                        StreamSpec::Strided {
                            base: data(2),
                            bytes: 768 * KB,
                            stride: 384,
                        },
                        0.1,
                    ),
                ],
                data_density: 0.35,
                branchiness: 0.06,
                segment_shuffle: 12,
            },
            // Lower/upper triangular solve: quiet.
            Phase {
                duration: 360_000,
                code: vec![
                    CodeTier {
                        base: code(4),
                        bytes: 2 * KB + 512,
                        every: 1,
                    },
                    CodeTier {
                        base: code(5),
                        bytes: 5 * KB,
                        every: 16,
                    },
                    CodeTier {
                        base: code(6),
                        bytes: 8 * KB,
                        every: 90,
                    },
                ],
                streams: vec![(
                    StreamSpec::HotCold {
                        base: data(4),
                        hot_bytes: KB,
                        cold_bytes: 3 * KB,
                        p_hot: 0.8,
                    },
                    1.0,
                )],
                data_density: 0.12,
                branchiness: 0.05,
                segment_shuffle: 12,
            },
        ],
    };
    Benchmark::new(spec, scale)
}

/// `gcc` analog: the compiler. Big, branchy code footprint (the
/// instruction cache's hardest case here) and pointer-heavy,
/// unprefetchable data.
pub fn gcc(scale: Scale) -> Benchmark {
    let spec = Spec {
        name: "gcc",
        seed: 0x6CC1,
        phases: vec![
            // Parse: pointer soup.
            Phase {
                duration: 200_000,
                code: vec![
                    CodeTier {
                        base: code(0),
                        bytes: 4 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(1),
                        bytes: 10 * KB,
                        every: 8,
                    },
                    CodeTier {
                        base: code(2),
                        bytes: 12 * KB,
                        every: 48,
                    },
                    CodeTier {
                        base: code(3),
                        bytes: 14 * KB,
                        every: 200,
                    },
                ],
                streams: vec![
                    (
                        StreamSpec::HotCold {
                            base: data(1),
                            hot_bytes: KB,
                            cold_bytes: 3 * KB,
                            p_hot: 0.6,
                        },
                        2.1,
                    ),
                    (
                        StreamSpec::Chase {
                            base: data(0),
                            nodes: 16384,
                            node_bytes: 64,
                            reads_per_node: 4,
                        },
                        0.3,
                    ),
                    (
                        StreamSpec::Seq {
                            base: data(2),
                            bytes: 128 * KB,
                            stride: 8,
                            store_frac: 0.2,
                        },
                        0.45,
                    ),
                ],
                data_density: 0.30,
                branchiness: 0.14,
                segment_shuffle: 12,
            },
            // Optimize: IR walking.
            Phase {
                duration: 210_000,
                code: vec![
                    CodeTier {
                        base: code(4),
                        bytes: 5 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(5),
                        bytes: 12 * KB,
                        every: 10,
                    },
                    CodeTier {
                        base: code(6),
                        bytes: 10 * KB,
                        every: 360,
                    },
                ],
                streams: vec![
                    (
                        StreamSpec::HotCold {
                            base: data(4),
                            hot_bytes: KB,
                            cold_bytes: 3 * KB,
                            p_hot: 0.7,
                        },
                        2.2,
                    ),
                    (
                        StreamSpec::Chase {
                            base: data(3),
                            nodes: 16384,
                            node_bytes: 128,
                            reads_per_node: 4,
                        },
                        0.28,
                    ),
                ],
                data_density: 0.28,
                branchiness: 0.13,
                segment_shuffle: 12,
            },
            // Emit: quiet.
            Phase {
                duration: 270_000,
                code: vec![
                    CodeTier {
                        base: code(7),
                        bytes: 3 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(8),
                        bytes: 6 * KB,
                        every: 14,
                    },
                ],
                streams: vec![(
                    StreamSpec::HotCold {
                        base: data(5),
                        hot_bytes: KB,
                        cold_bytes: 3 * KB,
                        p_hot: 0.7,
                    },
                    1.0,
                )],
                data_density: 0.13,
                branchiness: 0.10,
                segment_shuffle: 12,
            },
        ],
    };
    Benchmark::new(spec, scale)
}

/// `gzip` analog: compression. A tiny hot loop (most of the instruction
/// cache sleeps), a sliding window swept sequentially, and a quiet
/// Huffman-emit phase.
pub fn gzip(scale: Scale) -> Benchmark {
    let spec = Spec {
        name: "gzip",
        seed: 0x6219,
        phases: vec![
            Phase {
                duration: 280_000,
                code: vec![
                    CodeTier {
                        base: code(0),
                        bytes: 2 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(1),
                        bytes: 5 * KB,
                        every: 12,
                    },
                    CodeTier {
                        base: code(2),
                        bytes: 8 * KB,
                        every: 70,
                    },
                    CodeTier {
                        base: code(3),
                        bytes: 10 * KB,
                        every: 190,
                    },
                    CodeTier {
                        base: code(7),
                        bytes: 8 * KB,
                        every: 340,
                    },
                    CodeTier {
                        base: code(8),
                        bytes: 10 * KB,
                        every: 300,
                    },
                ],
                streams: vec![
                    (
                        StreamSpec::HotCold {
                            base: data(1),
                            hot_bytes: KB,
                            cold_bytes: 3 * KB,
                            p_hot: 0.7,
                        },
                        2.9,
                    ),
                    (
                        StreamSpec::Seq {
                            base: data(0),
                            bytes: 512 * KB,
                            stride: 8,
                            store_frac: 0.05,
                        },
                        0.6,
                    ),
                ],
                data_density: 0.40,
                branchiness: 0.09,
                segment_shuffle: 12,
            },
            // Huffman emit: quiet phase, small tables.
            Phase {
                duration: 560_000,
                code: vec![
                    CodeTier {
                        base: code(4),
                        bytes: 2 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(5),
                        bytes: 4 * KB,
                        every: 10,
                    },
                    CodeTier {
                        base: code(6),
                        bytes: 6 * KB,
                        every: 70,
                    },
                ],
                streams: vec![(
                    StreamSpec::HotCold {
                        base: data(2),
                        hot_bytes: KB,
                        cold_bytes: 3 * KB,
                        p_hot: 0.8,
                    },
                    1.0,
                )],
                data_density: 0.10,
                branchiness: 0.07,
                segment_shuffle: 12,
            },
        ],
    };
    Benchmark::new(spec, scale)
}

/// `mesa` analog: software 3D rendering. Streaming vertex sweeps and
/// strided texture fetches, with a quieter per-frame setup phase.
pub fn mesa(scale: Scale) -> Benchmark {
    let spec = Spec {
        name: "mesa",
        seed: 0x3E5A,
        phases: vec![
            Phase {
                duration: 300_000,
                code: vec![
                    CodeTier {
                        base: code(0),
                        bytes: 3 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(1),
                        bytes: 6 * KB,
                        every: 14,
                    },
                    CodeTier {
                        base: code(2),
                        bytes: 10 * KB,
                        every: 72,
                    },
                    CodeTier {
                        base: code(3),
                        bytes: 12 * KB,
                        every: 210,
                    },
                    CodeTier {
                        base: code(7),
                        bytes: 8 * KB,
                        every: 330,
                    },
                    CodeTier {
                        base: code(8),
                        bytes: 8 * KB,
                        every: 290,
                    },
                ],
                streams: vec![
                    (
                        StreamSpec::HotCold {
                            base: data(2),
                            hot_bytes: KB,
                            cold_bytes: 3 * KB,
                            p_hot: 0.8,
                        },
                        2.5,
                    ),
                    (
                        StreamSpec::Seq {
                            base: data(0),
                            bytes: 1024 * KB,
                            stride: 8,
                            store_frac: 0.1,
                        },
                        0.6,
                    ),
                    (
                        StreamSpec::Strided {
                            base: data(1),
                            bytes: 512 * KB,
                            stride: 272,
                        },
                        0.08,
                    ),
                ],
                data_density: 0.42,
                branchiness: 0.08,
                segment_shuffle: 12,
            },
            // Per-frame state setup: quiet.
            Phase {
                duration: 330_000,
                code: vec![
                    CodeTier {
                        base: code(4),
                        bytes: 2 * KB + 512,
                        every: 1,
                    },
                    CodeTier {
                        base: code(5),
                        bytes: 5 * KB,
                        every: 12,
                    },
                    CodeTier {
                        base: code(6),
                        bytes: 5 * KB,
                        every: 85,
                    },
                ],
                streams: vec![(
                    StreamSpec::HotCold {
                        base: data(3),
                        hot_bytes: KB,
                        cold_bytes: 3 * KB,
                        p_hot: 0.8,
                    },
                    1.0,
                )],
                data_density: 0.11,
                branchiness: 0.05,
                segment_shuffle: 12,
            },
        ],
    };
    Benchmark::new(spec, scale)
}

/// `vortex` analog: an object-oriented database. Clustered record
/// traversals (partially next-line friendly inside a record, random
/// between records) over a large heap, plus a quiet commit phase.
pub fn vortex(scale: Scale) -> Benchmark {
    let spec = Spec {
        name: "vortex",
        seed: 0x1109,
        phases: vec![
            Phase {
                duration: 220_000,
                code: vec![
                    CodeTier {
                        base: code(0),
                        bytes: 4 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(1),
                        bytes: 9 * KB,
                        every: 9,
                    },
                    CodeTier {
                        base: code(2),
                        bytes: 11 * KB,
                        every: 56,
                    },
                    CodeTier {
                        base: code(3),
                        bytes: 12 * KB,
                        every: 220,
                    },
                    CodeTier {
                        base: code(7),
                        bytes: 8 * KB,
                        every: 320,
                    },
                ],
                streams: vec![
                    (
                        StreamSpec::HotCold {
                            base: data(1),
                            hot_bytes: KB,
                            cold_bytes: 3 * KB,
                            p_hot: 0.6,
                        },
                        2.2,
                    ),
                    (
                        StreamSpec::Chase {
                            base: data(0),
                            nodes: 4096,
                            node_bytes: 256,
                            reads_per_node: 24,
                        },
                        0.7,
                    ),
                    (
                        StreamSpec::Seq {
                            base: data(2),
                            bytes: 128 * KB,
                            stride: 8,
                            store_frac: 0.7,
                        },
                        0.15,
                    ),
                ],
                data_density: 0.33,
                branchiness: 0.12,
                segment_shuffle: 12,
            },
            // Transaction commit: quiet.
            Phase {
                duration: 310_000,
                code: vec![
                    CodeTier {
                        base: code(4),
                        bytes: 4 * KB,
                        every: 1,
                    },
                    CodeTier {
                        base: code(5),
                        bytes: 8 * KB,
                        every: 11,
                    },
                    CodeTier {
                        base: code(6),
                        bytes: 6 * KB,
                        every: 78,
                    },
                ],
                streams: vec![(
                    StreamSpec::HotCold {
                        base: data(3),
                        hot_bytes: KB,
                        cold_bytes: 3 * KB,
                        p_hot: 0.7,
                    },
                    1.0,
                )],
                data_density: 0.13,
                branchiness: 0.09,
                segment_shuffle: 12,
            },
        ],
    };
    Benchmark::new(spec, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_trace::VecTrace;

    #[test]
    fn suite_has_six_named_benchmarks() {
        let names: Vec<&str> = suite(Scale::Test).iter().map(|b| b.name()).collect();
        assert_eq!(names, SUITE_NAMES);
    }

    #[test]
    fn by_name_round_trips_the_suite() {
        for name in SUITE_NAMES {
            let bench = by_name(name, Scale::Test).expect(name);
            assert_eq!(bench.name(), name);
        }
        assert!(by_name("perlbmk", Scale::Test).is_none());
    }

    #[test]
    fn benchmarks_cross_threads() {
        // The parallel profiling pipeline moves benchmarks into worker
        // threads; this fails to compile if Benchmark loses Send.
        fn assert_send<T: Send>() {}
        assert_send::<Benchmark>();
        assert_send::<Scale>();
    }

    #[test]
    fn all_specs_validate() {
        for bench in suite(Scale::Test) {
            bench
                .spec()
                .validate()
                .unwrap_or_else(|_| panic!("{}", bench.name()));
        }
    }

    #[test]
    fn scales_order() {
        assert!(Scale::Test.cycles() < Scale::Small.cycles());
        assert!(Scale::Small.cycles() < Scale::Paper.cycles());
        assert_eq!(Scale::Custom(7).cycles(), 7);
        assert_eq!(Scale::default().cycles(), Scale::Paper.cycles());
    }

    #[test]
    fn benchmarks_are_deterministic() {
        for make in [ammp, gcc] {
            let mut a = VecTrace::new();
            let mut b = VecTrace::new();
            make(Scale::Test).run(&mut a);
            make(Scale::Test).run(&mut b);
            assert_eq!(a.events(), b.events());
        }
    }

    #[test]
    fn scale_arguments_parse() {
        assert_eq!(Scale::parse_arg("test"), Some(Scale::Test));
        assert_eq!(Scale::parse_arg("small"), Some(Scale::Small));
        assert_eq!(Scale::parse_arg("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse_arg("123456"), Some(Scale::Custom(123_456)));
        assert_eq!(Scale::parse_arg("huge"), None);
        assert_eq!(Scale::parse_arg(""), None);
    }

    #[test]
    fn benchmarks_differ_from_each_other() {
        let mut a = VecTrace::new();
        let mut b = VecTrace::new();
        gzip(Scale::Test).run(&mut a);
        mesa(Scale::Test).run(&mut b);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn traces_reach_their_cycle_budget() {
        for mut bench in suite(Scale::Test) {
            let name = bench.name();
            let mut trace = VecTrace::new();
            bench.run(&mut trace);
            // An empty trace means the generator emitted nothing at
            // all — report that explicitly instead of unwrapping.
            let Some(last) = trace.stats().last_cycle else {
                panic!("{name}: benchmark produced an empty trace");
            };
            let last = last.raw();
            let budget = Scale::Test.cycles();
            assert!(
                last >= budget - 10 && last < budget + 2_000,
                "{name}: last cycle {last} vs budget {budget}"
            );
        }
    }

    #[test]
    fn data_density_is_roughly_as_specified() {
        let mut trace = VecTrace::new();
        applu(Scale::Test).run(&mut trace);
        let stats = trace.stats();
        let density = stats.data_accesses() as f64 / stats.fetches as f64;
        // applu mixes 0.45 and 0.15 phases; the average must sit between.
        assert!(density > 0.15 && density < 0.45, "density {density}");
    }
}
