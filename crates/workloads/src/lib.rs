//! Deterministic SPEC2000-analog synthetic workloads.
//!
//! The paper drives its limit study with six SPEC2000 benchmarks
//! (`ammp`, `applu`, `gcc`, `gzip`, `mesa`, `vortex`) executed on a
//! SimpleScalar/Alpha model over SimPoint regions. Neither the Alpha
//! binaries nor the SPEC inputs are available offline, so this crate
//! synthesizes *workload analogs*: deterministic generators that emit a
//! timed instruction-fetch + data-access stream whose cache-level
//! behaviour — per-frame interval-length distributions, phase structure,
//! code footprints, and next-line/stride prefetchability — lands in the
//! regimes the paper reports (see `DESIGN.md` for the substitution
//! argument and `EXPERIMENTS.md` for measured-vs-paper numbers).
//!
//! Each analog is built from the same vocabulary real programs are:
//!
//! * **code tiers** — a hot loop nest fetched continuously, warmer/
//!   colder helper regions entered every N supersteps (producing short,
//!   medium and long instruction-cache reuse intervals),
//! * **data streams** — sequential sweeps (next-line friendly), strided
//!   plane walks (stride-prefetchable), pointer chases and hot/cold
//!   record mixes (unprefetchable), and
//! * **phases** — SimPoint-style alternation of large-scale program
//!   behaviours, which creates the very long idle intervals that let
//!   gated-Vdd shine at coarse technology nodes.
//!
//! # Examples
//!
//! ```
//! use leakage_trace::{TraceSink, TraceSource, TraceStats};
//! use leakage_workloads::{suite, Scale};
//!
//! struct Counter(TraceStats);
//! impl TraceSink for Counter {
//!     fn accept(&mut self, a: leakage_trace::MemoryAccess) {
//!         self.0.observe(&a);
//!     }
//! }
//!
//! let mut gzip = suite(Scale::Test).remove(3); // ammp, applu, gcc, gzip, ...
//! assert_eq!(gzip.name(), "gzip");
//! let mut counter = Counter(TraceStats::new());
//! gzip.run(&mut counter);
//! assert!(counter.0.fetches > 0);
//! assert!(counter.0.data_accesses() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod engine;
mod isa;
mod rng;
mod spec;
mod streams;

pub use bench::{
    ammp, applu, by_name, gcc, gzip, isa_suite, mesa, suite, vortex, Benchmark, Scale,
    GENERATOR_VERSION, SUITE_NAMES,
};
pub use engine::Engine;
pub use isa::{generator_version, is_known_benchmark, ISA_GENERATOR_VERSION, ISA_SUITE_NAMES};
pub use rng::SplitMix64;
pub use spec::{CodeTier, Phase, Spec};
pub use streams::{DataOp, DataStream, StreamSpec};
