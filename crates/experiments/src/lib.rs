//! The experiment harness: every table and figure of the paper.
//!
//! This crate glues the substrates together into the paper's evaluation
//! pipeline —
//!
//! ```text
//! workload ──► cache hierarchy ──► interval extraction ──► policies
//!                    │                    ▲
//!                    └── prefetchers ── wake triggers
//! ```
//!
//! — and provides one module per artifact of the paper's evaluation
//! section:
//!
//! | module     | artifact |
//! |------------|----------|
//! | [`table1`] | Table 1 — inflection points per technology node |
//! | [`table2`] | Table 2 — optimal savings with technology scaling |
//! | [`table3`] | Table 3 — the Prefetch-A / Prefetch-B scheme definitions |
//! | [`fig1`]   | Fig. 1 — ITRS leakage projection |
//! | [`fig3`]   | Fig. 3 quantified — stall energy without perfect prefetching |
//! | [`fig7`]   | Fig. 7 — hybrid vs sleep, minimum-sleep-interval sweep |
//! | [`fig8`]   | Fig. 8 — per-benchmark comparison of all schemes |
//! | [`fig9`]   | Fig. 9 — prefetchability of intervals by length band |
//! | [`fig10`]  | Fig. 10 — per-mode interval energies and their envelope |
//! | [`ablations`] | beyond-the-paper sensitivity studies |
//! | [`isa_suite`] | executed `isa:*` programs through the same pipeline |
//! | [`implementable`] | extension: implementable schemes, energy *and* stalls |
//! | [`online`] | extension: timeline-simulated controllers (decay, adaptive, …) |
//! | [`diagnostics`] | interval distributions, oracle mode census, footprints |
//!
//! The `repro` binary prints any subset:
//! `repro --scale small fig8 table2`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod diagnostics;
mod eval;
pub mod figures;

pub mod ablations;
pub mod checks;
pub mod codec;
pub mod fig1;
pub mod fig10;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod implementable;
pub mod isa_suite;
pub mod online;
mod pipeline;
pub mod query;
mod render;
pub mod store;
pub mod table1;
pub mod table2;
pub mod table3;

pub use pipeline::{
    cached_profile, cached_suite, cached_suite_partial, fetch_partial, profile_benchmark,
    profile_benchmark_with, profile_l2, profile_line_centric, profile_suite, profile_suite_serial,
    profile_suite_uncached, suite_partial_with, BenchmarkFailure, BenchmarkProfile, CacheProfile,
    SuiteOutcome,
};
pub use render::Table;
pub use store::{ProfileStore, StoreCounters};

use leakage_energy::TechnologyNode;

/// The technology node the paper uses for its empirical sections
/// (§4.2: "we employed it and its corresponding sleep-drowsy inflection
/// point in the rest of our study").
pub const HEADLINE_NODE: TechnologyNode = TechnologyNode::N70;
