//! Set-associative cache hierarchy simulator.
//!
//! This crate provides the memory-system substrate of the leakage limit
//! study: a parameterized set-associative [`Cache`] with true-LRU
//! replacement and a two-level [`Hierarchy`] matching the paper's
//! Alpha-21264-like configuration (64 KB 2-way L1 instruction cache with
//! 1-cycle hits, 64 KB 2-way L1 data cache with 3-cycle hits, and a
//! unified 2 MB direct-mapped L2 with 7-cycle hits).
//!
//! The simulator is functional, not cycle-accurate: it reports hit/miss
//! outcomes, fill/eviction events and access latencies. That is exactly
//! the information the interval analysis needs — the limit study assumes
//! perfect just-in-time refetch, so the *timing* of the trace comes from
//! the workload generator's clock, and the caches only decide *which
//! frame* each access lands in.
//!
//! # Examples
//!
//! ```
//! use leakage_cachesim::{CacheConfig, Hierarchy, HierarchyConfig};
//! use leakage_trace::{Cycle, MemoryAccess, Pc};
//!
//! let mut hierarchy = Hierarchy::new(HierarchyConfig::alpha_like());
//! let outcome = hierarchy.access(&MemoryAccess::fetch(Cycle::ZERO, Pc::new(0x1000)));
//! assert!(!outcome.l1.hit); // cold cache: compulsory miss
//! let outcome = hierarchy.access(&MemoryAccess::fetch(Cycle::new(1), Pc::new(0x1004)));
//! assert!(outcome.l1.hit); // same 64-byte line
//! # let _ = CacheConfig::alpha_l1i();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod hierarchy;
mod stats;

pub use cache::{AccessResult, Cache, FrameId};
pub use config::{CacheConfig, CacheConfigError};
pub use hierarchy::{Hierarchy, HierarchyConfig, HierarchyOutcome, L1Event, Level1, LevelOutcome};
pub use stats::CacheStats;
