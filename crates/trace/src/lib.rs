//! Timed memory-access traces for the cache leakage limit study.
//!
//! This crate defines the event vocabulary shared by every other crate in
//! the workspace: byte [`Address`]es, cache-line addresses ([`LineAddr`]),
//! [`Cycle`] timestamps, and the [`MemoryAccess`] events a workload
//! generator emits and a cache hierarchy consumes.
//!
//! The leakage limit study of Meng, Sherwood and Kastner (HPCA 2005) only
//! needs *when* (in cycles) and *where* (which cache line) each access
//! lands, so the trace model is deliberately minimal: there is no
//! micro-architectural payload beyond the program counter, which the
//! stride prefetcher needs to correlate accesses issued by the same
//! static load.
//!
//! # Examples
//!
//! ```
//! use leakage_trace::{Address, AccessKind, Cycle, MemoryAccess, Pc};
//!
//! let access = MemoryAccess::new(
//!     Cycle::new(42),
//!     Pc::new(0x1200),
//!     Address::new(0x8000_0040),
//!     AccessKind::Load,
//! );
//! assert_eq!(access.addr.line(6).index(), 0x8000_0040 >> 6);
//! assert!(access.kind.is_data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod event;
mod footprint;
pub mod io;
mod source;
mod stats;

pub use addr::{Address, LineAddr, Pc};
pub use event::{AccessKind, MemoryAccess};
pub use footprint::FootprintTracker;
pub use io::TraceError;
pub use source::{TraceSink, TraceSource, VecTrace};
pub use stats::TraceStats;

use serde::{Deserialize, Serialize};

/// A point in simulated time, measured in processor clock cycles.
///
/// Cycles start at zero when the simulated program begins. All durations
/// in the leakage model (interval lengths, transition times, inflection
/// points) are expressed in these units.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(u64);

impl Cycle {
    /// The first cycle of a simulation.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle timestamp from a raw cycle count.
    pub const fn new(raw: u64) -> Self {
        Cycle(raw)
    }

    /// Returns the raw cycle count.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the number of cycles from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` is later than `self`.
    pub fn since(self, earlier: Cycle) -> u64 {
        debug_assert!(earlier.0 <= self.0, "cycle arithmetic went backwards");
        self.0 - earlier.0
    }

    /// Returns the number of cycles from `earlier` to `self`, or zero
    /// when `earlier` is later than `self`.
    ///
    /// The clamping variant of [`since`](Cycle::since) for boundary
    /// arithmetic where a ragged trace end is legitimate — e.g. an
    /// interval extractor flushing at an `end` timestamp that equals
    /// (or, with a truncated trace, precedes) the final access.
    pub const fn saturating_since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns this timestamp advanced by `delta` cycles.
    #[must_use]
    pub const fn advanced(self, delta: u64) -> Cycle {
        Cycle(self.0 + delta)
    }
}

impl std::fmt::Display for Cycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(raw: u64) -> Self {
        Cycle(raw)
    }
}

impl From<Cycle> for u64 {
    fn from(cycle: Cycle) -> Self {
        cycle.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_roundtrip() {
        let c = Cycle::new(123);
        assert_eq!(u64::from(c), 123);
        assert_eq!(Cycle::from(123u64), c);
        assert_eq!(c.to_string(), "123");
    }

    #[test]
    fn cycle_since_and_advanced() {
        let start = Cycle::new(10);
        let end = start.advanced(32);
        assert_eq!(end.since(start), 32);
        assert_eq!(end.since(end), 0);
    }

    #[test]
    fn cycle_saturating_since_clamps_to_zero() {
        assert_eq!(Cycle::new(5).saturating_since(Cycle::new(9)), 0);
        assert_eq!(Cycle::new(9).saturating_since(Cycle::new(5)), 4);
        assert_eq!(Cycle::ZERO.saturating_since(Cycle::ZERO), 0);
    }

    #[test]
    fn cycle_ordering() {
        assert!(Cycle::ZERO < Cycle::new(1));
        assert_eq!(Cycle::default(), Cycle::ZERO);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    #[cfg(debug_assertions)]
    fn cycle_since_panics_when_backwards() {
        let _ = Cycle::new(1).since(Cycle::new(2));
    }
}
