//! The interval record.

use leakage_cachesim::FrameId;
use leakage_trace::Cycle;
use serde::{Deserialize, Serialize};

/// Where in a frame's timeline an interval sits, and whether its data
/// was still wanted at the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntervalKind {
    /// A rest period between two consecutive accesses to the frame.
    Interior {
        /// `true` when the closing access was a hit on the resident line
        /// — sleeping the frame through this interval would have induced
        /// a miss (paper Eq. 1's `C_D` term applies). `false` when the
        /// closing access refilled the frame with a different line: the
        /// interval was *dead* (the generation had ended) and sleep
        /// destroys nothing of value.
        reaccess: bool,
    },
    /// From cycle 0 to the frame's first access. The frame holds no
    /// useful data, so any mode is free of refetch cost.
    Leading,
    /// From the frame's last access to the end of the trace.
    Trailing,
    /// The whole trace, for a frame that was never accessed.
    Untouched,
}

impl IntervalKind {
    /// Whether an oracle sleeping through this interval must pay the
    /// induced-miss refetch energy under the *refined* (dead-aware)
    /// accounting. Under the paper's strict model every interior
    /// interval pays (see `leakage-core`'s accounting options).
    pub const fn sleep_needs_refetch(self) -> bool {
        matches!(self, IntervalKind::Interior { reaccess: true })
    }

    /// Whether the interval ends with an access (and therefore needs the
    /// frame powered and the exit transition completed by its end).
    pub const fn ends_with_access(self) -> bool {
        matches!(self, IntervalKind::Interior { .. } | IntervalKind::Leading)
    }

    /// Whether the interval starts right after an access (so a power-down
    /// transition from the active state is required to leave it).
    pub const fn starts_after_access(self) -> bool {
        matches!(self, IntervalKind::Interior { .. } | IntervalKind::Trailing)
    }
}

/// Prefetchability marks for one interval (paper §5.1).
///
/// A hint is set when the corresponding prefetcher fired a trigger for
/// the frame's resident line while the interval was open — i.e. a real
/// implementation could have woken (or refetched) the line just in time,
/// approximating the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct WakeHints {
    /// The line before this one was accessed during the interval
    /// (next-line prefetchable, "P-NL").
    pub next_line: bool,
    /// A confirmed stride stream predicted this line during the interval
    /// (stride prefetchable, "P-stride").
    pub stride: bool,
}

impl WakeHints {
    /// No hints.
    pub const NONE: WakeHints = WakeHints {
        next_line: false,
        stride: false,
    };

    /// Whether any prefetcher covered the interval.
    pub const fn any(self) -> bool {
        self.next_line || self.stride
    }

    /// Merges hints from another source.
    #[must_use]
    pub const fn union(self, other: WakeHints) -> WakeHints {
        WakeHints {
            next_line: self.next_line || other.next_line,
            stride: self.stride || other.stride,
        }
    }
}

/// One closed interval of one cache frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// The frame whose timeline this interval belongs to.
    pub frame: FrameId,
    /// First cycle of the interval (the cycle of the opening access).
    pub start: Cycle,
    /// Length in cycles (closing timestamp minus opening timestamp).
    pub length: u64,
    /// Position/liveness classification.
    pub kind: IntervalKind,
    /// Prefetchability marks accumulated while the interval was open.
    pub wake: WakeHints,
    /// Whether the data resting through the interval was dirty
    /// (carried stores not yet written back). Gating a dirty line must
    /// first write it back; see the writeback-aware accounting in
    /// `leakage-core`.
    pub dirty: bool,
}

impl Interval {
    /// The cycle at which the interval closed.
    pub fn end(&self) -> Cycle {
        self.start.advanced(self.length)
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            IntervalKind::Interior { reaccess: true } => "interior/live",
            IntervalKind::Interior { reaccess: false } => "interior/dead",
            IntervalKind::Leading => "leading",
            IntervalKind::Trailing => "trailing",
            IntervalKind::Untouched => "untouched",
        };
        write!(
            f,
            "{} [{}, {}) {} ({} cycles)",
            self.frame,
            self.start,
            self.end(),
            kind,
            self.length
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(IntervalKind::Interior { reaccess: true }.sleep_needs_refetch());
        assert!(!IntervalKind::Interior { reaccess: false }.sleep_needs_refetch());
        assert!(!IntervalKind::Leading.sleep_needs_refetch());
        assert!(!IntervalKind::Untouched.sleep_needs_refetch());

        assert!(IntervalKind::Leading.ends_with_access());
        assert!(!IntervalKind::Trailing.ends_with_access());
        assert!(IntervalKind::Trailing.starts_after_access());
        assert!(!IntervalKind::Leading.starts_after_access());
        assert!(!IntervalKind::Untouched.starts_after_access());
    }

    #[test]
    fn wake_hint_algebra() {
        assert!(!WakeHints::NONE.any());
        let nl = WakeHints {
            next_line: true,
            stride: false,
        };
        let st = WakeHints {
            next_line: false,
            stride: true,
        };
        assert!(nl.any() && st.any());
        let both = nl.union(st);
        assert!(both.next_line && both.stride);
        assert_eq!(WakeHints::NONE.union(WakeHints::NONE), WakeHints::NONE);
    }

    #[test]
    fn end_is_start_plus_length() {
        let i = Interval {
            frame: FrameId::new(3),
            start: Cycle::new(100),
            length: 42,
            kind: IntervalKind::Leading,
            wake: WakeHints::NONE,
            dirty: false,
        };
        assert_eq!(i.end(), Cycle::new(142));
        assert!(i.to_string().contains("leading"));
    }
}
