//! Aggregate statistics over a trace.

use crate::{AccessKind, Cycle, MemoryAccess};
use leakage_faults::TraceError;
use serde::{Deserialize, Serialize};

/// Running statistics for a stream of [`MemoryAccess`] events.
///
/// `TraceStats` is cheap to update per event and summarizes the
/// properties the experiment harness reports: event counts per kind and
/// the cycle span of the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Number of instruction fetches observed.
    pub fetches: u64,
    /// Number of loads observed.
    pub loads: u64,
    /// Number of stores observed.
    pub stores: u64,
    /// Timestamp of the first event, if any was observed.
    pub first_cycle: Option<Cycle>,
    /// Timestamp of the last event, if any was observed.
    pub last_cycle: Option<Cycle>,
}

impl TraceStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        TraceStats::default()
    }

    /// Folds one event into the statistics.
    pub fn observe(&mut self, access: &MemoryAccess) {
        match access.kind {
            AccessKind::InstFetch => self.fetches += 1,
            AccessKind::Load => self.loads += 1,
            AccessKind::Store => self.stores += 1,
        }
        if self.first_cycle.is_none() {
            self.first_cycle = Some(access.cycle);
        }
        self.last_cycle = Some(access.cycle);
    }

    /// Total number of events of any kind.
    pub fn total(&self) -> u64 {
        self.fetches + self.loads + self.stores
    }

    /// Number of data (load + store) events.
    pub fn data_accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// The exclusive end-of-trace timestamp for interval extraction:
    /// one cycle past the last observed event.
    ///
    /// The panicking shape of this query (`stats.last_cycle.unwrap()`)
    /// used to be repeated at every call site that needed a trace end;
    /// this accessor is the fallible replacement, so sources fed an
    /// empty trace report [`TraceError::Empty`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`TraceError::Empty`] when no event has been observed.
    pub fn end_cycle(&self) -> Result<Cycle, TraceError> {
        match self.last_cycle {
            Some(last) => Ok(last.advanced(1)),
            None => Err(TraceError::Empty),
        }
    }

    /// Number of cycles spanned from the first to the last event,
    /// inclusive of the final cycle. Zero for an empty trace.
    pub fn span_cycles(&self) -> u64 {
        match (self.first_cycle, self.last_cycle) {
            (Some(first), Some(last)) => last.since(first) + 1,
            _ => 0,
        }
    }

    /// Merges another statistics block into this one, as if the two event
    /// streams had been observed by a single collector.
    pub fn merge(&mut self, other: &TraceStats) {
        self.fetches += other.fetches;
        self.loads += other.loads;
        self.stores += other.stores;
        self.first_cycle = match (self.first_cycle, other.first_cycle) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_cycle = match (self.last_cycle, other.last_cycle) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events ({} ifetch, {} load, {} store) over {} cycles",
            self.total(),
            self.fetches,
            self.loads,
            self.stores,
            self.span_cycles()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, Pc};

    #[test]
    fn empty_stats() {
        let stats = TraceStats::new();
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.span_cycles(), 0);
        assert_eq!(stats.first_cycle, None);
        assert!(matches!(stats.end_cycle(), Err(TraceError::Empty)));
    }

    #[test]
    fn end_cycle_is_one_past_the_last_event() {
        let mut stats = TraceStats::new();
        stats.observe(&MemoryAccess::fetch(Cycle::new(41), Pc::new(0)));
        assert_eq!(stats.end_cycle().expect("non-empty"), Cycle::new(42));
    }

    #[test]
    fn observe_counts_and_span() {
        let mut stats = TraceStats::new();
        stats.observe(&MemoryAccess::fetch(Cycle::new(10), Pc::new(0)));
        stats.observe(&MemoryAccess::load(
            Cycle::new(12),
            Pc::new(4),
            Address::new(8),
        ));
        stats.observe(&MemoryAccess::store(
            Cycle::new(19),
            Pc::new(8),
            Address::new(8),
        ));
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.data_accesses(), 2);
        assert_eq!(stats.span_cycles(), 10);
        assert_eq!(stats.first_cycle, Some(Cycle::new(10)));
        assert_eq!(stats.last_cycle, Some(Cycle::new(19)));
    }

    #[test]
    fn merge_combines_disjoint_streams() {
        let mut a = TraceStats::new();
        a.observe(&MemoryAccess::fetch(Cycle::new(5), Pc::new(0)));
        let mut b = TraceStats::new();
        b.observe(&MemoryAccess::load(
            Cycle::new(2),
            Pc::new(0),
            Address::new(0),
        ));
        b.observe(&MemoryAccess::store(
            Cycle::new(9),
            Pc::new(0),
            Address::new(0),
        ));

        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.first_cycle, Some(Cycle::new(2)));
        assert_eq!(a.last_cycle, Some(Cycle::new(9)));
        assert_eq!(a.span_cycles(), 8);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = TraceStats::new();
        a.observe(&MemoryAccess::fetch(Cycle::new(1), Pc::new(0)));
        let before = a;
        a.merge(&TraceStats::new());
        assert_eq!(a, before);

        let mut empty = TraceStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn display_mentions_counts() {
        let mut stats = TraceStats::new();
        stats.observe(&MemoryAccess::fetch(Cycle::new(0), Pc::new(0)));
        assert!(stats.to_string().contains("1 ifetch"));
    }
}
