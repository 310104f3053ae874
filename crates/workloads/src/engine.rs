//! The access-emission engine.

use leakage_trace::{Address, Cycle, MemoryAccess, Pc, TraceSink};

/// Emits timed accesses into a [`TraceSink`] on behalf of a synthetic
/// program.
///
/// The timing model is a 4-wide in-order front end: each call to
/// [`fetch_block`](Engine::fetch_block) issues one 16-byte fetch block
/// (one instruction-cache access) and advances the clock by one cycle.
/// Data operations issue at the current cycle without advancing it
/// (they overlap the fetch, as in a superscalar pipeline). The engine is
/// open-loop — cache misses do not stall it; the limit study's oracle
/// assumes perfectly hidden latencies, and the interval statistics are
/// calibrated at the trace level (see `DESIGN.md`).
pub struct Engine<'a> {
    sink: &'a mut dyn TraceSink,
    cycle: u64,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl<'a> Engine<'a> {
    /// Wraps a sink; the clock starts at cycle 0.
    pub fn new(sink: &'a mut dyn TraceSink) -> Self {
        Engine { sink, cycle: 0 }
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Issues one instruction fetch block at `pc` and advances one
    /// cycle.
    pub fn fetch_block(&mut self, pc: u64) {
        self.sink
            .accept(MemoryAccess::fetch(Cycle::new(self.cycle), Pc::new(pc)));
        self.cycle += 1;
    }

    /// Issues a data access at the current cycle (overlapped with the
    /// fetch issued this cycle).
    pub fn data(&mut self, pc: u64, addr: u64, store: bool) {
        let access = if store {
            MemoryAccess::store(Cycle::new(self.cycle), Pc::new(pc), Address::new(addr))
        } else {
            MemoryAccess::load(Cycle::new(self.cycle), Pc::new(pc), Address::new(addr))
        };
        self.sink.accept(access);
    }

    /// Advances the clock without issuing accesses (pipeline bubbles).
    pub fn idle(&mut self, cycles: u64) {
        self.cycle += cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_trace::{AccessKind, VecTrace};

    #[test]
    fn fetch_advances_clock() {
        let mut trace = VecTrace::new();
        let mut engine = Engine::new(&mut trace);
        engine.fetch_block(0x1000);
        engine.fetch_block(0x1010);
        assert_eq!(engine.cycle(), 2);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[1].cycle, Cycle::new(1));
    }

    #[test]
    fn data_overlaps_current_cycle() {
        let mut trace = VecTrace::new();
        let mut engine = Engine::new(&mut trace);
        engine.fetch_block(0x1000);
        engine.data(0x1004, 0x8000, false);
        engine.data(0x1008, 0x8008, true);
        let events = trace.events();
        assert_eq!(events[1].cycle, Cycle::new(1));
        assert_eq!(events[1].kind, AccessKind::Load);
        assert_eq!(events[2].kind, AccessKind::Store);
    }

    #[test]
    fn idle_skips_cycles() {
        let mut trace = VecTrace::new();
        let mut engine = Engine::new(&mut trace);
        engine.fetch_block(0);
        engine.idle(100);
        engine.fetch_block(16);
        assert_eq!(trace.events()[1].cycle, Cycle::new(101));
    }
}
