//! Working-set footprint measurement.

use crate::{MemoryAccess, TraceSink};
use std::collections::HashSet;

/// A [`TraceSink`] that measures a trace's code and data footprints at
/// cache-line granularity — the workload-calibration diagnostic behind
/// the interval statistics (a 64 KB cache holds 1024 such lines; how
/// many does the program actually touch?).
///
/// # Examples
///
/// ```
/// use leakage_trace::{Cycle, FootprintTracker, MemoryAccess, Pc, TraceSink};
///
/// let mut fp = FootprintTracker::new(6); // 64-byte lines
/// fp.accept(MemoryAccess::fetch(Cycle::new(0), Pc::new(0x1000)));
/// fp.accept(MemoryAccess::fetch(Cycle::new(1), Pc::new(0x1010))); // same line
/// assert_eq!(fp.code_lines(), 1);
/// assert_eq!(fp.code_bytes(), 64);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FootprintTracker {
    line_bits: u32,
    code: HashSet<u64>,
    data: HashSet<u64>,
}

impl FootprintTracker {
    /// Creates a tracker for `2^line_bits`-byte lines.
    pub fn new(line_bits: u32) -> Self {
        FootprintTracker {
            line_bits,
            code: HashSet::new(),
            data: HashSet::new(),
        }
    }

    /// Distinct instruction lines touched.
    pub fn code_lines(&self) -> u64 {
        self.code.len() as u64
    }

    /// Distinct data lines touched.
    pub fn data_lines(&self) -> u64 {
        self.data.len() as u64
    }

    /// Instruction footprint in bytes.
    pub fn code_bytes(&self) -> u64 {
        self.code_lines() << self.line_bits
    }

    /// Data footprint in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data_lines() << self.line_bits
    }
}

impl TraceSink for FootprintTracker {
    fn accept(&mut self, access: MemoryAccess) {
        let line = access.addr.line(self.line_bits).index();
        if access.kind.is_fetch() {
            self.code.insert(line);
        } else {
            self.data.insert(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, Cycle, Pc};

    #[test]
    fn splits_code_and_data() {
        let mut fp = FootprintTracker::new(6);
        fp.accept(MemoryAccess::fetch(Cycle::new(0), Pc::new(0)));
        fp.accept(MemoryAccess::load(
            Cycle::new(1),
            Pc::new(4),
            Address::new(0),
        ));
        fp.accept(MemoryAccess::store(
            Cycle::new(2),
            Pc::new(8),
            Address::new(64),
        ));
        assert_eq!(fp.code_lines(), 1);
        assert_eq!(fp.data_lines(), 2);
        assert_eq!(fp.data_bytes(), 128);
    }

    #[test]
    fn line_granularity_respected() {
        let mut fp = FootprintTracker::new(5); // 32-byte lines
        fp.accept(MemoryAccess::load(
            Cycle::new(0),
            Pc::new(0),
            Address::new(0),
        ));
        fp.accept(MemoryAccess::load(
            Cycle::new(1),
            Pc::new(0),
            Address::new(40),
        ));
        assert_eq!(fp.data_lines(), 2, "40 crosses a 32-byte boundary");
        assert_eq!(fp.data_bytes(), 64);
    }

    #[test]
    fn empty_tracker() {
        let fp = FootprintTracker::new(6);
        assert_eq!(fp.code_lines(), 0);
        assert_eq!(fp.data_bytes(), 0);
    }
}
