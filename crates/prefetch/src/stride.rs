//! Per-PC stride prefetching (Farkas et al., ISCA-24).

use leakage_trace::{Address, Pc};

/// One entry of the stride reference-prediction table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideEntry {
    /// The static load/store this entry tracks.
    pub pc: Pc,
    /// Address of the instruction's previous access.
    pub last_addr: Address,
    /// Last observed stride in bytes.
    pub stride: i64,
    /// How many times in a row the stride repeated (saturating).
    pub confirmations: u8,
}

/// A reference-prediction table: per static instruction, track the
/// stride between consecutive accesses; once the same nonzero stride has
/// been seen at least twice (the paper's two-strike rule, after Farkas
/// et al.), predict `addr + stride` on every further access.
///
/// The table is direct-mapped and tagged like the hardware it models:
/// distinct PCs hashing to the same entry evict one another.
///
/// # Examples
///
/// ```
/// use leakage_prefetch::StridePrefetcher;
/// use leakage_trace::{Address, Pc};
///
/// let mut p = StridePrefetcher::new(64);
/// let pc = Pc::new(0x400);
/// assert_eq!(p.observe(pc, Address::new(0)), None);   // first touch
/// assert_eq!(p.observe(pc, Address::new(256)), None); // stride seen once
/// // Seen twice: confirmed, predictions begin.
/// assert_eq!(p.observe(pc, Address::new(512)), Some(Address::new(768)));
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    entries: Vec<Option<StrideEntry>>,
    mask: usize,
    triggers: u64,
}

impl StridePrefetcher {
    /// Creates a table with `entries` slots (rounded up to a power of
    /// two). A 1K-entry table is typical hardware scale.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "table needs at least one entry");
        let size = entries.next_power_of_two();
        StridePrefetcher {
            entries: vec![None; size],
            mask: size - 1,
            triggers: 0,
        }
    }

    fn slot_of(&self, pc: Pc) -> usize {
        // Instructions are word-aligned; drop the low bits before
        // indexing so neighbours spread across the table.
        ((pc.raw() >> 2) as usize) & self.mask
    }

    /// Observes one access by instruction `pc` to byte address `addr`;
    /// returns the predicted next address once the stride is confirmed.
    pub fn observe(&mut self, pc: Pc, addr: Address) -> Option<Address> {
        let slot = self.slot_of(pc);
        let entry = &mut self.entries[slot];
        match entry {
            Some(e) if e.pc == pc => {
                let stride = addr.raw().wrapping_sub(e.last_addr.raw()) as i64;
                if stride != 0 && stride == e.stride {
                    e.confirmations = e.confirmations.saturating_add(1);
                } else {
                    e.stride = stride;
                    e.confirmations = if stride == 0 { 0 } else { 1 };
                }
                e.last_addr = addr;
                if e.confirmations >= 2 {
                    self.triggers += 1;
                    Some(addr.offset(e.stride))
                } else {
                    None
                }
            }
            _ => {
                *entry = Some(StrideEntry {
                    pc,
                    last_addr: addr,
                    stride: 0,
                    confirmations: 0,
                });
                None
            }
        }
    }

    /// Number of confirmed-stride predictions issued.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Looks up the entry currently tracking `pc`, if any.
    pub fn entry(&self, pc: Pc) -> Option<&StrideEntry> {
        self.entries[self.slot_of(pc)]
            .as_ref()
            .filter(|e| e.pc == pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(raw: u64) -> Pc {
        Pc::new(raw)
    }

    fn a(raw: u64) -> Address {
        Address::new(raw)
    }

    #[test]
    fn two_strike_confirmation() {
        let mut p = StridePrefetcher::new(16);
        assert_eq!(p.observe(pc(4), a(1000)), None);
        assert_eq!(p.observe(pc(4), a(1100)), None); // stride 100, once
        assert_eq!(p.observe(pc(4), a(1200)), Some(a(1300))); // twice
        assert_eq!(p.observe(pc(4), a(1300)), Some(a(1400)));
        assert_eq!(p.triggers(), 2);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(16);
        for (addr, _) in (0..4).map(|i| (a(i * 8), i)) {
            p.observe(pc(4), addr);
        }
        assert_eq!(p.observe(pc(4), a(32)), Some(a(40))); // confirmed stride 8
                                                          // Break the pattern.
        assert_eq!(p.observe(pc(4), a(1000)), None);
        assert_eq!(p.observe(pc(4), a(1008)), None); // new stride once
        assert_eq!(p.observe(pc(4), a(1016)), Some(a(1024))); // twice
        assert_eq!(p.observe(pc(4), a(1024)), Some(a(1032)));
    }

    #[test]
    fn zero_stride_never_predicts() {
        let mut p = StridePrefetcher::new(16);
        for _ in 0..10 {
            assert_eq!(p.observe(pc(8), a(500)), None);
        }
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::new(16);
        p.observe(pc(4), a(1000));
        p.observe(pc(4), a(900));
        p.observe(pc(4), a(800));
        assert_eq!(p.observe(pc(4), a(700)), Some(a(600)));
    }

    #[test]
    fn conflicting_pcs_evict() {
        let mut p = StridePrefetcher::new(1); // everything collides
        p.observe(pc(4), a(0));
        p.observe(pc(4), a(8));
        p.observe(pc(4), a(16)); // confirmed
        p.observe(pc(400), a(5000)); // evicts
        assert!(p.entry(pc(4)).is_none());
        assert_eq!(p.observe(pc(4), a(24)), None); // must retrain
    }

    #[test]
    fn independent_streams_per_pc() {
        let mut p = StridePrefetcher::new(64);
        for i in 0..3u64 {
            p.observe(pc(4), a(i * 64));
            p.observe(pc(8), a(10_000 + i * 128));
        }
        assert_eq!(p.observe(pc(4), a(192)), Some(a(256)));
        assert_eq!(p.observe(pc(8), a(10_384)), Some(a(10_512)));
        assert_eq!(p.entry(pc(4)).unwrap().stride, 64);
        assert_eq!(p.entry(pc(8)).unwrap().stride, 128);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn rejects_empty_table() {
        let _ = StridePrefetcher::new(0);
    }
}
