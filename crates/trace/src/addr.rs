//! Byte addresses, cache-line addresses and program counters.

use serde::{Deserialize, Serialize};

/// A byte address in the simulated machine's physical address space.
///
/// Addresses are opaque 64-bit values; the only structure the study needs
/// is the mapping onto cache lines, provided by [`Address::line`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte address.
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the cache line this byte falls in, for a line size of
    /// `2^line_bits` bytes.
    ///
    /// ```
    /// use leakage_trace::Address;
    /// // 64-byte lines: bytes 0..=63 share line 0.
    /// assert_eq!(Address::new(63).line(6), Address::new(0).line(6));
    /// assert_ne!(Address::new(64).line(6), Address::new(0).line(6));
    /// ```
    pub const fn line(self, line_bits: u32) -> LineAddr {
        LineAddr(self.0 >> line_bits)
    }

    /// Returns this address offset by `delta` bytes (wrapping).
    #[must_use]
    pub const fn offset(self, delta: i64) -> Address {
        Address(self.0.wrapping_add_signed(delta))
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl From<Address> for u64 {
    fn from(addr: Address) -> Self {
        addr.0
    }
}

/// The index of a cache-line-sized block of memory.
///
/// A `LineAddr` is a byte address shifted right by the line-size bits; two
/// byte addresses map to the same `LineAddr` exactly when they fall into
/// the same cache line. Leakage intervals are always defined per line.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a raw line index.
    pub const fn new(index: u64) -> Self {
        LineAddr(index)
    }

    /// Returns the raw line index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the line `delta` lines after this one (wrapping).
    ///
    /// The next-line prefetcher uses `succ(1)`; stride analysis uses
    /// arbitrary deltas.
    #[must_use]
    pub const fn succ(self, delta: i64) -> LineAddr {
        LineAddr(self.0.wrapping_add_signed(delta))
    }

    /// Returns the first byte address of the line, given the line size.
    pub const fn first_byte(self, line_bits: u32) -> Address {
        Address(self.0 << line_bits)
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A program counter: the address of the static instruction that issued
/// an access.
///
/// The stride prefetcher keys its prediction table on the `Pc`, following
/// Farkas et al.'s per-static-load scheme.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Pc(u64);

impl Pc {
    /// Creates a program counter from a raw instruction address.
    pub const fn new(raw: u64) -> Self {
        Pc(raw)
    }

    /// Returns the raw instruction address.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the program counter as a fetch address.
    pub const fn as_address(self) -> Address {
        Address(self.0)
    }
}

impl std::fmt::Display for Pc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_mapping_respects_line_size() {
        let a = Address::new(0x1000);
        assert_eq!(a.line(6).index(), 0x1000 >> 6);
        assert_eq!(a.line(5).index(), 0x1000 >> 5);
        // All bytes of one 64-byte line agree.
        for off in 0..64 {
            assert_eq!(a.offset(off).line(6), a.line(6));
        }
        assert_ne!(a.offset(64).line(6), a.line(6));
    }

    #[test]
    fn line_succ_and_first_byte() {
        let l = Address::new(0x40).line(6);
        assert_eq!(l.succ(1).index(), l.index() + 1);
        assert_eq!(l.succ(-1).index(), l.index() - 1);
        assert_eq!(l.first_byte(6), Address::new(0x40));
    }

    #[test]
    fn address_offset_is_signed() {
        let a = Address::new(100);
        assert_eq!(a.offset(-100), Address::new(0));
        assert_eq!(a.offset(28), Address::new(128));
    }

    #[test]
    fn address_offset_wraps_at_space_boundaries() {
        // Offsets use two's-complement wrapping: the address space is a
        // ring. Stride predictions near the top of memory wrap to the
        // bottom instead of panicking mid-simulation.
        assert_eq!(Address::new(u64::MAX).offset(1), Address::new(0));
        assert_eq!(Address::new(0).offset(-1), Address::new(u64::MAX));
        assert_eq!(
            Address::new(u64::MAX).offset(i64::MAX).raw(),
            (i64::MAX as u64) - 1
        );
        assert_eq!(Address::new(0).offset(i64::MIN).raw(), 1u64 << 63);
    }

    #[test]
    fn line_succ_wraps_at_space_boundaries() {
        // The next-line prefetcher's succ(1) on the last line of the
        // address space predicts line 0 — a harmless (if useless)
        // prediction, never a crash.
        assert_eq!(LineAddr::new(u64::MAX).succ(1), LineAddr::new(0));
        assert_eq!(LineAddr::new(0).succ(-1), LineAddr::new(u64::MAX));
        assert_eq!(LineAddr::new(5).succ(-8), LineAddr::new(u64::MAX - 2));
    }

    #[test]
    fn line_of_max_address_is_top_line() {
        let top = Address::new(u64::MAX);
        assert_eq!(top.line(6).index(), u64::MAX >> 6);
        // first_byte of the top line truncates back into range.
        assert_eq!(top.line(6).first_byte(6).raw(), (u64::MAX >> 6) << 6);
        // line_bits = 0: byte == line, identity round trip.
        assert_eq!(top.line(0).index(), u64::MAX);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Address::new(0xff).to_string(), "0xff");
        assert_eq!(LineAddr::new(0x3).to_string(), "L0x3");
        assert_eq!(Pc::new(0x10).to_string(), "pc:0x10");
        assert_eq!(format!("{:x}", Address::new(0xab)), "ab");
    }

    #[test]
    fn pc_as_address() {
        assert_eq!(Pc::new(0x400).as_address(), Address::new(0x400));
    }
}
