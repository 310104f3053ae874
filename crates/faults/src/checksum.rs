//! FNV-1a, the workspace's shared integrity primitive.
//!
//! Both the profile store's cache keys and the durable-file seal
//! ([`crate::durable::seal`]) hash through this one implementation, so
//! the two can never drift apart. FNV-1a is
//! not cryptographic; it guards against torn writes and bit flips, not
//! adversaries.

/// Incremental FNV-1a over 64 bits.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// FNV-1a offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a prime.
    pub const PRIME: u64 = 0x100_0000_01b3;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
        }
    }

    /// Absorbs one word as its little-endian bytes — the store-key
    /// idiom (stable across platforms, independent of memory layout).
    pub fn write_u64(&mut self, word: u64) {
        self.update(&word.to_le_bytes());
    }

    /// Absorbs a length-prefixed byte string, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently.
    pub fn write_len_prefixed(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.update(bytes);
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a of a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_vectors() {
        // Standard FNV-1a/64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut hash = Fnv64::new();
        hash.update(b"foo");
        hash.update(b"bar");
        assert_eq!(hash.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn length_prefix_separates_splits() {
        let mut ab_c = Fnv64::new();
        ab_c.write_len_prefixed(b"ab");
        ab_c.write_len_prefixed(b"c");
        let mut a_bc = Fnv64::new();
        a_bc.write_len_prefixed(b"a");
        a_bc.write_len_prefixed(b"bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn word_is_little_endian_bytes() {
        let mut via_word = Fnv64::new();
        via_word.write_u64(0x0102_0304_0506_0708);
        let mut via_bytes = Fnv64::new();
        via_bytes.update(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(via_word.finish(), via_bytes.finish());
    }
}
