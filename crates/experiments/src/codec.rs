//! Canonical binary serialization of [`BenchmarkProfile`]s.
//!
//! The [`store::ProfileStore`](crate::store::ProfileStore) persists
//! memoized profiles on disk through this codec. Two properties matter
//! more than speed here:
//!
//! * **Canonical output.** A [`CompactIntervalDist`] is a hash map, so
//!   its iteration order varies run to run (and across the serial /
//!   parallel / memoized profiling paths). The encoder sorts classes
//!   into a total order first, so equal profiles encode to *identical
//!   bytes* — the determinism regression tests compare encodings
//!   directly.
//! * **Versioned format.** [`FORMAT_VERSION`] is checked on decode and
//!   mixed into store keys, so a layout change invalidates stale files
//!   instead of misreading them.
//! * **Sealed.** Since format version 3 the file ends with the
//!   workspace's one durable-file trailer, `fnv1a=<16 lowercase
//!   hex>\n` over every byte before it, added by
//!   [`leakage_faults::durable::seal`] and verified by
//!   [`leakage_faults::durable::unseal`] before any structural parsing
//!   — the same trailer job checkpoints carry. A crash (or injected
//!   fault) that tears a write mid-file can therefore never yield a
//!   decodable-but-wrong profile: the seal fails first and the store
//!   quarantines the file. FNV-1a guards against torn writes and bit
//!   flips, not adversaries.

use crate::{BenchmarkProfile, CacheProfile};
use leakage_cachesim::CacheStats;
use leakage_faults::durable::{self, SealError};
use leakage_intervals::{CompactIntervalDist, IntervalClass, IntervalKind, WakeHints};
use leakage_prefetch::PrefetchStats;

/// File magic: "LKPF" (leakage profile).
pub const MAGIC: [u8; 4] = *b"LKPF";

/// Layout version; bump on any change to the byte format.
/// Version history: 1 — initial layout; 2 — 8-byte FNV-1a footer;
/// 3 — the shared `fnv1a=` seal trailer.
pub const FORMAT_VERSION: u32 = 3;

/// Decode failures. The store treats any error as a cache miss (and
/// quarantines the file), so corrupt files are self-healing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure it promised.
    Truncated,
    /// The magic bytes did not match [`MAGIC`].
    BadMagic,
    /// The file was written by a different [`FORMAT_VERSION`].
    VersionMismatch {
        /// Version found in the file.
        found: u32,
    },
    /// An enum tag byte was out of range.
    BadTag(u8),
    /// The benchmark name was not valid UTF-8.
    BadName,
    /// Trailing bytes followed a complete profile.
    TrailingBytes,
    /// The seal trailer is missing or does not match the body — a torn
    /// write or bit flip.
    Seal(SealError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "profile data truncated"),
            CodecError::BadMagic => write!(f, "not a profile file (bad magic)"),
            CodecError::VersionMismatch { found } => {
                write!(
                    f,
                    "profile format version {found}, expected {FORMAT_VERSION}"
                )
            }
            CodecError::BadTag(tag) => write!(f, "invalid enum tag {tag}"),
            CodecError::BadName => write!(f, "benchmark name is not UTF-8"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after profile"),
            CodecError::Seal(err) => write!(f, "bad profile seal: {err}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes a profile to its canonical, sealed byte form.
pub fn encode_profile(profile: &BenchmarkProfile) -> Vec<u8> {
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    let name = profile.name.as_bytes();
    put_u32(&mut out, name.len() as u32);
    out.extend_from_slice(name);
    encode_cache(&mut out, &profile.icache);
    encode_cache(&mut out, &profile.dcache);
    durable::seal(out)
}

/// Decodes a profile, validating magic, version, seal, and framing.
///
/// Check order matters for diagnosis: magic and version are read
/// first (a stale-format file should report [`VersionMismatch`], not a
/// seal failure — version 2 ended in an 8-byte footer instead), then
/// the seal is verified over the whole body *before* any structural
/// parsing, so a torn write or bit flip anywhere surfaces as
/// [`Seal`] rather than as an arbitrary misparse.
///
/// [`VersionMismatch`]: CodecError::VersionMismatch
/// [`Seal`]: CodecError::Seal
///
/// # Errors
///
/// Returns a [`CodecError`] on any structural violation; never panics
/// on malformed input.
pub fn decode_profile(bytes: &[u8]) -> Result<BenchmarkProfile, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::VersionMismatch { found: version });
    }
    // Structural parsing sees only the sealed body.
    let body = durable::unseal(bytes).map_err(CodecError::Seal)?;
    let mut r = Reader {
        bytes: body,
        pos: r.pos,
    };
    let name_len = r.u32()? as usize;
    let name = std::str::from_utf8(r.take(name_len)?)
        .map_err(|_| CodecError::BadName)?
        .to_string();
    let icache = decode_cache(&mut r)?;
    let dcache = decode_cache(&mut r)?;
    if r.pos != r.bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(BenchmarkProfile {
        name,
        icache,
        dcache,
        memo: Default::default(),
    })
}

fn encode_cache(out: &mut Vec<u8>, cache: &CacheProfile) {
    put_u32(out, cache.num_frames);
    put_u64(out, cache.total_cycles);
    put_u64(out, cache.prefetch.next_line_triggers);
    put_u64(out, cache.prefetch.stride_triggers);
    put_u64(out, cache.cache.accesses);
    put_u64(out, cache.cache.hits);
    put_u64(out, cache.cache.misses);
    put_u64(out, cache.cache.evictions);
    put_u64(out, cache.cache.writebacks);
    encode_dist(out, &cache.dist);
}

fn decode_cache(r: &mut Reader<'_>) -> Result<CacheProfile, CodecError> {
    let num_frames = r.u32()?;
    let total_cycles = r.u64()?;
    let prefetch = PrefetchStats {
        next_line_triggers: r.u64()?,
        stride_triggers: r.u64()?,
    };
    let cache = CacheStats {
        accesses: r.u64()?,
        hits: r.u64()?,
        misses: r.u64()?,
        evictions: r.u64()?,
        writebacks: r.u64()?,
    };
    let dist = decode_dist(r)?;
    Ok(CacheProfile {
        dist,
        num_frames,
        total_cycles,
        prefetch,
        cache,
    })
}

fn encode_dist(out: &mut Vec<u8>, dist: &CompactIntervalDist) {
    let mut classes: Vec<(&IntervalClass, u64)> = dist.iter().collect();
    classes.sort_by_key(|(class, _)| class_order(class));
    put_u64(out, classes.len() as u64);
    for (class, count) in classes {
        put_u64(out, class.length);
        out.push(kind_tag(class.kind));
        out.push(wake_bits(class.wake));
        out.push(u8::from(class.dirty));
        put_u64(out, count);
    }
}

fn decode_dist(r: &mut Reader<'_>) -> Result<CompactIntervalDist, CodecError> {
    let num_classes = r.u64()?;
    let mut dist = CompactIntervalDist::new();
    for _ in 0..num_classes {
        let length = r.u64()?;
        let kind = kind_from_tag(r.u8()?)?;
        let wake = wake_from_bits(r.u8()?)?;
        let dirty = match r.u8()? {
            0 => false,
            1 => true,
            tag => return Err(CodecError::BadTag(tag)),
        };
        let count = r.u64()?;
        dist.add(
            IntervalClass {
                length,
                kind,
                wake,
                dirty,
            },
            count,
        );
    }
    Ok(dist)
}

/// The canonical total order on classes: `(length, kind, wake, dirty)`.
fn class_order(class: &IntervalClass) -> (u64, u8, u8, bool) {
    (
        class.length,
        kind_tag(class.kind),
        wake_bits(class.wake),
        class.dirty,
    )
}

fn kind_tag(kind: IntervalKind) -> u8 {
    match kind {
        IntervalKind::Interior { reaccess: false } => 0,
        IntervalKind::Interior { reaccess: true } => 1,
        IntervalKind::Leading => 2,
        IntervalKind::Trailing => 3,
        IntervalKind::Untouched => 4,
    }
}

fn kind_from_tag(tag: u8) -> Result<IntervalKind, CodecError> {
    Ok(match tag {
        0 => IntervalKind::Interior { reaccess: false },
        1 => IntervalKind::Interior { reaccess: true },
        2 => IntervalKind::Leading,
        3 => IntervalKind::Trailing,
        4 => IntervalKind::Untouched,
        _ => return Err(CodecError::BadTag(tag)),
    })
}

fn wake_bits(wake: WakeHints) -> u8 {
    u8::from(wake.next_line) | (u8::from(wake.stride) << 1)
}

fn wake_from_bits(bits: u8) -> Result<WakeHints, CodecError> {
    if bits > 3 {
        return Err(CodecError::BadTag(bits));
    }
    Ok(WakeHints {
        next_line: bits & 1 != 0,
        stride: bits & 2 != 0,
    })
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> BenchmarkProfile {
        let mut dist = CompactIntervalDist::new();
        dist.add(
            IntervalClass {
                length: 100,
                kind: IntervalKind::Interior { reaccess: true },
                wake: WakeHints {
                    next_line: true,
                    stride: false,
                },
                dirty: false,
            },
            7,
        );
        dist.add(
            IntervalClass {
                length: 5,
                kind: IntervalKind::Leading,
                wake: WakeHints::NONE,
                dirty: true,
            },
            3,
        );
        let cache = CacheProfile {
            dist,
            num_frames: 1024,
            total_cycles: 200_000,
            prefetch: PrefetchStats {
                next_line_triggers: 11,
                stride_triggers: 2,
            },
            cache: CacheStats {
                accesses: 50,
                hits: 40,
                misses: 10,
                evictions: 4,
                writebacks: 1,
            },
        };
        BenchmarkProfile {
            name: "gzip".to_string(),
            icache: cache.clone(),
            dcache: cache,
            memo: Default::default(),
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let profile = sample_profile();
        let bytes = encode_profile(&profile);
        let back = decode_profile(&bytes).unwrap();
        assert_eq!(back.name, profile.name);
        assert_eq!(back.icache.dist, profile.icache.dist);
        assert_eq!(back.icache.cache, profile.icache.cache);
        assert_eq!(back.dcache.num_frames, profile.dcache.num_frames);
        assert_eq!(back.dcache.total_cycles, profile.dcache.total_cycles);
        // Re-encoding the decoded profile reproduces the bytes exactly.
        assert_eq!(encode_profile(&back), bytes);
    }

    #[test]
    fn encoding_is_insertion_order_independent() {
        let profile = sample_profile();
        let mut reordered = profile.clone();
        // Rebuild the icache dist inserting classes in reverse order.
        let mut classes: Vec<_> = profile.icache.dist.iter().map(|(c, n)| (*c, n)).collect();
        classes.reverse();
        let mut dist = CompactIntervalDist::new();
        for (class, count) in classes {
            dist.add(class, count);
        }
        reordered.icache.dist = dist;
        assert_eq!(encode_profile(&profile), encode_profile(&reordered));
    }

    #[test]
    fn rejects_malformed_input() {
        let bytes = encode_profile(&sample_profile());
        assert_eq!(
            decode_profile(&bytes[..3]).unwrap_err(),
            CodecError::Truncated
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            decode_profile(&bad_magic).unwrap_err(),
            CodecError::BadMagic
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            decode_profile(&bad_version).unwrap_err(),
            CodecError::VersionMismatch { .. }
        ));
        // Appending or dropping a byte desynchronizes the seal, so
        // both surface as integrity failures before any parsing.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_profile(&trailing).unwrap_err(),
            CodecError::Seal(_)
        ));
        assert!(matches!(
            decode_profile(&bytes[..bytes.len() - 1]).unwrap_err(),
            CodecError::Seal(_)
        ));
    }

    /// The crash-safety core: any single flipped bit, and any
    /// truncation long enough to pass the header, is caught by the
    /// seal — never parsed into a plausible profile.
    #[test]
    fn every_flip_and_truncation_is_caught() {
        let bytes = encode_profile(&sample_profile());
        for position in 8..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[position] ^= 0x40;
            assert!(
                matches!(decode_profile(&flipped), Err(CodecError::Seal(_))),
                "flip at byte {position} must fail the seal"
            );
        }
        for keep in 8..bytes.len() {
            assert!(
                decode_profile(&bytes[..keep]).is_err(),
                "truncation to {keep} bytes must not decode"
            );
        }
    }

    #[test]
    fn profiles_end_in_the_shared_seal() {
        let bytes = encode_profile(&sample_profile());
        let body = durable::unseal(&bytes).unwrap();
        assert_eq!(durable::seal(body.to_vec()), bytes);
        assert!(std::str::from_utf8(&bytes[body.len()..])
            .unwrap()
            .starts_with("fnv1a="));
    }
}
