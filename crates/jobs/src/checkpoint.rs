//! Durable chunk checkpoints: the codec and the crash-safe write path.
//!
//! One completed chunk persists as one file, `chunk-NNNNNN.ckpt`,
//! inside the job's directory:
//!
//! ```text
//! leakage-job-chunk v1\n
//! job=<id> chunk=<n> start=<s> end=<e> points=<k>\n
//! <result row>\n                  × k (canonical JSON, one per point)
//! fnv1a=<16 hex digits>\n
//! ```
//!
//! The footer is FNV-1a over *every byte before the footer line* —
//! magic and header included, so a file pasted under the wrong name or
//! truncated at a line boundary still fails verification. Writes go
//! through [`leakage_faults::durable::write_atomically`] (unique temp
//! file → `write_all` → `sync_all` → atomic rename) with the
//! `jobs/checkpoint` fault site armed in front, and every write is
//! *read back and verified* before the chunk is reported durable: a
//! torn write is quarantined and retried immediately instead of being
//! discovered by some later reader.
//!
//! Corrupt files are never deleted in place — [`quarantine`] moves
//! them verbatim to `<job dir>/quarantine/` for post-mortems through
//! the same [`leakage_faults::durable::quarantine`] the profile store
//! uses.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use leakage_faults::checksum::Fnv64;
use leakage_faults::{corrupt_point, durable, io_point, retry, Backoff};
use leakage_telemetry::{counter, warn};

/// Magic first line of every checkpoint file.
pub const CHUNK_MAGIC: &str = "leakage-job-chunk v1";

/// A decoded checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFile {
    /// Owning job id.
    pub job_id: String,
    /// Chunk ordinal within the job.
    pub chunk: u64,
    /// First point index covered (inclusive).
    pub start: u64,
    /// One past the last point index covered.
    pub end: u64,
    /// One rendered JSON row per point, in point-index order.
    pub rows: Vec<String>,
}

/// Why a checkpoint file failed to decode. `Corrupt` means the bytes
/// are untrustworthy (quarantine material); `Io` is the filesystem
/// failing before we saw any bytes.
#[derive(Debug)]
pub enum CkptError {
    /// The file's bytes fail structural or checksum validation.
    Corrupt {
        /// Human-readable reason, logged and counted.
        reason: String,
    },
    /// Filesystem-level failure.
    Io(io::Error),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CkptError::Io(err) => write!(f, "checkpoint i/o: {err}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<io::Error> for CkptError {
    fn from(err: io::Error) -> Self {
        CkptError::Io(err)
    }
}

fn corrupt(reason: impl Into<String>) -> CkptError {
    CkptError::Corrupt {
        reason: reason.into(),
    }
}

/// File name of a chunk's checkpoint (`chunk-000042.ckpt`).
pub fn chunk_file_name(chunk: u64) -> String {
    format!("chunk-{chunk:06}.ckpt")
}

/// Parses a checkpoint file name back to its chunk ordinal.
pub fn parse_chunk_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("chunk-")?.strip_suffix(".ckpt")?;
    if digits.len() < 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Encodes a completed chunk to its on-disk byte form.
pub fn encode_chunk(file: &ChunkFile) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(64 + file.rows.iter().map(|r| r.len() + 1).sum::<usize>());
    bytes.extend_from_slice(CHUNK_MAGIC.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(
        format!(
            "job={} chunk={} start={} end={} points={}\n",
            file.job_id,
            file.chunk,
            file.start,
            file.end,
            file.rows.len()
        )
        .as_bytes(),
    );
    for row in &file.rows {
        bytes.extend_from_slice(row.as_bytes());
        bytes.push(b'\n');
    }
    let mut hash = Fnv64::new();
    hash.update(&bytes);
    bytes.extend_from_slice(format!("fnv1a={:016x}\n", hash.finish()).as_bytes());
    bytes
}

/// Decodes and verifies a checkpoint file's bytes.
///
/// # Errors
///
/// [`CkptError::Corrupt`] on any structural or checksum mismatch; the
/// reason names the first broken invariant.
pub fn decode_chunk(bytes: &[u8]) -> Result<ChunkFile, CkptError> {
    let text = std::str::from_utf8(bytes).map_err(|_| corrupt("not utf-8"))?;
    if !text.ends_with('\n') {
        return Err(corrupt("missing trailing newline"));
    }
    // Split the footer off first and checksum everything before it.
    let body_end = text[..text.len() - 1]
        .rfind('\n')
        .ok_or_else(|| corrupt("no footer line"))?
        + 1;
    let footer = text[body_end..].trim_end_matches('\n');
    let claimed = footer
        .strip_prefix("fnv1a=")
        .filter(|hex| hex.len() == 16)
        .ok_or_else(|| corrupt(format!("bad footer {footer:?}")))?;
    let mut hash = Fnv64::new();
    hash.update(&bytes[..body_end]);
    let actual = hash.finish();
    // Compare the canonical lowercase rendering, not the parsed value:
    // numeric comparison would accept `A` for `a` (a single-bit case
    // flip in the footer itself, which the body checksum cannot see).
    if format!("{actual:016x}") != claimed {
        return Err(corrupt(format!(
            "checksum mismatch: footer {claimed}, content {actual:016x}"
        )));
    }
    let mut lines = text[..body_end].lines();
    if lines.next() != Some(CHUNK_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let header = lines.next().ok_or_else(|| corrupt("missing header"))?;
    let mut fields = header.split(' ');
    let mut field = |key: &str| -> Result<&str, CkptError> {
        fields
            .next()
            .and_then(|f| f.strip_prefix(key))
            .and_then(|f| f.strip_prefix('='))
            .ok_or_else(|| corrupt(format!("header missing {key}= field")))
    };
    let job_id = field("job")?.to_string();
    let parse = |v: &str, what: &str| -> Result<u64, CkptError> {
        v.parse()
            .map_err(|_| corrupt(format!("bad {what} {v:?} in header")))
    };
    let chunk = parse(field("chunk")?, "chunk")?;
    let start = parse(field("start")?, "start")?;
    let end = parse(field("end")?, "end")?;
    let points = parse(field("points")?, "points")?;
    if end < start || end - start != points {
        return Err(corrupt(format!(
            "header range {start}..{end} disagrees with points={points}"
        )));
    }
    let rows: Vec<String> = lines.map(str::to_string).collect();
    if rows.len() as u64 != points {
        return Err(corrupt(format!(
            "header claims {points} rows, file has {}",
            rows.len()
        )));
    }
    Ok(ChunkFile {
        job_id,
        chunk,
        start,
        end,
        rows,
    })
}

/// Moves a corrupt file verbatim into `<parent>/quarantine/` (falling
/// back to deletion if even the move fails) so it can never be decoded
/// as a result again but stays available for post-mortems.
pub fn quarantine(path: &Path, reason: &str) {
    counter!("jobs_checkpoints_quarantined_total").inc();
    let outcome = durable::quarantine(path);
    match &outcome.moved {
        Ok(dest) => warn!(
            "jobs: quarantined {} -> {} ({reason})",
            path.display(),
            dest.display()
        ),
        Err(err) => warn!(
            "jobs: quarantine move of {} failed ({err}); removed in place ({reason})",
            path.display()
        ),
    }
    let evicted = outcome.evicted;
    if evicted.files > 0 {
        counter!("quarantined_evicted_total").add(evicted.files);
        warn!(
            "jobs: quarantine pen over budget; evicted {} file(s) / {} byte(s) from {}",
            evicted.files,
            evicted.bytes,
            outcome.pen.display()
        );
    }
}

/// Durably persists a completed chunk into `dir` and verifies it by
/// reading the file back. The `jobs/checkpoint` fault site runs before
/// the write, so an armed `truncate:` fault produces a genuinely torn
/// file on disk — which the read-back catches, quarantines, and
/// retries with clean bytes. Returns the checkpoint path.
///
/// # Errors
///
/// A filesystem error after retries, or `InvalidData` if three
/// consecutive write+verify attempts failed (hardware-level flakiness
/// this layer cannot absorb).
pub fn write_chunk(dir: &Path, file: &ChunkFile) -> io::Result<PathBuf> {
    let path = dir.join(chunk_file_name(file.chunk));
    let bytes = encode_chunk(file);
    for _ in 0..3 {
        retry(Backoff::DISK, |_| {
            io_point("jobs/checkpoint")?;
            let mut attempt = bytes.clone();
            // corrupt_point simulates a torn write: an armed
            // `truncate:` arm shears the tail off this attempt only.
            corrupt_point("jobs/checkpoint", &mut attempt)?;
            durable::write_atomically(&path, &attempt)
        })?;
        match read_chunk(&path) {
            Ok(decoded) if decoded == *file => {
                counter!("jobs_checkpoints_written_total").inc();
                return Ok(path);
            }
            Ok(_) => quarantine(&path, "read-back decoded a different chunk"),
            Err(CkptError::Corrupt { reason }) => quarantine(&path, &reason),
            Err(CkptError::Io(err)) => return Err(err),
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("checkpoint {} failed read-back verification 3 times", path.display()),
    ))
}

/// Reads and fully verifies one checkpoint file. Callers decide the
/// quarantine policy — recovery quarantines and recomputes, the result
/// reader quarantines and serves 503.
///
/// # Errors
///
/// [`CkptError::Io`] if the file cannot be read, [`CkptError::Corrupt`]
/// if its bytes fail validation.
pub fn read_chunk(path: &Path) -> Result<ChunkFile, CkptError> {
    let bytes = fs::read(path)?;
    decode_chunk(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChunkFile {
        ChunkFile {
            job_id: "j0123456789abcdef".into(),
            chunk: 7,
            start: 28_672,
            end: 28_675,
            rows: vec![
                r#"{"benchmark":"gzip","opt_drowsy":1.5}"#.into(),
                r#"{"benchmark":"gzip","opt_drowsy":2.5}"#.into(),
                r#"{"benchmark":"mesa","opt_drowsy":null}"#.into(),
            ],
        }
    }

    #[test]
    fn round_trip() {
        let file = sample();
        assert_eq!(decode_chunk(&encode_chunk(&file)).unwrap(), file);
        let empty = ChunkFile {
            rows: vec![],
            start: 4,
            end: 4,
            ..sample()
        };
        assert_eq!(decode_chunk(&encode_chunk(&empty)).unwrap(), empty);
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(chunk_file_name(0), "chunk-000000.ckpt");
        assert_eq!(chunk_file_name(1_234_567), "chunk-1234567.ckpt");
        for chunk in [0, 42, 999_999, 1_234_567] {
            assert_eq!(parse_chunk_file_name(&chunk_file_name(chunk)), Some(chunk));
        }
        assert_eq!(parse_chunk_file_name("chunk-12.ckpt"), None);
        assert_eq!(parse_chunk_file_name("chunk-000001.tmp"), None);
        assert_eq!(parse_chunk_file_name("job.json"), None);
    }

    #[test]
    fn truncation_and_bit_flips_are_detected() {
        let bytes = encode_chunk(&sample());
        for cut in 1..bytes.len() {
            assert!(
                decode_chunk(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x40;
            assert!(
                decode_chunk(&flipped).is_err(),
                "bit flip at {i} must not decode"
            );
        }
    }

    #[test]
    fn range_and_count_must_agree() {
        let mut file = sample();
        file.end = file.start + 2; // three rows, range of two
        let mut bytes = encode_chunk(&file);
        // Re-seal with a valid checksum so only the semantic check fires.
        let body_end = bytes.len() - 24;
        let mut hash = Fnv64::new();
        hash.update(&bytes[..body_end]);
        let footer = format!("fnv1a={:016x}\n", hash.finish());
        bytes.truncate(body_end);
        bytes.extend_from_slice(footer.as_bytes());
        let err = decode_chunk(&bytes).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn write_chunk_is_durable_and_read_back() {
        let dir = std::env::temp_dir().join(format!("jobs-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let file = sample();
        let path = write_chunk(&dir, &file).unwrap();
        assert_eq!(read_chunk(&path).unwrap(), file);
        // Overwrite with a corrupt body, then confirm quarantine moves it.
        fs::write(&path, b"garbage\n").unwrap();
        let err = read_chunk(&path).unwrap_err();
        quarantine(&path, &err.to_string());
        assert!(!path.exists());
        assert!(dir
            .join("quarantine")
            .join(chunk_file_name(file.chunk))
            .exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
