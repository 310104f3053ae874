//! Binary trace serialization.
//!
//! A compact on-disk format so traces can be captured once and replayed
//! into other tools (or other simulator configurations) without
//! re-running the generator:
//!
//! ```text
//! magic "LKTR" | version: u32 LE | records…
//! record: cycle u64 | pc u64 | addr u64 | kind u8   (25 bytes, LE)
//! ```
//!
//! # Errors
//!
//! Every fallible entry point returns [`TraceError`]
//! (re-exported from `leakage-faults`), which separates *transport*
//! failures ([`TraceError::Io`], possibly transient and retryable)
//! from *structural* ones (bad magic, unsupported version, torn
//! record, invalid kind byte — never retryable). The reader and
//! writer are instrumented as the `trace/read` and `trace/write`
//! fault-injection sites, so `LEAKAGE_FAULTS=trace/read=io` can
//! rehearse transport failure without a faulty disk.
//!
//! # Examples
//!
//! ```
//! use leakage_trace::io::{read_trace, TraceWriter};
//! use leakage_trace::{Cycle, MemoryAccess, Pc, TraceSink, TraceError};
//!
//! # fn main() -> Result<(), TraceError> {
//! let mut buffer = Vec::new();
//! {
//!     let mut writer = TraceWriter::new(&mut buffer)?;
//!     writer.accept(MemoryAccess::fetch(Cycle::new(0), Pc::new(0x100)));
//!     writer.flush()?;
//! }
//! let replayed = read_trace(&buffer[..])?;
//! assert_eq!(replayed.len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::{AccessKind, Address, Cycle, MemoryAccess, Pc, TraceSink, VecTrace};
pub use leakage_faults::TraceError;
use std::io::{BufWriter, ErrorKind, Read, Write};

/// File magic.
const MAGIC: [u8; 4] = *b"LKTR";
/// Current format version.
const VERSION: u32 = 1;
/// Bytes per record.
const RECORD_BYTES: usize = 25;

/// Fault-injection site covering the read path.
const READ_SITE: &str = "trace/read";
/// Fault-injection site covering the write path.
const WRITE_SITE: &str = "trace/write";

fn kind_to_byte(kind: AccessKind) -> u8 {
    match kind {
        AccessKind::InstFetch => 0,
        AccessKind::Load => 1,
        AccessKind::Store => 2,
    }
}

fn kind_from_byte(byte: u8) -> Result<AccessKind, TraceError> {
    match byte {
        0 => Ok(AccessKind::InstFetch),
        1 => Ok(AccessKind::Load),
        2 => Ok(AccessKind::Store),
        other => Err(TraceError::InvalidKind(other)),
    }
}

/// Reads a little-endian `u64` out of a record without any fallible
/// conversion (the bounds are compile-time facts of the layout).
fn le_u64(record: &[u8; RECORD_BYTES], offset: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&record[offset..offset + 8]);
    u64::from_le_bytes(word)
}

/// Streams accesses into a writer in the binary format.
///
/// `TraceWriter` is a [`TraceSink`], so a workload generator can write
/// straight to disk. Call [`flush`](TraceWriter::flush) (or drop) when
/// done; I/O errors during `accept` are deferred and surfaced by
/// `flush`.
pub struct TraceWriter<W: Write> {
    writer: BufWriter<W>,
    deferred_error: Option<TraceError>,
    records: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors (injected or real) from writing the
    /// header.
    pub fn new(writer: W) -> Result<Self, TraceError> {
        leakage_faults::io_point(WRITE_SITE)?;
        let mut writer = BufWriter::new(writer);
        writer.write_all(&MAGIC)?;
        writer.write_all(&VERSION.to_le_bytes())?;
        Ok(TraceWriter {
            writer,
            deferred_error: None,
            records: 0,
        })
    }

    /// Number of records accepted so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Flushes buffered records and reports any deferred write error.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered while accepting records, or
    /// any error from the final flush.
    pub fn flush(&mut self) -> Result<(), TraceError> {
        if let Some(err) = self.deferred_error.take() {
            return Err(err);
        }
        self.writer.flush()?;
        Ok(())
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    fn accept(&mut self, access: MemoryAccess) {
        if self.deferred_error.is_some() {
            return;
        }
        let mut record = [0u8; RECORD_BYTES];
        record[0..8].copy_from_slice(&access.cycle.raw().to_le_bytes());
        record[8..16].copy_from_slice(&access.pc.raw().to_le_bytes());
        record[16..24].copy_from_slice(&access.addr.raw().to_le_bytes());
        record[24] = kind_to_byte(access.kind);
        if let Err(err) = self.writer.write_all(&record) {
            self.deferred_error = Some(err.into());
        } else {
            self.records += 1;
        }
    }
}

/// Streams a binary trace from a reader into any sink, through one
/// [`StreamDecoder`].
///
/// Returns the number of records replayed.
///
/// # Errors
///
/// Fails on a bad header, an unsupported version, a torn final record,
/// an invalid kind byte, or any underlying I/O error other than
/// [`std::io::ErrorKind::Interrupted`], which is retried.
pub fn replay_trace<R: Read>(mut reader: R, sink: &mut dyn TraceSink) -> Result<u64, TraceError> {
    leakage_faults::io_point(READ_SITE)?;
    let mut decoder = StreamDecoder::new();
    let mut chunk = [0u8; 8 * 1024];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => decoder.feed(&chunk[..n], sink)?,
            Err(err) if err.kind() == ErrorKind::Interrupted => {}
            Err(err) => return Err(err.into()),
        }
    }
    decoder.finish()?;
    Ok(decoder.records())
}

/// Reads a whole binary trace into memory.
///
/// # Errors
///
/// See [`replay_trace`].
pub fn read_trace<R: Read>(reader: R) -> Result<VecTrace, TraceError> {
    let mut trace = VecTrace::new();
    replay_trace(reader, &mut trace)?;
    Ok(trace)
}

/// Incremental decoder for the binary trace format, fed arbitrary
/// byte chunks as they arrive off a wire.
///
/// The caller pushes whatever bytes it has (network chunks, file
/// pages; [`replay_trace`] pushes what a `Read` returns), decoded
/// events flow to the sink immediately, and the decoder's own
/// state never exceeds one partial record (24 bytes) no matter how
/// long the trace runs. This is what lets the analysis server ingest
/// chunked trace uploads without buffering the body.
///
/// # Examples
///
/// ```
/// use leakage_trace::io::{StreamDecoder, TraceWriter};
/// use leakage_trace::{Cycle, MemoryAccess, Pc, TraceSink, VecTrace};
///
/// let mut wire = Vec::new();
/// {
///     let mut writer = TraceWriter::new(&mut wire).unwrap();
///     writer.accept(MemoryAccess::fetch(Cycle::new(3), Pc::new(0x40)));
///     writer.flush().unwrap();
/// }
///
/// let mut decoder = StreamDecoder::new();
/// let mut replay = VecTrace::new();
/// for byte in &wire {
///     decoder.feed(std::slice::from_ref(byte), &mut replay).unwrap();
/// }
/// decoder.finish().unwrap();
/// assert_eq!(replay.len(), 1);
/// ```
#[derive(Debug)]
pub struct StreamDecoder {
    /// Bytes of the header (8) still missing; records follow once 0.
    header_missing: usize,
    /// The header bytes gathered so far.
    header: [u8; 8],
    /// Partial record bytes straddling a chunk boundary.
    partial: [u8; RECORD_BYTES],
    /// How many bytes of `partial` are valid.
    partial_len: usize,
    /// Records decoded so far.
    records: u64,
    /// The structural error that stopped decoding, returned again by
    /// every later call.
    failed: Option<TraceError>,
}

impl Default for StreamDecoder {
    fn default() -> Self {
        StreamDecoder::new()
    }
}

impl StreamDecoder {
    /// A decoder expecting the header next.
    pub fn new() -> Self {
        StreamDecoder {
            header_missing: 8,
            header: [0u8; 8],
            partial: [0u8; RECORD_BYTES],
            partial_len: 0,
            records: 0,
            failed: None,
        }
    }

    /// Records decoded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Decodes every complete record in `chunk` (joined with any bytes
    /// left over from earlier chunks) into `sink`; a trailing partial
    /// record is retained for the next call.
    ///
    /// # Errors
    ///
    /// Structural errors ([`TraceError::BadMagic`],
    /// [`TraceError::UnsupportedVersion`], [`TraceError::InvalidKind`])
    /// are sticky: the decoder stays failed, decodes nothing more, and
    /// every later `feed` or [`finish`](Self::finish) returns the same
    /// error.
    pub fn feed(&mut self, chunk: &[u8], sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        if let Some(err) = &self.failed {
            return Err(again(err));
        }
        let fed = self.decode(chunk, sink);
        if let Err(err) = &fed {
            self.failed = Some(again(err));
        }
        fed
    }

    fn decode(&mut self, mut chunk: &[u8], sink: &mut dyn TraceSink) -> Result<(), TraceError> {
        // Header first: gather 8 bytes, then validate once.
        while self.header_missing > 0 && !chunk.is_empty() {
            let take = self.header_missing.min(chunk.len());
            let at = 8 - self.header_missing;
            self.header[at..at + take].copy_from_slice(&chunk[..take]);
            self.header_missing -= take;
            chunk = &chunk[take..];
            if self.header_missing == 0 {
                if self.header[0..4] != MAGIC {
                    return Err(TraceError::BadMagic);
                }
                let version = u32::from_le_bytes([
                    self.header[4],
                    self.header[5],
                    self.header[6],
                    self.header[7],
                ]);
                if version != VERSION {
                    return Err(TraceError::UnsupportedVersion { found: version });
                }
            }
        }
        // Complete the straddling record, if any.
        if self.partial_len > 0 {
            let take = (RECORD_BYTES - self.partial_len).min(chunk.len());
            self.partial[self.partial_len..self.partial_len + take].copy_from_slice(&chunk[..take]);
            self.partial_len += take;
            chunk = &chunk[take..];
            if self.partial_len < RECORD_BYTES {
                return Ok(()); // Chunk exhausted, record still open.
            }
            self.partial_len = 0;
            let record = self.partial;
            self.emit(&record, sink)?;
        }
        // Whole records straight out of the chunk, no copy.
        while chunk.len() >= RECORD_BYTES {
            let record: [u8; RECORD_BYTES] = chunk[..RECORD_BYTES]
                .try_into()
                .expect("record-sized window");
            self.emit(&record, sink)?;
            chunk = &chunk[RECORD_BYTES..];
        }
        // Retain the tail.
        self.partial[..chunk.len()].copy_from_slice(chunk);
        self.partial_len = chunk.len();
        Ok(())
    }

    fn emit(
        &mut self,
        record: &[u8; RECORD_BYTES],
        sink: &mut dyn TraceSink,
    ) -> Result<(), TraceError> {
        let kind = kind_from_byte(record[24])?;
        sink.accept(MemoryAccess::new(
            Cycle::new(le_u64(record, 0)),
            Pc::new(le_u64(record, 8)),
            Address::new(le_u64(record, 16)),
            kind,
        ));
        self.records += 1;
        Ok(())
    }

    /// Declares end of stream.
    ///
    /// # Errors
    ///
    /// The sticky error of an earlier `feed`, else
    /// [`TraceError::TornRecord`] when the stream ended mid-header or
    /// mid-record.
    pub fn finish(&self) -> Result<(), TraceError> {
        if let Some(err) = &self.failed {
            return Err(again(err));
        }
        if self.header_missing > 0 || self.partial_len > 0 {
            return Err(TraceError::TornRecord);
        }
        Ok(())
    }
}

/// A copy of a decoding error, for the sticky state. `TraceError` is
/// not `Clone` (its `Io` variant holds an `io::Error`), but decoding
/// raises only the structural errors, which carry plain data.
fn again(err: &TraceError) -> TraceError {
    match *err {
        TraceError::BadMagic => TraceError::BadMagic,
        TraceError::UnsupportedVersion { found } => TraceError::UnsupportedVersion { found },
        TraceError::InvalidKind(byte) => TraceError::InvalidKind(byte),
        _ => unreachable!("decoding raises only structural errors"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<MemoryAccess> {
        vec![
            MemoryAccess::fetch(Cycle::new(0), Pc::new(0x1000)),
            MemoryAccess::load(Cycle::new(5), Pc::new(0x1004), Address::new(0xdead_beef)),
            MemoryAccess::store(Cycle::new(u64::MAX), Pc::new(u64::MAX), Address::new(0)),
        ]
    }

    /// Builds an encoded sample trace, asserting the happy path.
    fn encoded_sample() -> Vec<u8> {
        let mut buffer = Vec::new();
        {
            let mut writer = TraceWriter::new(&mut buffer).expect("in-memory header write");
            for access in sample() {
                writer.accept(access);
            }
            writer.flush().expect("in-memory flush");
        }
        buffer
    }

    #[test]
    fn roundtrip() {
        let buffer = encoded_sample();
        assert_eq!(buffer.len(), 8 + 3 * RECORD_BYTES);
        let replayed = read_trace(&buffer[..]).expect("clean trace replays");
        assert_eq!(replayed.events(), &sample()[..]);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic));
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut buffer = Vec::new();
        buffer.extend_from_slice(&MAGIC);
        buffer.extend_from_slice(&99u32.to_le_bytes());
        let err = read_trace(&buffer[..]).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion { found: 99 }));
    }

    #[test]
    fn torn_record_rejected() {
        let mut buffer = encoded_sample();
        buffer.truncate(buffer.len() - 3);
        let err = read_trace(&buffer[..]).unwrap_err();
        assert!(matches!(err, TraceError::TornRecord));
    }

    #[test]
    fn torn_header_rejected() {
        let err = read_trace(&b"LKTR\x01"[..]).unwrap_err();
        assert!(matches!(err, TraceError::TornRecord));
    }

    #[test]
    fn invalid_kind_rejected() {
        let mut buffer = encoded_sample();
        // Corrupt the kind byte of the first record.
        buffer[8 + RECORD_BYTES - 1] = 7;
        let err = read_trace(&buffer[..]).unwrap_err();
        assert!(matches!(err, TraceError::InvalidKind(7)));
    }

    #[test]
    fn empty_trace_roundtrip() {
        let mut buffer = Vec::new();
        TraceWriter::new(&mut buffer)
            .expect("header")
            .flush()
            .expect("flush");
        let replayed = read_trace(&buffer[..]).expect("empty trace replays");
        assert!(replayed.is_empty());
    }

    #[test]
    fn replay_into_custom_sink() {
        let buffer = encoded_sample();
        struct Counter(u64);
        impl TraceSink for Counter {
            fn accept(&mut self, _access: MemoryAccess) {
                self.0 += 1;
            }
        }
        let mut counter = Counter(0);
        let n = replay_trace(&buffer[..], &mut counter).expect("replay");
        assert_eq!(n, 3);
        assert_eq!(counter.0, 3);
    }

    /// The incremental decoder agrees with the batch reader on every
    /// chunking of the same wire bytes.
    #[test]
    fn stream_decoder_matches_batch_reader_across_chunkings() {
        let buffer = encoded_sample();
        let batch = read_trace(&buffer[..]).expect("batch replay");
        for chunk_size in [1, 2, 7, 24, 25, 26, buffer.len()] {
            let mut decoder = StreamDecoder::new();
            let mut replay = VecTrace::new();
            for chunk in buffer.chunks(chunk_size) {
                decoder.feed(chunk, &mut replay).expect("feed");
            }
            decoder.finish().expect("finish");
            assert_eq!(replay.events(), batch.events(), "chunk size {chunk_size}");
            assert_eq!(decoder.records(), 3);
        }
    }

    #[test]
    fn stream_decoder_rejects_bad_magic_and_version() {
        let mut decoder = StreamDecoder::new();
        let err = decoder
            .feed(b"NOPE\x01\x00\x00\x00", &mut VecTrace::new())
            .unwrap_err();
        assert!(matches!(err, TraceError::BadMagic));

        let mut decoder = StreamDecoder::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&9u32.to_le_bytes());
        let err = decoder.feed(&wire, &mut VecTrace::new()).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion { found: 9 }));
    }

    #[test]
    fn stream_decoder_reports_torn_streams() {
        let buffer = encoded_sample();
        let mut decoder = StreamDecoder::new();
        let mut replay = VecTrace::new();
        decoder
            .feed(&buffer[..buffer.len() - 3], &mut replay)
            .expect("feed");
        assert!(matches!(decoder.finish(), Err(TraceError::TornRecord)));
        // Mid-header, likewise.
        let decoder = StreamDecoder::new();
        assert!(matches!(decoder.finish(), Err(TraceError::TornRecord)));
    }

    #[test]
    fn stream_decoder_rejects_invalid_kind() {
        let mut buffer = encoded_sample();
        buffer[8 + RECORD_BYTES - 1] = 9;
        let mut decoder = StreamDecoder::new();
        let err = decoder.feed(&buffer, &mut VecTrace::new()).unwrap_err();
        assert!(matches!(err, TraceError::InvalidKind(9)));
    }

    /// A writer over a failing sink defers the error to `flush` and
    /// stops counting records, rather than panicking mid-stream.
    #[test]
    fn write_errors_defer_to_flush() {
        struct Failing {
            budget: usize,
        }
        impl Write for Failing {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::new(std::io::ErrorKind::Other, "sink died"));
                }
                let n = buf.len().min(self.budget);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // Room for the header only; BufWriter's spill then fails.
        let mut writer = TraceWriter::new(Failing { budget: 8 }).expect("header buffered");
        for _ in 0..10_000 {
            for access in sample() {
                writer.accept(access);
            }
        }
        let err = writer.flush().unwrap_err();
        assert!(matches!(err, TraceError::Io(_)), "{err}");
        assert!(
            writer.records() < 30_000,
            "records stop counting after the error"
        );
    }
}
