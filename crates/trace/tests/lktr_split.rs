//! Split invariance of the LKTR decoder.
//!
//! Trace bytes reach the one decoder two ways: the server pushes
//! network chunks into a [`StreamDecoder`], and [`replay_trace`] pushes
//! whatever a `Read` returns. Neither may depend on where the byte
//! stream was cut: every split yields the events, the record count and
//! the error of a single whole-buffer feed, and the error names what is
//! wrong with the bytes.

use leakage_trace::io::{replay_trace, StreamDecoder, TraceWriter};
use leakage_trace::{
    AccessKind, Address, Cycle, MemoryAccess, Pc, TraceError, TraceSink, VecTrace,
};
use proptest::prelude::*;
use std::io::{self, Read};

const HEADER_BYTES: usize = 8;
const RECORD_BYTES: usize = 25;
const KINDS: [AccessKind; 3] = [AccessKind::InstFetch, AccessKind::Load, AccessKind::Store];

/// Random events of every kind: three consecutive events starting at a
/// random offset are forced to fetch, load and store.
fn arb_events() -> impl Strategy<Value = Vec<MemoryAccess>> {
    let raw = (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0usize..3);
    (prop::collection::vec(raw, 3..40), 0usize..40).prop_map(|(raw, offset)| {
        let mut events: Vec<MemoryAccess> = raw
            .into_iter()
            .map(|(cycle, pc, addr, kind)| {
                MemoryAccess::new(
                    Cycle::new(cycle),
                    Pc::new(pc),
                    Address::new(addr),
                    KINDS[kind],
                )
            })
            .collect();
        let len = events.len();
        for (step, kind) in KINDS.into_iter().enumerate() {
            events[(offset + step) % len].kind = kind;
        }
        events
    })
}

fn encode(events: &[MemoryAccess]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut writer = TraceWriter::new(&mut bytes).expect("in-memory header");
    for &event in events {
        writer.accept(event);
    }
    writer.flush().expect("in-memory flush");
    drop(writer);
    bytes
}

/// What one way of decoding produced: the events the sink saw, and the
/// record count or the error (as its `Debug` text, since `TraceError`
/// carries an `io::Error` and has no `PartialEq`).
type Outcome = (Vec<MemoryAccess>, Result<u64, String>);

/// Feeds `chunks` in order, stopping at the first error, then finishes.
/// A structural error must be sticky: feeding the remaining chunks, and
/// then every chunk again from the start, returns the same error and
/// decodes nothing more, and so does `finish`.
fn decode<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Outcome {
    let chunks: Vec<&[u8]> = chunks.into_iter().collect();
    let mut decoder = StreamDecoder::new();
    let mut sink = VecTrace::new();
    let debug = |err: TraceError| format!("{err:?}");
    let mut failed = None;
    for (at, chunk) in chunks.iter().enumerate() {
        if let Err(err) = decoder.feed(chunk, &mut sink) {
            failed = Some((at, debug(err)));
            break;
        }
    }
    let result = match failed {
        None => decoder.finish().map(|()| decoder.records()).map_err(debug),
        Some((at, err)) => {
            let delivered = sink.len();
            for chunk in chunks[at + 1..].iter().chain(&chunks) {
                let again = decoder.feed(chunk, &mut sink).map_err(debug);
                assert_eq!(again, Err(err.clone()), "a feed after {err}");
            }
            assert_eq!(sink.len(), delivered, "events decoded after {err}");
            assert_eq!(decoder.finish().map_err(debug), Err(err.clone()));
            Err(err)
        }
    };
    (sink.events().to_vec(), result)
}

/// Cuts `bytes` into consecutive chunks whose lengths cycle through
/// `sizes`.
fn split<'a>(bytes: &'a [u8], sizes: &[usize]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut rest = bytes;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

/// A reader that returns at most `sizes[call % len]` bytes per `read`
/// and fails call number `interrupt_at` with `Interrupted`.
struct Trickle<'a> {
    bytes: &'a [u8],
    sizes: &'a [usize],
    calls: usize,
    interrupt_at: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let call = self.calls;
        self.calls += 1;
        if call == self.interrupt_at {
            return Err(io::ErrorKind::Interrupted.into());
        }
        let n = self.sizes[call % self.sizes.len()]
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Replays through `replay_trace` over a [`Trickle`] reader, checking
/// that the injected `Interrupted` was really hit. `reach` is how many
/// bytes the decoder must take before its verdict.
fn replay(bytes: &[u8], sizes: &[usize], interrupt: usize, reach: usize) -> Outcome {
    let largest = sizes.iter().copied().max().unwrap_or(1);
    // Taking `reach` bytes needs at least `reach / largest` calls,
    // rounded up, and an empty stream still makes one call.
    let interrupt_at = interrupt % reach.div_ceil(largest).max(1);
    let mut reader = Trickle {
        bytes,
        sizes,
        calls: 0,
        interrupt_at,
    };
    let mut sink = VecTrace::new();
    let result = replay_trace(&mut reader, &mut sink).map_err(|err| format!("{err:?}"));
    assert!(
        reader.calls > interrupt_at,
        "the Interrupted read was never made"
    );
    (sink.events().to_vec(), result)
}

/// Checks that chunked feeding and the trickling reader both match the
/// whole-buffer feed, and that the whole-buffer feed is `expected`.
fn assert_split_invariant(
    bytes: &[u8],
    sizes: &[usize],
    interrupt: usize,
    reach: usize,
    expected: &Outcome,
) -> Result<(), String> {
    let whole = decode([bytes]);
    if &whole != expected {
        return Err(format!("whole feed {whole:?}, expected {expected:?}"));
    }
    let chunked = decode(split(bytes, sizes));
    if chunked != whole {
        return Err(format!("chunked feed {chunked:?} != whole feed {whole:?}"));
    }
    let replayed = replay(bytes, sizes, interrupt, reach);
    if replayed != whole {
        return Err(format!("replay_trace {replayed:?} != whole feed {whole:?}"));
    }
    Ok(())
}

fn error(err: TraceError) -> Result<u64, String> {
    Err(format!("{err:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A valid trace decodes to the events written, however it is split.
    #[test]
    fn every_split_of_a_valid_trace_decodes_the_same(
        events in arb_events(),
        sizes in prop::collection::vec(1usize..=64, 1..16),
        interrupt in 0usize..=usize::MAX,
    ) {
        let bytes = encode(&events);
        let expected = (events.clone(), Ok(events.len() as u64));
        let verdict = assert_split_invariant(&bytes, &sizes, interrupt, bytes.len(), &expected);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// A stream cut inside the header or inside a record is torn, and
    /// every whole record before the cut is still delivered.
    #[test]
    fn every_split_of_a_cut_trace_reports_a_torn_record(
        events in arb_events(),
        sizes in prop::collection::vec(1usize..=64, 1..16),
        interrupt in 0usize..=usize::MAX,
        record in 0usize..40,
        offset in 0usize..RECORD_BYTES,
        in_header in 0u8..2,
    ) {
        let bytes = encode(&events);
        let (cut, delivered) = if in_header == 1 {
            (offset % HEADER_BYTES, 0)
        } else {
            let record = record % events.len();
            (HEADER_BYTES + record * RECORD_BYTES + 1 + offset % (RECORD_BYTES - 1), record)
        };
        let expected = (events[..delivered].to_vec(), error(TraceError::TornRecord));
        let verdict = assert_split_invariant(&bytes[..cut], &sizes, interrupt, cut, &expected);
        prop_assert!(verdict.is_ok(), "cut at {}: {}", cut, verdict.unwrap_err());
    }

    /// A wrong magic, a wrong version and a kind byte of 3 or more are
    /// named as such, after the records before a bad one.
    #[test]
    fn every_split_of_a_corrupt_trace_names_the_fault(
        events in arb_events(),
        sizes in prop::collection::vec(1usize..=64, 1..16),
        interrupt in 0usize..=usize::MAX,
        fault in 0u8..3,
        position in 0usize..40,
        value in 0u32..=u32::MAX,
    ) {
        let mut bytes = encode(&events);
        let (reach, expected) = match fault {
            0 => {
                let at = position % 4;
                bytes[at] = bytes[at].wrapping_add(1 + (value % 255) as u8);
                (HEADER_BYTES, (Vec::new(), error(TraceError::BadMagic)))
            }
            1 => {
                let found = if value == 1 { 2 } else { value };
                bytes[4..HEADER_BYTES].copy_from_slice(&found.to_le_bytes());
                (HEADER_BYTES, (Vec::new(), error(TraceError::UnsupportedVersion { found })))
            }
            _ => {
                let record = position % events.len();
                let kind = 3 + (value % 253) as u8;
                let end = HEADER_BYTES + (record + 1) * RECORD_BYTES;
                bytes[end - 1] = kind;
                (end, (events[..record].to_vec(), error(TraceError::InvalidKind(kind))))
            }
        };
        let verdict = assert_split_invariant(&bytes, &sizes, interrupt, reach, &expected);
        prop_assert!(verdict.is_ok(), "fault {}: {}", fault, verdict.unwrap_err());
    }
}
