//! Request-scoped tracing: trace ids, per-stage latency attribution,
//! and the glue between the hot path and the telemetry flight
//! recorder.
//!
//! Overhead is bounded by construction: the per-request state is a
//! few raw `Instant`s and `u32`s stamped on structs the hot path
//! already owns ([`ReqTrace`] rides inside `Request`, [`StageTrace`]
//! lives on the worker's stack), the response headers are rendered
//! with integer formatters straight into the connection's output
//! buffer, and publishing a record is one seqlock slot store
//! (see `leakage_telemetry::recorder`). `--no-recorder` turns all of
//! it off for A/B measurement (`scripts/bench_serving.sh`).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use leakage_telemetry::{RequestRecord, FLAG_CACHE_HIT, FLAG_CATALOG_HIT, FLAG_PANIC, FLAG_SHED};

/// Per-request trace context, carried inside `Request` from the
/// reactor's parser through the admission queue to the worker.
#[derive(Debug, Clone, Copy)]
pub struct ReqTrace {
    /// Trace id: accepted from `X-Request-Id` or generated from a
    /// seeded counter. Never 0 once assigned.
    pub id: u64,
    /// The id came from the client's `X-Request-Id` header: the
    /// caller opted into tracing, so its response carries the full
    /// `Server-Timing` attribution. Generated-id requests are still
    /// recorded in the flight recorder but only echo the id — that
    /// keeps the per-response wire cost of always-on tracing to one
    /// short header.
    pub from_client: bool,
    /// When the request finished parsing (the moment it became
    /// eligible for the admission queue).
    pub parsed_at: Instant,
    /// HTTP parse duration, microseconds.
    pub parse_us: u32,
    /// Request bytes consumed off the socket.
    pub req_bytes: u32,
}

impl Default for ReqTrace {
    fn default() -> Self {
        ReqTrace {
            id: 0,
            from_client: false,
            parsed_at: Instant::now(),
            parse_us: 0,
            req_bytes: 0,
        }
    }
}

/// Global trace-id source: a seeded counter passed through a
/// SplitMix64 finalizer (no `rand` in this workspace). Deterministic
/// per process, unique per request, well-mixed bits.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(0x7061_7065_725f_7472);

/// Generates a fresh nonzero trace id.
pub fn next_trace_id() -> u64 {
    let mut z = NEXT_TRACE.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z = z ^ (z >> 31);
    if z == 0 {
        1
    } else {
        z
    }
}

/// Maps an `X-Request-Id` header value to a u64 trace id: a decimal
/// u64 is taken verbatim (so clients see their own id echoed and can
/// find it in `/debug/requests`), a `0x`-prefixed hex id likewise;
/// anything else is FNV-1a-hashed. Empty/zero values mean "generate".
pub fn parse_trace_id(value: &str) -> u64 {
    let value = value.trim();
    if value.is_empty() {
        return 0;
    }
    if let Ok(id) = value.parse::<u64>() {
        return id;
    }
    if let Some(hex) = value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        if let Ok(id) = u64::from_str_radix(hex, 16) {
            return id;
        }
    }
    let hash = leakage_faults::checksum::fnv1a(value.as_bytes());
    if hash == 0 {
        1
    } else {
        hash
    }
}

/// Stage attribution filled in by the handler while it runs. `Cell`s
/// so `routes::handle` can update it through a shared reference from
/// inside `catch_unwind(AssertUnwindSafe(..))`.
#[derive(Debug, Default)]
pub struct StageTrace {
    /// Time spent waiting for a sim/sweep concurrency permit.
    pub permit_us: Cell<u32>,
    /// Time spent in the profile store / query compute.
    pub store_us: Cell<u32>,
    /// Served from the response cache.
    pub cache_hit: Cell<bool>,
    /// Served from the pre-serialized artifact catalog.
    pub catalog_hit: Cell<bool>,
    /// Shed (no permit / queue full).
    pub shed: Cell<bool>,
    /// The handler panicked (answered 500).
    pub panicked: Cell<bool>,
}

impl StageTrace {
    /// Packs the outcome flags into the record's flag byte.
    pub fn flags(&self) -> u8 {
        let mut flags = 0;
        if self.shed.get() {
            flags |= FLAG_SHED;
        }
        if self.panicked.get() {
            flags |= FLAG_PANIC;
        }
        if self.cache_hit.get() {
            flags |= FLAG_CACHE_HIT;
        }
        if self.catalog_hit.get() {
            flags |= FLAG_CATALOG_HIT;
        }
        flags
    }
}

/// A record waiting for its batch's socket write: everything is known
/// except `write_us`/`total_us`/`end_us`, which the worker fills in
/// after `flush_output` so the recorder sees the real write cost.
#[derive(Debug, Clone, Copy)]
pub struct PendingRecord {
    /// The request's parse-completion instant (total = parse_us +
    /// elapsed since this at flush time).
    pub parsed_at: Instant,
    /// The partially-filled record.
    pub record: RequestRecord,
}

/// Saturating `Duration` → whole microseconds in u32 (71 minutes
/// saturates — far past any request timeout).
pub fn us32(duration: Duration) -> u32 {
    u32::try_from(duration.as_micros()).unwrap_or(u32::MAX)
}

/// Fixed-size stack writer for header rendering: digits and literals
/// land in one buffer that is appended to the connection's output in
/// a single `extend_from_slice`, instead of per-digit `Vec` pushes on
/// the hot path.
struct HeaderBuf {
    buf: [u8; 256],
    len: usize,
}

impl HeaderBuf {
    fn new() -> HeaderBuf {
        HeaderBuf {
            buf: [0; 256],
            len: 0,
        }
    }

    fn lit(&mut self, s: &[u8]) {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
    }

    fn u64(&mut self, value: u64) {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        let mut v = value;
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.lit(&digits[i..]);
    }

    /// Microseconds as `Server-Timing` milliseconds
    /// (`<ms>.<3-digit-fraction>`), e.g. `1234` → `1.234`.
    fn ms(&mut self, us: u32) {
        self.u64(u64::from(us / 1000));
        let frac = us % 1000;
        self.lit(&[
            b'.',
            b'0' + (frac / 100) as u8,
            b'0' + (frac / 10 % 10) as u8,
            b'0' + (frac % 10) as u8,
        ]);
    }
}

/// Renders `record`'s trace headers between a `WireResponse`'s shared
/// head and its `Connection` line: the `X-Request-Id` echo, plus the
/// `Server-Timing` attribution line when `timing` is set (the request
/// carried a client-supplied id — tracing callers get the full
/// breakdown, everyone else pays only for the one-line echo).
///
/// `write` happens *after* this header is rendered, so it reports
/// `prev_write_us`, the connection's previous flushed batch (0 on the
/// first); the flight-recorder record carries the exact value.
pub fn render_timing(out: &mut Vec<u8>, record: &RequestRecord, prev_write_us: u32, timing: bool) {
    let mut h = HeaderBuf::new();
    h.lit(b"X-Request-Id: ");
    h.u64(record.trace_id);
    if timing {
        h.lit(b"\r\nServer-Timing: parse;dur=");
        h.ms(record.parse_us);
        h.lit(b", queue;dur=");
        h.ms(record.queue_us);
        h.lit(b", permit;dur=");
        h.ms(record.permit_us);
        h.lit(b", handler;dur=");
        h.ms(record.handler_us);
        h.lit(b", store;dur=");
        h.ms(record.store_us);
        h.lit(b", write;dur=");
        h.ms(prev_write_us);
    }
    h.lit(b"\r\n");
    out.extend_from_slice(&h.buf[..h.len]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = next_trace_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate generated trace id {id}");
        }
    }

    #[test]
    fn client_ids_round_trip() {
        assert_eq!(parse_trace_id("424242"), 424242);
        assert_eq!(parse_trace_id(" 7 "), 7);
        assert_eq!(parse_trace_id("0xff"), 255);
        assert_eq!(parse_trace_id(""), 0);
        assert_eq!(parse_trace_id("0"), 0, "zero means generate");
        let hashed = parse_trace_id("req-abc-123");
        assert_ne!(hashed, 0);
        assert_eq!(hashed, parse_trace_id("req-abc-123"), "hash is stable");
    }

    #[test]
    fn timing_header_renders_ms_with_micros_fraction() {
        let mut out = Vec::new();
        let record = RequestRecord {
            trace_id: 42,
            parse_us: 1,
            queue_us: 1234,
            permit_us: 0,
            handler_us: 50_000,
            store_us: 49_999,
            ..RequestRecord::default()
        };
        render_timing(&mut out, &record, 345, true);
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "X-Request-Id: 42\r\nServer-Timing: parse;dur=0.001, \
             queue;dur=1.234, permit;dur=0.000, handler;dur=50.000, \
             store;dur=49.999, write;dur=0.345\r\n"
        );
    }

    #[test]
    fn untraced_requests_only_get_the_id_echo() {
        let mut out = Vec::new();
        let record = RequestRecord {
            trace_id: u64::MAX,
            ..RequestRecord::default()
        };
        render_timing(&mut out, &record, 0, false);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            format!("X-Request-Id: {}\r\n", u64::MAX),
        );
    }

    #[test]
    fn u64_rendering_matches_display() {
        for value in [0u64, 7, 10, 999, 1000, u64::MAX] {
            let mut h = HeaderBuf::new();
            h.u64(value);
            assert_eq!(&h.buf[..h.len], value.to_string().as_bytes());
        }
    }
}
