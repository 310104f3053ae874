//! Streaming trace ingestion: `POST /v1/trace/intervals`.
//!
//! Clients upload an LKTR trace (see [`leakage_trace::io`]) and get
//! back a per-line interval summary computed by the streaming
//! extractor ([`leakage_intervals::StreamingExtractor`]). Two body
//! framings are served:
//!
//! - `Content-Length`: the body arrives buffered through the normal
//!   parse path (bounded by the parser's body cap) and is handled in
//!   [`crate::routes`] via [`intervals_from_bytes`].
//! - `Transfer-Encoding: chunked`: the body is **never** buffered
//!   whole. The request completes at the end of its header block, the
//!   worker takes exclusive ownership of the socket (the reactor
//!   guarantees a connection is owned by exactly one worker at a
//!   time), and [`serve_upload`] pumps wire bytes through the
//!   connection core's chunk deframer ([`crate::conn::Core`]) →
//!   [`StreamDecoder`] → extractor pipeline.
//!   Peak memory is one read chunk plus the decoder's partial-record
//!   tail plus the extractor's per-line state. That state is one entry
//!   per distinct line the trace touches (lines are never retired
//!   before the summary), so it grows with the trace's line footprint,
//!   not its length: a million-event trace over a few hundred lines
//!   streams through a small, fixed-size worker.
//!
//! Limits: decoded chunked bodies are capped at
//! [`crate::conn::MAX_DECODED_BODY`] bytes (413 beyond it), the line
//! footprint of either framing at [`MAX_RESIDENT_LINES`] (413 beyond
//! it), and `line_bits` at [`MAX_LINE_BITS`]. Uploads are counted in
//! `server_trace_uploads_total` / `server_trace_upload_bytes_total`;
//! the `trace` route has the standard per-route request counter and
//! latency histogram, and an upload's answer is written and recorded
//! by the worker like any other response.

use crate::conn::Event;
use crate::http::{Request, Response, WireResponse};
use crate::reactor::Connection;
use crate::routes::{self, RouteContext};
use leakage_intervals::{IntervalTally, StreamingExtractor};
use leakage_telemetry::json;
use leakage_telemetry::registry;
use leakage_trace::io::StreamDecoder;
use leakage_trace::TraceError;
use std::io::{self, Read};
use std::time::Instant;

/// Most distinct lines one upload may touch (413 beyond): 2^18, six
/// times the 41,942 records a 1 MiB `Content-Length` body holds.
/// Measured on x86-64 with distinct-line loads and a counting
/// allocator, the extractor holds 8.6 MiB at the cap (the open-line
/// map's 8.5 MiB and its fixed 96 KiB front), and the upload peaks at
/// 23.0 MiB, the tally's 128 KiB included, once finalization adds one
/// trailing-interval class per line; the map is freed before that
/// summary grows. Checked after each fed buffer, so the map overshoots
/// by at most that buffer's records.
pub const MAX_RESIDENT_LINES: usize = 1 << 18;

/// Largest accepted `line_bits` query value (a 16M-line index space;
/// beyond this the per-line state stops being "cache-shaped").
pub const MAX_LINE_BITS: u32 = 24;

/// Cache-line address bits assumed when the query names none — 64-byte
/// lines, matching the paper's simulated hierarchy.
pub const DEFAULT_LINE_BITS: u32 = 6;

/// Socket read size while pumping a chunked body.
const READ_CHUNK: usize = 16 * 1024;

/// Parses the `line_bits` query parameter.
fn parse_line_bits(request: &Request) -> Result<u32, Response> {
    match request.query_param("line_bits") {
        None => Ok(DEFAULT_LINE_BITS),
        Some(raw) => match raw.parse::<u32>() {
            Ok(bits) if bits <= MAX_LINE_BITS => Ok(bits),
            _ => Err(Response::error(
                400,
                &format!("bad line_bits {raw:?}: expected 0..={MAX_LINE_BITS}"),
            )),
        },
    }
}

/// An in-flight trace upload: LKTR record decoding feeding the
/// streaming per-line extractor, which counts into a dense tally.
/// Constant memory per touched line, at most [`MAX_RESIDENT_LINES`] of
/// them; nothing retains the body.
struct TraceIngest {
    decoder: StreamDecoder,
    extractor: StreamingExtractor<IntervalTally>,
    line_bits: u32,
}

impl TraceIngest {
    fn new(line_bits: u32) -> Self {
        TraceIngest {
            decoder: StreamDecoder::new(),
            extractor: StreamingExtractor::new(line_bits, IntervalTally::new()),
            line_bits,
        }
    }

    /// Feeds body bytes: 400 on a malformed trace, 413 once the trace
    /// touches more than [`MAX_RESIDENT_LINES`] lines.
    fn feed(&mut self, bytes: &[u8]) -> Result<(), Response> {
        self.decoder
            .feed(bytes, &mut self.extractor)
            .map_err(bad_trace)?;
        if self.extractor.resident_lines() > MAX_RESIDENT_LINES {
            return Err(Response::error(
                413,
                &format!("trace touches more than {MAX_RESIDENT_LINES} distinct lines"),
            ));
        }
        Ok(())
    }

    /// Finalizes open intervals at the watermark and renders the
    /// summary document (400 if the body ends mid-record).
    fn finish(self) -> Result<Response, Response> {
        self.decoder.finish().map_err(bad_trace)?;
        let extractor = self.extractor;
        let events = extractor.events();
        let lines = extractor.resident_lines() as u64;
        let peak = extractor.peak_resident_lines() as u64;
        let end_cycle = extractor.watermark().map_or(0, |last| last.raw() + 1);
        let dist = extractor.finish().into_dist();
        Ok(Response::json(
            200,
            json::object([
                json::key("events") + &events.to_string(),
                json::key("line_bits") + &self.line_bits.to_string(),
                json::key("lines") + &lines.to_string(),
                json::key("peak_resident_lines") + &peak.to_string(),
                json::key("end_cycle") + &end_cycle.to_string(),
                json::key("intervals") + &dist.total_intervals().to_string(),
                json::key("interval_classes") + &(dist.num_classes() as u64).to_string(),
                json::key("interval_cycles") + &dist.total_cycles().to_string(),
            ]),
        ))
    }
}

/// The buffered (`Content-Length`) handler behind `POST
/// /v1/trace/intervals` — same decode/extract pipeline as the chunked
/// path, so both framings produce identical summaries for identical
/// bodies.
pub fn intervals_from_bytes(request: &Request) -> Response {
    let line_bits = match parse_line_bits(request) {
        Ok(bits) => bits,
        Err(response) => return response,
    };
    count_upload(request.body.len() as u64);
    let mut ingest = TraceIngest::new(line_bits);
    match ingest.feed(&request.body).and_then(|()| ingest.finish()) {
        Ok(response) | Err(response) => response,
    }
}

fn bad_trace(err: TraceError) -> Response {
    Response::error(400, &format!("bad trace body: {err}"))
}

fn count_upload(body_bytes: u64) {
    let reg = registry();
    reg.counter("server_trace_uploads_total").inc();
    reg.counter("server_trace_upload_bytes_total")
        .add(body_bytes);
}

/// Reads one chunked upload's body through the connection core on a
/// worker-owned socket and returns the answer, which the worker writes
/// and records like any other. An answer given before the body's end
/// (a refused route, a bad trace, the core's 408 for a stalled body)
/// leaves it unread, so the core's fate rule closes the connection.
pub(crate) fn serve_upload(
    conn: &mut Connection,
    request: &Request,
    ctx: &RouteContext,
) -> WireResponse {
    let route = routes::route_name(request);
    ctx.metrics.count_route(route);
    let response = if request.method == "POST" && route == "trace" {
        // The upload block-reads the reactor's nonblocking socket, each
        // read bounded by the idle timeout; readiness mode is restored
        // after the body.
        let _ = conn.stream.set_nonblocking(false);
        let _ = conn.stream.set_read_timeout(Some(conn.core.idle_timeout()));
        let outcome = pump_chunked_body(conn, request);
        let _ = conn.stream.set_nonblocking(true);
        outcome.unwrap_or_else(|refused| refused)
    } else {
        // Any other route would have to drain an unbounded body it
        // will not use; ask the client to frame with Content-Length.
        Response::error(
            411,
            "chunked bodies are only accepted on POST /v1/trace/intervals",
        )
    };
    response.into_wire()
}

/// Pumps the chunked body from the core and the socket into the
/// extractor, until the body ends or is refused.
fn pump_chunked_body(conn: &mut Connection, request: &Request) -> Result<Response, Response> {
    let line_bits = parse_line_bits(request)?;
    let mut ingest = TraceIngest::new(line_bits);
    let mut body_bytes = 0u64;
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match conn.core.next_event() {
            Event::Body(bytes) => {
                body_bytes += bytes.len() as u64;
                ingest.feed(bytes)?;
            }
            Event::BodyEnd => break,
            Event::Bad(bad) => return Err(bad.into()),
            Event::NeedMore => match (&conn.stream).read(&mut chunk) {
                Ok(n) if n > 0 => conn.core.feed(&chunk[..n], Instant::now()),
                // The read timed out: the core decides whether the body
                // stalled past its deadline (408).
                Err(err)
                    if err.kind() == io::ErrorKind::WouldBlock
                        || err.kind() == io::ErrorKind::TimedOut =>
                {
                    conn.core.tick(Instant::now());
                }
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                // End of stream or a failed read: nothing more arrives,
                // and the core answers the unfinished body.
                _ => conn.core.feed_eof(Instant::now()),
            },
            Event::Request(_) | Event::Closed => {
                unreachable!("a chunked body ends in BodyEnd or Bad")
            }
        }
    }
    count_upload(body_bytes);
    ingest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakage_telemetry::json::Json;
    use leakage_trace::{Address, Cycle, MemoryAccess, Pc, TraceSink};

    /// An LKTR body with `events` loads walking one address per cycle.
    fn lktr_body(events: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut writer = leakage_trace::io::TraceWriter::new(&mut buf).unwrap();
        for i in 0..events {
            TraceSink::accept(
                &mut writer,
                MemoryAccess::load(Cycle::new(i), Pc::new(0x2000), Address::new(i * 64)),
            );
        }
        writer.flush().unwrap();
        drop(writer);
        buf
    }

    fn post(path: &str, query: &[(&str, &str)], body: Vec<u8>) -> Request {
        let mut request = Request::get(path);
        request.method = "POST".to_string();
        request.query = query
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        request.body = body;
        request
    }

    #[test]
    fn buffered_upload_summarizes_intervals() {
        let request = post("/v1/trace/intervals", &[], lktr_body(16));
        let response = intervals_from_bytes(&request);
        assert_eq!(response.status, 200);
        let doc = json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(doc.get("events").and_then(Json::as_f64), Some(16.0));
        assert_eq!(doc.get("lines").and_then(Json::as_f64), Some(16.0));
        assert_eq!(doc.get("line_bits").and_then(Json::as_f64), Some(6.0));
        assert_eq!(doc.get("end_cycle").and_then(Json::as_f64), Some(16.0));
        // One trailing interval per line, nothing reaccessed.
        assert_eq!(doc.get("intervals").and_then(Json::as_f64), Some(16.0));
    }

    #[test]
    fn line_bits_is_validated() {
        let request = post("/v1/trace/intervals", &[("line_bits", "99")], lktr_body(1));
        assert_eq!(intervals_from_bytes(&request).status, 400);
        let request = post("/v1/trace/intervals", &[("line_bits", "0")], lktr_body(4));
        assert_eq!(intervals_from_bytes(&request).status, 200);
    }

    #[test]
    fn garbage_body_is_a_400() {
        let request = post("/v1/trace/intervals", &[], b"not an LKTR stream".to_vec());
        assert_eq!(intervals_from_bytes(&request).status, 400);
    }

    #[test]
    fn empty_trace_summarizes_to_zeros() {
        let request = post("/v1/trace/intervals", &[], lktr_body(0));
        let response = intervals_from_bytes(&request);
        assert_eq!(response.status, 200);
        let doc = json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(doc.get("events").and_then(Json::as_f64), Some(0.0));
        assert_eq!(doc.get("intervals").and_then(Json::as_f64), Some(0.0));
    }
}
