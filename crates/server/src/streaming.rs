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
//!   time), and [`serve_upload`] pumps wire bytes through a
//!   [`ChunkedDecoder`] → [`StreamDecoder`] → extractor pipeline.
//!   Peak memory is one read chunk plus the decoder's partial-record
//!   tail plus the extractor's per-resident-line state — independent
//!   of body length, which is what lets a million-event trace stream
//!   through a fixed-size worker.
//!
//! Limits: decoded chunked bodies are capped at
//! [`MAX_DECODED_BODY`] bytes (413 beyond it), `line_bits` at
//! [`MAX_LINE_BITS`]. Uploads are counted in
//! `server_trace_uploads_total` / `server_trace_upload_bytes_total`;
//! the `trace` route has the standard per-route request counter and
//! latency histogram.

use crate::conn::Connection;
use crate::http::{ChunkedDecoder, Request, Response};
use crate::pool::WorkerConfig;
use crate::routes::{self, RouteContext};
use crate::trace::us32;
use leakage_intervals::{CompactIntervalDist, StreamingExtractor};
use leakage_telemetry::json;
use leakage_telemetry::{registry, RequestRecord};
use leakage_trace::io::StreamDecoder;
use leakage_trace::TraceError;
use std::io::{self, Read, Write};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Largest accepted decoded chunked body (wire bytes after chunk
/// deframing, before LKTR record decoding): 256 MiB ≈ 10.7M events.
pub const MAX_DECODED_BODY: u64 = 256 * 1024 * 1024;

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
/// streaming per-line extractor. Constant memory per resident line;
/// nothing retains the body.
struct TraceIngest {
    decoder: StreamDecoder,
    extractor: StreamingExtractor<CompactIntervalDist>,
    line_bits: u32,
}

impl TraceIngest {
    fn new(line_bits: u32) -> Self {
        TraceIngest {
            decoder: StreamDecoder::new(),
            extractor: StreamingExtractor::new(line_bits, CompactIntervalDist::new()),
            line_bits,
        }
    }

    fn feed(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.decoder.feed(bytes, &mut self.extractor)
    }

    /// Finalizes open intervals at the watermark and renders the
    /// summary document.
    fn finish(self) -> Result<Response, TraceError> {
        self.decoder.finish()?;
        let extractor = self.extractor;
        let events = extractor.events();
        let lines = extractor.resident_lines() as u64;
        let peak = extractor.peak_resident_lines() as u64;
        let end_cycle = extractor.watermark().map_or(0, |last| last.raw() + 1);
        let dist = extractor.finish();
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
    if let Err(err) = ingest.feed(&request.body) {
        return Response::error(400, &format!("bad trace body: {err}"));
    }
    match ingest.finish() {
        Ok(response) => response,
        Err(err) => Response::error(400, &format!("bad trace body: {err}")),
    }
}

fn count_upload(body_bytes: u64) {
    let reg = registry();
    reg.counter("server_trace_uploads_total").inc();
    reg.counter("server_trace_upload_bytes_total")
        .add(body_bytes);
}

/// Serves one chunked-upload request on a worker-owned socket.
///
/// The caller has already flushed any batched responses; this
/// function reads the body (starting with bytes already buffered
/// behind the header block), writes its own response, and returns the
/// connection with pipelined successor bytes retained in `conn.buf`
/// and its fate in `conn.close`. Any framing or I/O failure closes:
/// once chunk framing is lost mid-body the request boundary is
/// unknowable.
pub(crate) fn serve_upload(
    mut conn: Connection,
    request: &Request,
    ctx: &RouteContext,
    worker_config: &WorkerConfig,
) -> Connection {
    let started = Instant::now();
    let route = routes::route_name(request);
    ctx.metrics.count_route(route);

    // The upload path block-reads the reactor's nonblocking socket;
    // readiness mode is restored after the response.
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn
        .stream
        .set_read_timeout(Some(worker_config.request_timeout));

    let outcome = if request.method == "POST" && route == "trace" {
        pump_chunked_body(&mut conn, request)
    } else {
        // Any other route would have to drain an unbounded body it
        // will not use; ask the client to frame with Content-Length.
        Err(Response::error(
            411,
            "chunked bodies are only accepted on POST /v1/trace/intervals",
        ))
    };
    let (response, body_ok) = match outcome {
        Ok(response) => (response, true),
        Err(response) => (response, false),
    };

    // An error mid-stream loses chunk framing: the connection cannot
    // be reused even if the socket is healthy.
    let keep_alive = body_ok
        && !conn.close
        && !worker_config.stop.load(Ordering::Relaxed)
        && !(conn.eof && !conn.has_buffered_request());
    let wire = response.into_wire();
    let status = wire.status();
    let wrote = (&conn.stream).write_all(&wire.to_bytes(keep_alive)).is_ok();
    if !wrote {
        ctx.metrics.transport_errors.inc();
    }
    if !keep_alive || !wrote {
        conn.close = true;
    }

    ctx.metrics.requests_total.inc();
    ctx.metrics.count_status(status);
    let total = started.elapsed();
    ctx.metrics
        .record_latency(route, u64::try_from(total.as_micros()).unwrap_or(u64::MAX));
    if let Some(recorder) = ctx.recorder.as_deref() {
        recorder.record(&RequestRecord {
            trace_id: request.trace.id,
            end_us: recorder.now_us(),
            route: routes::route_code(route),
            status,
            req_bytes: request.trace.req_bytes,
            parse_us: request.trace.parse_us,
            handler_us: us32(total),
            total_us: request.trace.parse_us.saturating_add(us32(total)),
            ..RequestRecord::default()
        });
    }

    let _ = conn.stream.set_nonblocking(true);
    conn
}

/// Pumps the chunked body from `conn.buf` + the socket into the
/// extractor. On success, surplus bytes (pipelined successors) are
/// back in `conn.buf`.
fn pump_chunked_body(conn: &mut Connection, request: &Request) -> Result<Response, Response> {
    let line_bits = parse_line_bits(request)?;
    let mut chunks = ChunkedDecoder::new();
    let mut ingest = TraceIngest::new(line_bits);
    // Scratch for one round of deframed bytes; cleared every round so
    // memory stays one chunk deep.
    let mut decoded = Vec::new();
    // Body bytes that arrived pipelined behind the header block.
    let mut wire = std::mem::take(&mut conn.buf);
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        if !wire.is_empty() {
            let used = chunks
                .feed(&wire, &mut decoded)
                .map_err(|bad| Response::error(bad.status, &bad.reason))?;
            if chunks.decoded_bytes() > MAX_DECODED_BODY {
                return Err(Response::error(
                    413,
                    &format!("chunked trace body capped at {MAX_DECODED_BODY} decoded bytes"),
                ));
            }
            ingest
                .feed(&decoded)
                .map_err(|err| Response::error(400, &format!("bad trace body: {err}")))?;
            decoded.clear();
            if chunks.is_done() {
                // Surplus bytes belong to the next pipelined request.
                conn.buf = wire.split_off(used);
                break;
            }
            wire.clear();
        }
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                return Err(Response::error(400, "connection closed mid-chunked-body"));
            }
            Ok(n) => wire.extend_from_slice(&chunk[..n]),
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(Response::error(408, "timed out reading chunked body"));
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.eof = true;
                return Err(Response::error(400, "read error mid-chunked-body"));
            }
        }
    }
    count_upload(chunks.decoded_bytes());
    ingest
        .finish()
        .map_err(|err| Response::error(400, &format!("bad trace body: {err}")))
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
