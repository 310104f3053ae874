//! End-to-end tests of the executed-workload serving surface:
//!
//! - `GET /v1/profile/isa:<program>` must report exactly the numbers
//!   the batch pipeline computes for that program.
//! - `POST /v1/trace/intervals` must accept both `Content-Length` and
//!   `Transfer-Encoding: chunked` framings, produce identical
//!   summaries for identical bodies, and stream chunked bodies larger
//!   than the buffered-parse cap without ever holding them whole.
//! - The streaming extractor's resident state must stay bounded by
//!   the trace's line footprint while ingesting a >1M-event
//!   pointer-chase trace, and an upload whose footprint passes the
//!   server's resident-line cap is refused with 413.

use cache_leakage_limits::experiments::ProfileStore;
use cache_leakage_limits::intervals::{CompactIntervalDist, StreamingExtractor};
use cache_leakage_limits::isa::{program_by_name, IsaSource};
use cache_leakage_limits::server::streaming::MAX_RESIDENT_LINES;
use cache_leakage_limits::server::{fetch, Server, ServerConfig};
use cache_leakage_limits::telemetry::json::{self, Json};
use cache_leakage_limits::trace::io::TraceWriter;
use cache_leakage_limits::trace::{Address, Cycle, MemoryAccess, Pc, TraceSink, TraceSource};
use cache_leakage_limits::workloads::Scale;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn test_config() -> ServerConfig {
    ServerConfig {
        default_scale: Scale::Test,
        ..ServerConfig::default()
    }
}

/// Serializes an ISA program execution into LKTR wire bytes.
fn lktr_trace(program: &str, budget_cycles: u64, seed: u64) -> Vec<u8> {
    let program = program_by_name(program).expect("library program");
    let mut body = Vec::new();
    let mut writer = TraceWriter::new(&mut body).expect("Vec sink cannot fail");
    IsaSource::new(program, budget_cycles, seed).run(&mut writer);
    writer.flush().expect("Vec sink cannot fail");
    drop(writer);
    body
}

/// The summary the server must produce for `body`, computed in
/// process by the same streaming extractor.
fn expected_summary(body: &[u8], line_bits: u32) -> (u64, u64, u64) {
    let mut extractor = StreamingExtractor::new(line_bits, CompactIntervalDist::new());
    let mut decoder = cache_leakage_limits::trace::io::StreamDecoder::new();
    decoder.feed(body, &mut extractor).expect("valid trace");
    decoder.finish().expect("complete records");
    let events = extractor.events();
    let lines = extractor.resident_lines() as u64;
    let dist = extractor.finish();
    (events, lines, dist.total_intervals())
}

/// Sends `body` as a chunked POST in `chunk`-byte chunks (plus
/// `tail` pipelined after the terminator), half-closes, and returns
/// every byte the server sends back before closing its half.
fn chunked_post(addr: SocketAddr, target: &str, body: &[u8], chunk: usize, tail: &[u8]) -> Vec<u8> {
    let mut request = chunked_request(target, "", body, chunk);
    request.extend_from_slice(tail);
    exchange(addr, &request, true)
}

/// Frames `body` as one chunked `POST` in `chunk`-byte chunks, with
/// `extra_headers` (each line CRLF-terminated) in the header block.
fn chunked_request(target: &str, extra_headers: &str, body: &[u8], chunk: usize) -> Vec<u8> {
    let mut raw = format!(
        "POST {target} HTTP/1.1\r\nHost: t\r\n{extra_headers}Transfer-Encoding: chunked\r\n\r\n"
    )
    .into_bytes();
    for piece in body.chunks(chunk.max(1)) {
        raw.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
        raw.extend_from_slice(piece);
        raw.extend_from_slice(b"\r\n");
    }
    raw.extend_from_slice(b"0\r\n\r\n");
    raw
}

/// Writes `request`, half-closing after it when `half_close` is set
/// (otherwise only the server can end the exchange), and returns every
/// byte received before the server's FIN.
fn exchange(addr: SocketAddr, request: &[u8], half_close: bool) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(CLIENT_TIMEOUT))
        .expect("read timeout");
    stream.write_all(request).expect("write request");
    if half_close {
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read responses");
    raw
}

/// Splits one `Content-Length`-framed response off the front of `raw`,
/// returning (status, body, rest).
fn split_response(raw: &[u8]) -> (u16, Vec<u8>, Vec<u8>) {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator")
        + 4;
    let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let length: usize = head
        .lines()
        .find_map(|line| line.strip_prefix("Content-Length: "))
        .expect("Content-Length")
        .trim()
        .parse()
        .expect("numeric length");
    let body = raw[head_end..head_end + length].to_vec();
    let rest = raw[head_end + length..].to_vec();
    (status, body, rest)
}

#[test]
fn served_isa_profiles_match_batch_pipeline() {
    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();

    for name in ["isa:matmul", "isa:chase", "isa:memcpy"] {
        let batch = ProfileStore::global().fetch(name, Scale::Test);
        let path = format!("/v1/profile/{name}?scale=test");
        let response = fetch(addr, "GET", &path, None, CLIENT_TIMEOUT).expect("served profile");
        assert_eq!(response.status, 200, "{name}: {}", response.text());
        let doc = json::parse(&response.text()).expect("summary parses");
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some(name));
        for (side, profile) in [("icache", &batch.icache), ("dcache", &batch.dcache)] {
            let served = doc.get(side).expect("side object");
            let num = |key: &str| served.get(key).and_then(Json::as_f64).expect("field");
            assert_eq!(
                num("accesses") as u64,
                profile.cache.accesses,
                "{name}/{side}"
            );
            assert_eq!(num("hits") as u64, profile.cache.hits, "{name}/{side}");
            assert_eq!(num("misses") as u64, profile.cache.misses, "{name}/{side}");
            assert_eq!(
                num("total_intervals") as u64,
                profile.dist.total_intervals(),
                "{name}/{side}"
            );
            assert_eq!(
                num("interval_cycles") as u64,
                profile.dist.total_cycles(),
                "{name}/{side}"
            );
        }

        // Serving is deterministic: a second fetch is byte-identical.
        let again = fetch(addr, "GET", &path, None, CLIENT_TIMEOUT).expect("refetch");
        assert_eq!(
            again.body, response.body,
            "{name}: served bytes must be stable"
        );
    }
    server.shutdown();
}

#[test]
fn buffered_and_chunked_uploads_summarize_identically() {
    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();
    let body = lktr_trace("isa:isort", 20_000, 11);

    let buffered = fetch(
        addr,
        "POST",
        "/v1/trace/intervals?line_bits=6",
        Some(&body),
        CLIENT_TIMEOUT,
    )
    .expect("buffered upload");
    assert_eq!(buffered.status, 200, "{}", buffered.text());

    // The same body chunked in awkward 1000-byte pieces, with a
    // pipelined GET riding behind the terminating chunk.
    let raw = chunked_post(
        addr,
        "/v1/trace/intervals?line_bits=6",
        &body,
        1000,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let (status, chunked_body, rest) = split_response(&raw);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&chunked_body));
    assert_eq!(
        chunked_body, buffered.body,
        "chunked and buffered framings must summarize byte-identically"
    );
    let (tail_status, tail_body, _) = split_response(&rest);
    assert_eq!(
        tail_status, 200,
        "pipelined request after the body is served"
    );
    assert!(
        String::from_utf8_lossy(&tail_body).contains("\"status\": \"ok\""),
        "pipelined /healthz answered"
    );

    // And the summary is the streaming extractor's, exactly.
    let (events, lines, intervals) = expected_summary(&body, 6);
    let doc = json::parse(&buffered.text()).expect("summary parses");
    assert_eq!(
        doc.get("events").and_then(Json::as_f64),
        Some(events as f64)
    );
    assert_eq!(doc.get("lines").and_then(Json::as_f64), Some(lines as f64));
    assert_eq!(
        doc.get("intervals").and_then(Json::as_f64),
        Some(intervals as f64)
    );
    server.shutdown();
}

#[test]
fn chunked_upload_streams_past_the_buffered_body_cap() {
    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();

    // Enough pointer-chase events that the LKTR body exceeds the 1 MiB
    // buffered-parse cap several times over.
    let body = lktr_trace("isa:chase", 1_500_000, 3);
    assert!(
        body.len() > 4 * 1024 * 1024,
        "trace must dwarf the buffered cap, got {} bytes",
        body.len()
    );

    // Content-Length framing refuses it outright. The server answers
    // 413 from the header block alone and closes; a client mid-way
    // through the multi-megabyte write may see the reset instead of
    // the status, so both count as refusal.
    match fetch(
        addr,
        "POST",
        "/v1/trace/intervals",
        Some(&body),
        CLIENT_TIMEOUT,
    ) {
        Ok(buffered) => assert_eq!(buffered.status, 413, "{}", buffered.text()),
        Err(_reset_mid_write) => {}
    }

    // ...while chunked framing streams it through fixed-size state.
    let raw = chunked_post(addr, "/v1/trace/intervals", &body, 64 * 1024, b"");
    let (status, summary, _) = split_response(&raw);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&summary));
    let (events, lines, intervals) = expected_summary(&body, 6);
    let doc = json::parse(std::str::from_utf8(&summary).expect("UTF-8")).expect("parses");
    assert_eq!(
        doc.get("events").and_then(Json::as_f64),
        Some(events as f64)
    );
    assert_eq!(doc.get("lines").and_then(Json::as_f64), Some(lines as f64));
    assert_eq!(
        doc.get("intervals").and_then(Json::as_f64),
        Some(intervals as f64)
    );
    server.shutdown();
}

/// An LKTR body of `lines` loads, each to a distinct 64-byte line.
fn distinct_line_trace(lines: u64) -> Vec<u8> {
    let mut body = Vec::new();
    let mut writer = TraceWriter::new(&mut body).expect("Vec sink cannot fail");
    for i in 0..lines {
        let address = Address::new(i * 64);
        writer.accept(MemoryAccess::load(Cycle::new(i), Pc::new(0x2000), address));
    }
    writer.flush().expect("Vec sink cannot fail");
    drop(writer);
    body
}

/// The resident-line cap: an upload touching exactly
/// `MAX_RESIDENT_LINES` lines is summarized; one more line is refused
/// with 413 and the connection closes behind it.
#[test]
fn chunked_upload_past_the_resident_line_cap_is_refused() {
    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();
    let cap = MAX_RESIDENT_LINES as u64;

    let target = "/v1/trace/intervals";
    let raw = chunked_post(addr, target, &distinct_line_trace(cap), 64 * 1024, b"");
    let (status, summary, _) = split_response(&raw);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&summary));
    let doc = json::parse(std::str::from_utf8(&summary).expect("UTF-8")).expect("parses");
    assert_eq!(doc.get("lines").and_then(Json::as_f64), Some(cap as f64));

    let raw = chunked_post(addr, target, &distinct_line_trace(cap + 1), 64 * 1024, b"");
    let (status, reason, rest) = split_response(&raw);
    assert_eq!(status, 413, "{}", String::from_utf8_lossy(&reason));
    assert!(rest.is_empty(), "nothing may follow the 413");
    server.shutdown();
}

#[test]
fn chunked_bodies_are_refused_off_the_trace_route() {
    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();
    let raw = chunked_post(addr, "/v1/sweep", b"{}", 64, b"");
    let (status, _, _) = split_response(&raw);
    assert_eq!(
        status, 411,
        "chunked off the trace route asks for Content-Length"
    );

    // A body still streaming in when the 411 goes out.
    let request = chunked_request("/v1/sweep", "", &vec![0u8; 4 << 20], 64 * 1024);
    assert_refused_cleanly(addr, &request, 411);
    server.shutdown();
}

/// Requests refused at the header block (413 body too large, 431
/// headers too large) while megabytes are still arriving: the answer
/// and a clean end-of-stream reach the client.
#[test]
fn oversized_requests_are_refused_cleanly_mid_send() {
    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();
    let body = vec![b'0'; 4 << 20];
    let mut too_long = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    too_long.extend_from_slice(&body);
    assert_refused_cleanly(addr, &too_long, 413);

    let mut too_wide = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    too_wide.resize(4 << 20, b'a');
    assert_refused_cleanly(addr, &too_wide, 431);
    server.shutdown();
}

/// Writes `request` from a second thread, 20 times over fresh
/// connections, while reading the reply: the server answers `status`
/// and closes over request bytes it never read, yet the client must
/// read that answer and then a clean end-of-stream, never a reset.
fn assert_refused_cleanly(addr: SocketAddr, request: &[u8], status: u16) {
    for round in 0..20 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(CLIENT_TIMEOUT))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone for the writer");
        let request = request.to_vec();
        // A write error is no failure: the server may stop reading.
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&request);
        });
        let mut raw = Vec::new();
        let read = stream.read_to_end(&mut raw);
        sender.join().expect("writer thread");
        assert!(
            read.is_ok(),
            "{status} round {round}: {read:?} after {} bytes",
            raw.len()
        );
        let (answered, _, rest) = split_response(&raw);
        assert_eq!(answered, status, "round {round}");
        assert!(
            rest.is_empty(),
            "round {round}: nothing may follow the {status}"
        );
    }
}

/// Asserts `raw` is a 200 upload summary of `body` that announces
/// `Connection: close`, and is the last response on the wire.
fn assert_closing_upload_answer(raw: &[u8], body: &[u8]) {
    assert!(!raw.is_empty(), "the upload got no response at all");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..head_end]).to_ascii_lowercase();
    let (status, summary, rest) = split_response(raw);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&summary));
    assert!(head.contains("connection: close"), "{head}");
    assert!(rest.is_empty(), "nothing may follow the closing response");
    let (_, _, intervals) = expected_summary(body, 6);
    let doc = json::parse(std::str::from_utf8(&summary).expect("UTF-8")).expect("parses");
    assert_eq!(
        doc.get("intervals").and_then(Json::as_f64),
        Some(intervals as f64)
    );
}

/// A chunked upload that asks for `Connection: close` is still
/// answered, and the answer announces the close.
#[test]
fn chunked_upload_with_connection_close_is_answered() {
    let server = Server::start(test_config()).expect("server starts");
    let body = lktr_trace("isa:memcpy", 5_000, 2);
    let request = chunked_request("/v1/trace/intervals", "Connection: close\r\n", &body, 4096);
    let raw = exchange(server.addr(), &request, false);
    assert_closing_upload_answer(&raw, &body);
    server.shutdown();
}

/// A chunked upload that spends the last of the connection's request
/// budget is answered with `Connection: close`.
#[test]
fn chunked_upload_exhausting_the_request_budget_is_answered() {
    let server = Server::start(ServerConfig {
        max_requests_per_connection: 2,
        ..test_config()
    })
    .expect("server starts");
    let body = lktr_trace("isa:memcpy", 5_000, 2);
    let mut request = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_vec();
    request.extend(chunked_request("/v1/trace/intervals", "", &body, 4096));
    let raw = exchange(server.addr(), &request, false);

    let (first_status, first_body, rest) = split_response(&raw);
    assert_eq!(
        first_status,
        200,
        "{}",
        String::from_utf8_lossy(&first_body)
    );
    assert_closing_upload_answer(&rest, &body);
    server.shutdown();
}

/// A chunked upload that stops mid-body is answered 408 with
/// `Connection: close` once its read makes no progress for the idle
/// timeout, and a fresh connection is answered right after.
#[test]
fn stalled_chunked_upload_gets_408_after_the_idle_timeout() {
    let idle = Duration::from_millis(300);
    let server = Server::start(ServerConfig {
        idle_timeout: idle,
        ..test_config()
    })
    .expect("server starts");
    let addr = server.addr();
    let body = lktr_trace("isa:memcpy", 5_000, 2);
    let mut request = chunked_request("/v1/trace/intervals", "", &body, 4096);
    request.truncate(request.len() / 2);

    let bound = idle + Duration::from_secs(2);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(bound)).expect("read timeout");
    let started = Instant::now();
    stream.write_all(&request).expect("write the first half");
    let mut raw = Vec::new();
    let read = stream.read_to_end(&mut raw);
    let waited = started.elapsed();
    assert!(read.is_ok(), "no answer within {bound:?}: {read:?}");
    assert!(waited < bound, "answered after {waited:?}");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..head_end]).to_ascii_lowercase();
    let (status, reason, rest) = split_response(&raw);
    assert_eq!(status, 408, "{}", String::from_utf8_lossy(&reason));
    assert!(head.contains("connection: close"), "{head}");
    assert!(rest.is_empty(), "nothing may follow the 408");
    drop(stream);

    let started = Instant::now();
    let health = fetch(addr, "GET", "/healthz", None, CLIENT_TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "a fresh connection waited {:?}",
        started.elapsed()
    );
    server.shutdown();
}

/// The stage names of the `Server-Timing` header in a response head.
fn timing_stages(raw: &[u8]) -> Vec<String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator");
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let timing = head
        .lines()
        .find_map(|line| line.strip_prefix("Server-Timing: "))
        .unwrap_or_else(|| panic!("no Server-Timing header: {head}"));
    timing
        .split(", ")
        .map(|stage| stage.split(';').next().unwrap_or("").to_string())
        .collect()
}

/// The flight-recorder record of `trace_id`, once it is published.
fn recorded(addr: SocketAddr, trace_id: &str) -> Json {
    for _ in 0..50 {
        let debug = fetch(addr, "GET", "/debug/requests?n=256", None, CLIENT_TIMEOUT)
            .expect("/debug/requests");
        let doc = json::parse(&debug.text()).expect("debug JSON parses");
        let records = doc
            .get("records")
            .and_then(Json::as_array)
            .expect("records");
        if let Some(record) = records
            .iter()
            .find(|r| r.get("trace_id").and_then(Json::as_str) == Some(trace_id))
        {
            return record.clone();
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    panic!("trace {trace_id} never reached /debug/requests");
}

/// A chunked upload that sends `X-Request-Id` is answered and recorded
/// like any other response: the same `Server-Timing` stages as the
/// same body uploaded with `Content-Length`, and a flight-recorder
/// record with its response size and disjoint stages (queue, handler,
/// write) that fit in its total.
#[test]
fn chunked_upload_is_traced_like_any_other_response() {
    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();
    let body = lktr_trace("isa:memcpy", 5_000, 2);

    let mut buffered = format!(
        "POST /v1/trace/intervals HTTP/1.1\r\nX-Request-Id: 31336\r\n\
         Connection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    buffered.extend_from_slice(&body);
    let buffered = exchange(addr, &buffered, false);
    let chunked = chunked_request(
        "/v1/trace/intervals",
        "X-Request-Id: 31337\r\nConnection: close\r\n",
        &body,
        4096,
    );
    let chunked = exchange(addr, &chunked, false);

    assert_eq!(split_response(&buffered).0, 200);
    assert_eq!(split_response(&chunked).0, 200);
    assert!(
        String::from_utf8_lossy(&chunked).contains("X-Request-Id: 31337\r\n"),
        "the client id is echoed"
    );
    let stages = timing_stages(&chunked);
    assert_eq!(stages, timing_stages(&buffered));
    assert!(stages.len() >= 6, "{stages:?}");

    for trace_id in ["31336", "31337"] {
        let record = recorded(addr, trace_id);
        let field = |name: &str| {
            record
                .get(name)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{trace_id}: record field {name}: {record:?}"))
        };
        assert_eq!(record.get("route").and_then(Json::as_str), Some("trace"));
        assert_eq!(field("status"), 200.0, "{trace_id}");
        assert!(field("resp_bytes") > 0.0, "{trace_id}: {record:?}");
        let disjoint = ["parse_us", "queue_us", "handler_us", "write_us"]
            .map(field)
            .iter()
            .sum::<f64>();
        assert!(
            disjoint <= field("total_us"),
            "{trace_id}: disjoint stages {disjoint} exceed the total: {record:?}"
        );
    }
    server.shutdown();
}

/// The bounded-memory acceptance gate: a >1M-event pointer-chase
/// trace flows through the streaming extractor while its resident
/// state never exceeds the program's line footprint — a fixed
/// ceiling about three orders of magnitude below the event count.
#[test]
fn streaming_extractor_stays_line_bounded_on_a_million_event_chase() {
    let program = program_by_name("isa:chase").expect("library program");
    let mut source = IsaSource::new(program, 2_500_000, 5);
    let mut extractor = StreamingExtractor::new(6, CompactIntervalDist::new());
    source.run(&mut extractor);

    let events = extractor.events();
    assert!(
        events > 1_000_000,
        "chase at this budget must emit >1M events, got {events}"
    );
    // Footprint: the 4096-word (32 KiB) chase arena is 512 cache
    // lines, plus the handful of code and scratch lines.
    let peak = extractor.peak_resident_lines();
    assert!(
        peak <= 1024,
        "resident state must track the line footprint, not events: peak {peak}"
    );
    assert_eq!(
        extractor.resident_lines(),
        peak,
        "chase never retires a line, so peak is the final footprint"
    );
    let dist = extractor.finish();
    assert!(
        dist.total_intervals() >= events,
        "every event closes an interval"
    );
}
