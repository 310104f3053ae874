//! The sans-IO connection core, checked without sockets.
//!
//! A small shell drives [`Core`] the way the server does: it feeds
//! segments, drains events until "need more", answers each request,
//! 4xx and finished body at once (asking the core for the response's
//! fate), refuses chunked bodies off the trace route without reading
//! them (the 411 path), and stops at the first closing fate.
//!
//! - Every split point of every stream in a corpus of short streams,
//!   and byte-at-a-time feeds, give the events and fates of the unsplit
//!   feed; each stream's unsplit outcome is pinned as well.
//! - Seeded random segmentations of long streams do the same.
//! - Arbitrary bytes in arbitrary segments give only typed 4xx (400,
//!   413, 431), never a panic, and a "need more" only while the core
//!   still wants input, so buffering stays bounded.
//! - A fate table pins the keep-alive rule case by case, and the
//!   decoded-body cap of chunked uploads is pinned at its boundary.
//! - On a virtual clock (no sleeps): the deadline moves on progress and
//!   not on an empty read, a parked connection expires exactly at last
//!   progress + idle, a closed one at its close + `LINGER`, and a
//!   stalled chunked body gets 408 and a close at every split point.
//!   A request's total deadline gives a trickled head 408 at every split
//!   point, serves a head and a body at the floor rate, and starts a
//!   pipelined request's clock at the previous answer's write. A
//!   proptest interleaves clock ticks and one-byte trickles with feeds.

use leakage_server::conn::{Core, Event, LINGER, MAX_DECODED_BODY};
use leakage_server::http::{MAX_BODY_BYTES, MAX_HEADER_BYTES};
use leakage_workloads::SplitMix64;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The idle timeout every core here runs with (the server's default).
const IDLE: Duration = Duration::from_secs(5);

/// The virtual clock: `ms` milliseconds after a fixed origin.
fn at(ms: u64) -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now) + Duration::from_millis(ms)
}

/// A core accepted at the clock's origin.
fn new_core(max_requests: u32) -> Core {
    Core::new(max_requests, IDLE, at(0))
}

/// The one route that reads a chunked body; the shell refuses chunked
/// bodies anywhere else without reading them, as the server does.
const UPLOAD: &str = "/v1/trace/intervals";

/// What the shell saw, with consecutive body bytes merged (how a body
/// is cut into events depends on the segmentation; its bytes do not).
#[derive(Debug, Clone, PartialEq)]
enum Seen {
    Request {
        method: String,
        path: String,
        body: Vec<u8>,
        chunked: bool,
    },
    Bad(u16),
    Body(Vec<u8>),
    BodyEnd,
    /// A chunked body refused unread (411).
    Refused,
    /// The fate of the response just decided: keep-alive or close.
    Fate(bool),
    /// The peer's end of stream left nothing to answer.
    Hangup,
}

struct Shell {
    core: Core,
    seen: Vec<Seen>,
    done: bool,
    /// The clock the next input comes with; answers are written then.
    now: Instant,
}

impl Shell {
    fn new(max_requests: u32) -> Self {
        Shell {
            core: new_core(max_requests),
            seen: Vec::new(),
            done: false,
            now: at(0),
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        if !self.done {
            self.core.feed(bytes, self.now);
            self.drain();
        }
    }

    fn eof(&mut self) {
        if !self.done {
            self.core.feed_eof(self.now);
            self.drain();
        }
    }

    /// The clock reads `now` with no input (a read that timed out).
    fn tick(&mut self, now: Instant) {
        self.now = now;
        self.core.tick(now);
        if !self.done {
            self.drain();
        }
    }

    fn drain(&mut self) {
        while !self.done {
            match self.core.next_event() {
                Event::Request(request) => {
                    let chunked = request.chunked;
                    let refused = chunked && request.path != UPLOAD;
                    self.seen.push(Seen::Request {
                        method: request.method,
                        path: request.path,
                        body: request.body,
                        chunked,
                    });
                    if refused {
                        self.seen.push(Seen::Refused);
                    }
                    if !chunked || refused {
                        self.fate();
                    }
                }
                Event::Bad(bad) => {
                    assert!(
                        matches!(bad.status, 400 | 408 | 413 | 431),
                        "untyped rejection {} ({})",
                        bad.status,
                        bad.reason
                    );
                    self.seen.push(Seen::Bad(bad.status));
                    self.fate();
                }
                Event::Body(bytes) => {
                    assert!(!bytes.is_empty(), "empty body event");
                    match self.seen.last_mut() {
                        Some(Seen::Body(data)) => data.extend_from_slice(bytes),
                        _ => self.seen.push(Seen::Body(bytes.to_vec())),
                    }
                }
                Event::BodyEnd => {
                    self.seen.push(Seen::BodyEnd);
                    self.fate();
                }
                Event::NeedMore => {
                    assert!(self.core.wants_input(), "need more with a full buffer");
                    return;
                }
                Event::Closed => {
                    self.seen.push(Seen::Hangup);
                    self.done = true;
                }
            }
        }
    }

    /// Decides the answer's fate and writes it.
    fn fate(&mut self) {
        let keep = self.core.keep_alive(false);
        self.core.written(self.now);
        self.seen.push(Seen::Fate(keep));
        self.done = !keep;
    }
}

/// Feeds `stream` in the segments `cuts` mark (sorted offsets), then
/// the end of stream when `eof` is set.
fn run(stream: &[u8], cuts: &[usize], eof: bool, max_requests: u32) -> Vec<Seen> {
    let mut shell = Shell::new(max_requests);
    let mut from = 0;
    for &cut in cuts.iter().chain([stream.len()].iter()) {
        shell.feed(&stream[from..cut]);
        from = cut;
    }
    if eof {
        shell.eof();
    }
    shell.seen
}

/// A compact rendering of what the shell saw, for pinning outcomes.
fn render(seen: &[Seen]) -> String {
    let parts: Vec<String> = seen
        .iter()
        .map(|s| match s {
            Seen::Request {
                method,
                path,
                body,
                chunked,
            } => match (chunked, body.is_empty()) {
                (true, _) => format!("{method} {path} chunked"),
                (false, true) => format!("{method} {path}"),
                (false, false) => format!("{method} {path} +{}", body.len()),
            },
            Seen::Bad(status) => status.to_string(),
            Seen::Body(data) => format!("body {:?}", String::from_utf8_lossy(data)),
            Seen::BodyEnd => "end".into(),
            Seen::Refused => "411".into(),
            Seen::Fate(true) => "keep".into(),
            Seen::Fate(false) => "close".into(),
            Seen::Hangup => "hangup".into(),
        })
        .collect();
    parts.join(", ")
}

/// One stream of the corpus: its bytes, whether the peer half-closes
/// after them, the request budget, and the pinned unsplit outcome.
struct Case {
    name: &'static str,
    stream: Vec<u8>,
    eof: bool,
    max_requests: u32,
    expect: &'static str,
}

fn case(name: &'static str, stream: &[u8], expect: &'static str) -> Case {
    Case {
        name,
        stream: stream.to_vec(),
        eof: false,
        max_requests: 0,
        expect,
    }
}

const CHUNKED_HEAD: &str =
    "POST /v1/trace/intervals HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";

fn corpus() -> Vec<Case> {
    let chunked = |body: &str| [CHUNKED_HEAD, body].concat().into_bytes();
    let mut too_wide = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    too_wide.resize(MAX_HEADER_BYTES + 8, b'a');
    vec![
        case(
            "pipelined burst",
            b"GET /a HTTP/1.1\r\nHost: x\r\n\r\nGET /b?q=%20 HTTP/1.1\r\n\r\n\
              POST /c HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
            "GET /a, keep, GET /b, keep, POST /c +5, keep",
        ),
        case(
            "bare LF header blocks",
            b"GET /lf HTTP/1.1\nHost: x\n\nGET /z HTTP/1.1\n\n",
            "GET /lf, keep, GET /z, keep",
        ),
        case(
            "chunked with extensions, trailers and bare LF, then a GET",
            &chunked(
                "4;ext=1\r\nabcd\r\nA\n0123456789\n0\r\nTrailer: x\r\n\r\n\
                 GET /after HTTP/1.1\r\n\r\n",
            ),
            "POST /v1/trace/intervals chunked, body \"abcd0123456789\", end, keep, \
             GET /after, keep",
        ),
        case(
            "chunked off the trace route is refused unread",
            b"POST /v1/sweep HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
              3\r\nabc\r\n0\r\n\r\nGET /never HTTP/1.1\r\n\r\n",
            "POST /v1/sweep chunked, 411, close",
        ),
        Case {
            max_requests: 2,
            ..case(
                "budget-exhausting request",
                b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\nGET /3 HTTP/1.1\r\n\r\n",
                "GET /1, keep, GET /2, close",
            )
        },
        Case {
            max_requests: 2,
            ..case(
                "budget spent by a chunked upload",
                &[
                    b"GET /1 HTTP/1.1\r\n\r\n".as_slice(),
                    &chunked("2\r\nxy\r\n0\r\n\r\nGET /never HTTP/1.1\r\n\r\n"),
                ]
                .concat(),
                "GET /1, keep, POST /v1/trace/intervals chunked, body \"xy\", end, close",
            )
        },
        case(
            "HTTP/1.0 closes",
            b"GET /old HTTP/1.0\r\n\r\nGET /never HTTP/1.0\r\n\r\n",
            "GET /old, close",
        ),
        case(
            "HTTP/1.0 keep-alive, then Connection: close",
            b"GET /old HTTP/1.0\r\nConnection: keep-alive\r\n\r\n\
              GET /next HTTP/1.1\r\nConnection: close\r\n\r\nGET /never HTTP/1.1\r\n\r\n",
            "GET /old, keep, GET /next, close",
        ),
        case(
            "recoverable 400s",
            b"BOGUS\r\n\r\n\r\n\r\nGET /%zz HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
              GET /ok HTTP/1.1\r\n\r\n",
            "400, keep, 400, keep, 400, keep, GET /ok, keep",
        ),
        case(
            "400 on an undeframable encoding",
            b"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\nGET /never HTTP/1.1\r\n\r\n",
            "400, close",
        ),
        case(
            "400 on a bad Content-Length",
            b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\nGET /never HTTP/1.1\r\n\r\n",
            "400, close",
        ),
        case(
            "413 on a declared body past the cap",
            format!(
                "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n0123456789",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
            "413, close",
        ),
        case(
            "431 on a header block past the cap",
            &too_wide,
            "431, close",
        ),
        case(
            "413 on a chunk that would pass the decoded cap",
            &chunked(&format!("1\r\nx\r\n{MAX_DECODED_BODY:x}\r\n")),
            "POST /v1/trace/intervals chunked, body \"x\", 413, close",
        ),
        case(
            "400 on broken chunk framing",
            &chunked("3\r\nabcX\r\n"),
            "POST /v1/trace/intervals chunked, body \"abc\", 400, close",
        ),
        Case {
            eof: true,
            ..case(
                "end of stream mid-request",
                b"GET /ok HTTP/1.1\r\n\r\nGET /cut HTTP/1.1\r\nHo",
                "GET /ok, keep, hangup",
            )
        },
        Case {
            eof: true,
            ..case(
                "end of stream mid-body",
                b"POST /c HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
                "hangup",
            )
        },
        Case {
            eof: true,
            ..case(
                "end of stream mid-chunked-body",
                &chunked("5\r\nab"),
                "POST /v1/trace/intervals chunked, body \"ab\", 400, close",
            )
        },
        Case {
            eof: true,
            ..case(
                "end of stream between requests",
                b"GET /a HTTP/1.1\r\n\r\n",
                "GET /a, keep, hangup",
            )
        },
    ]
}

#[test]
fn every_split_point_of_every_short_stream_gives_the_unsplit_events() {
    for case in corpus() {
        let whole = run(&case.stream, &[], case.eof, case.max_requests);
        assert_eq!(render(&whole), case.expect, "{}", case.name);
        for cut in 0..=case.stream.len() {
            let split = run(&case.stream, &[cut], case.eof, case.max_requests);
            assert_eq!(split, whole, "{}: split at {cut}", case.name);
        }
        let every: Vec<usize> = (1..case.stream.len()).collect();
        let bytewise = run(&case.stream, &every, case.eof, case.max_requests);
        assert_eq!(bytewise, whole, "{}: byte at a time", case.name);
    }
}

/// A long stream: pipelined GETs, a chunked upload in odd-sized chunks
/// with extensions, a `Content-Length` POST, more GETs.
fn long_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    for i in 0..40 {
        stream
            .extend_from_slice(format!("GET /v1/table/{i}?scale=test HTTP/1.1\r\n\r\n").as_bytes());
    }
    stream.extend_from_slice(CHUNKED_HEAD.as_bytes());
    let body: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
    for (n, piece) in body.chunks(997).enumerate() {
        stream.extend_from_slice(format!("{:x};n={n}\r\n", piece.len()).as_bytes());
        stream.extend_from_slice(piece);
        stream.extend_from_slice(b"\r\n");
    }
    stream.extend_from_slice(b"0\r\nX-Trailer: done\r\n\r\n");
    let posted = vec![b'p'; 10_000];
    stream.extend_from_slice(
        format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            posted.len()
        )
        .as_bytes(),
    );
    stream.extend_from_slice(&posted);
    for i in 0..40 {
        stream.extend_from_slice(format!("GET /healthz?i={i} HTTP/1.1\r\n\r\n").as_bytes());
    }
    stream
}

/// Sorted random cut offsets into `len` bytes, segments of 1 byte to
/// `max_segment` bytes.
fn random_cuts(rng: &mut SplitMix64, len: usize, max_segment: u64) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut at = 0;
    loop {
        at += 1 + rng.below(max_segment) as usize;
        if at >= len {
            return cuts;
        }
        cuts.push(at);
    }
}

#[test]
fn seeded_random_segmentations_of_long_streams_give_the_unsplit_events() {
    let stream = long_stream();
    for (max_requests, eof) in [(0, false), (0, true), (60, true)] {
        let whole = run(&stream, &[], eof, max_requests);
        let requests = whole
            .iter()
            .filter(|s| matches!(s, Seen::Request { .. }))
            .count();
        let expected = if max_requests == 0 { 82 } else { 60 };
        assert_eq!(requests, expected, "budget {max_requests}");
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let max_segment = [3, 64, 1500, 20_000][seed as usize % 4];
            let cuts = random_cuts(&mut rng, stream.len(), max_segment);
            let split = run(&stream, &cuts, eof, max_requests);
            assert_eq!(split, whole, "seed {seed}, budget {max_requests}");
        }
    }
}

/// Fragments that make near-HTTP streams, so the arbitrary inputs reach
/// deep into the grammar instead of failing at the first byte.
fn fragment() -> impl Strategy<Value = Vec<u8>> {
    let pieces: Vec<&'static [u8]> = vec![
        b"GET / HTTP/1.1\r\n",
        b"POST /v1/trace/intervals HTTP/1.1\r\n",
        b"HTTP/1.0",
        b"\r\n",
        b"\n",
        b"\r",
        b" ",
        b"Transfer-Encoding: chunked\r\n",
        b"Content-Length: 4\r\n",
        b"Connection: close\r\n",
        b"0\r\n\r\n",
        b"ffffffffffffffff\r\n",
        b"3;x=y\r\nabc\r\n",
        b"%zz",
        b":",
    ];
    prop_oneof![
        prop::sample::select(pieces).prop_map(<[u8]>::to_vec),
        prop::collection::vec(0u8..=255, 1..24),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any bytes, any segmentation: typed 4xx only (checked by the
    /// shell), no panic, bounded buffering, and the unsplit outcome.
    #[test]
    fn arbitrary_bytes_give_typed_answers_however_split(
        fragments in prop::collection::vec(fragment(), 0..40),
        sizes in prop::collection::vec(1usize..64, 1..32),
        eof in 0u8..2,
        max_requests in 0u32..4,
    ) {
        let stream = fragments.concat();
        let mut cuts = Vec::new();
        let mut at = 0;
        for size in sizes.iter().cycle() {
            at += size;
            if at >= stream.len() {
                break;
            }
            cuts.push(at);
        }
        let eof = eof == 1;
        let whole = run(&stream, &[], eof, max_requests);
        let split = run(&stream, &cuts, eof, max_requests);
        prop_assert_eq!(split, whole);
    }
}

#[test]
fn buffering_stays_bounded_for_oversized_input() {
    // Feed as the reactor does: 16 KiB reads while the core wants
    // input. Each stream must be decided before the reads stop.
    let mut too_wide = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    too_wide.resize(4 << 20, b'a');
    let mut no_newline = vec![b'A'; 4 << 20];
    no_newline[0] = b'G';
    let mut largest =
        format!("POST /v1/sweep HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
    largest.resize(largest.len() + MAX_BODY_BYTES, b'{');
    largest.extend_from_slice(b"GET /next HTTP/1.1\r\n\r\n");
    for (stream, first) in [(too_wide, 431), (no_newline, 431), (largest, 200)] {
        let mut core = new_core(0);
        let mut fed = 0;
        while core.wants_input() && fed < stream.len() {
            let end = (fed + 16 * 1024).min(stream.len());
            core.feed(&stream[fed..end], at(0));
            fed = end;
        }
        let status = match core.next_event() {
            Event::Request(_) => 200,
            Event::Bad(bad) => bad.status,
            other => panic!("undecided after {fed} bytes: {other:?}"),
        };
        assert_eq!(status, first);
        assert!(
            fed <= MAX_HEADER_BYTES + MAX_BODY_BYTES + 16 * 1024,
            "read {fed} bytes"
        );
    }
}

/// The keep-alive rule, case by case. `stopping` is the server draining;
/// `eof` the peer half-closing after the bytes.
#[test]
fn fate_table() {
    let get = "GET /a HTTP/1.1\r\n\r\n";
    let rows: [(&str, &str, bool, bool, bool); 15] = [
        ("plain request", get, false, false, true),
        ("plain request while draining", get, true, false, false),
        ("recoverable 400", "BOGUS\r\n\r\n", false, false, true),
        // A 4xx answered while the server drains announces the close
        // the connection then gets.
        (
            "recoverable 400 while draining",
            "BOGUS\r\n\r\n",
            true,
            false,
            false,
        ),
        (
            "client asked to close",
            "GET /a HTTP/1.1\r\nConnection: close\r\n\r\n",
            false,
            false,
            false,
        ),
        ("HTTP/1.0", "GET /a HTTP/1.0\r\n\r\n", false, false, false),
        ("half-closed, nothing buffered", get, false, true, false),
        // A half-closed peer's buffered request is still served, so
        // the answer before it keeps the connection.
        (
            "half-closed, a request buffered",
            "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
            false,
            true,
            true,
        ),
        (
            "half-closed, a bad request buffered",
            "GET /a HTTP/1.1\r\n\r\nBOGUS\r\n\r\n",
            false,
            true,
            true,
        ),
        (
            "half-closed, a partial request buffered",
            "GET /a HTTP/1.1\r\n\r\nGET /b",
            false,
            true,
            false,
        ),
        (
            "framing lost",
            "POST /a HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            false,
            false,
            false,
        ),
        (
            "chunked body left unread",
            "POST /v1/sweep HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n",
            false,
            false,
            false,
        ),
        (
            "oversized body",
            "POST /a HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            false,
            false,
            false,
        ),
        (
            "budget spent",
            "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
            false,
            false,
            false,
        ),
        (
            "budget left",
            "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
            false,
            false,
            true,
        ),
    ];
    for (name, stream, stopping, eof, keep) in rows {
        let max_requests = if name == "budget spent" { 1 } else { 2 };
        let mut core = new_core(max_requests);
        core.feed(stream.as_bytes(), at(0));
        if eof {
            core.feed_eof(at(0));
        }
        match core.next_event() {
            Event::Request(_) | Event::Bad(_) => {}
            other => panic!("{name}: {other:?}"),
        }
        assert_eq!(core.keep_alive(stopping), keep, "{name}");
        let closed = matches!(core.next_event(), Event::Closed);
        assert_eq!(closed, !keep, "{name}: a close is final");
    }

    // A chunked body read to its end keeps the connection.
    let mut core = new_core(0);
    core.feed(
        format!("{CHUNKED_HEAD}1\r\nx\r\n0\r\n\r\n").as_bytes(),
        at(0),
    );
    assert!(matches!(core.next_event(), Event::Request(_)));
    assert!(matches!(core.next_event(), Event::Body(b"x")));
    assert!(matches!(core.next_event(), Event::BodyEnd));
    assert!(core.keep_alive(false));

    // A close is final: nothing more is served, and a failed write
    // closes whatever the requests asked.
    let mut core = new_core(0);
    core.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n", at(0));
    assert!(matches!(core.next_event(), Event::Request(_)));
    core.abort();
    assert!(!core.keep_alive(false));
    assert!(matches!(core.next_event(), Event::Closed));
}

/// The decoded-body cap of chunked uploads: a body may declare exactly
/// `MAX_DECODED_BODY` bytes; the size line that would pass it is
/// refused with 413 before any of its data is read.
#[test]
fn decoded_body_cap_is_enforced_at_the_size_line() {
    let open = |sizes: &str| {
        let mut core = new_core(0);
        core.feed(format!("{CHUNKED_HEAD}{sizes}").as_bytes(), at(0));
        assert!(matches!(core.next_event(), Event::Request(_)));
        core
    };

    let mut core = open(&format!("{MAX_DECODED_BODY:x}\r\n"));
    assert!(
        matches!(core.next_event(), Event::NeedMore),
        "exactly the cap is accepted"
    );

    for sizes in [
        format!("{:x}\r\n", MAX_DECODED_BODY + 1),
        format!("1\r\nx\r\n{MAX_DECODED_BODY:x}\r\n"),
        "ffffffffffffffff\r\n".to_string(),
    ] {
        let mut core = open(&sizes);
        loop {
            match core.next_event() {
                Event::Body(_) => {}
                Event::Bad(bad) => {
                    assert_eq!(bad.status, 413, "{sizes:?}: {}", bad.reason);
                    break;
                }
                other => panic!("{sizes:?}: {other:?}"),
            }
        }
        assert!(!core.keep_alive(false), "{sizes:?}: framing is lost");
    }
}

/// The deadline of an open core is its last progress + idle: bytes fed
/// and a response written move it; an empty read, a tick and the peer's
/// end of stream do not.
#[test]
fn deadline_moves_on_progress_and_not_on_an_empty_read() {
    let mut core = new_core(0);
    assert_eq!(core.deadline(), at(0) + IDLE, "accepted at 0");
    core.feed(b"GET /a HTTP/1.1\r\n", at(100));
    assert_eq!(core.deadline(), at(100) + IDLE, "bytes fed");
    core.feed(b"", at(200));
    assert_eq!(core.deadline(), at(100) + IDLE, "an empty read");
    core.tick(at(300));
    assert_eq!(core.deadline(), at(100) + IDLE, "a tick");
    core.feed(b"\r\n", at(400));
    assert!(matches!(core.next_event(), Event::Request(_)));
    assert!(core.keep_alive(false));
    assert_eq!(core.deadline(), at(400) + IDLE, "deciding the fate");
    core.written(at(900));
    assert_eq!(core.deadline(), at(900) + IDLE, "a response written");
    assert!(matches!(core.next_event(), Event::NeedMore));
    core.feed_eof(at(1000));
    assert_eq!(core.deadline(), at(900) + IDLE, "end of stream");
}

/// A parked connection expires exactly at its last progress + idle,
/// whatever ticks came before.
#[test]
fn parked_connection_expires_exactly_at_last_progress_plus_idle() {
    let idle = IDLE.as_millis() as u64;
    for (name, last, stream) in [
        ("fresh", 0, ""),
        ("partial request", 1_250, "GET /a HT"),
        ("answered request", 2_000, "GET /a HTTP/1.1\r\n\r\n"),
    ] {
        let mut core = new_core(0);
        if !stream.is_empty() {
            core.feed(stream.as_bytes(), at(last));
        }
        if let Event::Request(_) = core.next_event() {
            assert!(core.keep_alive(false));
            core.written(at(last));
            assert!(matches!(core.next_event(), Event::NeedMore));
        }
        for now in [last, last + 1, last + idle / 2, last + idle - 1] {
            core.tick(at(now));
            assert!(!core.expired(at(now)), "{name}: parked at {now} ms");
        }
        assert!(
            core.expired(at(last + idle)),
            "{name}: expires at {last} + idle"
        );
        assert!(!core.is_closed(), "{name}: expiry is the shell's to act on");
    }
}

/// A closed core lingers until its close + `LINGER`: the closing
/// answer's write, or the last progress before a close without one.
#[test]
fn closed_core_deadline_is_its_close_plus_linger() {
    // A request that asked to close, answered at 3 s.
    let mut core = new_core(0);
    core.feed(b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n", at(100));
    assert!(matches!(core.next_event(), Event::Request(_)));
    assert!(!core.keep_alive(false));
    core.written(at(3_000));
    assert!(core.is_closed());
    assert_eq!(core.deadline(), at(3_000) + LINGER);
    core.tick(at(3_500));
    assert!(!core.expired(at(3_999)));
    assert!(core.expired(at(4_000)));

    // Shed at accept: answered and closed at once.
    let mut core = Core::new(0, IDLE, at(7_000));
    core.abort();
    core.written(at(7_000));
    assert_eq!(core.deadline(), at(7_000) + LINGER);

    // The peer half-closed over a partial request: closed with no
    // answer, so the linger counts from the last bytes.
    let mut core = new_core(0);
    core.feed(b"GET /cut HT", at(500));
    core.feed_eof(at(600));
    assert!(matches!(core.next_event(), Event::Closed));
    assert_eq!(core.deadline(), at(500) + LINGER);
}

/// Feeds `stream` in the segments `cuts` mark, 10 ms apart, then ticks
/// the clock to 1 ms before the last progress + idle (nothing may
/// happen) and then to exactly that deadline.
fn run_stalled(stream: &[u8], cuts: &[usize]) -> Vec<Seen> {
    let mut shell = Shell::new(0);
    let mut last = at(0);
    let mut from = 0;
    for (i, &cut) in cuts.iter().chain([stream.len()].iter()).enumerate() {
        shell.now = at(10 * i as u64);
        shell.feed(&stream[from..cut]);
        if cut > from {
            last = shell.now;
        }
        from = cut;
    }
    let before = shell.seen.clone();
    shell.tick(last + IDLE - Duration::from_millis(1));
    assert_eq!(shell.seen, before, "nothing happens before the deadline");
    shell.tick(last + IDLE);
    assert_eq!(
        shell.core.deadline(),
        last + IDLE + LINGER,
        "the 408 lingers"
    );
    shell.seen
}

/// A chunked upload whose body stops mid-chunk gets 408 and a close once
/// its read makes no progress for the idle timeout, at every split
/// point of its stream, with the events of the unsplit feed.
#[test]
fn stalled_chunked_upload_gets_408_and_a_close_at_every_split_point() {
    let stream = format!("{CHUNKED_HEAD}4\r\nabcd\r\n5\r\nef").into_bytes();
    let whole = run_stalled(&stream, &[]);
    assert_eq!(
        render(&whole),
        "POST /v1/trace/intervals chunked, body \"abcdef\", 408, close"
    );
    for cut in 0..=stream.len() {
        assert_eq!(run_stalled(&stream, &[cut]), whole, "split at {cut}");
    }
    let every: Vec<usize> = (1..stream.len()).collect();
    assert_eq!(run_stalled(&stream, &every), whole, "byte at a time");
}

/// A request's total deadline: its start + two idle windows + one more
/// per 16 KiB of the `fed` bytes (at a whole number of ns per byte).
fn total_deadline(start: Instant, fed: usize) -> Instant {
    start + IDLE * 2 + IDLE / MAX_HEADER_BYTES as u32 * fed as u32
}

/// A request head that a trickling client never finishes.
const TRICKLED: &[u8] = b"GET /trickle HTTP/1.1\r\nHost: t\r\nX-Pad: pppppppppppppppp";

/// Feeds `TRICKLED` up to `cut` at 0 ms, then one byte every 3 s (each
/// within the idle timeout, so the connection is never idle), until the
/// next byte would come after the total deadline; then ticks the clock to
/// 1 ms before that deadline (nothing may happen) and to the deadline.
fn run_trickled(cut: usize) -> Vec<Seen> {
    let mut shell = Shell::new(0);
    shell.feed(&TRICKLED[..cut]);
    let mut fed = cut;
    let mut next = 3_000;
    while at(next) < total_deadline(at(0), fed) {
        shell.now = at(next);
        shell.feed(&TRICKLED[fed..=fed]);
        fed += 1;
        next += 3_000;
    }
    assert!(shell.seen.is_empty(), "cut {cut}: {:?}", shell.seen);
    let deadline = total_deadline(at(0), fed);
    assert_eq!(shell.core.deadline(), deadline, "cut {cut}");
    shell.tick(deadline - Duration::from_millis(1));
    assert!(
        shell.seen.is_empty(),
        "cut {cut}: nothing before the deadline"
    );
    shell.tick(deadline);
    shell.seen
}

/// A head trickled one byte per 3 s never stays silent for the 5 s idle
/// timeout, yet gets 408 and a close exactly at its total deadline
/// (after about two idle windows), whichever point its first segment
/// ends at.
#[test]
fn trickled_head_gets_408_at_its_deadline_at_every_split_point() {
    for cut in 1..TRICKLED.len() - 3 {
        assert_eq!(render(&run_trickled(cut)), "408, close", "cut {cut}");
    }
}

/// Feeds `stream` 1 KiB every `period_ms` and returns what the shell saw.
fn run_paced(stream: &[u8], period_ms: u64) -> Vec<Seen> {
    let mut shell = Shell::new(0);
    for (i, piece) in stream.chunks(1024).enumerate() {
        shell.now = at(period_ms * i as u64);
        shell.feed(piece);
    }
    shell.seen
}

/// A near-maximal head and a 64 KiB body, chunked or `Content-Length`,
/// sent at the floor rate (16 KiB per idle window) are served; at half
/// that rate the total deadline cuts them off with 408.
#[test]
fn head_and_body_at_the_floor_rate_are_served() {
    let pad = "p".repeat(MAX_HEADER_BYTES - 200);
    let body = vec![b'b'; 64 * 1024];
    let mut chunked =
        format!("POST {UPLOAD} HTTP/1.1\r\nTransfer-Encoding: chunked\r\nX-Pad: {pad}\r\n\r\n")
            .into_bytes();
    for chunk in body.chunks(4096) {
        chunked.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        chunked.extend_from_slice(chunk);
        chunked.extend_from_slice(b"\r\n");
    }
    chunked.extend_from_slice(b"0\r\n\r\n");
    let mut sized = format!(
        "POST /v1/sweep HTTP/1.1\r\nX-Pad: {pad}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    sized.extend_from_slice(&body);
    let floor_ms = IDLE.as_millis() as u64 * 1024 / MAX_HEADER_BYTES as u64;
    for (name, stream) in [("chunked", &chunked), ("sized", &sized)] {
        let seen = run_paced(stream, floor_ms);
        let body_len = seen.iter().find_map(|s| match s {
            Seen::Request {
                body,
                chunked: false,
                ..
            } => Some(body.len()),
            Seen::Body(body) => Some(body.len()),
            _ => None,
        });
        assert_eq!(body_len, Some(body.len()), "{name}: the whole body arrives");
        assert_eq!(seen.last(), Some(&Seen::Fate(true)), "{name}: served");
        let seen = run_paced(stream, 2 * floor_ms);
        assert!(
            render(&seen).ends_with("408, close"),
            "{name} at half the floor rate: {}",
            render(&seen)
        );
    }
}

/// A pipelined request whose first bytes arrived with the one before it
/// starts its clock when that answer is written, not at its first byte:
/// a slow handler does not eat the next request's time.
#[test]
fn pipelined_request_clock_starts_at_the_previous_answers_write() {
    let mut core = new_core(0);
    core.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HT", at(0));
    assert!(matches!(core.next_event(), Event::Request(_)));
    assert!(core.keep_alive(false));
    core.written(at(7_000));
    assert!(matches!(core.next_event(), Event::NeedMore));
    assert_eq!(core.deadline(), at(12_000), "the write is progress");
    core.feed(b"T", at(11_000));
    assert_eq!(core.deadline(), at(16_000));
    core.feed(b"P", at(15_000));
    let deadline = total_deadline(at(7_000), 2);
    assert_eq!(core.deadline(), deadline, "counted from the write at 7 s");
    core.tick(deadline - Duration::from_millis(1));
    assert!(matches!(core.next_event(), Event::NeedMore));
    core.tick(deadline);
    match core.next_event() {
        Event::Bad(bad) => assert_eq!(bad.status, 408),
        other => panic!("{other:?}"),
    }
    assert!(!core.keep_alive(false), "a 408 closes");
}

/// One step of a clocked stream: bytes fed, or the clock moving with
/// no input; each comes after the clock advances this many ms.
#[derive(Debug, Clone)]
enum Step {
    Feed(Vec<u8>, u64),
    Tick(u64),
    /// One byte of a request line that never ends.
    Trickle(u64),
}

/// Clock advances that land on, just before and past the deadlines.
fn advance() -> impl Strategy<Value = u64> {
    let idle = IDLE.as_millis() as u64;
    prop_oneof![
        Just(0u64),
        1..idle,
        Just(idle - 1),
        Just(idle),
        Just(2 * idle)
    ]
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (fragment(), advance()).prop_map(|(bytes, ms)| Step::Feed(bytes, ms)),
        advance().prop_map(Step::Tick),
        advance().prop_map(Step::Trickle),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Clock ticks and one-byte trickles interleaved with arbitrary
    /// feeds: typed 4xx only (408 included), no panic, an open core's
    /// deadline never moves backwards and lies between the request's
    /// total deadline (counted from the last answer's write at the
    /// earliest) and last progress + idle, and a closed one's is its
    /// close + `LINGER` from then on.
    #[test]
    fn clock_ticks_interleaved_with_feeds_keep_the_deadline_monotone(
        steps in prop::collection::vec(step(), 0..48),
        max_requests in 0u32..4,
    ) {
        let mut shell = Shell::new(max_requests);
        let mut elapsed = 0;
        let mut deadline = shell.core.deadline();
        let mut closed = None;
        let (mut progress, mut written) = (at(0), at(0));
        for step in steps {
            let ms = match &step {
                Step::Feed(_, ms) | Step::Tick(ms) | Step::Trickle(ms) => *ms,
            };
            elapsed += ms;
            shell.now = at(elapsed);
            let (fed, answers) = (!shell.done, shell.seen.len());
            match step {
                Step::Feed(bytes, _) => {
                    shell.feed(&bytes);
                    if fed && !bytes.is_empty() {
                        progress = shell.now;
                    }
                }
                Step::Tick(_) => shell.tick(at(elapsed)),
                Step::Trickle(_) => {
                    shell.feed(b"x");
                    if fed {
                        progress = shell.now;
                    }
                }
            }
            if shell.seen[answers..].iter().any(|seen| matches!(seen, Seen::Fate(_))) {
                (progress, written) = (shell.now, shell.now);
            }
            let now = shell.core.deadline();
            match closed {
                Some(linger) => prop_assert_eq!(now, linger),
                None if shell.core.is_closed() => {
                    prop_assert_eq!(now, shell.now + LINGER, "closed by an answer written now");
                    closed = Some(now);
                }
                None => {
                    prop_assert!(now >= deadline, "the deadline moved backwards");
                    prop_assert!(now <= progress + IDLE, "past last progress + idle");
                    prop_assert!(
                        now >= (progress + IDLE).min(written + 2 * IDLE),
                        "before the earliest total deadline"
                    );
                }
            }
            deadline = now;
        }
    }
}
