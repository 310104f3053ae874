//! Single-thread cost of ingesting a trace upload, in ns per event, as
//! steps over the same LKTR bodies:
//!
//! * `trace.decode` — `StreamDecoder` alone, its events counted;
//! * `intervals.streaming` — decoding into a `StreamingExtractor` that
//!   counts into a `CompactIntervalDist` (perfbench's
//!   `intervals.streaming_busy_ms` extractor);
//! * `intervals.streaming.tally` — the same into an `IntervalTally`
//!   folded with `into_dist`, the upload route's sink;
//! * `server.handler.upload` — the buffered upload handler
//!   (`intervals_from_bytes`), summary rendering included.
//!
//! Each extracting step's increment over `trace.decode` is the
//! extractor's cost. Two families of bodies:
//!
//! * `upload` — the twelve traces `serve_mixed` uploads: the first
//!   41,942 accesses (as many as fit the 1 MiB `Content-Length` cap)
//!   of each SPEC analog and `isa:*` program;
//! * `front_miss` — twelve copies of one body of the same length that
//!   cycles 1,024 lines sharing one front entry, four cycles apart:
//!   every lookup misses the extractor's front, and every interval is
//!   `DENSE_LEN` cycles long, so it misses the tally's dense array too. That is the most a client can
//!   make an upload cost per event short of minting a new interval
//!   class per event, which costs one map insert with or without
//!   either.
//!
//! Rounds interleave the steps (rotating which goes first); the report
//! gives each (family, step) pair's median and quartiles.
//!
//! ```text
//! cargo run --release --example bench_streaming -- [--commit SHA]
//! ```
//!
//! `scripts/bench_streaming.sh` runs it and writes
//! `results/BENCH_streaming.json`.

use cache_leakage_limits::intervals::{
    front_slot, CompactIntervalDist, IntervalTally, StreamingExtractor, DENSE_LEN, FRONT_LEN,
};
use cache_leakage_limits::server::streaming::intervals_from_bytes;
use cache_leakage_limits::server::Request;
use cache_leakage_limits::telemetry::json;
use cache_leakage_limits::trace::io::{StreamDecoder, TraceWriter};
use cache_leakage_limits::trace::{Address, Cycle, LineAddr, MemoryAccess, Pc, TraceSink};
use cache_leakage_limits::workloads::{ISA_SUITE_NAMES, SUITE_NAMES};
use std::hint::black_box;
use std::time::Instant;

mod bench_util;
use bench_util::{commit_arg, quartiles};

#[path = "../tests/support/uploads.rs"]
mod uploads;
use uploads::{upload_events, RECORDS};

/// The steps, in perfbench's layer names.
const STEPS: [&str; 4] = [
    "trace.decode",
    "intervals.streaming",
    "intervals.streaming.tally",
    "server.handler.upload",
];

/// Interleaved rounds; each times every step over both families once.
const ROUNDS: usize = 21;

/// Cache-line bits of the uploads (the route's default).
const LINE_BITS: u32 = 6;

/// Lines the `front_miss` body cycles through.
const MISS_LINES: u64 = 1024;

/// A trace sink that only counts its events.
struct Count(u64);

impl TraceSink for Count {
    fn accept(&mut self, access: MemoryAccess) {
        black_box(access);
        self.0 += 1;
    }
}

/// An LKTR body.
fn encode(events: impl IntoIterator<Item = MemoryAccess>) -> Vec<u8> {
    let mut body = Vec::new();
    let mut writer = TraceWriter::new(&mut body).expect("Vec sink cannot fail");
    for access in events {
        writer.accept(access);
    }
    writer.flush().expect("Vec sink cannot fail");
    drop(writer);
    body
}

/// A body whose every event misses the front and the dense array:
/// loads cycling `MISS_LINES` lines that all share front entry 0, each
/// re-accessed `DENSE_LEN` cycles after its last access.
fn front_miss_body() -> Vec<u8> {
    let lines: Vec<u64> = (0u64..)
        .filter(|&line| front_slot(LineAddr::new(line)) == 0)
        .take(MISS_LINES as usize)
        .collect();
    encode((0..RECORDS as u64).map(|i| {
        MemoryAccess::load(
            Cycle::new(i * (DENSE_LEN / MISS_LINES)),
            Pc::new(0x1000),
            Address::new(lines[(i % MISS_LINES) as usize] << LINE_BITS),
        )
    }))
}

fn decode_into(body: &[u8], sink: &mut impl TraceSink) {
    let mut decoder = StreamDecoder::new();
    decoder.feed(body, sink).expect("own trace decodes");
    decoder.finish().expect("own trace is complete");
}

fn with_dist(body: &[u8]) -> CompactIntervalDist {
    let mut extractor = StreamingExtractor::new(LINE_BITS, CompactIntervalDist::new());
    decode_into(body, &mut extractor);
    extractor.finish()
}

fn with_tally(body: &[u8]) -> CompactIntervalDist {
    let mut extractor = StreamingExtractor::new(LINE_BITS, IntervalTally::new());
    decode_into(body, &mut extractor);
    extractor.finish().into_dist()
}

fn upload_request(body: &[u8]) -> Request {
    let mut request = Request::get("/v1/trace/intervals");
    request.method = "POST".to_string();
    request.body = body.to_vec();
    request
}

/// Seconds to run every body of a family through `step`.
fn time_step(step: usize, bodies: &[Vec<u8>], requests: &[Request]) -> f64 {
    let started = Instant::now();
    match step {
        0 => {
            for body in bodies {
                let mut count = Count(0);
                decode_into(body, &mut count);
                black_box(count.0);
            }
        }
        1 => bodies
            .iter()
            .for_each(|body| drop(black_box(with_dist(body)))),
        2 => bodies
            .iter()
            .for_each(|body| drop(black_box(with_tally(body)))),
        _ => requests
            .iter()
            .for_each(|request| drop(black_box(intervals_from_bytes(request)))),
    }
    started.elapsed().as_secs_f64()
}

fn main() {
    let commit = commit_arg("bench_streaming");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let uploads: Vec<Vec<u8>> = SUITE_NAMES
        .iter()
        .chain(ISA_SUITE_NAMES.iter())
        .map(|name| encode(upload_events(name)))
        .collect();
    let miss = front_miss_body();
    let families: [(&str, Vec<Vec<u8>>); 2] = [
        ("upload", uploads),
        (
            "front_miss",
            vec![miss; SUITE_NAMES.len() + ISA_SUITE_NAMES.len()],
        ),
    ];
    let requests: Vec<Vec<Request>> = families
        .iter()
        .map(|(_, bodies)| bodies.iter().map(|body| upload_request(body)).collect())
        .collect();

    // Every step must see the same events and build the same dist.
    let mut events = vec![0u64; families.len()];
    for (family, (_, bodies)) in families.iter().enumerate() {
        for (body, request) in bodies.iter().zip(&requests[family]) {
            let mut count = Count(0);
            decode_into(body, &mut count);
            events[family] += count.0;
            let dist = with_dist(body);
            assert!(
                dist.iter().eq(with_tally(body).iter()),
                "tally and dist sinks differ"
            );
            let answer = intervals_from_bytes(request);
            let expected = format!("\"intervals\": {}", dist.total_intervals());
            assert!(
                answer.status == 200 && String::from_utf8_lossy(&answer.body).contains(&expected),
                "handler summary differs from the extractor's"
            );
        }
    }

    let mut seconds: Vec<[Vec<f64>; STEPS.len()]> = vec![Default::default(); families.len()];
    for round in 0..ROUNDS {
        for turn in 0..STEPS.len() {
            let step = (round + turn) % STEPS.len();
            for (family, (_, bodies)) in families.iter().enumerate() {
                seconds[family][step].push(time_step(step, bodies, &requests[family]));
            }
        }
    }

    let report_families = families.iter().enumerate().map(|(i, (family, bodies))| {
        json::key(family) + &family_report(bodies.len(), events[i], &seconds[i])
    });
    let report = json::object([
        json::key("schema") + &json::string("bench_streaming/1"),
        json::key("commit") + &json::string(&commit),
        json::key("nproc") + &nproc.to_string(),
        json::key("threads") + "1",
        json::key("line_bits") + &LINE_BITS.to_string(),
        json::key("front_len") + &FRONT_LEN.to_string(),
        json::key("rounds") + &ROUNDS.to_string(),
        json::key("families") + &json::object(report_families),
    ]);
    println!("{report}");
}

/// One family's JSON object: its size and each step's ns/event, with
/// the extracting steps' median increment over `trace.decode`.
fn family_report(bodies: usize, events: u64, seconds: &[Vec<f64>; STEPS.len()]) -> String {
    let ns_per_event =
        |s: &Vec<f64>| -> Vec<f64> { s.iter().map(|&secs| secs * 1e9 / events as f64).collect() };
    let (_, decode_ns, _) = quartiles(&ns_per_event(&seconds[0]));
    let steps = STEPS.iter().zip(seconds).map(|(name, s)| {
        let (q1, median, q3) = quartiles(&ns_per_event(s));
        json::key(name)
            + &json::object([
                json::key("ns_per_event_median") + &format!("{median:.2}"),
                json::key("ns_per_event_q1") + &format!("{q1:.2}"),
                json::key("ns_per_event_q3") + &format!("{q3:.2}"),
                json::key("ns_over_decode") + &format!("{:.2}", median - decode_ns),
            ])
    });
    json::object([
        json::key("bodies") + &bodies.to_string(),
        json::key("events") + &events.to_string(),
        json::key("steps") + &json::object(steps),
    ])
}
