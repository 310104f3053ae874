//! `serve_mixed`: an in-process `leakage-server` with two workers,
//! driven by a closed loop of two keep-alive connections (each caller
//! waits for its reply; no pipelining).
//!
//! One unit is a script of three request classes, shuffled by the seed:
//!
//! - `read`: cached `GET /v1/table|figure|profile`;
//! - `sweep`: `POST /v1/sweep` batches of generalized-model points;
//! - `upload`: chunked `POST /v1/trace/intervals` uploads of LKTR traces
//!   encoded during set-up, which run the streaming extractor.
//!
//! The mix is not measured traffic. The only serving mix recorded in the
//! repository (`scripts/bench_serving.sh`) is GET-only, so nothing gives
//! weights for sweeps or uploads; the constants below say where each
//! weight and size comes from.
//!
//! Every response body is compared with the bytes the library produces
//! for the same question (`query::*`, `render_sweep_row`, the
//! `StreamingExtractor`). The seed variant picks the sweep points and
//! trims a few records from the uploads; the seed orders the script.

use crate::report::{self, Report};
use crate::{benchmarks, CountingSink, Ctx, Timed, SETUP_REPEATS, THREADS};
use leakage_cachesim::Level1;
use leakage_energy::TechnologyNode;
use leakage_experiments::query::{self, SweepPoint};
use leakage_experiments::{CacheProfile, ProfileStore};
use leakage_intervals::{CompactIntervalDist, StreamingExtractor};
use leakage_jobs::spec::{num_f64, side_token};
use leakage_jobs::{render_sweep_row, FabricConfig, JobFabric};
use leakage_server::artifacts::ArtifactCatalog;
use leakage_server::http::{parse_request, Parse, MAX_BODY_BYTES};
use leakage_server::limit::Semaphore;
use leakage_server::respcache::ResponseCache;
use leakage_server::routes::{self, HotMetrics, RouteContext, ServerInfo};
use leakage_server::storefront::StoreFront;
use leakage_server::trace::StageTrace;
use leakage_server::{Client, ClientResponse, Request, Server, ServerConfig};
use leakage_telemetry::{json, FlightRecorder};
use leakage_trace::io::{StreamDecoder, TraceWriter};
use leakage_trace::{MemoryAccess, TraceSink, TraceSource, VecTrace};
use leakage_workloads::{by_name, Scale, SplitMix64};
use std::hint::black_box;
use std::io::{ErrorKind, Write};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests of each class in one script. The classes are weighted
/// equally because no recorded mix covers sweeps or uploads; the weight
/// only has to give every class far more than the 1,000 requests a run
/// needs for ten samples beyond its p99.
const PER_CLASS: usize = 100;
/// Points in one sweep batch. A choice with no recorded source (the
/// route accepts up to 512).
const SWEEP_BATCH: usize = 8;
/// LKTR layout: an 8-byte header (magic and version), then 25-byte
/// records.
const LKTR_HEADER: usize = 8;
const LKTR_RECORD: usize = 25;
/// Records in one upload: as many as fit the server's `Content-Length`
/// cap (about 42,000 accesses), the largest body the traced run can
/// also hand the handler buffered. Chunked uploads may be longer; the
/// multi-megabyte ones the chunked framing exists for are not measured.
const UPLOAD_RECORDS: usize = (MAX_BODY_BYTES - LKTR_HEADER) / LKTR_RECORD;
/// Records each seed variant trims from every upload.
const UPLOAD_TRIM: usize = 64;
/// Chunk size of the chunked upload framing.
const UPLOAD_CHUNK: usize = 16 * 1024;
const UPLOAD_TARGET: &str = "/v1/trace/intervals";
const CHUNKED: &str = "Transfer-Encoding: chunked\r\n";
/// Client socket timeout.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Times each distinct request is parsed when timing the parser.
const PARSE_REPEATS: usize = 64;
/// Cache-line bits of the uploads (the server's default).
const LINE_BITS: u32 = 6;

/// The three request classes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Sweep,
    Upload,
}

const CLASSES: [(Class, &str); 3] = [
    (Class::Read, "read"),
    (Class::Sweep, "sweep"),
    (Class::Upload, "upload"),
];

/// One distinct request and the body the server must answer with.
struct Distinct {
    class: Class,
    /// The request as sent untraced: head and body in one buffer.
    wire: Vec<u8>,
    /// Length of the head within `wire`.
    head_len: usize,
    /// The head with an `X-Request-Id`, sent before the same body.
    traced_head: Vec<u8>,
    expected: Vec<u8>,
}

impl Distinct {
    #[allow(clippy::too_many_arguments)]
    fn new(
        class: Class,
        addr: SocketAddr,
        method: &str,
        target: &str,
        id: u64,
        framing: &str,
        body: &[u8],
        expected: Vec<u8>,
    ) -> Distinct {
        let mut wire = render(addr, method, target, None, framing);
        let head_len = wire.len();
        wire.extend_from_slice(body);
        Distinct {
            class,
            wire,
            head_len,
            traced_head: render(addr, method, target, Some(id), framing),
            expected,
        }
    }

    /// The body as framed on the wire.
    fn body(&self) -> &[u8] {
        &self.wire[self.head_len..]
    }

    /// The same request with a `Content-Length` body, as the handler
    /// takes it.
    fn buffered(&self) -> Vec<u8> {
        if self.class != Class::Upload {
            return self.wire.clone();
        }
        let raw = unchunk(self.body());
        let head = String::from_utf8_lossy(&self.wire[..self.head_len])
            .replace(CHUNKED, &content_length(&raw));
        let mut out = head.into_bytes();
        out.extend_from_slice(&raw);
        out
    }
}

/// What a script's uploads contain (exact counts).
#[derive(Default)]
struct UploadStats {
    bytes: u64,
    events: u64,
    intervals: u64,
}

/// A running server plus everything the client needs.
struct Bench {
    server: Server,
    addr: SocketAddr,
    distinct: Vec<Distinct>,
    /// Indices into `distinct`: the script, in canonical order.
    script: Vec<usize>,
    uploads: UploadStats,
}

fn read_targets() -> Vec<String> {
    let mut targets: Vec<String> = query::TABLE_IDS
        .iter()
        .map(|id| format!("/v1/table/{id}"))
        .chain(
            query::FIGURE_IDS
                .iter()
                .map(|id| format!("/v1/figure/{id}")),
        )
        .collect();
    targets.extend(benchmarks().map(|name| format!("/v1/profile/{name}")));
    targets
}

/// The profile summary the server renders for `GET /v1/profile/..`.
fn side_json(profile: &CacheProfile) -> String {
    json::object([
        json::key("num_frames") + &profile.num_frames.to_string(),
        json::key("total_cycles") + &profile.total_cycles.to_string(),
        json::key("accesses") + &profile.cache.accesses.to_string(),
        json::key("hits") + &profile.cache.hits.to_string(),
        json::key("misses") + &profile.cache.misses.to_string(),
        json::key("hit_rate") + &num_f64(profile.cache.hit_rate()),
        json::key("interval_classes") + &(profile.dist.num_classes() as u64).to_string(),
        json::key("total_intervals") + &profile.dist.total_intervals().to_string(),
        json::key("interval_cycles") + &profile.dist.total_cycles().to_string(),
        json::key("covers_timeline")
            + if profile.covers_timeline() {
                "true"
            } else {
                "false"
            },
        json::key("next_line_triggers") + &profile.prefetch.next_line_triggers.to_string(),
        json::key("stride_triggers") + &profile.prefetch.stride_triggers.to_string(),
    ])
}

/// The body the library produces for a read target.
fn expected_read(target: &str) -> Vec<u8> {
    let store = ProfileStore::global();
    let scale = Scale::Test;
    if let Some(id) = target.strip_prefix("/v1/table/") {
        let id: u8 = id.parse().expect("table id");
        return query::table(store, id, scale)
            .expect("table")
            .to_json()
            .into_bytes();
    }
    if let Some(id) = target.strip_prefix("/v1/figure/") {
        let id: u8 = id.parse().expect("figure id");
        let (icache, dcache) = query::figure(store, id, scale).expect("figure");
        return json::object([
            json::key("figure") + &id.to_string(),
            json::key("scale_cycles") + &scale.cycles().to_string(),
            json::key("icache") + &icache.to_json(),
            json::key("dcache") + &dcache.to_json(),
        ])
        .into_bytes();
    }
    let name = target.trim_start_matches("/v1/profile/");
    let profile = store.fetch(name, scale);
    json::object([
        json::key("benchmark") + &json::string(&profile.name),
        json::key("scale_cycles") + &scale.cycles().to_string(),
        json::key("hierarchy") + &json::string("alpha"),
        json::key("icache") + &side_json(&profile.icache),
        json::key("dcache") + &side_json(&profile.dcache),
    ])
    .into_bytes()
}

/// The variant's sweep batches: points walk the benchmark × side × node
/// space from an offset the variant picks.
fn sweep_batches(variant: u64) -> Vec<Vec<SweepPoint>> {
    let names: Vec<&str> = benchmarks().collect();
    let sides = [Level1::Instruction, Level1::Data];
    let space = names.len() * sides.len() * TechnologyNode::ALL.len();
    (0..PER_CLASS)
        .map(|batch| {
            (0..SWEEP_BATCH)
                .map(|slot| {
                    let index = (variant as usize * 7 + batch * 5 + slot * 13) % space;
                    SweepPoint {
                        benchmark: names[index % names.len()].to_string(),
                        side: sides[(index / names.len()) % sides.len()],
                        node: TechnologyNode::ALL[index / (names.len() * sides.len())],
                    }
                })
                .collect()
        })
        .collect()
}

fn sweep_body(points: &[SweepPoint]) -> Vec<u8> {
    json::object([
        json::key("scale") + &json::string("test"),
        json::key("points")
            + &json::array(points.iter().map(|p| {
                json::object([
                    json::key("benchmark") + &json::string(&p.benchmark),
                    json::key("side") + &json::string(side_token(p.side)),
                    json::key("node") + &json::string(&p.node.to_string()),
                ])
            })),
    ])
    .into_bytes()
}

fn expected_sweep(points: &[SweepPoint]) -> Vec<u8> {
    let rows = points.iter().map(|point| {
        let profile = ProfileStore::global().fetch(&point.benchmark, Scale::Test);
        let savings = query::sweep_point_profile(&profile, point);
        render_sweep_row(&point.benchmark, point.side, point.node, &savings)
    });
    json::object([
        json::key("scale_cycles") + &Scale::Test.cycles().to_string(),
        json::key("results") + &json::array(rows),
    ])
    .into_bytes()
}

/// The first `records` accesses of a benchmark, run at doubling cycle
/// budgets until it makes that many.
fn upload_events(name: &str, records: usize) -> Vec<MemoryAccess> {
    let mut cycles = records as u64;
    loop {
        let mut trace = VecTrace::new();
        by_name(name, Scale::Custom(cycles))
            .expect("benchmark")
            .run(&mut trace);
        if trace.events().len() >= records {
            return trace.events()[..records].to_vec();
        }
        assert!(cycles < 1 << 40, "{name} makes too few accesses to upload");
        cycles *= 2;
    }
}

/// An LKTR trace body.
fn encode(events: &[MemoryAccess]) -> Vec<u8> {
    let mut body = Vec::with_capacity(LKTR_HEADER + events.len() * LKTR_RECORD);
    let mut writer = TraceWriter::new(&mut body).expect("trace writer");
    for access in events {
        writer.accept(*access);
    }
    writer.flush().expect("trace flush");
    drop(writer);
    assert!(
        body.len() <= MAX_BODY_BYTES,
        "an upload must fit the Content-Length cap"
    );
    body
}

/// The summary the upload route must answer, computed with the
/// library's decoder and streaming extractor.
fn expected_upload(body: &[u8]) -> (Vec<u8>, u64, u64) {
    let mut decoder = StreamDecoder::new();
    let mut extractor = StreamingExtractor::new(LINE_BITS, CompactIntervalDist::new());
    decoder
        .feed(body, &mut extractor)
        .expect("own trace decodes");
    decoder.finish().expect("own trace is complete");
    let events = extractor.events();
    let lines = extractor.resident_lines() as u64;
    let peak = extractor.peak_resident_lines() as u64;
    let end_cycle = extractor.watermark().map_or(0, |last| last.raw() + 1);
    let dist = extractor.finish();
    let body = json::object([
        json::key("events") + &events.to_string(),
        json::key("line_bits") + &LINE_BITS.to_string(),
        json::key("lines") + &lines.to_string(),
        json::key("peak_resident_lines") + &peak.to_string(),
        json::key("end_cycle") + &end_cycle.to_string(),
        json::key("intervals") + &dist.total_intervals().to_string(),
        json::key("interval_classes") + &(dist.num_classes() as u64).to_string(),
        json::key("interval_cycles") + &dist.total_cycles().to_string(),
    ]);
    (body.into_bytes(), events, dist.total_intervals())
}

/// A request head, ending with its blank line.
fn render(addr: SocketAddr, method: &str, target: &str, id: Option<u64>, extra: &str) -> Vec<u8> {
    let mut out = format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\n").into_bytes();
    if let Some(id) = id {
        out.extend_from_slice(format!("X-Request-Id: {id}\r\n").as_bytes());
    }
    out.extend_from_slice(extra.as_bytes());
    out.extend_from_slice(b"\r\n");
    out
}

fn content_length(body: &[u8]) -> String {
    format!("Content-Length: {}\r\n", body.len())
}

/// The chunked framing of an upload body.
fn chunked(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + body.len() / UPLOAD_CHUNK * 8 + 16);
    for chunk in body.chunks(UPLOAD_CHUNK) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// The body inside a framing made by [`chunked`].
fn unchunk(mut framed: &[u8]) -> Vec<u8> {
    let mut body = Vec::new();
    loop {
        let line = framed
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line");
        let size = std::str::from_utf8(&framed[..line])
            .ok()
            .and_then(|hex| usize::from_str_radix(hex, 16).ok())
            .expect("chunk size");
        framed = &framed[line + 2..];
        if size == 0 {
            return body;
        }
        body.extend_from_slice(&framed[..size]);
        framed = &framed[size + 2..];
    }
}

/// The server's configuration: the defaults, except for the sizing the
/// benchmark fixes and one workaround.
fn server_config(jobs_dir: PathBuf) -> ServerConfig {
    ServerConfig {
        workers: THREADS,
        default_scale: Scale::Test,
        jobs_dir,
        job_workers: 1,
        // Unlimited instead of the default 1,024 works around a server
        // bug: when the request that exhausts the budget is a chunked
        // upload, `work_requests` in `crates/server/src/pool.rs` skips
        // `serve_upload` (the budget has already set `conn.close`) and
        // closes the connection unanswered. Restore the default once
        // that is fixed. Until then no connection is recycled, so
        // `server.reconnects` counts only failed requests.
        max_requests_per_connection: 0,
        ..ServerConfig::default()
    }
}

impl Bench {
    fn setup(ctx: &Ctx, repeat: usize) -> Bench {
        ProfileStore::global().clear();
        let server = Server::start(server_config(ctx.work_dir.join(format!("jobs-{repeat}"))))
            .expect("server starts");
        let addr = server.addr();
        let mut distinct: Vec<Distinct> = Vec::new();
        let mut script = Vec::new();

        // Reads, warmed through the server so they are cached.
        let targets = read_targets();
        let mut warm = Client::connect(addr, TIMEOUT).expect("connect");
        for target in &targets {
            let response = warm
                .send("GET", target, None)
                .and_then(|()| recv(&mut warm))
                .expect("warm-up read");
            assert_eq!(response.status, 200, "warm-up read {target}");
        }
        drop(warm);
        for target in &targets {
            let id = distinct.len() as u64 + 1;
            distinct.push(Distinct::new(
                Class::Read,
                addr,
                "GET",
                target,
                id,
                &content_length(b""),
                b"",
                expected_read(target),
            ));
        }
        let reads = distinct.len();
        script.extend((0..PER_CLASS).map(|i| i % reads));

        // Sweep batches.
        for points in sweep_batches(ctx.variant) {
            let body = sweep_body(&points);
            let id = distinct.len() as u64 + 1;
            script.push(distinct.len());
            distinct.push(Distinct::new(
                Class::Sweep,
                addr,
                "POST",
                "/v1/sweep",
                id,
                &content_length(&body),
                &body,
                expected_sweep(&points),
            ));
        }

        // Uploads: one LKTR trace per benchmark, encoded once.
        let records = UPLOAD_RECORDS - UPLOAD_TRIM * ctx.variant as usize;
        let first_upload = distinct.len();
        let mut per_trace = Vec::new();
        for name in benchmarks() {
            let body = encode(&upload_events(name, records));
            let (expected, events, intervals) = expected_upload(&body);
            per_trace.push((body.len() as u64, events, intervals));
            let id = distinct.len() as u64 + 1;
            distinct.push(Distinct::new(
                Class::Upload,
                addr,
                "POST",
                UPLOAD_TARGET,
                id,
                CHUNKED,
                &chunked(&body),
                expected,
            ));
        }
        let mut uploads = UploadStats::default();
        for i in 0..PER_CLASS {
            let which = i % per_trace.len();
            script.push(first_upload + which);
            uploads.bytes += per_trace[which].0;
            uploads.events += per_trace[which].1;
            uploads.intervals += per_trace[which].2;
        }
        Bench {
            server,
            addr,
            distinct,
            script,
            uploads,
        }
    }

    /// The script in the seed's order.
    fn shuffled(&self, seed: u64, round: u64) -> Vec<usize> {
        let mut order = self.script.clone();
        let mut rng = SplitMix64::new(seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for i in (1..order.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// Reads the next response, resuming after a signal interrupts the
/// read (the client keeps the bytes it already has).
fn recv(client: &mut Client) -> std::io::Result<ClientResponse> {
    loop {
        match client.recv() {
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            result => return result,
        }
    }
}

/// One connection of the closed loop; reconnects when the server asks
/// to close.
struct Conn {
    client: Client,
    reconnects: u64,
}

/// One answered request.
struct Answer {
    class: Class,
    micros: f64,
    ok: bool,
    timing: Option<String>,
}

impl Conn {
    fn ask(&mut self, addr: SocketAddr, distinct: &Distinct, traced: bool) -> Answer {
        let started = Instant::now();
        let result = {
            let mut stream = self.client.stream();
            if traced {
                stream
                    .write_all(&distinct.traced_head)
                    .and_then(|()| stream.write_all(distinct.body()))
            } else {
                stream.write_all(&distinct.wire)
            }
        }
        .and_then(|()| recv(&mut self.client));
        let micros = started.elapsed().as_secs_f64() * 1e6;
        let (ok, timing, close) = match &result {
            Ok(response) => (
                response.status == 200 && response.body == distinct.expected,
                response.header("Server-Timing").map(str::to_string),
                response
                    .header("Connection")
                    .is_some_and(|v| v.eq_ignore_ascii_case("close")),
            ),
            Err(_) => (false, None, true),
        };

        if close {
            match Client::connect(addr, TIMEOUT) {
                Ok(client) => {
                    self.client = client;
                    self.reconnects += 1;
                }
                Err(err) => eprintln!("perfbench: reconnect failed: {err}"),
            }
        }
        Answer {
            class: distinct.class,
            micros,
            ok,
            timing,
        }
    }
}

/// Latencies, failures and timings gathered over scripts.
#[derive(Default)]
struct Tally {
    micros: [Vec<f64>; 3],
    queue_us: Vec<f64>,
    write_us: Vec<f64>,
    walls: Vec<f64>,
}

fn class_index(class: Class) -> usize {
    CLASSES
        .iter()
        .position(|(c, _)| *c == class)
        .expect("known class")
}

/// The stage durations of a `Server-Timing` value, in microseconds.
fn stage_us(header: &str, stage: &str) -> Option<f64> {
    header.split(',').find_map(|entry| {
        let (name, dur) = entry.trim().split_once(";dur=")?;
        (name == stage).then(|| dur.parse::<f64>().ok().map(|ms| ms * 1e3))?
    })
}

/// Runs one script over the connections and tallies its answers.
fn script(
    bench: &Bench,
    conns: &mut [Conn],
    order: &[usize],
    traced: bool,
    tally: &mut Tally,
    report: &mut Report,
) {
    let halves: Vec<Vec<usize>> = (0..conns.len())
        .map(|c| order.iter().copied().skip(c).step_by(conns.len()).collect())
        .collect();
    let started = Instant::now();
    let answers: Vec<Vec<Answer>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&halves)
            .map(|(conn, half)| {
                scope.spawn(move || {
                    half.iter()
                        .map(|&i| conn.ask(bench.addr, &bench.distinct[i], traced))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    tally.walls.push(started.elapsed().as_secs_f64());
    for answer in answers.into_iter().flatten() {
        let name = CLASSES[class_index(answer.class)].1;
        report.attempt(answer.ok, || {
            format!("serve_mixed: a {name} request failed or answered wrong bytes")
        });
        tally.micros[class_index(answer.class)].push(answer.micros);
        if let Some(timing) = &answer.timing {
            tally.queue_us.extend(stage_us(timing, "queue"));
            tally.write_us.extend(stage_us(timing, "write"));
        }
    }
}

fn connect(bench: &Bench) -> Vec<Conn> {
    (0..THREADS)
        .map(|_| Conn {
            client: Client::connect(bench.addr, TIMEOUT).expect("connect"),
            reconnects: 0,
        })
        .collect()
}

fn setup(ctx: &Ctx) -> (Bench, Vec<f64>) {
    let mut setups = Vec::new();
    let mut last: Option<Bench> = None;
    for repeat in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            previous.server.shutdown();
        }
        let (bench, seconds) = crate::timed(|| Bench::setup(ctx, repeat));
        setups.push(seconds);
        last = Some(bench);
    }
    (last.expect("at least one set-up"), setups)
}

fn record_counts(report: &mut Report, bench: &Bench) {
    let mut expected = Vec::new();
    for &i in &bench.script {
        expected.extend_from_slice(&bench.distinct[i].expected);
    }
    report.count("script_requests", bench.script.len() as u64);
    report.count("sweep_points", (PER_CLASS * SWEEP_BATCH) as u64);
    report.count("upload_bytes", bench.uploads.bytes);
    report.count("upload_events", bench.uploads.events);
    report.count("upload_intervals", bench.uploads.intervals);
    report.count(
        "responses_fnv",
        u64::from_str_radix(&report::digest(&expected), 16).unwrap_or(0),
    );
}

fn info_latencies(report: &mut Report, tally: &Tally) {
    for (class, name) in CLASSES {
        let samples = &tally.micros[class_index(class)];
        report.info(format!("p50_us.{name}"), report::median(samples), "us");
        report.info(
            format!("p99_us.{name}"),
            report::percentile(samples, 99.0),
            "us",
        );
        report.info(format!("requests.{name}"), samples.len() as f64, "count");
    }
}

/// The untraced run: scripts until `ctx.seconds` of them elapse.
pub fn run(ctx: &Ctx, report: &mut Report) -> Timed {
    let (bench, setups) = setup(ctx);
    record_counts(report, &bench);
    let mut conns = connect(&bench);
    // The memory figure covers the scripts: the server, and the client
    // with its encoded requests (about 12 MiB of uploads).
    let reset = report::reset_peak_rss();
    let mut tally = Tally::default();
    let mut round = 0;
    while tally.walls.iter().sum::<f64>() < ctx.seconds || tally.walls.is_empty() {
        let order = bench.shuffled(ctx.seed, round);
        script(&bench, &mut conns, &order, false, &mut tally, report);
        round += 1;
    }
    let peak_rss_mb = report::peak_rss_mb();
    drop(conns);
    bench.server.shutdown();
    report.info("peak_rss_reset", f64::from(u8::from(reset)), "bool");
    info_latencies(report, &tally);
    let requests = bench.script.len() as f64 * tally.walls.len() as f64;
    report.info("rps", requests / tally.walls.iter().sum::<f64>(), "1/s");
    Timed {
        setup_s: report::median(&setups),
        setups,
        units: tally.walls,
        items_per_unit: bench.script.len() as f64,
        peak_rss_mb,
    }
}

/// Counter values scraped from `/metrics`.
fn scrape(addr: SocketAddr, names: &[&str]) -> Vec<f64> {
    let text = Client::connect(addr, TIMEOUT)
        .and_then(|mut client| {
            client.send("GET", "/metrics", None)?;
            recv(&mut client)
        })
        .map(|response| response.text())
        .unwrap_or_default();
    names
        .iter()
        .map(|name| {
            text.lines()
                .find_map(|line| {
                    line.strip_prefix(name)?
                        .strip_prefix(' ')?
                        .trim()
                        .parse()
                        .ok()
                })
                .unwrap_or(0.0)
        })
        .collect()
}

/// A route context built the way `Server::start` builds its own, from
/// the configuration the benchmark's server runs with.
fn route_context(config: &ServerConfig) -> RouteContext {
    let shards = config.cache_shards.max(1);
    let recorder = config.recorder.then(|| {
        let cap = if config.recorder_cap > 0 {
            config.recorder_cap
        } else {
            FlightRecorder::capacity_from_env()
        };
        Arc::new(FlightRecorder::new(cap))
    });
    RouteContext {
        store: ProfileStore::global(),
        front: Arc::new(StoreFront::new(ProfileStore::global(), shards)),
        cache: Arc::new(ResponseCache::new(config.cache_entries, shards)),
        catalog: Arc::new(ArtifactCatalog::new(
            config.preserialize,
            config.default_scale,
        )),
        sim_limit: Arc::new(Semaphore::new(config.sim_concurrency.max(1))),
        sweep_limit: Arc::new(Semaphore::new(config.sweep_concurrency.max(1))),
        default_scale: config.default_scale,
        limit_wait: config.limit_wait,
        retry_after_secs: config.retry_after_secs,
        metrics: HotMetrics::resolve(),
        jobs: JobFabric::start(FabricConfig {
            jobs_dir: config.jobs_dir.clone(),
            workers: config.job_workers.max(1),
            stall_deadline: config.job_stall,
            worker_env: config.job_worker_env.clone(),
            max_active_jobs: config.max_active_jobs.max(1),
            heartbeat_timeout: config.job_hb_timeout,
            ..FabricConfig::default()
        })
        .expect("job fabric starts"),
        job_worker_quorum: config.job_worker_quorum,
        recorder,
        info: ServerInfo::new("direct", config.workers.max(1)),
    }
}

/// The traced run: scripts with `X-Request-Id` on every request next to
/// untraced ones, then parse, handler, decoder and extractor timed
/// through their public calls.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let (bench, _) = setup(ctx);
    record_counts(report, &bench);
    const COUNTERS: [&str; 4] = [
        "server_response_cache_hits_total",
        "server_response_cache_misses_total",
        "server_catalog_hits_total",
        "server_shed_total",
    ];
    let before = scrape(bench.addr, &COUNTERS);
    let mut conns = connect(&bench);
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let rounds = (ctx.seconds / 2.0).clamp(1.0, 5.0) as u64;
    for round in 0..rounds {
        let order = bench.shuffled(ctx.seed, round);
        script(&bench, &mut conns, &order, false, &mut plain, report);
        script(&bench, &mut conns, &order, true, &mut traced, report);
    }
    let reconnects: u64 = conns.iter().map(|c| c.reconnects).sum();
    drop(conns);
    let after = scrape(bench.addr, &COUNTERS);
    let delta: Vec<f64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();

    // Parse: every distinct request's bytes, class by class.
    let mut parse_us = Vec::new();
    let mut requests: Vec<Option<Request>> = Vec::new();
    for distinct in &bench.distinct {
        let parsed = parse_request(&distinct.wire);
        report.attempt(matches!(parsed, Parse::Complete { .. }), || {
            "serve_mixed: request bytes do not parse".to_string()
        });
        let ((), seconds) = crate::timed(|| {
            for _ in 0..PARSE_REPEATS {
                black_box(parse_request(black_box(&distinct.wire)));
            }
        });
        parse_us.push(seconds * 1e6 / PARSE_REPEATS as f64);
        requests.push(match parse_request(&distinct.buffered()) {
            Parse::Complete { request, .. } => Some(request),
            _ => {
                report.fail("serve_mixed: a buffered request does not parse");
                None
            }
        });
    }
    report.metric("server.parse_us", report::mean(&parse_us), "us");

    // Handlers, through a route context built like the server's, its
    // catalog and caches warmed first: the timed calls then see what the
    // serving run saw (cached reads).
    let route_ctx = route_context(&server_config(ctx.work_dir.join("route-jobs")));
    routes::warm_catalog(&route_ctx);
    for request in requests.iter().flatten() {
        routes::handle(request, &route_ctx, &StageTrace::default());
    }
    let mut handler_us: [Vec<f64>; 3] = Default::default();
    for &i in &bench.script {
        let Some(request) = &requests[i] else {
            continue;
        };
        let (response, seconds) =
            crate::timed(|| routes::handle(request, &route_ctx, &StageTrace::default()));
        handler_us[class_index(bench.distinct[i].class)].push(seconds * 1e6);
        report.attempt(
            response.body() == bench.distinct[i].expected.as_slice(),
            || "serve_mixed: handler answered different bytes".to_string(),
        );
    }
    route_ctx.jobs.stop();

    // Upload decoding and streaming extraction, layer by layer.
    let upload_bodies: Vec<Vec<u8>> = bench
        .distinct
        .iter()
        .filter(|d| d.class == Class::Upload)
        .map(|d| unchunk(d.body()))
        .collect();
    let mut decoded = 0;
    let ((), decode_s) = crate::timed(|| {
        for body in &upload_bodies {
            let mut decoder = StreamDecoder::new();
            let mut sink = CountingSink::default();
            decoder.feed(body, &mut sink).expect("own trace decodes");
            decoded += sink.0;
        }
    });
    let traces: Vec<VecTrace> = upload_bodies
        .iter()
        .map(|body| {
            let mut trace = VecTrace::new();
            let mut decoder = StreamDecoder::new();
            decoder.feed(body, &mut trace).expect("own trace decodes");
            decoder.finish().expect("own trace is complete");
            trace
        })
        .collect();
    let mut streamed = 0;
    let ((), stream_s) = crate::timed(|| {
        for trace in &traces {
            let mut extractor = StreamingExtractor::new(LINE_BITS, CompactIntervalDist::new());
            for access in trace.events() {
                extractor.on_access(access.addr.line(LINE_BITS), access.cycle);
            }
            streamed += extractor.events();
            black_box(extractor.finish());
        }
    });
    report.attempt(decoded == streamed, || {
        "serve_mixed: decoder and extractor saw different events".to_string()
    });
    report.metric("trace.decode_busy_ms", decode_s * 1e3, "ms");
    report.metric("intervals.streaming_events", streamed as f64, "count");
    report.metric("intervals.streaming_busy_ms", stream_s * 1e3, "ms");

    for (class, name) in CLASSES {
        let handler = report::median(&handler_us[class_index(class)]);
        report.metric(format!("server.handler_us.{name}"), handler, "us");
        // Reconciliation: what the client waited beyond the handler,
        // both as medians (base: the class's untraced client p50).
        let p50 = report::median(&plain.micros[class_index(class)]);
        report.metric(format!("server.transport_us.{name}"), p50 - handler, "us");
        report.metric(format!("server.client_p50_us.{name}"), p50, "us");
    }
    report.metric(
        "server.stage_us.queue.mean",
        report::mean(&traced.queue_us),
        "us",
    );
    report.metric(
        "server.stage_us.queue.p99",
        report::percentile(&traced.queue_us, 99.0),
        "us",
    );
    report.metric(
        "server.stage_us.write.mean",
        report::mean(&traced.write_us),
        "us",
    );
    report.metric(
        "server.stage_us.write.p99",
        report::percentile(&traced.write_us, 99.0),
        "us",
    );
    let lookups = delta[0] + delta[1];
    report.metric("server.respcache_lookups", lookups, "count");
    report.metric(
        "server.respcache_hit_ratio",
        if lookups > 0.0 {
            delta[0] / lookups
        } else {
            0.0
        },
        "ratio",
    );
    report.metric("server.catalog_hits", delta[2], "count");
    report.metric("server.shed", delta[3], "count");
    report.metric("server.reconnects", reconnects as f64, "count");
    let (plain_wall, traced_wall) = (report::median(&plain.walls), report::median(&traced.walls));
    report.metric("serve_mixed.traced.wall_s", traced_wall, "s");
    report.metric(
        "serve_mixed.traced.wall_ratio",
        traced_wall / plain_wall,
        "ratio",
    );
    bench.server.shutdown();
}
