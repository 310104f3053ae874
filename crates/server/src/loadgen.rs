//! A closed-loop load generator for the analysis service.
//!
//! Each connection-thread holds one **keep-alive** connection, walks a
//! weighted path mix round-robin, and optionally pipelines a batch of
//! requests per write. Closed-loop means offered load adapts to
//! service rate, so the report measures the server's sustainable
//! throughput rather than queue growth. `keep_alive: false` restores
//! the PR-5 connection-per-request behavior — the bench trajectory's
//! baseline configuration.
//!
//! Latency is measured per response from the moment its batch was
//! written (so under pipelining, later responses in a batch include
//! their queueing delay behind earlier ones — that is the latency a
//! pipelining client actually observes). Percentiles interpolate
//! linearly between order statistics instead of nearest-rank, so
//! small samples don't quantize.

use crate::http::{fetch_traced, Client};
use leakage_telemetry::json;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What to offer against the server.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: SocketAddr,
    /// Concurrent closed-loop connections.
    pub connections: usize,
    /// How long to run.
    pub duration: Duration,
    /// `(path, weight)` request mix; weights are relative frequencies.
    pub mix: Vec<(String, u32)>,
    /// Per-request client timeout.
    pub timeout: Duration,
    /// Reuse connections (HTTP/1.1 keep-alive). `false` opens a fresh
    /// connection per request.
    pub keep_alive: bool,
    /// Requests pipelined per write on a keep-alive connection
    /// (clamped to ≥ 1; meaningless without `keep_alive`).
    pub pipeline: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:8080".parse().expect("literal address"),
            connections: 4,
            duration: Duration::from_secs(5),
            mix: vec![
                ("/v1/table/2?scale=test".to_string(), 8),
                ("/healthz".to_string(), 1),
                ("/metrics".to_string(), 1),
            ],
            timeout: Duration::from_secs(30),
            keep_alive: true,
            pipeline: 1,
        }
    }
}

/// Aggregated results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that completed with any HTTP status.
    pub requests: u64,
    /// 2xx responses.
    pub status_2xx: u64,
    /// 4xx responses.
    pub status_4xx: u64,
    /// 5xx responses.
    pub status_5xx: u64,
    /// Transport errors (connect/read/write failures, timeouts).
    pub transport_errors: u64,
    /// Wall-clock seconds the run took.
    pub elapsed_secs: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median latency, microseconds (interpolated).
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds (interpolated).
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds (interpolated).
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
    /// TCP connections opened over the whole run.
    pub connections_opened: u64,
    /// Reconnects after the first connection per thread (server-side
    /// closes, request budgets, transport errors).
    pub reconnects: u64,
    /// Server-side latency attribution distilled from `Server-Timing`
    /// response headers, one entry per stage the server reported.
    pub server_stages: Vec<StageSummary>,
}

/// Stage labels in the server's `Server-Timing` header, in the order
/// the serving path runs them.
pub const TIMING_STAGES: [&str; 6] = ["parse", "queue", "permit", "handler", "store", "write"];

/// One stage's latency summary across every response that reported it.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage label (one of [`TIMING_STAGES`]).
    pub stage: &'static str,
    /// Responses that carried this stage.
    pub count: u64,
    /// Mean stage latency, microseconds.
    pub mean_us: f64,
    /// Interpolated 99th-percentile stage latency, microseconds.
    pub p99_us: u64,
}

/// Requests between `Server-Timing` samples on each loadgen thread.
/// `Server-Timing` is opt-in per request (the server attributes
/// responses whose request carried an `X-Request-Id`), so the loadgen
/// attaches an id to every Nth request: stage statistics still see
/// thousands of samples per run, while the measured workload stays
/// representative of ordinary (untraced) clients.
const TIMING_SAMPLE_EVERY: u64 = 8;

/// `dur=` milliseconds → whole microseconds. Fast path for the
/// server's canonical `M.FFF` rendering (pure integer math — `f64`
/// parsing is measurably expensive on the closed loop); any other
/// shape falls back to a float parse.
fn dur_ms_to_us(ms: &str) -> Option<u64> {
    if let Some((whole, frac)) = ms.split_once('.') {
        if frac.len() == 3 && frac.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(whole) = whole.parse::<u64>() {
                let frac: u64 = frac
                    .bytes()
                    .fold(0, |acc, b| acc * 10 + u64::from(b - b'0'));
                return Some(whole * 1000 + frac);
            }
        }
    }
    ms.parse::<f64>().ok().map(|v| (v * 1000.0).round() as u64)
}

/// Accumulates `Server-Timing` durations (converted to µs) into the
/// per-stage sample vectors. Unknown stage names are ignored so the
/// loadgen keeps working against servers that add stages.
fn parse_server_timing(header: &str, stage_us: &mut [Vec<u64>; TIMING_STAGES.len()]) {
    for entry in header.split(',') {
        let mut parts = entry.trim().split(';');
        let Some(name) = parts.next() else { continue };
        let Some(index) = TIMING_STAGES.iter().position(|s| *s == name.trim()) else {
            continue;
        };
        for attr in parts {
            if let Some(ms) = attr.trim().strip_prefix("dur=") {
                if let Some(us) = dur_ms_to_us(ms) {
                    stage_us[index].push(us);
                }
            }
        }
    }
}

impl LoadReport {
    /// The report as a JSON document (the loadgen CLI's output, and
    /// what CI archives under `results/`).
    pub fn to_json(&self) -> String {
        let num_u = |v: u64| v.to_string();
        json::object([
            json::key("requests") + &num_u(self.requests),
            json::key("status_2xx") + &num_u(self.status_2xx),
            json::key("status_4xx") + &num_u(self.status_4xx),
            json::key("status_5xx") + &num_u(self.status_5xx),
            json::key("transport_errors") + &num_u(self.transport_errors),
            json::key("elapsed_secs") + &format!("{:.3}", self.elapsed_secs),
            json::key("throughput_rps") + &format!("{:.1}", self.throughput_rps),
            json::key("p50_us") + &num_u(self.p50_us),
            json::key("p95_us") + &num_u(self.p95_us),
            json::key("p99_us") + &num_u(self.p99_us),
            json::key("max_us") + &num_u(self.max_us),
            json::key("connections_opened") + &num_u(self.connections_opened),
            json::key("reconnects") + &num_u(self.reconnects),
            json::key("server_stages")
                + &json::object(self.server_stages.iter().map(|s| {
                    json::key(s.stage)
                        + &json::object([
                            json::key("count") + &num_u(s.count),
                            json::key("mean_us") + &format!("{:.1}", s.mean_us),
                            json::key("p99_us") + &num_u(s.p99_us),
                        ])
                })),
        ])
    }
}

/// Expands the weighted mix into a deterministic request schedule.
fn schedule(mix: &[(String, u32)]) -> Vec<String> {
    let mut paths = Vec::new();
    for (path, weight) in mix {
        for _ in 0..*weight {
            paths.push(path.clone());
        }
    }
    if paths.is_empty() {
        paths.push("/healthz".to_string());
    }
    paths
}

#[derive(Default)]
struct ThreadStats {
    latencies_us: Vec<u64>,
    stage_us: [Vec<u64>; TIMING_STAGES.len()],
    status_2xx: u64,
    status_4xx: u64,
    status_5xx: u64,
    transport_errors: u64,
    connections_opened: u64,
    reconnects: u64,
}

impl ThreadStats {
    fn count(&mut self, status: u16, latency_us: u64) {
        self.latencies_us.push(latency_us);
        match status {
            200..=299 => self.status_2xx += 1,
            400..=499 => self.status_4xx += 1,
            _ => self.status_5xx += 1,
        }
    }
}

/// Connection-per-request driver (`keep_alive: false`).
fn drive_closing(config: &LoadgenConfig, offset: usize, deadline: Instant) -> ThreadStats {
    let paths = schedule(&config.mix);
    let mut stats = ThreadStats::default();
    let mut cursor = offset % paths.len();
    let mut sent: u64 = 0;
    while Instant::now() < deadline {
        let path = &paths[cursor];
        cursor = (cursor + 1) % paths.len();
        let trace_id = sample_trace_id(offset, &mut sent);
        let started = Instant::now();
        stats.connections_opened += 1;
        match fetch_traced(config.addr, "GET", path, trace_id, None, config.timeout) {
            Ok(response) => {
                let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                stats.count(response.status, micros);
                if trace_id.is_some() {
                    if let Some(timing) = response.header("server-timing") {
                        parse_server_timing(timing, &mut stats.stage_us);
                    }
                }
            }
            Err(_) => stats.transport_errors += 1,
        }
    }
    stats
}

/// Yields `Some(id)` on every [`TIMING_SAMPLE_EVERY`]th request of a
/// loadgen thread (and the first, so short runs still sample),
/// deriving an id unique across threads from the thread offset.
fn sample_trace_id(offset: usize, sent: &mut u64) -> Option<u64> {
    let n = *sent;
    *sent += 1;
    if n.is_multiple_of(TIMING_SAMPLE_EVERY) {
        Some(((offset as u64 + 1) << 40) | (n + 1))
    } else {
        None
    }
}

/// Keep-alive (optionally pipelined) driver. Reconnects when the
/// server closes the connection (`Connection: close`, request budget,
/// drain) — a clean close after a complete response is a reconnect,
/// not a transport error.
fn drive_keepalive(config: &LoadgenConfig, offset: usize, deadline: Instant) -> ThreadStats {
    let paths = schedule(&config.mix);
    let batch = config.pipeline.max(1);
    let mut stats = ThreadStats::default();
    let mut cursor = offset % paths.len();
    let mut requests_sent: u64 = 0;
    let mut client: Option<Client> = None;

    while Instant::now() < deadline {
        if client.is_none() {
            match Client::connect(config.addr, config.timeout) {
                Ok(conn) => {
                    stats.connections_opened += 1;
                    if stats.connections_opened > 1 {
                        stats.reconnects += 1;
                    }
                    client = Some(conn);
                }
                Err(_) => {
                    stats.transport_errors += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        }
        let conn = client.as_mut().expect("connected above");

        let targets: Vec<(&str, Option<u64>)> = (0..batch)
            .map(|i| {
                (
                    paths[(cursor + i) % paths.len()].as_str(),
                    sample_trace_id(offset, &mut requests_sent),
                )
            })
            .collect();
        cursor = (cursor + batch) % paths.len();

        let sent = Instant::now();
        if conn.send_pipelined_traced(&targets).is_err() {
            stats.transport_errors += 1;
            client = None;
            continue;
        }
        let mut server_closed = false;
        for (answered, (_, traced)) in targets.iter().enumerate() {
            match conn.recv() {
                Ok(response) => {
                    let micros = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                    stats.count(response.status, micros);
                    if traced.is_some() {
                        if let Some(timing) = response.header("server-timing") {
                            parse_server_timing(timing, &mut stats.stage_us);
                        }
                    }
                    if response
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                    {
                        // Clean close: any later requests in this
                        // batch were legitimately discarded.
                        server_closed = true;
                        break;
                    }
                }
                Err(err) => {
                    // EOF before the batch's first response is a
                    // server-side close that raced our send (e.g.
                    // idle timeout) — retry on a fresh connection
                    // rather than miscounting it as a failure.
                    if !(answered == 0 && err.kind() == io::ErrorKind::UnexpectedEof) {
                        stats.transport_errors += 1;
                    }
                    server_closed = true;
                    break;
                }
            }
        }
        if server_closed {
            client = None;
        }
    }
    stats
}

/// Interpolated percentile over a sorted sample: rank
/// `fraction * (n - 1)` with linear interpolation between adjacent
/// order statistics (the "exclusive..inclusive" blend NumPy calls
/// `linear`), rounded to whole microseconds.
fn percentile(sorted_us: &[u64], fraction: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = fraction.clamp(0.0, 1.0) * (sorted_us.len() - 1) as f64;
    let lower = rank.floor() as usize;
    let upper = rank.ceil() as usize;
    let weight = rank - lower as f64;
    let blended =
        sorted_us[lower] as f64 + (sorted_us[upper] as f64 - sorted_us[lower] as f64) * weight;
    blended.round() as u64
}

/// Runs the closed loop and aggregates the report.
///
/// # Errors
///
/// Thread-spawn failures only; per-request transport errors are
/// counted in the report instead.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadReport> {
    let started = Instant::now();
    let deadline = started + config.duration;
    let mut handles = Vec::new();
    for index in 0..config.connections.max(1) {
        let config = config.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("loadgen-{index}"))
                .spawn(move || {
                    if config.keep_alive {
                        drive_keepalive(&config, index, deadline)
                    } else {
                        drive_closing(&config, index, deadline)
                    }
                })?,
        );
    }
    let mut latencies = Vec::new();
    let mut totals = ThreadStats::default();
    for handle in handles {
        if let Ok(stats) = handle.join() {
            latencies.extend(stats.latencies_us);
            for (merged, thread) in totals.stage_us.iter_mut().zip(stats.stage_us) {
                merged.extend(thread);
            }
            totals.status_2xx += stats.status_2xx;
            totals.status_4xx += stats.status_4xx;
            totals.status_5xx += stats.status_5xx;
            totals.transport_errors += stats.transport_errors;
            totals.connections_opened += stats.connections_opened;
            totals.reconnects += stats.reconnects;
        }
    }
    latencies.sort_unstable();
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let requests = latencies.len() as u64;
    let server_stages = TIMING_STAGES
        .iter()
        .zip(totals.stage_us.iter_mut())
        .filter(|(_, samples)| !samples.is_empty())
        .map(|(stage, samples)| {
            samples.sort_unstable();
            let sum: u64 = samples.iter().sum();
            StageSummary {
                stage,
                count: samples.len() as u64,
                mean_us: sum as f64 / samples.len() as f64,
                p99_us: percentile(samples, 0.99),
            }
        })
        .collect();
    Ok(LoadReport {
        requests,
        status_2xx: totals.status_2xx,
        status_4xx: totals.status_4xx,
        status_5xx: totals.status_5xx,
        transport_errors: totals.transport_errors,
        elapsed_secs: elapsed,
        throughput_rps: requests as f64 / elapsed,
        p50_us: percentile(&latencies, 0.50),
        p95_us: percentile(&latencies, 0.95),
        p99_us: percentile(&latencies, 0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        connections_opened: totals.connections_opened,
        reconnects: totals.reconnects,
        server_stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_respects_weights() {
        let mix = vec![("/a".to_string(), 3), ("/b".to_string(), 1)];
        let paths = schedule(&mix);
        assert_eq!(paths.len(), 4);
        assert_eq!(paths.iter().filter(|p| *p == "/a").count(), 3);
        assert_eq!(schedule(&[]), vec!["/healthz".to_string()]);
    }

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        // 0..=100: rank = f * 100 lands exactly on the value f * 100.
        let sorted: Vec<u64> = (0..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        // Between order statistics: p50 of [10, 20, 30, 40] is
        // rank 1.5 → halfway between 20 and 30.
        assert_eq!(percentile(&[10, 20, 30, 40], 0.50), 25);
        // p90 of [0, 100] is rank 0.9 → 90 (nearest-rank would say 100).
        assert_eq!(percentile(&[0, 100], 0.90), 90);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn percentiles_on_a_known_distribution() {
        // 1000 samples uniform over 1..=1000 µs, pre-sorted: the
        // interpolated percentile of a uniform grid must land on the
        // grid itself (p = f·(n-1)+1 exactly).
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 1.0), 1000);
        assert_eq!(percentile(&sorted, 0.50), 501, "median of 1..=1000");
        assert_eq!(percentile(&sorted, 0.95), 950);
        assert_eq!(percentile(&sorted, 0.99), 990);
        // Interpolation is monotone in the fraction.
        let mut last = 0;
        for f in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let p = percentile(&sorted, f);
            assert!(p >= last, "percentile must be monotone, {p} < {last}");
            last = p;
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let report = LoadReport {
            requests: 10,
            status_2xx: 9,
            status_4xx: 1,
            status_5xx: 0,
            transport_errors: 0,
            elapsed_secs: 2.0,
            throughput_rps: 5.0,
            p50_us: 100,
            p95_us: 200,
            p99_us: 300,
            max_us: 350,
            connections_opened: 4,
            reconnects: 0,
            server_stages: vec![StageSummary {
                stage: "handler",
                count: 10,
                mean_us: 42.5,
                p99_us: 80,
            }],
        };
        let doc = leakage_telemetry::json::parse(&report.to_json()).unwrap();
        assert_eq!(doc.get("requests").and_then(|v| v.as_f64()), Some(10.0));
        assert_eq!(
            doc.get("throughput_rps").and_then(|v| v.as_f64()),
            Some(5.0)
        );
        assert_eq!(doc.get("p99_us").and_then(|v| v.as_f64()), Some(300.0));
        assert_eq!(doc.get("max_us").and_then(|v| v.as_f64()), Some(350.0));
        assert_eq!(
            doc.get("connections_opened").and_then(|v| v.as_f64()),
            Some(4.0)
        );
        let handler = doc
            .get("server_stages")
            .and_then(|v| v.get("handler"))
            .expect("handler stage");
        assert_eq!(handler.get("count").and_then(|v| v.as_f64()), Some(10.0));
        assert_eq!(handler.get("p99_us").and_then(|v| v.as_f64()), Some(80.0));
    }

    #[test]
    fn server_timing_header_parses_to_stage_micros() {
        let mut stage_us: [Vec<u64>; TIMING_STAGES.len()] = Default::default();
        parse_server_timing(
            "parse;dur=0.012, queue;dur=1.500, permit;dur=0.000, handler;dur=2.345, \
             store;dur=2.000, write;dur=0.125",
            &mut stage_us,
        );
        assert_eq!(stage_us[0], vec![12], "parse 0.012ms -> 12us");
        assert_eq!(stage_us[1], vec![1500]);
        assert_eq!(stage_us[2], vec![0]);
        assert_eq!(stage_us[3], vec![2345]);
        assert_eq!(stage_us[5], vec![125]);
        // Unknown stages and malformed entries are skipped, known ones
        // still accumulate.
        parse_server_timing(
            "db;dur=9.9, queue;dur=bogus, write;dur=0.001",
            &mut stage_us,
        );
        assert_eq!(stage_us[1], vec![1500], "bogus duration ignored");
        assert_eq!(stage_us[5], vec![125, 1]);
    }
}
