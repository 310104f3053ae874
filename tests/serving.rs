//! End-to-end tests of the analysis service over real sockets: served
//! artifacts byte-identical to the batch pipeline, admission-control
//! backpressure, panic isolation, graceful drain, and a short
//! closed-loop load run.
//!
//! The fault plane is process-global, so tests that arm it serialize
//! on [`FaultScope`] and pick sites (`server/handler/healthz`,
//! `server/handler/profile`, `server/handler/figure`) that no other
//! test in this binary touches concurrently.

use cache_leakage_limits::cachesim::Level1;
use cache_leakage_limits::energy::TechnologyNode;
use cache_leakage_limits::experiments::query;
use cache_leakage_limits::experiments::{ProfileStore, Table};
use cache_leakage_limits::faults::{set_plane, Plane};
use cache_leakage_limits::jobs::render_sweep_row;
use cache_leakage_limits::server::{fetch, loadgen, Client, LoadgenConfig, Server, ServerConfig};
use cache_leakage_limits::telemetry::json::{self, Json};
use cache_leakage_limits::workloads::{Scale, ISA_SUITE_NAMES, SUITE_NAMES};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn test_config() -> ServerConfig {
    ServerConfig {
        default_scale: Scale::Test,
        ..ServerConfig::default()
    }
}

/// Serializes tests that arm the process-global fault plane and
/// guarantees an empty plane on drop.
struct FaultScope {
    _serial: MutexGuard<'static, ()>,
}

impl FaultScope {
    fn new(spec: &str) -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let scope = FaultScope {
            _serial: LOCK.lock().unwrap_or_else(PoisonError::into_inner),
        };
        set_plane(Plane::parse(spec).expect("test spec parses"));
        scope
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        set_plane(Plane::empty());
    }
}

/// The headline conformance scenario: Table 2 served over HTTP is
/// byte-identical in values to the batch pipeline's generator — same
/// cells, same characters — in both JSON and CSV renderings.
#[test]
fn served_table2_is_byte_identical_to_batch_pipeline() {
    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();

    let batch = query::table(ProfileStore::global(), 2, Scale::Test).expect("batch Table 2");

    let json_response = fetch(addr, "GET", "/v1/table/2?scale=test", None, CLIENT_TIMEOUT)
        .expect("served Table 2 JSON");
    assert_eq!(json_response.status, 200);
    let served = Table::from_json(&json_response.text()).expect("served document parses");
    assert_eq!(
        served, batch,
        "served cells must match the batch pipeline exactly"
    );
    assert_eq!(
        json_response.text(),
        batch.to_json(),
        "canonical JSON, byte for byte"
    );

    let csv_response = fetch(
        addr,
        "GET",
        "/v1/table/2?scale=test&format=csv",
        None,
        CLIENT_TIMEOUT,
    )
    .expect("served Table 2 CSV");
    assert_eq!(csv_response.status, 200);
    assert_eq!(
        csv_response.text(),
        batch.to_csv(),
        "CSV byte-identical too"
    );

    // Repeat query is served from the LRU cache with identical bytes.
    let again = fetch(addr, "GET", "/v1/table/2?scale=test", None, CLIENT_TIMEOUT).unwrap();
    assert_eq!(again.text(), json_response.text());

    server.shutdown();
}

/// A sweep batch over HTTP evaluates exactly the generalized-model
/// points the direct model gives: one batch of every (benchmark, side,
/// node) cell at test scale, sent twice (first touch of each profile's
/// memo, then memo hits), must both be byte-identical to
/// `render_sweep_row` over `sweep_model(node).optimal_savings(dist)`.
#[test]
fn served_sweep_matches_query_api() {
    let server = Server::start(test_config()).expect("server starts");
    let mut points = Vec::new();
    let mut rows = Vec::new();
    for benchmark in SUITE_NAMES.iter().chain(ISA_SUITE_NAMES.iter()) {
        let profile = ProfileStore::global().fetch(benchmark, Scale::Test);
        for (side, token) in [(Level1::Instruction, "icache"), (Level1::Data, "dcache")] {
            for node in TechnologyNode::ALL {
                points.push(format!(
                    r#"{{"benchmark": {benchmark:?}, "side": "{token}", "node": "{node}"}}"#
                ));
                let direct = query::sweep_model(node).optimal_savings(&profile.side(side).dist);
                rows.push(render_sweep_row(benchmark, side, node, &direct));
            }
        }
    }
    assert_eq!(points.len(), 96);
    let body = format!(r#"{{"scale": "test", "points": [{}]}}"#, points.join(", "));
    let expected = json::object([
        json::key("scale_cycles") + &Scale::Test.cycles().to_string(),
        json::key("results") + &json::array(rows),
    ]);
    for pass in ["first touch", "memo hit"] {
        let response = fetch(
            server.addr(),
            "POST",
            "/v1/sweep",
            Some(body.as_bytes()),
            CLIENT_TIMEOUT,
        )
        .expect("sweep response");
        assert_eq!(response.status, 200, "{pass}: {}", response.text());
        assert!(response.text() == expected, "{pass}: served rows differ");
    }
    server.shutdown();
}

/// Saturating the admission queue sheds load with 503 + `Retry-After`
/// while admitted requests still complete — and while saturated, the
/// admission-exempt observability plane (`/healthz`, `/debug/*`)
/// still answers 200 from the transport thread.
#[test]
fn saturated_admission_queue_sheds_with_retry_after() {
    // The profile route: sheddable (not exempt), and not in the
    // pre-serialized catalog space, so every first touch dispatches.
    let _faults = FaultScope::new("server/handler/profile=latency:400");
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        retry_after_secs: 7,
        ..test_config()
    })
    .expect("server starts");
    let addr = server.addr();

    let clients: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                fetch(
                    addr,
                    "GET",
                    "/v1/profile/gzip?scale=test",
                    None,
                    CLIENT_TIMEOUT,
                )
            })
        })
        .collect();
    // While the pool is saturated, health checks are answered inline
    // by the transport instead of being shed.
    std::thread::sleep(Duration::from_millis(100));
    let health = fetch(addr, "GET", "/healthz", None, CLIENT_TIMEOUT)
        .expect("healthz answers during overload");
    assert_eq!(
        health.status, 200,
        "observability plane is admission-exempt"
    );
    let responses: Vec<_> = clients
        .into_iter()
        .map(|c| {
            c.join()
                .expect("client thread")
                .expect("response delivered")
        })
        .collect();

    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed: Vec<_> = responses.iter().filter(|r| r.status == 503).collect();
    assert!(ok >= 1, "admitted requests are served through the latency");
    assert!(
        !shed.is_empty(),
        "one worker + depth-1 queue cannot admit 8 concurrent requests"
    );
    for response in &shed {
        assert_eq!(
            response.header("retry-after"),
            Some("7"),
            "shed responses carry the configured Retry-After"
        );
    }
    // Shed requests are retained by the flight recorder's error
    // reservoir even though they never reached a worker.
    let slow = fetch(addr, "GET", "/debug/slow", None, CLIENT_TIMEOUT).expect("/debug/slow");
    assert_eq!(slow.status, 200);
    let doc = json::parse(&slow.text()).expect("slow JSON parses");
    let errors = doc
        .get("errors")
        .and_then(Json::as_array)
        .expect("errors array");
    assert!(
        errors.iter().any(|e| {
            e.get("shed") == Some(&Json::Bool(true))
                && e.get("status").and_then(Json::as_f64) == Some(503.0)
        }),
        "shed requests appear in the error reservoir: {}",
        slow.text()
    );
    server.shutdown();
}

/// `max_connections` is a hard bound: a connection past it is answered
/// 503 with `Retry-After` and closed, while the connection already
/// admitted keeps being served.
#[test]
fn connection_limit_sheds_with_retry_after() {
    let server = Server::start(ServerConfig {
        max_connections: 1,
        retry_after_secs: 3,
        ..test_config()
    })
    .expect("server starts");
    let addr = server.addr();

    let mut admitted = Client::connect(addr, CLIENT_TIMEOUT).expect("connect");
    admitted.send("GET", "/healthz", None).expect("send");
    assert_eq!(admitted.recv().expect("answer").status, 200);

    // The admitted connection is idle but open, so it fills the limit.
    let shed = fetch(addr, "GET", "/healthz", None, CLIENT_TIMEOUT)
        .expect("a connection past the limit is answered, not reset");
    assert_eq!(shed.status, 503);
    assert!(
        shed.text().contains("connection limit reached"),
        "{}",
        shed.text()
    );
    assert_eq!(shed.header("retry-after"), Some("3"));

    admitted.send("GET", "/healthz", None).expect("send again");
    assert_eq!(
        admitted
            .recv()
            .expect("the admitted connection still answers")
            .status,
        200
    );
    server.shutdown();
}

/// An armed handler panic answers 500 for that request and the same
/// pool keeps serving afterwards — no worker dies.
#[test]
fn handler_panic_is_isolated_from_the_pool() {
    let _faults = FaultScope::new("server/handler/figure=panic#1");
    // No catalog warmer: it serves `/v1/figure/7` through the same
    // handler site and would race this request for the one armed panic.
    let server = Server::start(ServerConfig {
        workers: 2,
        preserialize: false,
        ..test_config()
    })
    .expect("server starts");
    let addr = server.addr();

    let poisoned = fetch(addr, "GET", "/v1/figure/7?scale=test", None, CLIENT_TIMEOUT)
        .expect("a response despite the panic");
    assert_eq!(poisoned.status, 500);
    assert!(poisoned.text().contains("panicked"), "{}", poisoned.text());

    // The pool survived: both a trivial and a simulation-backed route
    // still answer (more requests than workers, to prove none died).
    for _ in 0..4 {
        let health = fetch(addr, "GET", "/healthz", None, CLIENT_TIMEOUT).unwrap();
        assert_eq!(health.status, 200);
    }
    let table = fetch(addr, "GET", "/v1/table/1", None, CLIENT_TIMEOUT).unwrap();
    assert_eq!(table.status, 200);
    server.shutdown();
}

/// Graceful shutdown drains: a request already admitted (and sleeping
/// inside its handler) and one queued behind it, not yet popped by the
/// only worker, both complete with 200 while the server shuts down, and
/// only then does the listener disappear.
#[test]
fn graceful_shutdown_drains_inflight_request() {
    let _faults = FaultScope::new("server/handler/healthz=latency:600");
    let server = Server::start(ServerConfig {
        workers: 1,
        ..test_config()
    })
    .expect("server starts");
    let addr = server.addr();
    let healthz = move || fetch(addr, "GET", "/healthz", None, CLIENT_TIMEOUT);

    let inflight = std::thread::spawn(healthz);
    // Let the request reach the worker (it then sleeps 600ms in the
    // armed latency site), then queue a second one behind it before
    // initiating shutdown.
    std::thread::sleep(Duration::from_millis(200));
    let queued = std::thread::spawn(healthz);
    std::thread::sleep(Duration::from_millis(150));
    server.shutdown();

    for (name, client) in [("in-flight", inflight), ("queued", queued)] {
        let response = client
            .join()
            .expect("client thread")
            .unwrap_or_else(|err| panic!("{name} request survives the shutdown: {err}"));
        assert_eq!(response.status, 200, "{name}: drained, not dropped");
    }

    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "after the drain the listener is gone"
    );
}

/// A short closed-loop load run against the cached-table path: every
/// response healthy, percentiles ordered, throughput positive. (CI
/// runs the release-build smoke with the ≥100 req/s floor.)
#[test]
fn loadgen_smoke_reports_healthy_percentiles() {
    let server = Server::start(test_config()).expect("server starts");
    // Warm the memoized profile suite so the loop measures serving,
    // not first-touch simulation.
    let warm = fetch(
        server.addr(),
        "GET",
        "/v1/table/2?scale=test",
        None,
        CLIENT_TIMEOUT,
    )
    .expect("warm-up fetch");
    assert_eq!(warm.status, 200);

    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr(),
        connections: 2,
        duration: Duration::from_secs(1),
        mix: vec![("/v1/table/2?scale=test".to_string(), 1)],
        timeout: CLIENT_TIMEOUT,
        ..LoadgenConfig::default()
    })
    .expect("load run completes");

    assert!(report.requests > 0, "closed loop made progress");
    assert_eq!(report.status_5xx, 0, "no server errors on the cached path");
    assert_eq!(report.transport_errors, 0);
    assert_eq!(report.requests, report.status_2xx);
    assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
    assert!(report.throughput_rps > 0.0);
    assert!(
        !report.server_stages.is_empty(),
        "Server-Timing headers were parsed into a stage breakdown"
    );
    let handler = report
        .server_stages
        .iter()
        .find(|s| s.stage == "handler")
        .expect("handler stage reported");
    assert!(handler.count > 0);
    let doc = json::parse(&report.to_json()).expect("report JSON parses");
    assert!(doc.get("p99_us").and_then(Json::as_f64).is_some());
    assert!(
        doc.get("server_stages")
            .and_then(|v| v.get("handler"))
            .is_some(),
        "stage breakdown serializes: {}",
        report.to_json()
    );
    server.shutdown();
}

/// `/healthz` reports live server facts as JSON while staying a plain
/// 200-on-alive check.
#[test]
fn healthz_reports_server_facts() {
    let server = Server::start(ServerConfig {
        workers: 3,
        ..test_config()
    })
    .expect("server starts");
    let health = fetch(server.addr(), "GET", "/healthz", None, CLIENT_TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);
    let doc = json::parse(&health.text()).expect("healthz JSON parses");
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    let transport = doc
        .get("transport")
        .and_then(Json::as_str)
        .expect("transport");
    assert_eq!(transport, "reactor", "the server's one transport");
    assert_eq!(doc.get("workers").and_then(Json::as_f64), Some(3.0));
    assert!(doc.get("uptime_s").and_then(Json::as_f64).is_some());
    assert!(doc.get("queue_depth").and_then(Json::as_f64).is_some());
    assert!(
        doc.get("recorder_capacity")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0,
        "recorder on by default"
    );
    server.shutdown();
}

/// The full request-tracing loop: a client-chosen `X-Request-Id` is
/// echoed back with a `Server-Timing` stage breakdown, and the same
/// id is retrievable from `/debug/requests` with self-consistent
/// per-stage micros (each stage ≤ total; the stages sum to ≤ total;
/// permit + store fit inside the handler stage).
#[test]
fn request_trace_flows_to_flight_recorder() {
    use std::io::{Read, Write};

    let server = Server::start(test_config()).expect("server starts");
    let addr = server.addr();

    // Raw socket: `fetch` does not send custom headers.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    stream
        .write_all(
            b"GET /v1/profile/gzip?scale=test HTTP/1.1\r\nHost: t\r\n\
              X-Request-Id: 424242\r\nConnection: close\r\n\r\n",
        )
        .expect("request written");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response read");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.contains("X-Request-Id: 424242"),
        "trace id echoes back: {raw}"
    );
    assert!(
        raw.contains("Server-Timing: parse;dur=")
            && raw.contains("queue;dur=")
            && raw.contains("handler;dur=")
            && raw.contains("write;dur="),
        "stage attribution header present: {raw}"
    );

    // The record is published right after the response flush; retry
    // briefly to absorb that scheduling gap.
    let mut found = None;
    for _ in 0..50 {
        let debug = fetch(addr, "GET", "/debug/requests?n=256", None, CLIENT_TIMEOUT)
            .expect("/debug/requests");
        assert_eq!(debug.status, 200);
        let doc = json::parse(&debug.text()).expect("debug JSON parses");
        let records = doc
            .get("records")
            .and_then(Json::as_array)
            .expect("records");
        if let Some(rec) = records
            .iter()
            .find(|r| r.get("trace_id").and_then(Json::as_str) == Some("424242"))
        {
            found = Some(rec.clone());
            break;
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let rec = found.expect("traced request appears in /debug/requests");

    let field = |name: &str| {
        rec.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("record field {name}: {rec:?}"))
    };
    assert_eq!(field("status"), 200.0);
    assert_eq!(rec.get("route").and_then(Json::as_str), Some("profile"));
    let total = field("total_us");
    assert!(total > 0.0, "non-zero total latency");
    let stages = [
        "parse_us",
        "queue_us",
        "permit_us",
        "handler_us",
        "store_us",
        "write_us",
    ];
    for stage in stages {
        assert!(
            field(stage) <= total,
            "{stage} {} exceeds total {total}",
            field(stage)
        );
    }
    // Disjoint wall-time stages sum to at most the total.
    let disjoint = field("parse_us") + field("queue_us") + field("handler_us") + field("write_us");
    assert!(
        disjoint <= total,
        "disjoint stages ({disjoint}) must fit in the total ({total})"
    );
    // Permit wait and store time happen inside the handler stage.
    assert!(field("permit_us") + field("store_us") <= field("handler_us") + 1.0);

    // The rolling stats window aggregates the traffic per route.
    let stats = fetch(addr, "GET", "/debug/stats", None, CLIENT_TIMEOUT).expect("/debug/stats");
    assert_eq!(stats.status, 200);
    let doc = json::parse(&stats.text()).expect("stats JSON parses");
    let routes = doc.get("routes").and_then(Json::as_array).expect("routes");
    assert!(
        routes
            .iter()
            .any(|r| r.get("route").and_then(Json::as_str) == Some("profile")),
        "profile traffic shows in the 10s window: {}",
        stats.text()
    );
    server.shutdown();
}

/// `--no-recorder` (`recorder: false`) disables the tracing plane:
/// requests still serve, `/debug/*` answers 503, and responses carry
/// no tracing headers.
#[test]
fn disabled_recorder_serves_without_tracing() {
    let server = Server::start(ServerConfig {
        recorder: false,
        ..test_config()
    })
    .expect("server starts");
    let addr = server.addr();
    let ok = fetch(addr, "GET", "/v1/table/1?scale=test", None, CLIENT_TIMEOUT).unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(ok.header("server-timing"), None, "no per-request tracing");
    assert_eq!(ok.header("x-request-id"), None);
    let debug = fetch(addr, "GET", "/debug/requests", None, CLIENT_TIMEOUT).unwrap();
    assert_eq!(
        debug.status, 503,
        "debug plane reports the disabled recorder"
    );
    server.shutdown();
}
