//! Request routing and handlers.
//!
//! Every handler runs inside [`handle`]'s `catch_unwind`, behind its
//! route's fault-injection site `server/handler/<route>`, so an armed
//! panic (or a genuine handler bug) becomes a 500 for that one
//! request and never takes down a pool worker.
//!
//! [`handle`] returns a [`WireResponse`] — the pre-serialized form —
//! and resolves it through three tiers, cheapest first:
//!
//! 1. the **artifact catalog** (immutable pre-serialized bodies for
//!    the finite default-scale artifact space, `/healthz`, and
//!    `/v1/version`),
//! 2. the **sharded LRU response cache** (everything else under
//!    `GET /v1/*`),
//! 3. the real handler, whose successful output is then published
//!    into whichever tier it is eligible for.
//!
//! Hot-path telemetry goes through [`HotMetrics`]: striped counters
//! and histograms resolved **once** at server start, so per-request
//! accounting is a relaxed `fetch_add` on a thread-local stripe —
//! never a registry lock.

use crate::artifacts::ArtifactCatalog;
use crate::http::{Request, Response, WireResponse};
use crate::limit::Semaphore;
use crate::respcache::ResponseCache;
use crate::storefront::StoreFront;
use crate::trace::{us32, StageTrace};
use leakage_experiments::query::{self, QueryError, SweepPoint};
use leakage_experiments::{CacheProfile, ProfileStore, Table};
use leakage_faults::StoreError;
use leakage_jobs::{num_f64, CancelOutcome, JobFabric, JobSpec, ResultError, SubmitError};
use leakage_telemetry::json::{self, Json};
use leakage_telemetry::prometheus_text;
use leakage_telemetry::{registry, striped_counter, Gauge, Histogram, StripedCounter};
use leakage_telemetry::{
    FlightRecorder, RequestRecord, FLAG_CACHE_HIT, FLAG_CATALOG_HIT, FLAG_PANIC, FLAG_SHED,
};
use leakage_workloads::{Scale, SUITE_NAMES};
use rayon::prelude::*;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Largest accepted `Scale::Custom` cycle count — a served query must
/// not be able to commission an unbounded simulation.
pub const MAX_CUSTOM_CYCLES: u64 = 50_000_000;

/// Largest accepted `/v1/sweep` batch.
pub const MAX_SWEEP_POINTS: usize = 512;

/// Latency histogram bounds in microseconds (100µs .. 10s).
pub const LATENCY_BOUNDS_US: [u64; 9] = [
    100, 1_000, 5_000, 20_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000,
];

/// Every route label [`route_name`] can produce. The index of a label
/// is its [`route_code`] — the u8 stored in flight-recorder records.
pub const ROUTES: [&str; 11] = [
    "healthz",
    "metrics",
    "version",
    "profile",
    "table",
    "figure",
    "sweep",
    "trace",
    "jobs",
    "debug",
    "not_found",
];

/// The recorder's compact route code for a label (index in
/// [`ROUTES`]; unknown labels map to `not_found`).
pub fn route_code(route: &str) -> u8 {
    ROUTES
        .iter()
        .position(|r| *r == route)
        .unwrap_or(ROUTES.len() - 1) as u8
}

/// The label for a recorder route code.
pub fn route_label(code: u8) -> &'static str {
    ROUTES.get(usize::from(code)).copied().unwrap_or("unknown")
}

/// Hot-path metric handles, resolved once at server start. Striped
/// counters scale across worker threads; pre-resolution means the
/// per-request cost is one `HashMap` probe on a `&'static str` key
/// (requests, latency) or a direct field read — no registry mutex.
pub struct HotMetrics {
    requests: HashMap<&'static str, Arc<StripedCounter>>,
    latency: HashMap<&'static str, Arc<Histogram>>,
    cache_hits: Arc<StripedCounter>,
    cache_misses: Arc<StripedCounter>,
    catalog_hits: Arc<StripedCounter>,
    /// 2xx responses written.
    pub responses_2xx: Arc<StripedCounter>,
    /// 4xx responses written.
    pub responses_4xx: Arc<StripedCounter>,
    /// 5xx responses written.
    pub responses_5xx: Arc<StripedCounter>,
    /// Requests answered (any status), across all connections.
    pub requests_total: Arc<StripedCounter>,
    /// Read/write failures on client connections.
    pub transport_errors: Arc<StripedCounter>,
    /// Connections currently between parse and response write.
    pub inflight: Arc<Gauge>,
}

impl HotMetrics {
    /// Resolves every handle from the global registry. Metric names
    /// are identical to the pre-sharding implementation (striped
    /// counters merge into the plain counter list in snapshots), so
    /// `/metrics` output and dashboards are unchanged.
    pub fn resolve() -> Self {
        let reg = registry();
        let mut requests = HashMap::new();
        let mut latency = HashMap::new();
        for route in ROUTES {
            requests.insert(
                route,
                reg.striped_counter(&format!("server_requests_{route}_total")),
            );
            // Label form: every route renders under one
            // `server_latency_us` Prometheus family.
            latency.insert(
                route,
                reg.histogram(
                    &format!("server_latency_us{{route=\"{route}\"}}"),
                    &LATENCY_BOUNDS_US,
                ),
            );
        }
        HotMetrics {
            requests,
            latency,
            cache_hits: reg.striped_counter("server_response_cache_hits_total"),
            cache_misses: reg.striped_counter("server_response_cache_misses_total"),
            catalog_hits: reg.striped_counter("server_catalog_hits_total"),
            responses_2xx: reg.striped_counter("server_responses_2xx_total"),
            responses_4xx: reg.striped_counter("server_responses_4xx_total"),
            responses_5xx: reg.striped_counter("server_responses_5xx_total"),
            requests_total: reg.striped_counter("server_requests_total"),
            transport_errors: reg.striped_counter("server_transport_errors_total"),
            inflight: reg.gauge("server_inflight_requests"),
        }
    }

    /// Bumps the per-route request counter.
    pub fn count_route(&self, route: &str) {
        if let Some(counter) = self.requests.get(route) {
            counter.inc();
        }
    }

    /// Records one served request's latency on its route's histogram.
    pub fn record_latency(&self, route: &str, micros: u64) {
        if let Some(histogram) = self.latency.get(route) {
            histogram.record(micros);
        }
    }

    /// Bumps the status-class counter for one written response.
    pub fn count_status(&self, status: u16) {
        match status {
            400..=499 => self.responses_4xx.inc(),
            500..=599 => self.responses_5xx.inc(),
            _ => self.responses_2xx.inc(),
        }
    }
}

/// Everything a handler needs, shared across pool workers.
pub struct RouteContext {
    /// The memoized profile store backing every simulation query.
    pub store: &'static ProfileStore,
    /// Lock-striped read front over the store (profile + sweep hot
    /// path).
    pub front: Arc<StoreFront>,
    /// Sharded LRU response cache.
    pub cache: Arc<ResponseCache>,
    /// Pre-serialized artifact catalog.
    pub catalog: Arc<ArtifactCatalog>,
    /// Concurrency limit for simulation-backed GETs.
    pub sim_limit: Arc<Semaphore>,
    /// Concurrency limit for sweep batches.
    pub sweep_limit: Arc<Semaphore>,
    /// Scale used when the query string does not name one.
    pub default_scale: Scale,
    /// How long a request waits for a concurrency permit before being
    /// shed.
    pub limit_wait: Duration,
    /// `Retry-After` seconds on shed responses.
    pub retry_after_secs: u64,
    /// Pre-resolved hot-path metric handles.
    pub metrics: HotMetrics,
    /// The durable sweep-job fabric behind `/v1/jobs`.
    pub jobs: Arc<JobFabric>,
    /// Ignored: there is no remote worker pool to hold a quorum of.
    /// Kept only because the repository benchmark still sets it;
    /// remove it once that stops.
    pub job_worker_quorum: usize,
    /// Flight recorder behind `/debug/*`; `None` when disabled
    /// (`--no-recorder`).
    pub recorder: Option<Arc<FlightRecorder>>,
    /// Static + live server facts surfaced by `/healthz`.
    pub info: ServerInfo,
}

/// Server-level facts for `/healthz`: fixed at startup (transport,
/// worker count) or read live through an injected probe (queue
/// depth — the server owns the queue, so it installs the probe after
/// construction).
pub struct ServerInfo {
    started: Instant,
    transport: &'static str,
    workers: usize,
    queue_len: OnceLock<Box<dyn Fn() -> usize + Send + Sync>>,
}

impl ServerInfo {
    /// Facts known at construction; the queue probe arrives later via
    /// [`ServerInfo::set_queue_len`].
    pub fn new(transport: &'static str, workers: usize) -> Self {
        ServerInfo {
            started: Instant::now(),
            transport,
            workers,
            queue_len: OnceLock::new(),
        }
    }

    /// Installs the live queue-depth probe (first caller wins).
    pub fn set_queue_len(&self, probe: Box<dyn Fn() -> usize + Send + Sync>) {
        let _ = self.queue_len.set(probe);
    }

    /// Current admission-queue depth; 0 before the probe is installed.
    pub fn queue_len(&self) -> usize {
        self.queue_len.get().map_or(0, |probe| probe())
    }

    /// Whole seconds since server start.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }
}

/// The route label used for fault sites and per-route metrics.
pub fn route_name(request: &Request) -> &'static str {
    let path = request.path.as_str();
    match () {
        _ if path == "/healthz" => "healthz",
        _ if path == "/metrics" => "metrics",
        _ if path == "/v1/version" => "version",
        _ if path.starts_with("/v1/profile/") => "profile",
        _ if path.starts_with("/v1/table/") => "table",
        _ if path.starts_with("/v1/figure/") => "figure",
        _ if path == "/v1/sweep" => "sweep",
        _ if path == "/v1/trace/intervals" => "trace",
        _ if path == "/v1/jobs" || path.starts_with("/v1/jobs/") => "jobs",
        _ if path.starts_with("/debug/") => "debug",
        _ => "not_found",
    }
}

/// Whether this request resolves inside the catalog's finite
/// pre-serialized space: constant bodies, or a default-scale artifact
/// in a known format.
fn catalog_eligible(request: &Request, ctx: &RouteContext) -> bool {
    if !ctx.catalog.enabled() || request.method != "GET" {
        return false;
    }
    match request.path.as_str() {
        // `/healthz` left the catalog when it became a live snapshot
        // (uptime, queue depth); `/v1/version` is still constant.
        "/v1/version" => request.query.is_empty(),
        "/v1/table/1" | "/v1/table/2" | "/v1/table/3" | "/v1/figure/7" | "/v1/figure/8"
        | "/v1/figure/9" => request.query.iter().all(|(k, v)| match k.as_str() {
            // Compare by cycles: `scale=test` and `scale=200000` are
            // the same artifact.
            "scale" => {
                Scale::parse_arg(v).map(Scale::cycles) == Some(ctx.catalog.default_scale().cycles())
            }
            "format" => v == "json" || v == "csv",
            _ => false,
        }),
        _ => false,
    }
}

/// Routes one request to its handler with catalog/cache lookup and
/// panic isolation. Always returns a response — a panicking handler
/// yields a 500. `stage` accumulates latency attribution (permit
/// wait, store time, hit/panic flags) for the flight recorder; pass
/// `&StageTrace::default()` when the breakdown is not needed.
pub fn handle(request: &Request, ctx: &RouteContext, stage: &StageTrace) -> WireResponse {
    let route = route_name(request);
    ctx.metrics.count_route(route);

    let key = request.canonical_key();
    let in_catalog_space = catalog_eligible(request, ctx);
    if in_catalog_space {
        if let Some(hit) = ctx.catalog.get(&key) {
            ctx.metrics.catalog_hits.inc();
            stage.catalog_hit.set(true);
            return hit;
        }
    } else if ResponseCache::cacheable(request, 200) {
        if let Some(hit) = ctx.cache.get(&key) {
            ctx.metrics.cache_hits.inc();
            stage.cache_hit.set(true);
            return hit;
        }
        ctx.metrics.cache_misses.inc();
    }

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        leakage_faults::panic_point(&format!("server/handler/{route}"));
        dispatch(request, ctx, route, stage)
    }));
    let response = match outcome {
        Ok(response) => response,
        Err(_) => {
            registry().counter("server_handler_panics_total").inc();
            stage.panicked.set(true);
            Response::error(500, "handler panicked; see server logs")
        }
    };
    let status = response.status;
    let wire = response.into_wire();
    if in_catalog_space && status == 200 {
        ctx.catalog.insert(&key, wire.clone());
    } else if ResponseCache::cacheable(request, status) {
        ctx.cache.put(&key, wire.clone());
    }
    wire
}

/// Fills the catalog by pushing every artifact in its finite space
/// through the normal [`handle`] path — the bytes in the catalog are
/// by construction the handler's (and hence the batch pipeline's)
/// bytes. Called from a background thread at server start; safe to
/// race with live traffic (first insert wins, all inserts identical).
pub fn warm_catalog(ctx: &RouteContext) {
    if !ctx.catalog.enabled() {
        return;
    }
    let mut targets = vec![Request::get("/v1/version")];
    let scale_arg = match ctx.catalog.default_scale() {
        Scale::Test => "test".to_string(),
        Scale::Small => "small".to_string(),
        Scale::Paper => "paper".to_string(),
        Scale::Custom(cycles) => cycles.to_string(),
    };
    let paths: Vec<String> = query::TABLE_IDS
        .iter()
        .map(|id| format!("/v1/table/{id}"))
        .chain(
            query::FIGURE_IDS
                .iter()
                .map(|id| format!("/v1/figure/{id}")),
        )
        .collect();
    for path in &paths {
        for query in [
            vec![],
            vec![("format".to_string(), "csv".to_string())],
            vec![("scale".to_string(), scale_arg.clone())],
        ] {
            let mut request = Request::get(path);
            request.query = query;
            targets.push(request);
        }
    }
    for request in targets {
        let _ = handle(&request, ctx, &StageTrace::default());
    }
}

/// Serves health/debug GETs inline when the admission queue is full:
/// these routes never take a simulation permit or run a simulation,
/// so answering them on the reactor thread is cheap and keeps the
/// observability plane reachable exactly when it matters most (during
/// overload). Returns `None` for every sheddable route.
pub fn exempt_response(request: &Request, ctx: &RouteContext) -> Option<WireResponse> {
    if request.method != "GET" {
        return None;
    }
    let path = request.path.as_str();
    if path != "/healthz" && !path.starts_with("/debug/") {
        return None;
    }
    let wire = handle(request, ctx, &StageTrace::default());
    ctx.metrics.requests_total.inc();
    ctx.metrics.count_status(wire.status());
    Some(wire)
}

/// Runs `f`, accumulating its wall time into the stage's store bucket.
fn timed_store<T>(stage: &StageTrace, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let result = f();
    stage
        .store_us
        .set(stage.store_us.get().saturating_add(us32(started.elapsed())));
    result
}

fn dispatch(request: &Request, ctx: &RouteContext, route: &str, stage: &StageTrace) -> Response {
    match (request.method.as_str(), route) {
        ("GET", "healthz") => healthz(ctx),
        ("GET", "metrics") => Response::text(200, prometheus_text()),
        ("GET", "version") => version(),
        ("GET", "debug") => debug_route(request, ctx),
        ("GET", "profile" | "table" | "figure") => {
            // Validate the scale before burning a permit on a
            // malformed query.
            let scale = match parse_scale(request, ctx.default_scale) {
                Ok(scale) => scale,
                Err(response) => return response,
            };
            let permit_started = Instant::now();
            let permit = ctx.sim_limit.acquire(ctx.limit_wait);
            stage.permit_us.set(us32(permit_started.elapsed()));
            let Some(_permit) = permit else {
                return shed(ctx, stage, "simulation concurrency limit reached");
            };
            match route {
                "profile" => profile(request, ctx, scale, stage),
                "table" => table(request, ctx, scale, stage),
                _ => figure(request, ctx, scale, stage),
            }
        }
        ("POST", "sweep") => {
            let permit_started = Instant::now();
            let permit = ctx.sweep_limit.acquire(ctx.limit_wait);
            stage.permit_us.set(us32(permit_started.elapsed()));
            let Some(_permit) = permit else {
                return shed(ctx, stage, "sweep concurrency limit reached");
            };
            sweep(request, ctx, stage)
        }
        ("POST", "trace") => {
            // Buffered (Content-Length) uploads land here; chunked
            // uploads never reach dispatch — the worker streams them
            // through `crate::streaming::serve_upload`. A sweep permit
            // bounds concurrent extractions the same way it bounds
            // sweep batches.
            let permit_started = Instant::now();
            let permit = ctx.sweep_limit.acquire(ctx.limit_wait);
            stage.permit_us.set(us32(permit_started.elapsed()));
            let Some(_permit) = permit else {
                return shed(ctx, stage, "trace extraction concurrency limit reached");
            };
            timed_store(stage, || crate::streaming::intervals_from_bytes(request))
        }
        (_, "jobs") => jobs_route(request, ctx),
        (_, "not_found") => Response::error(404, &format!("no such route: {}", request.path)),
        _ => Response::error(405, &format!("{} not allowed here", request.method)),
    }
}

/// 503 + `Retry-After` — the shared shed/backpressure response.
fn shed(ctx: &RouteContext, stage: &StageTrace, reason: &str) -> Response {
    striped_counter!("server_shed_total").inc();
    stage.shed.set(true);
    Response::error(503, reason).with_header("Retry-After", ctx.retry_after_secs.to_string())
}

fn healthz(ctx: &RouteContext) -> Response {
    let (recorder_cap, recorded_total) = match ctx.recorder.as_deref() {
        Some(recorder) => (recorder.capacity() as u64, recorder.recorded_total()),
        None => (0, 0),
    };
    Response::json(
        200,
        json::object([
            json::key("status") + &json::string("ok"),
            json::key("uptime_s") + &ctx.info.uptime_s().to_string(),
            json::key("transport") + &json::string(ctx.info.transport),
            json::key("workers") + &ctx.info.workers.to_string(),
            json::key("queue_depth") + &ctx.info.queue_len().to_string(),
            json::key("inflight") + &ctx.metrics.inflight.get().to_string(),
            json::key("recorder_capacity") + &recorder_cap.to_string(),
            json::key("recorder_recorded") + &recorded_total.to_string(),
            json::key("suite") + &json::array(SUITE_NAMES.iter().map(|n| json::string(n))),
            json::key("isa_suite")
                + &json::array(
                    leakage_workloads::ISA_SUITE_NAMES
                        .iter()
                        .map(|n| json::string(n)),
                ),
        ]),
    )
}

/// One recorder record as a JSON object. `trace_id` is a decimal
/// string (u64 ids do not survive an f64 round-trip).
fn record_json(rec: &RequestRecord) -> String {
    json::object([
        json::key("trace_id") + &json::string(&rec.trace_id.to_string()),
        json::key("route") + &json::string(route_label(rec.route)),
        json::key("status") + &rec.status.to_string(),
        json::key("end_us") + &rec.end_us.to_string(),
        json::key("total_us") + &rec.total_us.to_string(),
        json::key("parse_us") + &rec.parse_us.to_string(),
        json::key("queue_us") + &rec.queue_us.to_string(),
        json::key("permit_us") + &rec.permit_us.to_string(),
        json::key("handler_us") + &rec.handler_us.to_string(),
        json::key("store_us") + &rec.store_us.to_string(),
        json::key("write_us") + &rec.write_us.to_string(),
        json::key("req_bytes") + &rec.req_bytes.to_string(),
        json::key("resp_bytes") + &rec.resp_bytes.to_string(),
        json::key("shed") + bool_str(rec.flags & FLAG_SHED != 0),
        json::key("panicked") + bool_str(rec.flags & FLAG_PANIC != 0),
        json::key("cache_hit") + bool_str(rec.flags & FLAG_CACHE_HIT != 0),
        json::key("catalog_hit") + bool_str(rec.flags & FLAG_CATALOG_HIT != 0),
    ])
}

fn bool_str(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
}

fn debug_route(request: &Request, ctx: &RouteContext) -> Response {
    let Some(recorder) = ctx.recorder.as_deref() else {
        return Response::error(503, "flight recorder disabled (--no-recorder)");
    };
    match request.path.as_str() {
        "/debug/requests" => debug_requests(request, recorder),
        "/debug/slow" => debug_slow(recorder),
        "/debug/stats" => debug_stats(recorder),
        other => Response::error(
            404,
            &format!(
                "no such debug endpoint: {other} (try /debug/requests, /debug/slow, /debug/stats)"
            ),
        ),
    }
}

/// `GET /debug/requests?n=&route=&min_us=` — newest recorded requests
/// with their per-stage latency attribution.
fn debug_requests(request: &Request, recorder: &FlightRecorder) -> Response {
    let n = request
        .query_param("n")
        .and_then(|raw| raw.parse::<usize>().ok())
        .unwrap_or(64)
        .clamp(1, recorder.capacity());
    let route_filter = request.query_param("route").map(route_code);
    let min_us = request
        .query_param("min_us")
        .and_then(|raw| raw.parse::<u32>().ok())
        .unwrap_or(0);
    let records: Vec<RequestRecord> = recorder
        .recent(recorder.capacity())
        .into_iter()
        .filter(|rec| route_filter.is_none_or(|code| rec.route == code))
        .filter(|rec| rec.total_us >= min_us)
        .take(n)
        .collect();
    Response::json(
        200,
        json::object([
            json::key("count") + &records.len().to_string(),
            json::key("capacity") + &recorder.capacity().to_string(),
            json::key("recorded_total") + &recorder.recorded_total().to_string(),
            json::key("records") + &json::array(records.iter().map(record_json)),
        ]),
    )
}

/// `GET /debug/slow` — the always-retained reservoir: top-K slowest
/// requests ever, plus the most recent errors/sheds/panics. Survives
/// ring wraparound.
fn debug_slow(recorder: &FlightRecorder) -> Response {
    let (slowest, errors) = recorder.slow();
    Response::json(
        200,
        json::object([
            json::key("slowest") + &json::array(slowest.iter().map(record_json)),
            json::key("errors") + &json::array(errors.iter().map(record_json)),
        ]),
    )
}

/// Rolling stats window over the recorder, in microseconds.
const STATS_WINDOW_US: u64 = 10_000_000;

/// `GET /debug/stats` — per-route rate/error/latency over the last
/// 10 s, computed from recorded requests (not cumulative counters, so
/// it reflects *current* behaviour).
fn debug_stats(recorder: &FlightRecorder) -> Response {
    let now_us = recorder.now_us();
    let since = now_us.saturating_sub(STATS_WINDOW_US);
    let window = recorder.window(since);
    let mut by_route: HashMap<u8, Vec<&RequestRecord>> = HashMap::new();
    for rec in &window {
        by_route.entry(rec.route).or_default().push(rec);
    }
    let mut codes: Vec<u8> = by_route.keys().copied().collect();
    codes.sort_unstable();
    let window_s = STATS_WINDOW_US as f64 / 1e6;
    let routes = codes.iter().map(|code| {
        let recs = &by_route[code];
        let mut totals: Vec<u32> = recs.iter().map(|r| r.total_us).collect();
        totals.sort_unstable();
        let count = totals.len();
        let errors = recs.iter().filter(|r| r.is_error()).count();
        let sum: u64 = totals.iter().map(|&t| u64::from(t)).sum();
        let pct = |p: f64| -> u64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            u64::from(totals[idx.min(count - 1)])
        };
        json::object([
            json::key("route") + &json::string(route_label(*code)),
            json::key("count") + &count.to_string(),
            json::key("rps") + &num_f64(count as f64 / window_s),
            json::key("errors") + &errors.to_string(),
            json::key("mean_us") + &num_f64(sum as f64 / count as f64),
            json::key("p50_us") + &pct(0.50).to_string(),
            json::key("p99_us") + &pct(0.99).to_string(),
        ])
    });
    Response::json(
        200,
        json::object([
            json::key("window_s") + &num_f64(window_s),
            json::key("count") + &window.len().to_string(),
            json::key("routes") + &json::array(routes),
        ]),
    )
}

/// `git describe --always --dirty` at first use; `"unknown"` when git
/// or the work tree is unavailable (e.g. a deployed binary).
fn git_describe() -> &'static str {
    static GIT: OnceLock<String> = OnceLock::new();
    GIT.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

fn version() -> Response {
    Response::json(
        200,
        json::object([
            json::key("generator_version") + &leakage_workloads::GENERATOR_VERSION.to_string(),
            json::key("isa_generator_version")
                + &leakage_workloads::ISA_GENERATOR_VERSION.to_string(),
            json::key("format_version") + &leakage_experiments::codec::FORMAT_VERSION.to_string(),
            json::key("git") + &json::string(git_describe()),
        ]),
    )
}

/// Refuses a scale above the serving cap, [`MAX_CUSTOM_CYCLES`], with
/// a 400: the one cap check for query, sweep and job scales.
fn within_serving_cap(scale: Scale) -> Result<Scale, Response> {
    if scale.cycles() <= MAX_CUSTOM_CYCLES {
        Ok(scale)
    } else {
        Err(Response::error(
            400,
            &format!("scale above the serving cap of {MAX_CUSTOM_CYCLES} cycles"),
        ))
    }
}

/// Parses `scale=` (preset name or cycle count) with the custom-cycle
/// cap.
fn parse_scale(request: &Request, default_scale: Scale) -> Result<Scale, Response> {
    let Some(arg) = request.query_param("scale") else {
        return Ok(default_scale);
    };
    match Scale::parse_arg(arg) {
        Some(scale) => within_serving_cap(scale),
        None => Err(Response::error(
            400,
            &format!("bad scale {arg:?}: expected test|small|paper or a cycle count"),
        )),
    }
}

fn side_json(profile: &CacheProfile) -> String {
    json::object([
        json::key("num_frames") + &profile.num_frames.to_string(),
        json::key("total_cycles") + &profile.total_cycles.to_string(),
        json::key("accesses") + &profile.cache.accesses.to_string(),
        json::key("hits") + &profile.cache.hits.to_string(),
        json::key("misses") + &profile.cache.misses.to_string(),
        json::key("hit_rate") + &num_f64(profile.cache.hit_rate()),
        json::key("interval_classes") + &profile.dist.num_classes().to_string(),
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

fn profile(request: &Request, ctx: &RouteContext, scale: Scale, stage: &StageTrace) -> Response {
    let benchmark = request.path.trim_start_matches("/v1/profile/");
    if benchmark.is_empty() || benchmark.contains('/') {
        return Response::error(404, "expected /v1/profile/<benchmark>");
    }
    // The Alpha-like hierarchy is the only servable geometry; the
    // parameter exists so clients state their assumption explicitly.
    match request.query_param("hierarchy") {
        None | Some("alpha") | Some("alpha-like") => {}
        Some(other) => {
            return Response::error(400, &format!("unknown hierarchy {other:?}: only \"alpha\""))
        }
    }
    match timed_store(stage, || ctx.front.fetch(benchmark, scale)) {
        Ok(profile) => Response::json(
            200,
            json::object([
                json::key("benchmark") + &json::string(&profile.name),
                json::key("scale_cycles") + &scale.cycles().to_string(),
                json::key("hierarchy") + &json::string("alpha"),
                json::key("icache") + &side_json(&profile.icache),
                json::key("dcache") + &side_json(&profile.dcache),
            ]),
        ),
        Err(err) => store_error_response(&err),
    }
}

fn store_error_response(err: &StoreError) -> Response {
    match err {
        StoreError::UnknownBenchmark { .. } => Response::error(404, &err.to_string()),
        _ => Response::error(500, &err.to_string()),
    }
}

fn query_error_response(err: &QueryError) -> Response {
    match err {
        QueryError::UnknownArtifact { .. } => Response::error(404, &err.to_string()),
        QueryError::Store(store) => store_error_response(store),
        QueryError::Degraded { .. } => Response::error(503, &err.to_string()),
    }
}

/// `format=` negotiation: canonical JSON by default, CSV on request.
fn artifact_format(request: &Request) -> Result<&str, Response> {
    match request.query_param("format") {
        None => Ok("json"),
        Some(fmt @ ("json" | "csv")) => Ok(fmt),
        Some(other) => Err(Response::error(
            400,
            &format!("bad format {other:?}: expected json or csv"),
        )),
    }
}

fn parse_artifact_id(request: &Request, prefix: &str) -> Result<u8, Response> {
    request
        .path
        .strip_prefix(prefix)
        .and_then(|raw| raw.parse::<u8>().ok())
        .ok_or_else(|| Response::error(404, &format!("expected {prefix}<number>")))
}

fn table(request: &Request, ctx: &RouteContext, scale: Scale, stage: &StageTrace) -> Response {
    let id = match parse_artifact_id(request, "/v1/table/") {
        Ok(id) => id,
        Err(response) => return response,
    };
    let format = match artifact_format(request) {
        Ok(format) => format,
        Err(response) => return response,
    };
    match timed_store(stage, || query::table(ctx.store, id, scale)) {
        Ok(table) if format == "csv" => Response::csv(table.to_csv()),
        Ok(table) => Response::json(200, table.to_json()),
        Err(err) => query_error_response(&err),
    }
}

fn figure_json(id: u8, scale: Scale, icache: &Table, dcache: &Table) -> String {
    json::object([
        json::key("figure") + &id.to_string(),
        json::key("scale_cycles") + &scale.cycles().to_string(),
        json::key("icache") + &icache.to_json(),
        json::key("dcache") + &dcache.to_json(),
    ])
}

fn figure(request: &Request, ctx: &RouteContext, scale: Scale, stage: &StageTrace) -> Response {
    let id = match parse_artifact_id(request, "/v1/figure/") {
        Ok(id) => id,
        Err(response) => return response,
    };
    let format = match artifact_format(request) {
        Ok(format) => format,
        Err(response) => return response,
    };
    match timed_store(stage, || query::figure(ctx.store, id, scale)) {
        Ok((icache, dcache)) if format == "csv" => {
            Response::csv(format!("{}\n{}", icache.to_csv(), dcache.to_csv()))
        }
        Ok((icache, dcache)) => Response::json(200, figure_json(id, scale, &icache, &dcache)),
        Err(err) => query_error_response(&err),
    }
}

/// `/v1/jobs` and everything under it: the durable sweep-job fabric.
///
/// - `POST /v1/jobs` — validate a spec, persist it, start the runner.
/// - `GET /v1/jobs` — summary of every registered job.
/// - `GET /v1/jobs/<id>` — full status (progress, worker liveness).
/// - `GET /v1/jobs/<id>/result?page=&per_page=` — paginated rows of a
///   `done` job, stable point-index order.
/// - `DELETE /v1/jobs/<id>` — durable cancel.
///
/// Never cached (see [`ResponseCache::cacheable`]): job state is
/// mutable.
fn jobs_route(request: &Request, ctx: &RouteContext) -> Response {
    let rest = request
        .path
        .strip_prefix("/v1/jobs")
        .unwrap_or("")
        .trim_start_matches('/');
    match (request.method.as_str(), rest) {
        ("POST", "") => jobs_submit(request, ctx),
        ("GET", "") => Response::json(200, ctx.jobs.list_json()),
        ("GET", id) if !id.contains('/') => match ctx.jobs.status_json(id) {
            Some(body) => Response::json(200, body),
            None => Response::error(404, &format!("no such job: {id}")),
        },
        ("GET", tail) => match tail.strip_suffix("/result") {
            Some(id) if !id.is_empty() && !id.contains('/') => jobs_result(request, ctx, id),
            _ => Response::error(404, &format!("no such jobs endpoint: {}", request.path)),
        },
        ("DELETE", id) if !id.is_empty() && !id.contains('/') => match ctx.jobs.cancel(id) {
            CancelOutcome::Canceled => Response::json(
                200,
                json::object([
                    json::key("id") + &json::string(id),
                    json::key("state") + &json::string("canceled"),
                ]),
            ),
            CancelOutcome::AlreadyDone => {
                Response::error(409, &format!("job {id} already completed"))
            }
            CancelOutcome::NotFound => Response::error(404, &format!("no such job: {id}")),
        },
        ("POST" | "DELETE", _) => {
            Response::error(404, &format!("no such jobs endpoint: {}", request.path))
        }
        _ => Response::error(405, &format!("{} not allowed here", request.method)),
    }
}

fn jobs_submit(request: &Request, ctx: &RouteContext) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "job body is not UTF-8"),
    };
    let spec = match JobSpec::parse(text) {
        Ok(spec) => spec,
        Err(err) => return Response::error(400, &err.to_string()),
    };
    if let Err(response) = within_serving_cap(spec.scale) {
        return response;
    }
    match ctx.jobs.submit(spec) {
        Ok(submitted) => Response::json(
            if submitted.created { 201 } else { 200 },
            json::object([
                json::key("id") + &json::string(&submitted.id),
                json::key("created") + if submitted.created { "true" } else { "false" },
            ]),
        ),
        Err(SubmitError::Invalid(err)) => Response::error(400, &err.to_string()),
        Err(SubmitError::Conflict(msg)) => Response::error(409, &msg),
        Err(SubmitError::Busy) => Response::error(503, "job fabric at capacity")
            .with_header("Retry-After", ctx.retry_after_secs.to_string()),
        Err(SubmitError::Io(err)) => Response::error(500, &format!("persisting job: {err}")),
    }
}

fn jobs_result(request: &Request, ctx: &RouteContext, id: &str) -> Response {
    let int_param = |name: &str, default: u64| -> Result<u64, Response> {
        match request.query_param(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<u64>()
                .map_err(|_| Response::error(400, &format!("bad {name} {raw:?}"))),
        }
    };
    let page = match int_param("page", 0) {
        Ok(page) => page,
        Err(response) => return response,
    };
    let per_page = match int_param("per_page", 1000) {
        Ok(per_page) => per_page,
        Err(response) => return response,
    };
    match ctx.jobs.result_page(id, page, per_page) {
        Ok(body) => Response::json(200, body),
        Err(ResultError::NotFound) => Response::error(404, &format!("no such job: {id}")),
        Err(ResultError::NotReady(state)) => {
            Response::error(409, &format!("job {id} is {state}, not done"))
        }
        Err(ResultError::BadRequest(msg)) => Response::error(400, &msg),
        Err(ResultError::Corrupt(msg)) => {
            Response::error(503, &msg).with_header("Retry-After", ctx.retry_after_secs.to_string())
        }
    }
}

/// One validated sweep request: a scale plus Fig. 6 model points.
struct SweepRequest {
    scale: Scale,
    points: Vec<SweepPoint>,
}

fn parse_sweep_body(request: &Request, ctx: &RouteContext) -> Result<SweepRequest, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| Response::error(400, "sweep body is not UTF-8"))?;
    let doc = json::parse(text).map_err(|err| Response::error(400, &err.to_string()))?;
    let scale = match doc.get("scale").and_then(Json::as_str) {
        None => ctx.default_scale,
        Some(arg) => match Scale::parse_arg(arg) {
            Some(scale) => within_serving_cap(scale)?,
            None => return Err(Response::error(400, &format!("bad sweep scale {arg:?}"))),
        },
    };
    let raw_points = doc
        .get("points")
        .and_then(Json::as_array)
        .ok_or_else(|| Response::error(400, "sweep body needs a \"points\" array"))?;
    if raw_points.is_empty() {
        return Err(Response::error(400, "sweep needs at least one point"));
    }
    if raw_points.len() > MAX_SWEEP_POINTS {
        return Err(Response::error(
            413,
            &format!("sweep capped at {MAX_SWEEP_POINTS} points"),
        ));
    }
    let mut points = Vec::with_capacity(raw_points.len());
    for (index, raw) in raw_points.iter().enumerate() {
        let field = |name: &str| raw.get(name).and_then(Json::as_str);
        let bad = |what: &str| Response::error(400, &format!("point {index}: {what}"));
        let benchmark = field("benchmark").ok_or_else(|| bad("missing \"benchmark\""))?;
        if !leakage_workloads::is_known_benchmark(benchmark) {
            return Err(bad(&format!("unknown benchmark {benchmark:?}")));
        }
        let side = field("side")
            .and_then(query::parse_side)
            .ok_or_else(|| bad("bad \"side\": expected icache|dcache"))?;
        let node = field("node")
            .and_then(query::parse_node)
            .ok_or_else(|| bad("bad \"node\": expected 70nm|100nm|130nm|180nm"))?;
        points.push(SweepPoint {
            benchmark: benchmark.to_string(),
            side,
            node,
        });
    }
    Ok(SweepRequest { scale, points })
}

fn sweep(request: &Request, ctx: &RouteContext, stage: &StageTrace) -> Response {
    let SweepRequest { scale, points } = match parse_sweep_body(request, ctx) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    // All points validated; fan the batch out over the rayon pool.
    // Profiles come through the striped front (so a hot benchmark is
    // an uncontended read), and the store behind it memoizes, so the
    // per-benchmark simulation cost is paid at most once per process.
    // Rows render through `leakage_jobs::render_sweep_row` — the same
    // function the job workers use — so a sharded job's rows are
    // byte-identical to this path by construction.
    let results: Vec<Result<String, QueryError>> = timed_store(stage, || {
        points
            .par_iter()
            .map(|point| {
                let profile = ctx.front.fetch(&point.benchmark, scale)?;
                let savings = query::sweep_point_profile(&profile, point);
                Ok(leakage_jobs::render_sweep_row(
                    &point.benchmark,
                    point.side,
                    point.node,
                    &savings,
                ))
            })
            .collect()
    });
    let mut rows = Vec::with_capacity(results.len());
    for result in results {
        match result {
            Ok(row) => rows.push(row),
            Err(err) => return query_error_response(&err),
        }
    }
    Response::json(
        200,
        json::object([
            json::key("scale_cycles") + &scale.cycles().to_string(),
            json::key("results") + &json::array(rows),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A route context whose job fabric runs over a fresh directory
    /// under the temp dir; the fabric stops and the directory is
    /// removed when the test ends (passing or not).
    struct TestCtx {
        ctx: RouteContext,
        jobs_dir: std::path::PathBuf,
    }

    impl std::ops::Deref for TestCtx {
        type Target = RouteContext;

        fn deref(&self) -> &RouteContext {
            &self.ctx
        }
    }

    impl std::ops::DerefMut for TestCtx {
        fn deref_mut(&mut self) -> &mut RouteContext {
            &mut self.ctx
        }
    }

    impl Drop for TestCtx {
        fn drop(&mut self) {
            self.ctx.jobs.stop();
            let _ = std::fs::remove_dir_all(&self.jobs_dir);
        }
    }

    fn ctx_with_catalog(preserialize: bool) -> TestCtx {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let jobs_dir =
            std::env::temp_dir().join(format!("leakage-routes-jobs-{}-{seq}", std::process::id()));
        let jobs = JobFabric::start(leakage_jobs::FabricConfig {
            jobs_dir: jobs_dir.clone(),
            workers: 1,
            ..leakage_jobs::FabricConfig::default()
        })
        .expect("start test fabric");
        let ctx = RouteContext {
            store: ProfileStore::global(),
            front: Arc::new(StoreFront::new(ProfileStore::global(), 8)),
            cache: Arc::new(ResponseCache::new(16, 1)),
            catalog: Arc::new(ArtifactCatalog::new(preserialize, Scale::Test)),
            sim_limit: Arc::new(Semaphore::new(4)),
            sweep_limit: Arc::new(Semaphore::new(2)),
            default_scale: Scale::Test,
            limit_wait: Duration::from_millis(200),
            retry_after_secs: 1,
            metrics: HotMetrics::resolve(),
            jobs,
            job_worker_quorum: 0,
            recorder: Some(Arc::new(FlightRecorder::new(64))),
            info: ServerInfo::new("test", 0),
        };
        TestCtx { ctx, jobs_dir }
    }

    /// `handle` with a throwaway stage trace, for tests that only
    /// care about the response.
    fn handle(request: &Request, ctx: &RouteContext) -> WireResponse {
        super::handle(request, ctx, &StageTrace::default())
    }

    /// Catalog off, so tests exercise the LRU-cache tier.
    fn ctx() -> TestCtx {
        ctx_with_catalog(false)
    }

    fn get(path: &str, query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
            close: false,
            chunked: false,
            trace: crate::trace::ReqTrace::default(),
        }
    }

    fn body_text(wire: &WireResponse) -> String {
        String::from_utf8_lossy(wire.body()).into_owned()
    }

    /// One cycle past `MAX_CUSTOM_CYCLES` (50000001): refused before
    /// anything is simulated.
    fn over_cap() -> String {
        (MAX_CUSTOM_CYCLES + 1).to_string()
    }

    #[test]
    fn routes_resolve_names() {
        assert_eq!(route_name(&get("/healthz", &[])), "healthz");
        assert_eq!(route_name(&get("/metrics", &[])), "metrics");
        assert_eq!(route_name(&get("/v1/version", &[])), "version");
        assert_eq!(route_name(&get("/v1/profile/gzip", &[])), "profile");
        assert_eq!(route_name(&get("/v1/table/2", &[])), "table");
        assert_eq!(route_name(&get("/v1/figure/8", &[])), "figure");
        assert_eq!(route_name(&get("/v1/sweep", &[])), "sweep");
        assert_eq!(route_name(&get("/v1/jobs", &[])), "jobs");
        assert_eq!(route_name(&get("/v1/jobs/j123/result", &[])), "jobs");
        assert_eq!(route_name(&get("/debug/requests", &[])), "debug");
        assert_eq!(route_name(&get("/nope", &[])), "not_found");
        for route in ROUTES {
            assert_eq!(route_label(route_code(route)), route);
        }
    }

    #[test]
    fn debug_endpoints_serve_recorded_requests() {
        let ctx = ctx();
        // Serve a profile request and record it the way the pool does.
        let stage = StageTrace::default();
        let wire = super::handle(&get("/v1/profile/gzip", &[("scale", "test")]), &ctx, &stage);
        assert_eq!(wire.status(), 200);
        let recorder = ctx.recorder.as_deref().unwrap();
        let mut rec = RequestRecord {
            trace_id: 77,
            end_us: recorder.now_us(),
            route: route_code("profile"),
            status: wire.status(),
            total_us: 1000,
            handler_us: 900,
            ..RequestRecord::default()
        };
        rec.store_us = stage.store_us.get().min(900);
        rec.flags = stage.flags();
        recorder.record(&rec);

        let requests = handle(&get("/debug/requests", &[]), &ctx);
        assert_eq!(requests.status(), 200);
        let doc = json::parse(&body_text(&requests)).unwrap();
        let records = doc.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].get("trace_id").and_then(Json::as_str),
            Some("77")
        );
        assert_eq!(
            records[0].get("route").and_then(Json::as_str),
            Some("profile")
        );
        assert!(records[0].get("store_us").and_then(Json::as_f64).is_some());

        // Filters: wrong route or a min_us above the total excludes it.
        let none = handle(&get("/debug/requests", &[("route", "sweep")]), &ctx);
        let doc = json::parse(&body_text(&none)).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(0.0));
        let none = handle(&get("/debug/requests", &[("min_us", "5000")]), &ctx);
        let doc = json::parse(&body_text(&none)).unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(0.0));

        // Stats aggregate the same record into the 10s window.
        let stats = handle(&get("/debug/stats", &[]), &ctx);
        let doc = json::parse(&body_text(&stats)).unwrap();
        let routes = doc.get("routes").and_then(Json::as_array).unwrap();
        assert_eq!(routes.len(), 1);
        assert_eq!(
            routes[0].get("route").and_then(Json::as_str),
            Some("profile")
        );
        assert_eq!(routes[0].get("count").and_then(Json::as_f64), Some(1.0));
        assert_eq!(routes[0].get("p99_us").and_then(Json::as_f64), Some(1000.0));

        // Slow reservoir keeps it as a top-K entry.
        let slow = handle(&get("/debug/slow", &[]), &ctx);
        let doc = json::parse(&body_text(&slow)).unwrap();
        let slowest = doc.get("slowest").and_then(Json::as_array).unwrap();
        assert_eq!(slowest.len(), 1);

        assert_eq!(handle(&get("/debug/nope", &[]), &ctx).status(), 404);
    }

    #[test]
    fn debug_routes_require_the_recorder() {
        let mut ctx = ctx();
        ctx.recorder = None;
        assert_eq!(handle(&get("/debug/requests", &[]), &ctx).status(), 503);
        // healthz still answers, reporting a zero-capacity recorder.
        let health = handle(&get("/healthz", &[]), &ctx);
        assert_eq!(health.status(), 200);
        let doc = json::parse(&body_text(&health)).unwrap();
        assert_eq!(
            doc.get("recorder_capacity").and_then(Json::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn exemption_covers_only_the_observability_plane() {
        let ctx = ctx();
        let health = exempt_response(&get("/healthz", &[]), &ctx).expect("healthz exempt");
        assert_eq!(health.status(), 200);
        assert!(exempt_response(&get("/debug/stats", &[]), &ctx).is_some());
        assert!(exempt_response(&get("/v1/version", &[]), &ctx).is_none());
        assert!(exempt_response(&get("/v1/profile/gzip", &[]), &ctx).is_none());
        let mut post = get("/healthz", &[]);
        post.method = "POST".into();
        assert!(exempt_response(&post, &ctx).is_none());
    }

    #[test]
    fn healthz_reports_live_server_facts() {
        let ctx = ctx();
        ctx.info.set_queue_len(Box::new(|| 7));
        let doc = json::parse(&body_text(&handle(&get("/healthz", &[]), &ctx))).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("transport").and_then(Json::as_str), Some("test"));
        assert_eq!(doc.get("queue_depth").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            doc.get("recorder_capacity").and_then(Json::as_f64),
            Some(64.0)
        );
        let suite = doc.get("suite").and_then(Json::as_array).unwrap();
        assert_eq!(suite.len(), SUITE_NAMES.len());
    }

    #[test]
    fn healthz_and_errors() {
        let ctx = ctx();
        let ok = handle(&get("/healthz", &[]), &ctx);
        assert_eq!(ok.status(), 200);
        assert!(body_text(&ok).contains("\"ok\""));
        assert_eq!(handle(&get("/nope", &[]), &ctx).status(), 404);
        let mut post = get("/healthz", &[]);
        post.method = "POST".into();
        assert_eq!(handle(&post, &ctx).status(), 405);
    }

    #[test]
    fn version_route_serves_canonical_json() {
        let ctx = ctx();
        let ok = handle(&get("/v1/version", &[]), &ctx);
        assert_eq!(ok.status(), 200);
        let doc = json::parse(&body_text(&ok)).unwrap();
        assert_eq!(
            doc.get("generator_version").and_then(Json::as_f64),
            Some(f64::from(leakage_workloads::GENERATOR_VERSION))
        );
        assert_eq!(
            doc.get("format_version").and_then(Json::as_f64),
            Some(f64::from(leakage_experiments::codec::FORMAT_VERSION))
        );
        let git = doc.get("git").and_then(Json::as_str).expect("git field");
        assert!(!git.is_empty());
    }

    #[test]
    fn table_served_json_matches_batch_generator() {
        let ctx = ctx();
        let response = handle(&get("/v1/table/2", &[("scale", "test")]), &ctx);
        assert_eq!(response.status(), 200);
        let served = Table::from_json(&body_text(&response)).unwrap();
        let batch = query::table(ctx.store, 2, Scale::Test).unwrap();
        assert_eq!(served, batch);
    }

    #[test]
    fn table_csv_and_bad_queries() {
        let ctx = ctx();
        let csv = handle(&get("/v1/table/1", &[("format", "csv")]), &ctx);
        assert_eq!(csv.status(), 200);
        assert!(String::from_utf8_lossy(&csv.to_bytes(false)).contains("Content-Type: text/csv"));
        assert_eq!(handle(&get("/v1/table/9", &[]), &ctx).status(), 404);
        assert_eq!(
            handle(&get("/v1/table/1", &[("format", "xml")]), &ctx).status(),
            400
        );
        assert_eq!(
            handle(&get("/v1/table/1", &[("scale", "huge")]), &ctx).status(),
            400
        );
        assert_eq!(
            handle(&get("/v1/table/1", &[("scale", "99999999999")]), &ctx).status(),
            400,
            "custom scales above the cap are rejected"
        );
        assert_eq!(
            handle(&get("/v1/table/2", &[("scale", &over_cap())]), &ctx).status(),
            400
        );
    }

    #[test]
    fn profile_route_serves_summary() {
        let ctx = ctx();
        let ok = handle(&get("/v1/profile/gzip", &[("scale", "test")]), &ctx);
        assert_eq!(ok.status(), 200);
        let doc = json::parse(&body_text(&ok)).unwrap();
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("gzip"));
        assert_eq!(
            doc.get("scale_cycles").and_then(Json::as_f64),
            Some(200_000.0)
        );
        assert_eq!(
            doc.get("icache")
                .and_then(|side| side.get("covers_timeline")),
            Some(&Json::Bool(true))
        );
        assert!(
            !ctx.front.is_empty(),
            "profile went through the store front"
        );
        assert_eq!(handle(&get("/v1/profile/perlbmk", &[]), &ctx).status(), 404);
        assert_eq!(
            handle(&get("/v1/profile/gzip", &[("hierarchy", "mips")]), &ctx).status(),
            400
        );
        assert_eq!(
            handle(&get("/v1/profile/gzip", &[("scale", &over_cap())]), &ctx).status(),
            400
        );
    }

    /// A request that cannot get its concurrency permit within the wait
    /// budget is shed: 503 + `Retry-After`, flagged as shed, after
    /// waiting the budget and no longer.
    #[test]
    fn permit_exhaustion_sheds_after_the_wait_budget() {
        let ctx = ctx();
        let mut sweep = get("/v1/sweep", &[]);
        sweep.method = "POST".into();
        for (request, limit) in [
            (get("/v1/table/2", &[]), &ctx.sim_limit),
            (sweep, &ctx.sweep_limit),
        ] {
            let held: Vec<_> = std::iter::from_fn(|| limit.acquire(Duration::ZERO)).collect();
            assert!(!held.is_empty());
            let stage = StageTrace::default();
            let response = super::handle(&request, &ctx, &stage);
            let head = String::from_utf8_lossy(&response.to_bytes(false)).into_owned();
            assert_eq!(response.status(), 503, "{}: {head}", request.path);
            assert!(head.contains("Retry-After: 1\r\n"), "{head}");
            assert_ne!(stage.flags() & FLAG_SHED, 0);
            let waited = Duration::from_micros(u64::from(stage.permit_us.get()));
            assert!(waited >= ctx.limit_wait, "gave up after {waited:?}");
            assert!(waited < ctx.limit_wait * 10, "waited {waited:?}");
        }
    }

    #[test]
    fn sweep_validates_then_evaluates() {
        let ctx = ctx();
        let body = r#"{"scale": "test", "points": [
            {"benchmark": "gzip", "side": "icache", "node": "70nm"},
            {"benchmark": "mesa", "side": "dcache", "node": "130nm"}
        ]}"#;
        let request = Request {
            method: "POST".into(),
            path: "/v1/sweep".into(),
            query: Vec::new(),
            body: body.as_bytes().to_vec(),
            close: false,
            chunked: false,
            trace: crate::trace::ReqTrace::default(),
        };
        let response = handle(&request, &ctx);
        assert_eq!(response.status(), 200, "{}", body_text(&response));
        let doc = json::parse(&body_text(&response)).unwrap();
        let results = doc.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results.len(), 2);
        let first = &results[0];
        assert_eq!(first.get("benchmark").and_then(Json::as_str), Some("gzip"));
        let drowsy = first.get("opt_drowsy").and_then(Json::as_f64).unwrap();
        assert!(drowsy.is_finite() && drowsy > 0.0);

        // Validation failures reject the whole batch before compute.
        for bad in [
            r#"{"points": []}"#,
            r#"{"points": [{"benchmark": "nope", "side": "icache", "node": "70nm"}]}"#,
            r#"{"points": [{"benchmark": "gzip", "side": "l2", "node": "70nm"}]}"#,
            r#"{"points": [{"benchmark": "gzip", "side": "icache", "node": "90nm"}]}"#,
            "not json",
        ] {
            let mut request = request.clone();
            request.body = bad.as_bytes().to_vec();
            let status = handle(&request, &ctx).status();
            assert_eq!(status, 400, "{bad}");
        }

        // The cap on custom scales is the query routes' cap.
        let mut capped = request.clone();
        capped.body = format!(r#"{{"scale": "{}", "points": []}}"#, over_cap()).into_bytes();
        let refused = handle(&capped, &ctx);
        assert_eq!(refused.status(), 400);
        assert!(
            body_text(&refused).contains("serving cap"),
            "{}",
            body_text(&refused)
        );

        // The point cap: MAX_SWEEP_POINTS evaluate, one more is 413.
        let point = r#"{"benchmark": "gzip", "side": "icache", "node": "70nm"}"#;
        let batch = |n: usize| {
            let mut request = request.clone();
            let points = vec![point; n].join(",");
            request.body = format!(r#"{{"scale": "test", "points": [{points}]}}"#).into_bytes();
            request
        };
        let full = handle(&batch(MAX_SWEEP_POINTS), &ctx);
        assert_eq!(full.status(), 200, "{}", body_text(&full));
        let doc = json::parse(&body_text(&full)).unwrap();
        let rows = doc
            .get("results")
            .and_then(Json::as_array)
            .map(<[Json]>::len);
        assert_eq!(rows, Some(MAX_SWEEP_POINTS));
        assert_eq!(handle(&batch(MAX_SWEEP_POINTS + 1), &ctx).status(), 413);
    }

    #[test]
    fn cache_serves_second_read() {
        let ctx = ctx();
        let request = get("/v1/table/1", &[]);
        assert_eq!(handle(&request, &ctx).status(), 200);
        assert_eq!(ctx.cache.len(), 1);
        // Second read is a cache hit: same bytes, still one entry.
        let again = handle(&request, &ctx);
        assert_eq!(again.status(), 200);
        assert_eq!(ctx.cache.len(), 1);
        assert_eq!(ctx.cache.stats().hits, 1);
    }

    #[test]
    fn catalog_preserializes_default_scale_artifacts() {
        let ctx = ctx_with_catalog(true);
        let request = get("/v1/table/1", &[]);
        let first = handle(&request, &ctx);
        assert_eq!(first.status(), 200);
        assert_eq!(ctx.catalog.len(), 1, "went to the catalog tier");
        assert!(ctx.cache.is_empty(), "catalog space bypasses the LRU");
        let again = handle(&request, &ctx);
        assert_eq!(again.body(), first.body(), "byte-identical catalog hit");
        // A non-default scale is outside the catalog space.
        let custom = get("/v1/table/1", &[("scale", "12345")]);
        assert_eq!(handle(&custom, &ctx).status(), 200);
        assert_eq!(ctx.catalog.len(), 1);
        assert_eq!(ctx.cache.len(), 1, "custom scale lands in the LRU");
    }

    #[test]
    fn warm_catalog_fills_the_finite_space() {
        let ctx = ctx_with_catalog(true);
        warm_catalog(&ctx);
        // version + 6 artifacts × 3 query variants (healthz is a live
        // snapshot now, outside the catalog space).
        assert_eq!(ctx.catalog.len(), 1 + 6 * 3);
        // The warmed entry and a fresh compute agree byte-for-byte.
        let request = get("/v1/table/2", &[]);
        let catalog_hit = handle(&request, &ctx).to_bytes(true);
        let fresh = handle(&request, &ctx_with_catalog(false)).to_bytes(true);
        assert_eq!(catalog_hit, fresh);
    }

    #[test]
    fn jobs_routes_cover_the_full_lifecycle_without_workers() {
        let ctx = ctx();
        // A present-but-empty benchmarks axis is a legal zero-point
        // job: it completes without spawning a single worker, which
        // lets this unit test drive every route tier in-process.
        let mut request = get("/v1/jobs", &[]);
        request.method = "POST".into();
        request.body = br#"{"name": "unit-empty", "benchmarks": []}"#.to_vec();
        let created = handle(&request, &ctx);
        assert_eq!(created.status(), 201, "{}", body_text(&created));
        let doc = json::parse(&body_text(&created)).unwrap();
        let id = doc.get("id").and_then(Json::as_str).unwrap().to_string();

        // Idempotent resubmission: same spec, same id, 200 not 201.
        let again = handle(&request, &ctx);
        assert_eq!(again.status(), 200);

        // Same name, different spec: refused.
        let mut conflict = request.clone();
        conflict.body = br#"{"name": "unit-empty", "benchmarks": ["gzip"]}"#.to_vec();
        assert_eq!(handle(&conflict, &ctx).status(), 409);

        // The empty job completes without workers; wait for the runner.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let status = handle(&get(&format!("/v1/jobs/{id}"), &[]), &ctx);
            assert_eq!(status.status(), 200);
            let doc = json::parse(&body_text(&status)).unwrap();
            match doc.get("state").and_then(Json::as_str) {
                Some("done") => break,
                Some(state) if Instant::now() < deadline => {
                    assert!(matches!(state, "queued" | "running"), "{state}");
                    std::thread::sleep(Duration::from_millis(10));
                }
                other => panic!("job never completed: {other:?}"),
            }
        }

        // List shows it; status responses are never cached.
        let list = handle(&get("/v1/jobs", &[]), &ctx);
        assert!(body_text(&list).contains("unit-empty"));
        assert!(ctx.cache.is_empty(), "job responses must bypass the LRU");

        // Pagination boundaries on the empty result set.
        let result = handle(&get(&format!("/v1/jobs/{id}/result"), &[]), &ctx);
        assert_eq!(result.status(), 200, "{}", body_text(&result));
        let doc = json::parse(&body_text(&result)).unwrap();
        assert_eq!(doc.get("total_points").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            doc.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(0)
        );
        let past_end = handle(
            &get(&format!("/v1/jobs/{id}/result"), &[("page", "99")]),
            &ctx,
        );
        assert_eq!(past_end.status(), 200);
        assert_eq!(
            handle(
                &get(&format!("/v1/jobs/{id}/result"), &[("per_page", "0")]),
                &ctx,
            )
            .status(),
            400
        );
        assert_eq!(
            handle(
                &get(&format!("/v1/jobs/{id}/result"), &[("per_page", "abc")]),
                &ctx,
            )
            .status(),
            400
        );

        // Unknown ids and bad bodies.
        assert_eq!(handle(&get("/v1/jobs/jdeadbeef", &[]), &ctx).status(), 404);
        let mut bad = request.clone();
        bad.body = b"not json".to_vec();
        assert_eq!(handle(&bad, &ctx).status(), 400);
        let mut bad_spec = request.clone();
        bad_spec.body = br#"{"name": "x", "nodes": ["90nm"]}"#.to_vec();
        assert_eq!(handle(&bad_spec, &ctx).status(), 400);
        let mut capped = request.clone();
        capped.body = format!(r#"{{"name": "over-cap", "scale": "{}"}}"#, over_cap()).into_bytes();
        let refused = handle(&capped, &ctx);
        assert_eq!(refused.status(), 400);
        assert!(
            body_text(&refused).contains("serving cap"),
            "{}",
            body_text(&refused)
        );

        // Canceling a finished job is a conflict.
        let mut delete = get(&format!("/v1/jobs/{id}"), &[]);
        delete.method = "DELETE".into();
        assert_eq!(handle(&delete, &ctx).status(), 409);
        ctx.jobs.stop();

        // A stopped fabric admits nothing: 503 with `Retry-After`.
        let mut late = request.clone();
        late.body = br#"{"name": "after-stop", "benchmarks": []}"#.to_vec();
        let shed = handle(&late, &ctx);
        assert_eq!(shed.status(), 503);
        assert!(body_text(&shed).contains("job fabric at capacity"));
        let wire = String::from_utf8(shed.to_bytes(false)).unwrap();
        assert!(wire.contains("Retry-After: 1\r\n"), "{wire}");
    }

    #[test]
    fn armed_handler_panic_becomes_500() {
        let ctx = ctx();
        // The figure handler is touched by no other unit test in this
        // crate, so arming its site cannot perturb parallel tests.
        let previous = leakage_faults::set_plane(
            leakage_faults::Plane::parse("server/handler/figure=panic").unwrap(),
        );
        let response = handle(&get("/v1/figure/7", &[]), &ctx);
        let plane = std::sync::Arc::try_unwrap(previous).unwrap_or_default();
        leakage_faults::set_plane(plane);
        assert_eq!(response.status(), 500);
        assert!(body_text(&response).contains("panicked"));
        assert!(ctx.cache.is_empty(), "500s are never cached");
        // With the plane restored, the same route serves normally.
        assert_eq!(handle(&get("/v1/figure/7", &[]), &ctx).status(), 200);
        // The figure route shares the serving cap; checked here, as
        // this test owns the figure handler.
        assert_eq!(
            handle(&get("/v1/figure/7", &[("scale", &over_cap())]), &ctx).status(),
            400
        );
    }
}
