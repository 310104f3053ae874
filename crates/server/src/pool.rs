//! The server core: bounded job queue, worker pool, graceful
//! shutdown.
//!
//! One epoll reactor thread owns accept + read-readiness and parses
//! requests off nonblocking connections ([`crate::reactor`]); the
//! worker pool here answers them. An idle keep-alive connection costs
//! a slab entry, not a thread.
//!
//! Backpressure is explicit: when the bounded queue is full the
//! reactor itself answers 503 + `Retry-After` and closes — the client
//! learns immediately instead of queueing into a timeout. Shutdown is
//! draining: accepts stop, admitted work is served, idle keep-alive
//! connections close, then the workers exit.

use crate::artifacts::ArtifactCatalog;
use crate::conn::{Connection, Taken};
use crate::http::{Request, Response};
use crate::limit::Semaphore;
use crate::reactor::{reactor_worker, ExemptFn, Reactor, ReactorConfig, ReactorHandle, ShedHook};
use crate::respcache::ResponseCache;
use crate::routes::{self, RouteContext, ServerInfo};
use crate::storefront::StoreFront;
use crate::trace::{us32, PendingRecord, StageTrace, TimingHeader};
use leakage_experiments::ProfileStore;
use leakage_jobs::{FabricConfig, JobFabric};
use leakage_telemetry::{FlightRecorder, RequestRecord, FLAG_SHED};
use leakage_workloads::Scale;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Admission queue depth; work beyond it is shed.
    pub queue_depth: usize,
    /// Socket read timeout while a worker streams a chunked upload
    /// body.
    pub request_timeout: Duration,
    /// LRU response-cache capacity (entries, across all shards).
    pub cache_entries: usize,
    /// Scale used when a query names none.
    pub default_scale: Scale,
    /// Concurrent simulation-backed GETs.
    pub sim_concurrency: usize,
    /// Concurrent sweep batches.
    pub sweep_concurrency: usize,
    /// How long a request waits for a concurrency permit.
    pub limit_wait: Duration,
    /// `Retry-After` seconds on shed responses.
    pub retry_after_secs: u64,
    /// Close keep-alive connections idle this long.
    pub idle_timeout: Duration,
    /// Requests served per connection before it is closed
    /// (0 = unlimited). The budget-exhausting response carries
    /// `Connection: close`.
    pub max_requests_per_connection: u32,
    /// Pipelined requests a worker answers per queue cycle before
    /// putting the connection back (fairness under pipelining).
    pub pipeline_batch: usize,
    /// Shards for the response cache and profile-store front.
    pub cache_shards: usize,
    /// Pre-serialize the default-scale artifact space at startup.
    pub preserialize: bool,
    /// Open connections the reactor will hold before shedding new
    /// accepts.
    pub max_connections: usize,
    /// Request tracing: flight recorder + `X-Request-Id` /
    /// `Server-Timing` response headers (`--no-recorder` disables for
    /// A/B overhead measurement).
    pub recorder: bool,
    /// Flight-recorder ring capacity; 0 means `LEAKAGE_RECORDER_CAP`
    /// or the built-in default.
    pub recorder_cap: usize,
    /// Root directory for durable sweep-job state (checkpoints,
    /// specs, quarantine).
    pub jobs_dir: PathBuf,
    /// Worker processes the job fabric spawns per running job.
    pub job_workers: usize,
    /// Kill-and-reassign deadline for a worker sitting on one chunk.
    pub job_stall: Duration,
    /// Extra environment passed to job workers (the coordinator's own
    /// `LEAKAGE_FAULTS` never propagates implicitly).
    pub job_worker_env: Vec<(String, String)>,
    /// Queued + running jobs admitted before `POST /v1/jobs` sheds.
    pub max_active_jobs: usize,
    /// TCP address the job fabric listens on for remote workers
    /// (`None`: local stdio workers only). With a listener,
    /// `job_workers` may be 0 for remote-only operation.
    pub job_listen: Option<String>,
    /// Shared admission token remote job workers must present.
    pub job_token: Option<String>,
    /// Remote-worker heartbeat timeout before a chunk lease expires.
    pub job_hb_timeout: Duration,
    /// Minimum connected remote workers before `/healthz` reports
    /// `degraded: true` (0 disables the check).
    pub job_worker_quorum: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            request_timeout: Duration::from_secs(30),
            cache_entries: 128,
            default_scale: Scale::Test,
            sim_concurrency: 4,
            sweep_concurrency: 2,
            limit_wait: Duration::from_secs(10),
            retry_after_secs: 1,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 1024,
            pipeline_batch: 32,
            cache_shards: 8,
            preserialize: true,
            max_connections: 1024,
            recorder: true,
            recorder_cap: 0,
            jobs_dir: PathBuf::from("results/jobs"),
            job_workers: 4,
            job_stall: Duration::from_secs(30),
            job_worker_env: Vec::new(),
            max_active_jobs: 4,
            job_listen: None,
            job_token: None,
            job_hb_timeout: Duration::from_secs(5),
            job_worker_quorum: 0,
        }
    }
}

/// Settings a worker needs to serve one connection's batch.
pub struct WorkerConfig {
    /// Per-connection request budget (0 = unlimited).
    pub max_requests_per_connection: u32,
    /// Max pipelined responses per queue cycle.
    pub pipeline_batch: usize,
    /// Socket read timeout while streaming a chunked upload body.
    pub request_timeout: Duration,
    /// The server's stop flag: once raised, responses advertise
    /// `Connection: close` and connections wind down.
    pub stop: Arc<AtomicBool>,
}

/// A parsed request together with the connection it arrived on — the
/// unit of work the reactor hands the pool.
pub type Job = (Connection, Request);

/// The bounded queue between the reactor and the workers.
pub struct Queue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    depth: usize,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    open: bool,
}

impl<T> Queue<T> {
    /// A queue shedding beyond `depth` items.
    pub fn new(depth: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                open: true,
            }),
            ready: Condvar::new(),
            depth,
        }
    }

    /// Admits an item, or returns it when the queue is full.
    ///
    /// # Errors
    ///
    /// The rejected item, for the caller to shed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.items.len() >= self.depth {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Takes the next item; `None` once closed **and** drained, so
    /// queued work is always served through shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if !inner.open {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops admissions and wakes every worker to drain and exit.
    pub fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .open = false;
        self.ready.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A running analysis service. Dropping without
/// [`shutdown`](Server::shutdown) aborts ungracefully (threads are
/// detached); call `shutdown` to drain.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    jobs: Arc<JobFabric>,
    handle: Arc<ReactorHandle>,
    queue: Arc<Queue<Job>>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the reactor and worker pool, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// Bind/configuration I/O errors.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shards = config.cache_shards.max(1);
        let recorder = config.recorder.then(|| {
            let cap = if config.recorder_cap > 0 {
                config.recorder_cap
            } else {
                FlightRecorder::capacity_from_env()
            };
            Arc::new(FlightRecorder::new(cap))
        });

        // Durable job fabric: recovers any resumable jobs found under
        // `jobs_dir` before the listener starts answering.
        let jobs = JobFabric::start(FabricConfig {
            jobs_dir: config.jobs_dir.clone(),
            // Remote-only operation (0 local workers) is legitimate
            // when a listener is configured.
            workers: if config.job_listen.is_some() {
                config.job_workers
            } else {
                config.job_workers.max(1)
            },
            stall_deadline: config.job_stall,
            worker_env: config.job_worker_env.clone(),
            max_active_jobs: config.max_active_jobs.max(1),
            listen: config.job_listen.clone(),
            token: config.job_token.clone(),
            heartbeat_timeout: config.job_hb_timeout,
            ..FabricConfig::default()
        })?;

        let ctx = Arc::new(RouteContext {
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
            metrics: routes::HotMetrics::resolve(),
            jobs: Arc::clone(&jobs),
            job_worker_quorum: config.job_worker_quorum,
            recorder,
            info: ServerInfo::new("reactor", config.workers.max(1)),
        });
        let stop = Arc::new(AtomicBool::new(false));

        if config.preserialize {
            // Warm the catalog off the serving path; first-touch
            // requests that race it compute identical bytes.
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("leakage-server-warm".to_string())
                .spawn(move || routes::warm_catalog(&ctx))?;
        }

        let worker_config = Arc::new(WorkerConfig {
            max_requests_per_connection: config.max_requests_per_connection,
            pipeline_batch: config.pipeline_batch.max(1),
            request_timeout: config.request_timeout,
            stop: Arc::clone(&stop),
        });

        listener.set_nonblocking(true)?;
        let queue = Arc::new(Queue::new(config.queue_depth.max(1)));
        ctx.info.set_queue_len({
            let queue = Arc::clone(&queue);
            Box::new(move || queue.len())
        });
        // Debug/health routes answer inline on a full queue instead of
        // shedding — the observability plane must stay reachable exactly
        // when the system is saturated. The closures keep the reactor
        // route-agnostic.
        let exempt = {
            let ctx = Arc::clone(&ctx);
            Arc::new(move |request: &Request| routes::exempt_response(request, &ctx))
                as Arc<ExemptFn>
        };
        let on_shed = {
            let ctx = Arc::clone(&ctx);
            Arc::new(move |request: &Request| record_shed(request, &ctx)) as Arc<ShedHook>
        };
        let (reactor, handle) = Reactor::new(
            listener,
            Arc::clone(&queue),
            ReactorConfig {
                idle_timeout: config.idle_timeout,
                max_requests_per_connection: config.max_requests_per_connection,
                max_connections: config.max_connections.max(1),
                retry_after_secs: config.retry_after_secs,
                exempt,
                on_shed,
            },
        )?;

        let reactor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("leakage-server-reactor".to_string())
                .spawn(move || reactor.run(&stop))?
        };
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for index in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let handle = Arc::clone(&handle);
            let ctx = Arc::clone(&ctx);
            let worker_config = Arc::clone(&worker_config);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("leakage-server-worker-{index}"))
                    .spawn(move || reactor_worker(&queue, &handle, &ctx, &worker_config))?,
            );
        }

        Ok(Server {
            addr,
            stop,
            jobs,
            handle,
            queue,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The job fabric serving `/v1/jobs` (observability for tests).
    pub fn jobs(&self) -> &Arc<JobFabric> {
        &self.jobs
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current job/admission-queue depth (observability for tests).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Graceful shutdown: stop accepting, serve everything already
    /// admitted (in-flight keep-alive requests included), close idle
    /// connections, join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // Reactor exit means every connection has drained; closing the
        // queue releases the idle workers.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Resumable stop: running jobs park as `queued` with their
        // checkpoints intact; a restarted server picks them back up.
        self.jobs.stop();
    }
}

/// Publishes a minimal shed-flagged record so overload events are
/// visible in `/debug/requests` and `/debug/slow` even though the
/// request never reached a worker.
pub(crate) fn record_shed(request: &Request, ctx: &RouteContext) {
    let Some(recorder) = ctx.recorder.as_deref() else {
        return;
    };
    let queue_us = us32(request.trace.parsed_at.elapsed());
    let trace_id = if request.trace.id == 0 {
        crate::trace::next_trace_id()
    } else {
        request.trace.id
    };
    recorder.record(&RequestRecord {
        trace_id,
        end_us: recorder.now_us(),
        route: routes::route_code(routes::route_name(request)),
        flags: FLAG_SHED,
        status: 503,
        req_bytes: request.trace.req_bytes,
        total_us: request.trace.parse_us.saturating_add(queue_us),
        parse_us: request.trace.parse_us,
        queue_us,
        ..RequestRecord::default()
    });
}

/// The worker path: answer `request` and up
/// to `pipeline_batch - 1` pipelined successors, batching the
/// pre-serialized responses into one buffer and one write.
///
/// Returns the connection with its fate recorded in `close`.
pub fn work_requests(
    mut conn: Connection,
    mut request: Request,
    ctx: &RouteContext,
    worker_config: &WorkerConfig,
) -> Connection {
    ctx.metrics.inflight.add(1);
    let mut answered = 0usize;
    let recorder = ctx.recorder.as_deref();
    loop {
        if request.chunked {
            // A chunked upload's body is still on the wire behind the
            // header block. Flush the responses batched so far, then
            // hand the socket to the streaming upload path — it reads
            // the body incrementally and writes its own response.
            // Exclusive connection ownership (reactor ONESHOT) makes
            // the blocking reads safe.
            // `conn.close` may already be set by a `Connection: close`
            // header or an exhausted request budget; the upload is
            // still owed its response (announcing the close), so only
            // a failed flush skips it.
            if flush_batch(&mut conn, ctx) {
                conn = crate::streaming::serve_upload(conn, &request, ctx, worker_config);
            }
            answered += 1;
            if conn.close || answered >= worker_config.pipeline_batch {
                break;
            }
            match conn.take_request(worker_config.max_requests_per_connection) {
                Taken::Request(next) => {
                    request = next;
                    continue;
                }
                Taken::Bad { bad, recoverable } => {
                    let survive = recoverable && !conn.eof;
                    let wire = Response::error(bad.status, &bad.reason).into_wire();
                    wire.serialize_into(&mut conn.out, survive);
                    ctx.metrics.responses_4xx.inc();
                    if !survive {
                        conn.close = true;
                    }
                    break;
                }
                Taken::NeedMore => break,
            }
        }
        let started = Instant::now();
        let route = routes::route_name(&request);
        let stage = StageTrace::default();
        let wire = routes::handle(&request, ctx, &stage);
        // The response's Connection header must state the fate: close
        // when the client asked, the budget ran out, the peer
        // half-closed with nothing left buffered, or we are draining.
        let keep_alive = !conn.close
            && !worker_config.stop.load(Ordering::Relaxed)
            && !(conn.eof && !conn.has_buffered_request());
        if recorder.is_some() {
            let trace = request.trace;
            let queue_us = us32(started.saturating_duration_since(trace.parsed_at));
            // One clock read ends the handler stage and starts the
            // serialize stage.
            let handler_done = Instant::now();
            let handler_us = us32(handler_done.saturating_duration_since(started));
            let header = TimingHeader {
                id: trace.id,
                parse_us: trace.parse_us,
                queue_us,
                permit_us: stage.permit_us.get(),
                handler_us,
                store_us: stage.store_us.get(),
                prev_serialize_us: conn.last_serialize_us,
                prev_write_us: conn.last_write_us,
            };
            wire.serialize_traced(&mut conn.out, keep_alive, |out| {
                header.render(out, trace.from_client);
            });
            let serialize_us = us32(handler_done.elapsed());
            conn.last_serialize_us = serialize_us;
            // write_us/total_us/end_us are filled in after the batch
            // flush; see below.
            conn.pending.push(PendingRecord {
                parsed_at: trace.parsed_at,
                record: RequestRecord {
                    trace_id: trace.id,
                    route: routes::route_code(route),
                    flags: stage.flags(),
                    status: wire.status(),
                    req_bytes: trace.req_bytes,
                    resp_bytes: u32::try_from(wire.head_len() + wire.body().len())
                        .unwrap_or(u32::MAX),
                    parse_us: trace.parse_us,
                    queue_us,
                    permit_us: stage.permit_us.get(),
                    handler_us,
                    store_us: stage.store_us.get(),
                    serialize_us,
                    ..RequestRecord::default()
                },
            });
        } else {
            wire.serialize_into(&mut conn.out, keep_alive);
        }
        ctx.metrics.requests_total.inc();
        ctx.metrics.count_status(wire.status());
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        ctx.metrics.record_latency(route, micros);
        answered += 1;

        if !keep_alive {
            conn.close = true;
            break;
        }
        if answered >= worker_config.pipeline_batch {
            break;
        }
        match conn.take_request(worker_config.max_requests_per_connection) {
            Taken::Request(next) => request = next,
            Taken::Bad { bad, recoverable } => {
                let survive = recoverable && !conn.eof;
                let wire = Response::error(bad.status, &bad.reason).into_wire();
                wire.serialize_into(&mut conn.out, survive);
                ctx.metrics.responses_4xx.inc();
                if !survive {
                    conn.close = true;
                }
                break;
            }
            // `take_request` already marked close on a half-closed
            // dangling partial; otherwise just flush and hand the
            // connection back for more bytes.
            Taken::NeedMore => break,
        }
    }
    flush_batch(&mut conn, ctx);
    conn.pending.clear();
    ctx.metrics.inflight.sub(1);
    conn
}

/// Writes the batch buffer (one write per pipelined batch), then
/// stamps and publishes its pending flight-recorder records. Sets
/// `conn.close` and returns `false` on a transport failure; returns
/// `true` without writing when nothing is serialized.
fn flush_batch(conn: &mut Connection, ctx: &RouteContext) -> bool {
    if conn.out.is_empty() {
        return true;
    }
    let write_started = Instant::now();
    let flushed_ok = flush_output(conn).is_ok();
    if !flushed_ok {
        ctx.metrics.transport_errors.inc();
        conn.close = true;
    }
    if let Some(recorder) = ctx.recorder.as_deref() {
        // One write served the whole pipelined batch; each record
        // carries that shared cost plus its own end-to-end total.
        // A single clock read stamps the whole batch.
        let flushed = Instant::now();
        let write_us = us32(flushed.duration_since(write_started));
        let end_us = recorder.now_us();
        conn.last_write_us = write_us;
        for pending in conn.pending.drain(..) {
            let mut record = pending.record;
            record.write_us = write_us;
            record.total_us = record
                .parse_us
                .saturating_add(us32(flushed.saturating_duration_since(pending.parsed_at)));
            record.end_us = end_us;
            recorder.record(&record);
        }
    }
    flushed_ok
}

/// Writes the batched output buffer, toggling the reactor's
/// nonblocking socket into blocking mode for the write.
fn flush_output(conn: &mut Connection) -> io::Result<()> {
    conn.stream.set_nonblocking(false)?;
    let result = (&conn.stream).write_all(&conn.out);
    // Restore readiness mode even after a failed write; the reactor
    // owns cleanup either way.
    let _ = conn.stream.set_nonblocking(true);
    conn.out.clear();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_sheds_above_depth_and_drains_after_close() {
        let queue = Queue::new(2);
        assert!(queue.push(1).is_ok());
        assert!(queue.push(2).is_ok());
        assert_eq!(queue.push(3), Err(3), "third push exceeds depth 2");
        assert_eq!(queue.len(), 2);

        queue.close();
        assert_eq!(queue.pop(), Some(1), "drain continues after close");
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), None, "then workers are released");
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServerConfig::default();
        assert!(config.workers >= 1);
        assert!(config.queue_depth >= config.workers);
        assert_eq!(config.default_scale, Scale::Test);
        assert!(config.pipeline_batch >= 1);
        assert!(config.preserialize);
        assert!(config.recorder, "tracing ships on by default");
        assert_eq!(config.recorder_cap, 0, "0 = env/default capacity");
    }
}
