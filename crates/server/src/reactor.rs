//! The readiness-based transport: one reactor thread owns `accept`
//! and read-readiness over `epoll`, so an idle keep-alive connection
//! costs a slab entry — not a thread.
//!
//! ```text
//!             ┌──────────────────────────┐   bounded    ┌──────────┐
//!   epoll ───►│ reactor: accept + parse  │─────────────►│ worker 0 │─► handler
//!   events    │ (nonblocking, oneshot)   │ (conn, req)  │ worker 1 │─► handler
//!             └──────▲───────────────────┘              └────┬─────┘
//!                    │        return queue + wake pipe       │
//!                    └───────────────────────────────────────┘
//! ```
//!
//! The reactor reads readiness-driven bytes into each connection's
//! buffer and hands **fully-parsed requests** to the worker pool.
//! Workers handle, write the response batch, and give the connection
//! back through the return queue, waking the reactor via a pipe (the
//! `epoll`/`pipe2` declarations below are the workspace's second
//! fenced `unsafe` block, mirroring [`crate::signal`]). Connections
//! are registered `EPOLLONESHOT`, so a connection is owned by exactly
//! one of {reactor, worker} at every instant — no fd races.
//!
//! Backpressure is explicit: a parsed request that cannot be
//! queued is answered 503 + `Retry-After` by the reactor itself, and
//! accepted connections beyond `max_connections` are shed the same
//! way. On drain the reactor drops the listener, closes parked idle
//! connections, and exits once every in-flight connection has been
//! returned by the workers and every lingering close has finished.
//!
//! A connection closed after its response may still hold unread
//! request bytes (a refused body). Closing a socket over unread input
//! makes the kernel send RST, which discards response bytes not yet
//! sent and turns the client's end-of-stream into `ECONNRESET`. Every
//! such close therefore goes through one lingering close: shut the
//! write half (FIN behind the response), then read and discard input
//! until the peer closes or `LINGER` passes.

use crate::conn::{Connection, Taken};
use crate::http::{Request, Response, WireResponse};
use crate::pool::{Job, Queue, WorkerConfig};
use crate::routes::RouteContext;
use leakage_telemetry::{registry, striped_counter};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The raw `epoll`/`pipe2` surface. Everything `unsafe` in the
/// reactor lives behind these four safe wrappers.
#[allow(unsafe_code)]
mod sys {
    use std::io;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;
    const O_NONBLOCK: i32 = 0x800;
    const O_CLOEXEC: i32 = 0x80000;

    /// `struct epoll_event`; packed on x86-64 per the kernel ABI.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        /// Readiness bit set.
        pub events: u32,
        /// The token the fd was registered under.
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn pipe2(fds: *mut i32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// A new epoll instance (close-on-exec).
    pub fn epoll_create() -> io::Result<i32> {
        // SAFETY: plain syscall, no pointers.
        check(unsafe { epoll_create1(EPOLL_CLOEXEC) })
    }

    /// Registers (`add = true`) or re-arms (`add = false`) `fd` under
    /// `token` with the given event mask.
    pub fn epoll_arm(epfd: i32, fd: i32, token: u64, events: u32, add: bool) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        let op = if add { EPOLL_CTL_ADD } else { EPOLL_CTL_MOD };
        // SAFETY: `event` outlives the call; the kernel copies it.
        check(unsafe { epoll_ctl(epfd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Waits for events, up to `timeout_ms`. Interrupted waits report
    /// zero events.
    pub fn epoll_pump(epfd: i32, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `events` is a valid, writable slice whose length
        // bounds `maxevents`.
        let n = unsafe {
            epoll_wait(
                epfd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        match check(n) {
            Ok(n) => Ok(n as usize),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(err) => Err(err),
        }
    }

    /// A nonblocking close-on-exec pipe: `(read_fd, write_fd)`.
    pub fn pipe_nonblocking() -> io::Result<(i32, i32)> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid 2-element array the kernel fills.
        check(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        Ok((fds[0], fds[1]))
    }

    /// Writes one byte (best effort — a full pipe already means a
    /// pending wakeup).
    pub fn write_byte(fd: i32) {
        let byte = 1u8;
        // SAFETY: one-byte buffer is valid for the call's duration.
        let _ = unsafe { write(fd, &byte, 1) };
    }

    /// Drains all pending bytes from a nonblocking fd.
    pub fn drain_fd(fd: i32) {
        let mut buf = [0u8; 64];
        // SAFETY: `buf` is valid and its length bounds `count`.
        while unsafe { read(fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
    }

    /// Closes a raw fd.
    pub fn close_fd(fd: i32) {
        // SAFETY: the callers own `fd` and never reuse it after this.
        let _ = unsafe { close(fd) };
    }
}

/// The wake pipe: workers write a byte to pop the reactor out of
/// `epoll_wait` after pushing to the return queue.
struct WakePipe {
    read_fd: i32,
    write_fd: i32,
}

impl WakePipe {
    fn new() -> io::Result<WakePipe> {
        let (read_fd, write_fd) = sys::pipe_nonblocking()?;
        Ok(WakePipe { read_fd, write_fd })
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        sys::close_fd(self.read_fd);
        sys::close_fd(self.write_fd);
    }
}

/// The workers' half of the reactor: the return queue for served
/// connections and the in-flight count the drain waits on.
pub struct ReactorHandle {
    returns: Mutex<Vec<Connection>>,
    wake: Arc<WakePipe>,
    inflight: AtomicUsize,
}

impl ReactorHandle {
    /// Returns a connection to the reactor (worker side) and wakes
    /// it.
    pub fn give_back(&self, conn: Connection) {
        self.returns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(conn);
        sys::write_byte(self.wake.write_fd);
    }

    /// Wakes the reactor without returning anything (shutdown).
    pub fn wake(&self) {
        sys::write_byte(self.wake.write_fd);
    }

    fn take_returns(&self) -> Vec<Connection> {
        std::mem::take(&mut *self.returns.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// Answers admission-exempt requests (health/debug routes) inline
/// when the queue is full; `None` means the request is shed normally.
pub type ExemptFn = dyn Fn(&Request) -> Option<WireResponse> + Send + Sync;

/// Observes a shed request (publishes a flight-recorder record).
pub type ShedHook = dyn Fn(&Request) + Send + Sync;

/// Reactor tuning, split from [`crate::ServerConfig`] so the reactor
/// has no route-level knowledge — route-aware behavior arrives as the
/// `exempt`/`on_shed` closures.
pub struct ReactorConfig {
    /// Close keep-alive connections idle this long.
    pub idle_timeout: Duration,
    /// Per-connection request budget (0 = unlimited).
    pub max_requests_per_connection: u32,
    /// Parked + in-flight connection cap; beyond it new accepts are
    /// shed with 503.
    pub max_connections: usize,
    /// `Retry-After` seconds on shed responses.
    pub retry_after_secs: u64,
    /// Inline responder for admission-exempt routes on a full queue.
    pub exempt: Arc<ExemptFn>,
    /// Shed observer (flight-recorder record for 503s).
    pub on_shed: Arc<ShedHook>,
}

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// A read larger than this per readiness event would let one fast
/// sender starve the slab.
const READ_CHUNK: usize = 16 * 1024;
/// Hard cap on buffered input per connection (one oversized request).
const MAX_BUFFER: usize = crate::http::MAX_HEADER_BYTES + crate::http::MAX_BODY_BYTES + 1;
/// How long a closed connection may keep discarding input before it
/// is dropped regardless (a peer that never closes).
const LINGER: Duration = Duration::from_secs(1);
/// Reads discarded per readiness event on a lingering socket, so one
/// fast sender cannot starve the loop.
const LINGER_READS: usize = 64;

/// The reactor: runs on its own thread until drain completes.
pub struct Reactor {
    epfd: i32,
    listener: Option<TcpListener>,
    wake: Arc<WakePipe>,
    handle: Arc<ReactorHandle>,
    queue: Arc<Queue<Job>>,
    config: ReactorConfig,
    slab: HashMap<u64, Connection>,
    /// Answered, half-closed sockets discarding input until the peer
    /// closes or their deadline passes.
    lingering: HashMap<u64, (TcpStream, Instant)>,
    next_token: u64,
    draining: bool,
}

impl Reactor {
    /// Builds the reactor over an already-bound nonblocking listener.
    ///
    /// # Errors
    ///
    /// `epoll`/pipe creation failures.
    pub fn new(
        listener: TcpListener,
        queue: Arc<Queue<Job>>,
        config: ReactorConfig,
    ) -> io::Result<(Reactor, Arc<ReactorHandle>)> {
        let epfd = sys::epoll_create()?;
        let wake = Arc::new(WakePipe::new().inspect_err(|_| sys::close_fd(epfd))?);
        let handle = Arc::new(ReactorHandle {
            returns: Mutex::new(Vec::new()),
            wake: Arc::clone(&wake),
            inflight: AtomicUsize::new(0),
        });
        sys::epoll_arm(epfd, listener.as_raw_fd(), LISTENER_TOKEN, sys::EPOLLIN, true)?;
        sys::epoll_arm(epfd, wake.read_fd, WAKE_TOKEN, sys::EPOLLIN, true)?;
        Ok((
            Reactor {
                epfd,
                listener: Some(listener),
                wake,
                handle: Arc::clone(&handle),
                queue,
                config,
                slab: HashMap::new(),
                lingering: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
                draining: false,
            },
            handle,
        ))
    }

    /// The event loop. Exits once `stop` is raised and every
    /// in-flight connection has drained.
    pub fn run(mut self, stop: &AtomicBool) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut last_sweep = Instant::now();
        loop {
            let n = match sys::epoll_pump(self.epfd, &mut events, 100) {
                Ok(n) => n,
                Err(_) => {
                    registry().counter("server_reactor_errors_total").inc();
                    0
                }
            };
            for event in &events[..n] {
                let token = event.data;
                match token {
                    LISTENER_TOKEN => self.accept_all(),
                    WAKE_TOKEN => sys::drain_fd(self.wake.read_fd),
                    token => {
                        if let Some(conn) = self.slab.remove(&token) {
                            self.on_readable(conn);
                        } else if let Some((stream, deadline)) = self.lingering.remove(&token) {
                            self.discard_input(token, stream, deadline);
                        }
                    }
                }
            }
            for conn in self.handle.take_returns() {
                self.handle.inflight.fetch_sub(1, Ordering::SeqCst);
                self.reinstate(conn);
            }
            if stop.load(Ordering::SeqCst) && !self.draining {
                self.draining = true;
                // No new connections; parked idle ones close now, the
                // in-flight ones when their workers return them.
                self.listener = None;
                self.slab.clear();
            }
            if self.draining
                && self.slab.is_empty()
                && self.lingering.is_empty()
                && self.handle.inflight.load(Ordering::SeqCst) == 0
            {
                break;
            }
            if last_sweep.elapsed() >= Duration::from_millis(100) {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
        }
        sys::close_fd(self.epfd);
    }

    fn accept_all(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    // A panic here (the injection site, or a slab bug)
                    // must cost one connection, not the reactor.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        leakage_faults::panic_point("server/accept");
                        self.admit(stream);
                    }));
                    if result.is_err() {
                        registry().counter("server_accept_panics_total").inc();
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Transient accept errors (EMFILE, aborted
                    // handshake): count and keep serving.
                    registry().counter("server_accept_errors_total").inc();
                    return;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        let open = self.slab.len() + self.handle.inflight.load(Ordering::SeqCst);
        if self.draining || open >= self.config.max_connections {
            striped_counter!("server_admission_rejected_total").inc();
            let mut stream = stream;
            let _ = Response::error(503, "connection limit reached")
                .with_header("Retry-After", self.config.retry_after_secs.to_string())
                .write_to(&mut stream);
            let token = self.next_token;
            self.next_token += 1;
            self.close_after_response(stream, token, true);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self.arm(&stream, token, true) {
            self.slab.insert(token, Connection::new(stream, token));
        }
    }

    /// Reads whatever is ready, then parses and routes the
    /// connection onward. The connection is currently owned by the
    /// reactor (removed from the slab, epoll disarmed by ONESHOT).
    fn on_readable(&mut self, mut conn: Connection) {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if conn.buf.len() >= MAX_BUFFER {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    striped_counter!("server_transport_errors_total").inc();
                    return; // drop the connection
                }
            }
        }
        conn.last_activity = Instant::now();
        self.advance(conn);
    }

    /// One parse step: dispatch a complete request, answer a bad one
    /// inline, or park for more bytes.
    fn advance(&mut self, mut conn: Connection) {
        match conn.take_request(self.config.max_requests_per_connection) {
            Taken::Request(request) => self.dispatch(conn, request),
            Taken::Bad { bad, recoverable } => {
                let survive = recoverable && !conn.close && !conn.eof && !self.draining;
                let wire = Response::error(bad.status, &bad.reason).into_wire();
                let mut out = Vec::new();
                wire.serialize_into(&mut out, survive);
                striped_counter!("server_responses_4xx_total").inc();
                // Best-effort nonblocking write: 4xx bodies are tiny
                // and virtually always fit the socket buffer.
                let ok = (&conn.stream).write_all(&out).is_ok();
                if survive && ok {
                    self.park(conn);
                } else {
                    self.close_after_response(conn.stream, conn.token, false);
                }
            }
            Taken::NeedMore => {
                if conn.eof || conn.close || self.draining {
                    return; // nothing more can arrive; drop
                }
                self.park(conn);
            }
        }
    }

    fn dispatch(&mut self, conn: Connection, request: crate::http::Request) {
        self.handle.inflight.fetch_add(1, Ordering::SeqCst);
        if let Err((mut conn, request)) = self.queue.push((conn, request)) {
            self.handle.inflight.fetch_sub(1, Ordering::SeqCst);
            // Health/debug routes answer inline even when saturated —
            // that is exactly when the debug plane matters most. The
            // handlers behind the exempt closure are allocation-light
            // and never touch the sim permits, so the reactor thread
            // is not held hostage.
            if let Some(wire) = (self.config.exempt)(&request) {
                let survive = !conn.close && !conn.eof && !self.draining;
                let mut out = Vec::new();
                wire.serialize_into(&mut out, survive);
                let ok = (&conn.stream).write_all(&out).is_ok();
                if survive && ok {
                    conn.last_activity = Instant::now();
                    self.reinstate(conn);
                } else {
                    self.close_after_response(conn.stream, conn.token, false);
                }
                return;
            }
            (self.config.on_shed)(&request);
            striped_counter!("server_admission_rejected_total").inc();
            striped_counter!("server_shed_total").inc();
            let wire = Response::error(503, "admission queue full")
                .with_header("Retry-After", self.config.retry_after_secs.to_string())
                .into_wire();
            let mut out = Vec::new();
            wire.serialize_into(&mut out, false);
            let _ = (&conn.stream).write_all(&out);
            // Shedding closes, so the client re-learns admission state
            // on reconnect rather than livelocking a parked connection.
            self.close_after_response(conn.stream, conn.token, false);
        }
    }

    /// Arms `stream` for one read-readiness event under `token`
    /// (`add` for a socket epoll has not seen yet); a failure is
    /// counted and the caller drops the socket.
    fn arm(&self, stream: &TcpStream, token: u64, add: bool) -> bool {
        let events = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT;
        let armed = sys::epoll_arm(self.epfd, stream.as_raw_fd(), token, events, add).is_ok();
        if !armed {
            registry().counter("server_reactor_errors_total").inc();
        }
        armed
    }

    /// Re-arms the connection in epoll and parks it in the slab.
    fn park(&mut self, conn: Connection) {
        if self.arm(&conn.stream, conn.token, false) {
            self.slab.insert(conn.token, conn);
        }
    }

    /// A connection returned by a worker: close it, keep pipelining,
    /// or park it for the next request.
    fn reinstate(&mut self, mut conn: Connection) {
        if conn.close || self.draining {
            self.close_after_response(conn.stream, conn.token, false);
            return;
        }
        conn.last_activity = Instant::now();
        if conn.has_buffered_request() {
            // The worker hit its batch cap with requests still
            // buffered; cycle through the queue again for fairness.
            self.advance(conn);
        } else {
            self.park(conn);
        }
    }

    /// The one way an answered connection closes: FIN behind the
    /// response, then linger discarding input (see the module docs).
    /// `add` is set for a connection shed at accept, which epoll has
    /// not seen.
    fn close_after_response(&mut self, stream: TcpStream, token: u64, add: bool) {
        if stream.shutdown(Shutdown::Write).is_err() || stream.set_nonblocking(true).is_err() {
            return; // the peer is already gone
        }
        self.linger(token, stream, Instant::now() + LINGER, add);
    }

    /// Reads and discards what a lingering socket has ready; drops it
    /// at end-of-stream or on error, re-arms it otherwise.
    fn discard_input(&mut self, token: u64, mut stream: TcpStream, deadline: Instant) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut reads = 0;
        while reads < LINGER_READS {
            match stream.read(&mut chunk) {
                Ok(0) => return, // the peer closed: the close is clean
                Ok(_) => reads += 1,
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
        self.linger(token, stream, deadline, false);
    }

    fn linger(&mut self, token: u64, stream: TcpStream, deadline: Instant, add: bool) {
        if self.arm(&stream, token, add) {
            self.lingering.insert(token, (stream, deadline));
        }
    }

    fn sweep_idle(&mut self) {
        let timeout = self.config.idle_timeout;
        let expired: Vec<u64> = self
            .slab
            .iter()
            .filter(|(_, conn)| conn.last_activity.elapsed() >= timeout)
            .map(|(token, _)| *token)
            .collect();
        for token in expired {
            self.slab.remove(&token);
            registry().counter("server_idle_closed_total").inc();
        }
        let now = Instant::now();
        self.lingering.retain(|_, (_, deadline)| *deadline > now);
    }
}

/// The worker loop for the reactor transport: pop parsed jobs,
/// process the request (and any pipelined successors), write, give
/// the connection back.
pub fn reactor_worker(
    queue: &Queue<Job>,
    handle: &ReactorHandle,
    ctx: &RouteContext,
    worker_config: &WorkerConfig,
) {
    while let Some((conn, request)) = queue.pop() {
        // Isolation belt-and-braces: `routes::handle` already catches
        // handler panics; this outer catch covers the protocol layer
        // so no panic whatsoever can kill a worker. The connection is
        // lost to the slab on a protocol-layer panic, so the handle
        // must still learn about it — hence the inner move.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut conn = crate::pool::work_requests(conn, request, ctx, worker_config);
            conn.last_activity = Instant::now();
            handle.give_back(conn);
        }));
        if result.is_err() {
            registry().counter("server_worker_panics_total").inc();
            // The connection was dropped mid-panic; the reactor's
            // inflight count must not leak or drain would hang.
            handle.inflight.fetch_sub(1, Ordering::SeqCst);
            handle.wake();
        }
    }
}
