//! The readiness-based transport: one reactor thread owns `accept`
//! and read-readiness over `epoll`, so an idle keep-alive connection
//! costs a slab entry — not a thread.
//!
//! ```text
//!             ┌──────────────────────────┐   bounded    ┌──────────┐
//!   epoll ───►│ reactor: accept + parse  │─────────────►│ worker 0 │─► handler
//!   events    │ (nonblocking, oneshot)   │ (conn, req)  │ worker 1 │─► handler
//!             └──────▲───────────────────┘              └────┬─────┘
//!                    │     return queue + wake socket        │
//!                    └───────────────────────────────────────┘
//! ```
//!
//! The reactor is an I/O shell: it keeps `epoll`, `accept`, the wake
//! socket, the token → socket slab, the reads and the writes. Each
//! connection's core ([`crate::conn::Core`]) decides framing, fate and
//! time from the bytes and clock it is handed; the [`Dispatch`] decides
//! admission, shedding, inline answers, parking, lingering, the
//! hand-back and the drain. Workers write each response batch and give
//! the connection back (or, after a panic, the token of the one they
//! lost) through the return queue, then wake the reactor. The `epoll`
//! declarations below are the workspace's second fenced `unsafe` block,
//! mirroring [`crate::signal`]. Connections are registered
//! `EPOLLONESHOT`, so each is owned by exactly one of {reactor, worker}
//! at every instant — no fd races.
//!
//! Closing a socket over unread input (a refused body) makes the kernel
//! send RST, which discards response bytes not yet sent and turns the
//! client's end of stream into `ECONNRESET`. Every answered connection
//! therefore closes by lingering: FIN behind the response, then input
//! discarded until the peer closes or the closed core's deadline passes.
//! The 100 ms sweep asks each expired core what is due: a 408 for a
//! request cut off by its deadline, else a silent drop.

use crate::conn::{Core, Event};
use crate::dispatch::{Action, Dispatch, Input};
use crate::http::Response;
use crate::pool::{record_shed, Job, Queue, ServerConfig};
use crate::routes::{self, RouteContext};
use crate::trace::PendingRecord;
use leakage_telemetry::{registry, striped_counter};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The raw `epoll` surface. Everything `unsafe` in the reactor lives
/// behind these three safe wrappers.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd};

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLONESHOT: u32 = 1 << 30;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0x80000;

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
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// A new epoll instance (close-on-exec), closed on drop.
    pub fn epoll_create() -> io::Result<OwnedFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is a fresh descriptor that nothing else owns.
        Ok(unsafe { OwnedFd::from_raw_fd(fd) })
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
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        match check(n) {
            Ok(n) => Ok(n as usize),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(err) => Err(err),
        }
    }
}

/// A worker's hand-back: the connection, or the token of one it lost.
type Returned = Result<Connection, u64>;

/// The workers' half of the reactor: the return queue, and a
/// nonblocking socket pair whose one byte pops the reactor out of
/// `epoll_wait` to read it.
pub(crate) struct ReactorHandle {
    returns: Mutex<Vec<Returned>>,
    waker: UnixStream,
    woken: UnixStream,
}

impl ReactorHandle {
    /// Hands a connection (or a lost one's token) back to the reactor
    /// and wakes it.
    fn give_back(&self, returned: Returned) {
        self.returns().push(returned);
        self.wake();
    }

    fn returns(&self) -> MutexGuard<'_, Vec<Returned>> {
        self.returns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes the reactor (best effort: a full socket buffer already
    /// means a pending wakeup).
    pub(crate) fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }
}

/// One client connection, moving between the reactor and a worker: the
/// socket, its core, and the worker side's output and timing state.
pub(crate) struct Connection {
    /// The socket, nonblocking; workers switch it to blocking mode
    /// for the duration of a write or a streamed upload.
    pub(crate) stream: TcpStream,
    /// Framing, request budget, clock and fate of the bytes read so far.
    pub(crate) core: Core,
    /// Serialized responses awaiting a write.
    pub(crate) out: Vec<u8>,
    /// Reactor slab token.
    token: u64,
    /// Flight-recorder records of the batch being serialized,
    /// published after its write so they carry the real write cost.
    pub(crate) pending: Vec<PendingRecord>,
    /// Write duration of the previous flushed batch on this
    /// connection, reported in the next `Server-Timing` header.
    pub(crate) last_write_us: u32,
}

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
/// A read larger than this would let one fast sender starve the slab.
const READ_CHUNK: usize = 16 * 1024;
/// Reads per readiness event (1 MiB, about one maximal request), so one
/// fast sender cannot starve the loop.
const MAX_READS: usize = 64;

/// The reactor: runs on its own thread until drain completes.
pub(crate) struct Reactor {
    epfd: OwnedFd,
    listener: Option<TcpListener>,
    handle: Arc<ReactorHandle>,
    queue: Arc<Queue<Job>>,
    ctx: Arc<RouteContext>,
    idle_timeout: Duration,
    max_requests: u32,
    dispatch: Dispatch,
    /// Parked connections waiting for bytes, and closed ones lingering
    /// until the peer closes or their core's deadline passes.
    slab: HashMap<u64, Connection>,
    next_token: u64,
}

impl Reactor {
    /// Builds the reactor over an already-bound nonblocking listener.
    pub(crate) fn new(
        listener: TcpListener,
        queue: Arc<Queue<Job>>,
        config: &ServerConfig,
        ctx: Arc<RouteContext>,
    ) -> io::Result<(Reactor, Arc<ReactorHandle>)> {
        let epfd = sys::epoll_create()?;
        let (woken, waker) = UnixStream::pair()?;
        woken.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        for (fd, token) in [
            (listener.as_raw_fd(), LISTENER_TOKEN),
            (woken.as_raw_fd(), WAKE_TOKEN),
        ] {
            sys::epoll_arm(epfd.as_raw_fd(), fd, token, sys::EPOLLIN, true)?;
        }
        let handle = Arc::new(ReactorHandle {
            returns: Mutex::new(Vec::new()),
            waker,
            woken,
        });
        let reactor = Reactor {
            epfd,
            listener: Some(listener),
            handle: Arc::clone(&handle),
            queue,
            ctx,
            idle_timeout: config.idle_timeout,
            max_requests: config.max_requests_per_connection,
            dispatch: Dispatch::new(config.max_connections),
            slab: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
        };
        Ok((reactor, handle))
    }

    /// The event loop. Exits once `stop` is raised and the dispatch's
    /// drain is over.
    pub(crate) fn run(mut self, stop: &AtomicBool) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let mut last_sweep = Instant::now();
        loop {
            let n = sys::epoll_pump(self.epfd.as_raw_fd(), &mut events, 100).unwrap_or_else(|_| {
                registry().counter("server_reactor_errors_total").inc();
                0
            });
            for event in &events[..n] {
                match event.data {
                    LISTENER_TOKEN => self.accept_all(),
                    WAKE_TOKEN => {
                        while (&self.handle.woken).read(&mut [0; 64]).is_ok_and(|n| n > 0) {}
                    }
                    token => {
                        if let Some(conn) = self.slab.remove(&token) {
                            self.on_readable(conn);
                        }
                    }
                }
            }
            let returns = std::mem::take(&mut *self.handle.returns());
            for returned in returns {
                match returned {
                    Ok(conn) => self.serve(conn, Some(Input::Returned)),
                    Err(_lost) => _ = self.dispatch.step(Input::Lost),
                }
            }
            if stop.load(Ordering::SeqCst) && self.listener.take().is_some() {
                // No new connections; parked ones close now, the
                // in-flight ones when their workers return them.
                self.dispatch.step(Input::Stop);
                self.slab.retain(|_, conn| conn.core.is_closed());
            }
            if self.dispatch.done() {
                break;
            }
            if last_sweep.elapsed() >= Duration::from_millis(100) {
                self.sweep();
                last_sweep = Instant::now();
            }
        }
    }

    fn accept_all(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
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
        let conn = Connection {
            stream,
            core: Core::new(self.max_requests, self.idle_timeout, Instant::now()),
            out: Vec::new(),
            token: self.next_token,
            pending: Vec::new(),
            last_write_us: 0,
        };
        self.next_token += 1;
        if let Action::Shed(reason) = self.dispatch.step(Input::Accepted) {
            return self.shed(conn, reason, true);
        }
        if conn.stream.set_nonblocking(true).is_err() {
            return self.drop_conn(conn);
        }
        let _ = conn.stream.set_nodelay(true);
        // SO_SNDTIMEO bounds every blocking write a worker makes here: a
        // peer that stops reading loses the connection after one idle
        // timeout instead of pinning the worker. (std refuses a zero
        // timeout, which leaves the write unbounded.)
        let _ = conn.stream.set_write_timeout(Some(self.idle_timeout));
        self.park(conn, true);
    }

    /// Reads what is ready, [`MAX_READS`] reads at most, into the core:
    /// a parked connection is then served, a lingering one (whose core
    /// discards input) dropped at end of stream. The connection is owned
    /// by the reactor (removed from the slab, epoll disarmed by ONESHOT).
    fn on_readable(&mut self, mut conn: Connection) {
        let mut chunk = [0u8; READ_CHUNK];
        let now = Instant::now();
        let mut ended = false;
        for _ in 0..MAX_READS {
            if !conn.core.wants_input() {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.core.feed_eof(now);
                    ended = true;
                    break;
                }
                Ok(n) => conn.core.feed(&chunk[..n], now),
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    if !conn.core.is_closed() {
                        striped_counter!("server_transport_errors_total").inc();
                    }
                    return self.drop_conn(conn);
                }
            }
        }
        match (conn.core.is_closed(), ended) {
            (false, _) => self.serve(conn, None),
            (true, false) => self.park(conn, false),
            (true, true) => self.drop_conn(conn), // the peer closed: the close is clean
        }
    }

    /// Carries out the dispatch's action for `first`, if given, then for
    /// one core event after another, until the connection parks, queues,
    /// sheds or closes; `wire` is the inline answer of a 4xx or of an
    /// exempt request the queue refused.
    fn serve(&mut self, mut conn: Connection, mut first: Option<Input>) {
        loop {
            let (input, wire) = match first.take() {
                Some(first) => (first, None),
                None => match conn.core.next_event() {
                    Event::Request(request) => {
                        let Err((back, request)) = self.queue.push((conn, request)) else {
                            self.dispatch.step(Input::Queued);
                            return;
                        };
                        conn = back;
                        let wire = routes::exempt_response(&request, &self.ctx);
                        if wire.is_none() {
                            record_shed(&request, &self.ctx);
                            striped_counter!("server_shed_total").inc();
                        }
                        let exempt = wire.is_some();
                        (Input::Refused { exempt }, wire)
                    }
                    Event::Bad(bad) => {
                        striped_counter!("server_responses_4xx_total").inc();
                        (Input::Bad, Some(Response::from(bad).into_wire()))
                    }
                    Event::NeedMore => (Input::NeedMore, None),
                    // Body events never reach the reactor: a chunked body
                    // is read by the worker its request went to.
                    _ => (Input::Closed, None),
                },
            };
            match self.dispatch.step(input) {
                Action::Answer => {
                    // Best-effort nonblocking write: inline answers are
                    // small and virtually always fit the socket buffer.
                    // The core's fate rule closes after a failed one.
                    let keep_alive = conn.core.keep_alive(self.dispatch.draining());
                    let bytes = wire.map_or_else(Vec::new, |wire| wire.to_bytes(keep_alive));
                    if (&conn.stream).write_all(&bytes).is_err() {
                        conn.core.abort();
                    }
                    conn.core.written(Instant::now());
                }
                Action::Serve => {}
                Action::Park => return self.park(conn, false),
                Action::Shed(reason) => return self.shed(conn, reason, false),
                Action::Linger => return self.close_after_response(conn, false),
                Action::Queue | Action::Drop => return,
            }
        }
    }

    /// Answers 503 + `Retry-After` and closes, so the client re-learns
    /// admission state on reconnect instead of livelocking.
    fn shed(&mut self, mut conn: Connection, reason: &str, add: bool) {
        striped_counter!("server_admission_rejected_total").inc();
        let wire = Response::error(503, reason)
            .with_header("Retry-After", self.ctx.retry_after_secs.to_string())
            .into_wire();
        let _ = (&conn.stream).write_all(&wire.to_bytes(false));
        conn.core.written(Instant::now());
        self.close_after_response(conn, add);
    }

    /// Arms the connection for one read-readiness event (`add` for a new
    /// socket) and puts it in the slab; a failure is counted and drops it.
    fn park(&mut self, conn: Connection, add: bool) {
        let events = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLONESHOT;
        let fd = conn.stream.as_raw_fd();
        if sys::epoll_arm(self.epfd.as_raw_fd(), fd, conn.token, events, add).is_ok() {
            self.slab.insert(conn.token, conn);
        } else {
            registry().counter("server_reactor_errors_total").inc();
            self.drop_conn(conn);
        }
    }

    /// Drops a connection, parked while its core is open, else lingering.
    fn drop_conn(&mut self, conn: Connection) {
        let lingering = conn.core.is_closed();
        self.dispatch.step(Input::Gone { lingering });
    }

    /// The one way an answered connection closes: FIN behind the
    /// response, then the linger (see the module docs).
    fn close_after_response(&mut self, mut conn: Connection, add: bool) {
        conn.core.abort();
        conn.out = Vec::new();
        if conn.stream.shutdown(Shutdown::Write).is_err()
            || conn.stream.set_nonblocking(true).is_err()
        {
            return self.drop_conn(conn); // the peer is already gone
        }
        self.park(conn, add);
    }

    /// Settles every connection whose core's deadline has passed: a
    /// request cut off by its deadline is the core's 408 and a close; an
    /// idle connection or a finished linger is dropped.
    fn sweep(&mut self) {
        let now = Instant::now();
        let expired: Vec<_> = self
            .slab
            .extract_if(|_, conn| conn.core.expired(now))
            .collect();
        for (_, mut conn) in expired {
            if !conn.core.is_closed() {
                registry().counter("server_idle_closed_total").inc();
            }
            if conn.core.pending() {
                conn.core.tick(now);
                self.serve(conn, None);
            } else {
                self.drop_conn(conn);
            }
        }
    }
}

/// The worker loop: pop parsed jobs, process the request (and any
/// pipelined successors), write, give the connection back.
pub(crate) fn reactor_worker(
    queue: &Queue<Job>,
    handle: &ReactorHandle,
    ctx: &RouteContext,
    batch: usize,
    stop: &AtomicBool,
) {
    while let Some((conn, request)) = queue.pop() {
        let token = conn.token;
        // Isolation belt-and-braces: `routes::handle` already catches
        // handler panics; this outer catch covers the protocol layer
        // so no panic whatsoever can kill a worker. A panic there loses
        // the connection; its token goes back instead, so the reactor's
        // in-flight count stays exact and the drain ends.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::pool::work_requests(conn, request, ctx, batch, stop)
        }));
        if result.is_err() {
            registry().counter("server_worker_panics_total").inc();
        }
        handle.give_back(result.map_err(|_| token));
    }
}
