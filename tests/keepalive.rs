//! Keep-alive protocol edge cases over real sockets: pipelined
//! bursts, half-closed peers, idle timeouts, oversized requests,
//! per-connection request budgets, and panic isolation on a
//! persistent connection.
//!
//! These run against the server's one transport, the epoll reactor,
//! including the property it exists for: idle keep-alive connections
//! cost a slab entry, not a worker.

use cache_leakage_limits::faults::{set_plane, Plane};
use cache_leakage_limits::server::http::Client;
use cache_leakage_limits::server::{Server, ServerConfig};
use cache_leakage_limits::workloads::Scale;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

fn start(config: ServerConfig) -> Server {
    Server::start(ServerConfig {
        default_scale: Scale::Test,
        ..config
    })
    .expect("server starts")
}

/// Serializes tests that arm the process-global fault plane.
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

/// A pipelined burst of 8 requests on one connection comes back as 8
/// in-order responses on that same connection.
#[test]
fn pipelined_burst_answers_in_order_on_one_connection() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect");

    let targets: Vec<&str> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                "/healthz"
            } else {
                "/v1/table/2?scale=test"
            }
        })
        .collect();
    client.send_pipelined(&targets).expect("one batched write");

    let mut bodies = Vec::new();
    for i in 0..8 {
        let response = client
            .recv()
            .unwrap_or_else(|e| panic!("response {i}: {e}"));
        assert_eq!(response.status, 200, "response {i}");
        assert_ne!(
            response.header("connection"),
            Some("close"),
            "mid-burst responses keep the connection alive"
        );
        bodies.push(response.text());
    }
    // In-order: even slots are healthz JSON, odd slots are Table 2 —
    // and each kind is byte-identical across the burst.
    for (i, body) in bodies.iter().enumerate() {
        if i % 2 == 0 {
            assert!(body.contains("\"status\""), "slot {i} is healthz: {body}");
        } else {
            assert_eq!(body, &bodies[1], "slot {i} is the same Table 2 bytes");
        }
    }
    server.shutdown();
}

/// A peer that half-closes (FIN on the write side) after sending a
/// complete request still receives its response; the server treats
/// EOF-with-a-buffered-request as "answer, then close".
#[test]
fn half_closed_peer_still_gets_its_response() {
    let server = start(ServerConfig::default());
    let mut stream = TcpStream::connect_timeout(&server.addr(), CLIENT_TIMEOUT).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();

    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send request");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
    assert!(
        text.to_ascii_lowercase().contains("connection: close"),
        "response to a half-closed peer must announce close: {text}"
    );
    server.shutdown();
}

/// An idle keep-alive connection is closed by the server once the
/// idle timeout elapses — without disturbing a busy one.
#[test]
fn idle_connection_is_closed_after_timeout() {
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut idle = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect idle");
    // Prove the connection works, then go quiet.
    let first = idle
        .roundtrip("GET", "/healthz", None)
        .expect("first request");
    assert_eq!(first.status, 200);

    let mut probe = [0u8; 1];
    idle.stream()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut stream = idle.stream().try_clone().expect("clone for read");
    match stream.read(&mut probe) {
        Ok(0) => {} // clean FIN from the server's idle sweep
        Ok(n) => panic!("unexpected {n} bytes on an idle connection"),
        Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
            panic!("server never closed the idle connection")
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
    server.shutdown();
}

/// A client that trickles a request head one byte per 140 ms is never
/// silent for the 300 ms idle timeout, but falls behind its request's
/// total deadline: it gets 408 and `Connection: close` within 2 s
/// instead of holding the connection for as long as it trickles.
#[test]
fn trickled_head_gets_408() {
    let server = start(ServerConfig {
        idle_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let head = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\nX-Pad: {}\r\n\r\n",
        "p".repeat(40)
    );
    let mut stream = TcpStream::connect_timeout(&server.addr(), CLIENT_TIMEOUT).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(140)))
        .unwrap();
    let started = Instant::now();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1024];
    for byte in head.bytes() {
        if stream.write_all(&[byte]).is_err() {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                break;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream
        .read_to_end(&mut raw)
        .expect("the answer ends in a clean close");
    let waited = started.elapsed();
    let text = String::from_utf8_lossy(&raw).to_ascii_lowercase();
    assert!(text.starts_with("http/1.1 408"), "got: {text}");
    assert!(text.contains("connection: close"), "got: {text}");
    assert!(waited < Duration::from_secs(2), "answered after {waited:?}");
    server.shutdown();
}

/// Idle keep-alive connections hold no worker: with two workers and
/// eight parked connections, a ninth is answered at once instead of
/// waiting out the idle timeout of a connection that pins a worker.
#[test]
fn parked_idle_connections_do_not_hold_workers() {
    let server = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let idle_timeout = ServerConfig::default().idle_timeout;
    let parked: Vec<Client> = (0..8)
        .map(|i| {
            let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect");
            let response = client
                .roundtrip("GET", "/healthz", None)
                .unwrap_or_else(|e| panic!("parked connection {i}: {e}"));
            assert_eq!(response.status, 200);
            assert_ne!(response.header("connection"), Some("close"));
            client
        })
        .collect();

    let started = Instant::now();
    let mut ninth = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect ninth");
    let response = ninth
        .roundtrip("GET", "/healthz", None)
        .expect("ninth request");
    let waited = started.elapsed();
    assert_eq!(response.status, 200);
    assert!(
        waited < Duration::from_secs(1),
        "ninth connection waited {waited:?} behind 8 idle ones (idle timeout {idle_timeout:?})"
    );
    drop(parked);
    server.shutdown();
}

/// Clients that pipeline requests and then stop reading, or read too
/// slowly, cannot pin the workers: each worker's write of a batch
/// gives up once the idle timeout has passed in total, the stuck
/// connections are closed, and a fresh client is answered within that
/// timeout. One stuck client never reads; the other takes 64 KiB every
/// 100 ms, so each `write` call makes progress within the timeout
/// while the batch takes seconds to go out.
#[test]
fn clients_that_never_read_do_not_pin_workers() {
    const WORKERS: usize = 2;
    // About 30 MiB of Fig. 8 answers per client: far more than the
    // socket buffers between server and client can hold.
    const REQUESTS: usize = 16_384;
    const TRICKLE: usize = 64 * 1024;
    const HELD_TOO_LONG: Duration = Duration::from_secs(25);
    let idle_timeout = Duration::from_millis(500);
    let server = start(ServerConfig {
        workers: WORKERS,
        idle_timeout,
        max_requests_per_connection: u32::MAX,
        // Batches of megabytes, so one write outlasts the timeout at
        // the trickle reader's pace.
        pipeline_batch: 4096,
        ..ServerConfig::default()
    });
    let burst = "GET /v1/figure/8 HTTP/1.1\r\nHost: t\r\n\r\n".repeat(REQUESTS);
    let stuck: Vec<(TcpStream, std::thread::JoinHandle<()>)> = (0..WORKERS)
        .map(|_| {
            let stream =
                TcpStream::connect_timeout(&server.addr(), CLIENT_TIMEOUT).expect("connect");
            let mut writer = stream.try_clone().expect("clone for the writer");
            let burst = burst.clone();
            // A write error is no failure: the server closes on us.
            let sender = std::thread::spawn(move || {
                let _ = writer.write_all(burst.as_bytes());
            });
            (stream, sender)
        })
        .collect();
    let mut trickle = stuck[1].0.try_clone().expect("clone for the reader");
    let trickler = std::thread::spawn(move || {
        trickle.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
        let mut sink = vec![0u8; TRICKLE];
        let started = Instant::now();
        let mut taken = 0;
        loop {
            match trickle.read(&mut sink) {
                Ok(0) | Err(_) => return (started.elapsed(), taken),
                Ok(n) => taken += n,
            }
            if started.elapsed() > HELD_TOO_LONG {
                return (started.elapsed(), taken);
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    // Let the answers fill the buffers and block both workers.
    std::thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    let mut fresh = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect fresh");
    let response = fresh
        .roundtrip("GET", "/healthz", None)
        .expect("fresh request");
    let waited = started.elapsed();
    assert_eq!(response.status, 200);
    let slack = Duration::from_secs(2);
    assert!(
        waited < idle_timeout + slack,
        "fresh client waited {waited:?} behind {WORKERS} clients that stopped reading"
    );

    // Draining all answers at the trickle pace would take ~50 s.
    let (trickled_for, taken) = trickler.join().expect("trickle reader");
    assert!(
        trickled_for < HELD_TOO_LONG,
        "the trickle-reading connection was held open for {trickled_for:?} ({taken} bytes)"
    );
    // Each stuck connection ends once what the server sent is drained.
    for (i, (mut stream, sender)) in stuck.into_iter().enumerate() {
        stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
        let mut sink = vec![0u8; 1 << 16];
        loop {
            match stream.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    panic!("stuck connection {i} was never closed")
                }
                Err(_) => break, // a reset closes it too
            }
        }
        sender.join().expect("writer thread");
    }
    server.shutdown();
}

/// An oversized request (header block beyond the 16 KiB cap) is
/// answered 431 and that connection closes — but the server (and new
/// connections) keep working.
#[test]
fn oversized_request_gets_431_and_server_survives() {
    let server = start(ServerConfig::default());
    let mut stream = TcpStream::connect_timeout(&server.addr(), CLIENT_TIMEOUT).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();

    // 20 KiB of header bytes with no terminator: parseable prefix,
    // oversized before a complete head ever arrives.
    let mut junk = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    junk.resize(20 * 1024, b'a');
    // The server may answer 431 before we finish writing; a send
    // error here is acceptable, the response check below is what
    // matters.
    let _ = stream.write_all(&junk);

    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 431"),
        "oversized request answers 431: {text}"
    );

    // The connection loop survived the bad client: a fresh connection
    // serves normally.
    let mut next = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("reconnect");
    let response = next
        .roundtrip("GET", "/healthz", None)
        .expect("healthy request");
    assert_eq!(response.status, 200);
    server.shutdown();
}

/// A close-marked connection whose answers are still queued in the
/// server's send buffer, with request bytes still arriving behind
/// them: every answer is delivered, then a clean end-of-stream.
/// Closing over the unread bytes at once would reset the connection
/// and throw the queued answers away.
#[test]
fn queued_answers_survive_a_close_over_unread_input() {
    let server = start(ServerConfig::default());
    let mut stream = TcpStream::connect_timeout(&server.addr(), CLIENT_TIMEOUT).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();

    // ~1.5 MB of answers; the last request closes the connection and
    // 4 MiB of bytes the server will never parse follow it.
    const REQUESTS: usize = 800;
    let mut request = Vec::new();
    for i in 0..REQUESTS {
        let fate = if i + 1 == REQUESTS {
            "close"
        } else {
            "keep-alive"
        };
        request.extend_from_slice(
            format!("GET /v1/figure/8 HTTP/1.1\r\nHost: t\r\nConnection: {fate}\r\n\r\n")
                .as_bytes(),
        );
    }
    request.resize(request.len() + (4 << 20), b'x');
    let mut writer = stream.try_clone().expect("clone for the writer");
    // A write error is no failure: the server may stop reading.
    let sender = std::thread::spawn(move || {
        let _ = writer.write_all(&request);
    });
    // Read late, so the answers pile up in the server's send buffer.
    std::thread::sleep(Duration::from_millis(300));
    let mut raw = Vec::new();
    let read = stream.read_to_end(&mut raw);
    sender.join().expect("writer thread");
    let text = String::from_utf8_lossy(&raw);
    let answered = text.matches("HTTP/1.1 200").count();
    assert!(read.is_ok(), "{read:?} after {answered} answers");
    assert_eq!(answered, REQUESTS, "every queued answer is delivered");
    server.shutdown();
}

/// A recoverable bad request (unsupported method) gets its 4xx and the
/// same connection then serves a good request.
#[test]
fn recoverable_bad_request_does_not_kill_the_connection() {
    let server = start(ServerConfig::default());
    let mut stream = TcpStream::connect_timeout(&server.addr(), CLIENT_TIMEOUT).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();

    stream
        .write_all(
            b"PATCH /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        .expect("send bad-then-good");

    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut statuses = Vec::new();
    while statuses.len() < 2 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&chunk[..n]);
                let text = String::from_utf8_lossy(&raw);
                statuses = text
                    .match_indices("HTTP/1.1 ")
                    .map(|(i, _)| text[i + 9..i + 12].to_string())
                    .collect();
            }
            Err(e) => panic!("read: {e}"),
        }
    }
    assert_eq!(
        statuses.first().map(String::as_str),
        Some("405"),
        "unsupported method answers 405"
    );
    assert_eq!(
        statuses.get(1).map(String::as_str),
        Some("200"),
        "pipelined good request after a recoverable 4xx still answers"
    );
    server.shutdown();
}

/// The per-connection request budget: the budget-exhausting response
/// carries `Connection: close` and the server then closes.
#[test]
fn request_budget_closes_with_announcement() {
    let server = start(ServerConfig {
        max_requests_per_connection: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect");

    let first = client
        .roundtrip("GET", "/healthz", None)
        .expect("request 1");
    assert_eq!(first.status, 200);
    assert_ne!(first.header("connection"), Some("close"));

    let second = client
        .roundtrip("GET", "/healthz", None)
        .expect("request 2");
    assert_eq!(second.status, 200);
    assert_eq!(
        second.header("connection"),
        Some("close"),
        "budget-exhausting response announces the close"
    );

    let mut probe = [0u8; 1];
    let mut stream = client.stream().try_clone().expect("clone");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0, "server closed");
    server.shutdown();
}

/// `Connection: close` from the client is honored: one response, then
/// FIN.
#[test]
fn client_requested_close_is_honored() {
    let server = start(ServerConfig::default());
    let mut stream = TcpStream::connect_timeout(&server.addr(), CLIENT_TIMEOUT).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send");

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("server must FIN");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.to_ascii_lowercase().contains("connection: close"));
    server.shutdown();
}

/// A handler panic on a keep-alive connection costs that request a
/// 500; the *same connection* keeps serving afterwards.
#[test]
fn handler_panic_leaves_the_connection_serving() {
    let _faults = FaultScope::new("server/handler/figure=panic#1");
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.addr(), CLIENT_TIMEOUT).expect("connect");

    let poisoned = client
        .roundtrip("GET", "/v1/figure/7?scale=test", None)
        .expect("a 500, not a dead connection");
    assert_eq!(poisoned.status, 500);
    assert_ne!(
        poisoned.header("connection"),
        Some("close"),
        "panic is not a protocol failure; the connection survives"
    );

    let next = client
        .roundtrip("GET", "/healthz", None)
        .expect("same connection serves");
    assert_eq!(next.status, 200);
    server.shutdown();
}
