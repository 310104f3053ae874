//! Per-connection state handed between the reactor and the workers:
//! the input buffer requests are parsed out of, the
//! output buffer pipelined responses are batched into, and the
//! keep-alive bookkeeping (requests served, close fate, idle clock).

use crate::http::{parse_request, BadRequest, Parse, Request};
use crate::trace::{next_trace_id, us32, PendingRecord};
use std::net::TcpStream;
use std::time::Instant;

/// What [`Connection::take_request`] produced.
pub enum Taken {
    /// A complete request, ready for a handler.
    Request(Request),
    /// A malformed request; answer it. `recoverable: false` means the
    /// connection's framing is lost and it must close after the
    /// error.
    Bad {
        /// Status and reason to answer.
        bad: BadRequest,
        /// Whether the connection can keep serving afterwards.
        recoverable: bool,
    },
    /// No complete request buffered; read more bytes.
    NeedMore,
}

/// One client connection moving between the reactor (readiness
/// reads) and the worker pool (parse → handle → write).
pub struct Connection {
    /// The socket, nonblocking; workers switch it to blocking mode
    /// for the duration of a write or a streamed upload.
    pub stream: TcpStream,
    /// Bytes read but not yet parsed (may hold several pipelined
    /// requests).
    pub buf: Vec<u8>,
    /// Serialized responses awaiting a write.
    pub out: Vec<u8>,
    /// Requests answered on this connection.
    pub served: u32,
    /// Reactor slab token.
    pub token: u64,
    /// Last read/write activity, for idle-timeout sweeps.
    pub last_activity: Instant,
    /// Close after the pending output is flushed (client asked, the
    /// per-connection request budget ran out, the peer half-closed,
    /// or the server is draining).
    pub close: bool,
    /// The peer closed its write half; no further requests can
    /// arrive, but buffered ones are still served.
    pub eof: bool,
    /// Flight-recorder records for the batch being serialized,
    /// published after the batch's socket write so they carry the
    /// real write cost. Reused across batches (no per-request
    /// allocation).
    pub pending: Vec<PendingRecord>,
    /// Serialize duration of the previous response on this
    /// connection, reported in the next `Server-Timing` header.
    pub last_serialize_us: u32,
    /// Write duration of the previous flushed batch, likewise.
    pub last_write_us: u32,
}

impl Connection {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream, token: u64) -> Self {
        Connection {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            served: 0,
            token,
            last_activity: Instant::now(),
            close: false,
            eof: false,
            pending: Vec::new(),
            last_serialize_us: 0,
            last_write_us: 0,
        }
    }

    /// Parses the next request off the input buffer, consuming its
    /// bytes and enforcing the per-connection request budget
    /// (`max_requests`, 0 = unlimited): the budget-exhausting request
    /// is still served, with `Connection: close` on its response.
    pub fn take_request(&mut self, max_requests: u32) -> Taken {
        let parse_started = Instant::now();
        match parse_request(&self.buf) {
            Parse::Complete { mut request, used } => {
                self.buf.drain(..used);
                self.served += 1;
                if max_requests != 0 && self.served >= max_requests {
                    self.close = true;
                }
                if request.close {
                    self.close = true;
                }
                if request.trace.id == 0 {
                    request.trace.id = next_trace_id();
                }
                request.trace.req_bytes = u32::try_from(used).unwrap_or(u32::MAX);
                request.trace.parse_us = us32(parse_started.elapsed());
                request.trace.parsed_at = Instant::now();
                Taken::Request(request)
            }
            Parse::Bad { bad, used } => {
                let recoverable = match used {
                    Some(n) => {
                        self.buf.drain(..n);
                        true
                    }
                    None => {
                        self.close = true;
                        false
                    }
                };
                Taken::Bad { bad, recoverable }
            }
            Parse::Partial => {
                if self.eof {
                    // Half-closed peer with a dangling partial
                    // request: nothing more can complete it.
                    self.close = true;
                }
                Taken::NeedMore
            }
        }
    }

    /// Whether the input buffer already starts with a complete (or
    /// decidedly bad) request — i.e. whether a worker should keep
    /// going without returning to the reactor.
    pub fn has_buffered_request(&self) -> bool {
        !matches!(parse_request(&self.buf), Parse::Partial)
    }

    /// Whether the next response may advertise keep-alive: not when
    /// the connection is closing, the server is `stopping`, or the peer
    /// half-closed with no complete request left buffered.
    pub fn can_keep_alive(&self, stopping: bool) -> bool {
        !self.close && !stopping && (!self.eof || self.has_buffered_request())
    }
}
