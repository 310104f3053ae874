//! The sans-IO HTTP/1.1 connection core. A [`Core`] takes the bytes a
//! shell read, the peer's end of stream and, per response, whether the
//! server is stopping; it hands back one [`Event`] at a time and the one
//! keep-alive rule every response uses ([`Core::keep_alive`]). It owns
//! the input buffer, the request budget, the chunked-body decoder with
//! its decoded-size cap, and the connection's one clock: each input
//! comes with the time the shell read, and [`Core::deadline`] decides
//! idle expiry, a request's total deadline and its 408, and the end of
//! a linger. The reactor, the worker loop and the upload path are I/O
//! shells around it: read, feed, write, linger. `tests/conn_split.rs`
//! checks it at every split point of its input and on a virtual clock.

use crate::http::{parse_request, BadRequest, Parse, Request, MAX_BODY_BYTES, MAX_HEADER_BYTES};
use crate::trace::{next_trace_id, us32};
use std::time::{Duration, Instant};

/// Largest accepted decoded chunked body: 256 MiB ≈ 10.7M LKTR events.
/// A chunk whose declared size would pass it is refused with 413 at its
/// size line, before any of its data is read.
pub const MAX_DECODED_BODY: u64 = 256 * 1024 * 1024;

/// Input buffered before the core stops asking for more: one maximal
/// request and a byte, which always parses to a request or a 4xx.
const MAX_BUFFER: usize = MAX_HEADER_BYTES + MAX_BODY_BYTES + 1;

/// How long a closed connection may keep discarding input before it
/// is dropped regardless (a peer that never closes).
pub const LINGER: Duration = Duration::from_secs(1);

/// Longest accepted chunk-size or trailer line (a size line is ~16
/// hex digits plus extensions; anything longer is an attack or a bug).
const MAX_CHUNK_LINE: usize = 1024;

/// What [`Core::next_event`] found in the buffered input.
#[derive(Debug)]
pub enum Event<'a> {
    /// A complete request; a chunked one's body follows as
    /// [`Event::Body`] events, ended by [`Event::BodyEnd`].
    Request(Request),
    /// A malformed request or chunked body: answer this status (with
    /// the fate [`Core::keep_alive`] gives, close if framing is lost).
    Bad(BadRequest),
    /// Deframed data of the current chunked body.
    Body(&'a [u8]),
    /// The current chunked body is complete.
    BodyEnd,
    /// Nothing more can be decided from the buffered bytes: feed more.
    NeedMore,
    /// Nothing further will be served: the fate is close (a response
    /// closed, or the peer half-closed with nothing complete buffered).
    /// The shell ends the connection once its output is written.
    Closed,
}

/// One connection's protocol state (see the module docs).
#[derive(Debug)]
pub struct Core {
    /// Bytes fed but not yet consumed.
    buf: Vec<u8>,
    /// A parse made early by the fate rule, delivered by the next
    /// [`Core::next_event`] so no request is parsed twice.
    ahead: Option<Parse>,
    /// Requests delivered on this connection.
    served: u32,
    /// Per-connection request budget (0 = unlimited).
    max_requests: u32,
    /// The peer closed its write half; buffered requests are served.
    eof: bool,
    /// The connection closes after the response being decided.
    close: bool,
    /// Decoder of the chunked body being read, if any.
    body: Option<ChunkedDecoder>,
    /// Scratch for one [`Event::Body`]'s deframed bytes.
    decoded: Vec<u8>,
    /// Longest silence allowed while open.
    idle: Duration,
    /// Last progress: bytes fed or a response written.
    progress: Instant,
    /// The total deadline of the request in progress: its start (its
    /// first byte, or the previous answer's write if later) + two idle
    /// windows, + one more per [`MAX_HEADER_BYTES`] fed since.
    due: Instant,
    /// The latest time an input came with.
    now: Instant,
}

impl Core {
    /// A connection accepted at `now` with a budget of `max_requests`
    /// requests (0 = unlimited; the response that spends it announces
    /// the close) and an `idle` timeout.
    pub fn new(max_requests: u32, idle: Duration, now: Instant) -> Self {
        Core {
            buf: Vec::new(),
            ahead: None,
            served: 0,
            max_requests,
            eof: false,
            close: false,
            body: None,
            decoded: Vec::new(),
            idle,
            progress: now,
            due: now + idle * 2,
            now,
        }
    }

    /// Appends bytes read from the peer at `now`; any byte is progress.
    /// Once the fate is close and no body is left to read, nothing more
    /// is served: bytes are discarded (a lingering connection's input).
    pub fn feed(&mut self, bytes: &[u8], now: Instant) {
        self.now = now;
        if !bytes.is_empty() && (!self.close || self.body.is_some()) {
            if !self.pending() {
                self.due = now + self.idle * 2;
            }
            let fed = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
            self.due += (self.idle / MAX_HEADER_BYTES as u32).saturating_mul(fed);
            self.progress = now;
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Records the peer's end of stream (a read of 0 bytes or an error).
    pub fn feed_eof(&mut self, now: Instant) {
        self.now = now;
        self.eof = true;
    }

    /// A response (or a batch of them) was written at `now`: progress,
    /// the start of the next request's clock, and the time a closing
    /// answer starts the linger from.
    pub fn written(&mut self, now: Instant) {
        self.now = now;
        self.progress = now;
        self.due = now + self.idle * 2;
    }

    /// Time passed with no input (a read that timed out). A chunked
    /// body whose deadline it reaches is answered 408.
    pub fn tick(&mut self, now: Instant) {
        self.now = now;
    }

    /// When the connection's fate falls due. An open connection expires
    /// at its last progress + the idle timeout, a request in progress no
    /// later than its total deadline (a client must average 16 KiB per
    /// idle window after two windows of grace), and a closed connection's
    /// linger at its close + [`LINGER`].
    pub fn deadline(&self) -> Instant {
        match (self.close, self.pending()) {
            (true, _) => self.progress + LINGER,
            (false, true) => self.due.min(self.progress + self.idle),
            (false, false) => self.progress + self.idle,
        }
    }

    /// Whether a request is in progress: input buffered, or a body to read.
    pub fn pending(&self) -> bool {
        !self.buf.is_empty() || self.body.is_some()
    }

    /// Whether the deadline has passed at `now`: the shell drops the
    /// connection (an idle expiry, or the end of a linger).
    pub fn expired(&self, now: Instant) -> bool {
        now >= self.deadline()
    }

    /// The idle timeout, which also bounds each read of a chunked body
    /// and each batch write in total.
    pub fn idle_timeout(&self) -> Duration {
        self.idle
    }

    /// Whether the connection's fate is close (it lingers, if at all).
    pub fn is_closed(&self) -> bool {
        self.close
    }

    /// Whether the shell should read more: false once a whole maximal
    /// request is buffered, which [`Core::next_event`] always resolves.
    pub fn wants_input(&self) -> bool {
        self.buf.len() < MAX_BUFFER
    }

    /// The shell closes the connection whatever its requests asked (a
    /// failed write, a shed, a drain). Buffered input is dropped.
    pub fn abort(&mut self) {
        self.close = true;
        self.body = None;
        self.ahead = None;
        self.buf = Vec::new();
        self.decoded = Vec::new();
    }

    /// The next event from the buffered input.
    pub fn next_event(&mut self) -> Event<'_> {
        if let Some(decoder) = &mut self.body {
            self.decoded.clear();
            let used = decoder.feed(&self.buf, &mut self.decoded);
            self.buf.drain(..used);
            // Data deframed before an error is delivered first, so the
            // events do not depend on where the input was split.
            if !self.decoded.is_empty() {
                return Event::Body(&self.decoded);
            }
            if let Some(bad) = decoder.error.take() {
                // Chunk framing is lost: the request boundary is
                // unknowable, so the connection cannot continue.
                self.body = None;
                self.close = true;
                return Event::Bad(bad);
            }
            if decoder.is_done() {
                self.body = None;
                return Event::BodyEnd;
            }
            if self.eof {
                self.body = None;
                self.close = true;
                return Event::Bad(BadRequest::new(400, "connection closed mid-chunked-body"));
            }
            if self.expired(self.now) {
                self.body = None;
                self.close = true;
                return Event::Bad(BadRequest::new(408, "timed out reading chunked body"));
            }
            return Event::NeedMore;
        }
        if self.close {
            return Event::Closed;
        }
        let parse_started = Instant::now();
        let parsed = match self.ahead.take() {
            Some(parsed) => parsed,
            None => parse_request(&self.buf),
        };
        match parsed {
            Parse::Complete { mut request, used } => {
                self.buf.drain(..used);
                self.served += 1;
                if request.close || (self.max_requests != 0 && self.served >= self.max_requests) {
                    self.close = true;
                }
                if request.chunked {
                    self.body = Some(ChunkedDecoder::new());
                }
                if request.trace.id == 0 {
                    request.trace.id = next_trace_id();
                }
                request.trace.req_bytes = u32::try_from(used).unwrap_or(u32::MAX);
                request.trace.parse_us = us32(parse_started.elapsed());
                request.trace.parsed_at = Instant::now();
                Event::Request(request)
            }
            Parse::Bad { bad, used } => {
                match used {
                    Some(used) => {
                        self.buf.drain(..used);
                    }
                    // Framing is lost (an oversized or undeframable
                    // request): the connection closes after the answer.
                    None => self.close = true,
                }
                Event::Bad(bad)
            }
            // A half-closed peer cannot complete a partial request.
            Parse::Partial if self.eof => {
                self.close = true;
                Event::Closed
            }
            Parse::Partial if self.pending() && self.expired(self.now) => {
                self.close = true;
                Event::Bad(BadRequest::new(408, "timed out reading request"))
            }
            Parse::Partial => Event::NeedMore,
        }
    }

    /// The fate of the response being written now, and the one rule
    /// every response uses: keep-alive unless the client asked to
    /// close, the budget is spent, framing was lost, a chunked body was
    /// left unread, the server is `stopping`, or the peer half-closed
    /// with no further request buffered. A close is final: from then on
    /// the core yields [`Event::Closed`] (an unread body included).
    pub fn keep_alive(&mut self, stopping: bool) -> bool {
        let keep =
            !self.close && !stopping && self.body.is_none() && (!self.eof || self.request_ahead());
        if !keep {
            self.close = true;
            self.body = None;
        }
        keep
    }

    /// Whether a complete (or decidedly bad) request is buffered. The
    /// parse is kept for the next [`Core::next_event`].
    fn request_ahead(&mut self) -> bool {
        if self.ahead.is_none() {
            match parse_request(&self.buf) {
                Parse::Partial => return false,
                parsed => self.ahead = Some(parsed),
            }
        }
        true
    }
}

/// Progress of a [`ChunkedDecoder`] feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkState {
    /// Reading the hex size line of the next chunk.
    Size,
    /// Inside a chunk's data, this many bytes still to come.
    Data(u64),
    /// Expecting the `\r\n` (or bare `\n`) terminating a chunk's data.
    DataEnd,
    /// Saw the `\r` of the data terminator; `\n` must follow.
    DataLf,
    /// After the zero-size chunk: trailer lines until a blank line.
    Trailer,
    /// The terminating blank line arrived; the body is complete.
    Done,
}

/// An incremental `Transfer-Encoding: chunked` body decoder. Its state
/// is a few words plus one partial line, whatever the body's size.
#[derive(Debug)]
struct ChunkedDecoder {
    state: ChunkState,
    /// Partial size/trailer line straddling feeds.
    line: Vec<u8>,
    /// Data bytes declared so far, counted at each size line.
    declared: u64,
    /// The framing error that stopped decoding.
    error: Option<BadRequest>,
}

impl ChunkedDecoder {
    /// A decoder positioned before the first chunk-size line.
    fn new() -> Self {
        ChunkedDecoder {
            state: ChunkState::Size,
            line: Vec::new(),
            declared: 0,
            error: None,
        }
    }

    /// Whether the terminating zero-size chunk (and its trailer) has
    /// been consumed.
    fn is_done(&self) -> bool {
        self.state == ChunkState::Done
    }

    /// Deframes wire bytes from the front of `buf` into `out`, and
    /// returns how many it consumed: all unless the body ended or
    /// failed. Malformed framing (400) or a chunk past
    /// [`MAX_DECODED_BODY`] (413) stops decoding and is kept in `error`.
    fn feed(&mut self, buf: &[u8], out: &mut Vec<u8>) -> usize {
        let mut i = 0;
        while i < buf.len() && !self.is_done() && self.error.is_none() {
            if let Err(bad) = self.step(buf, &mut i, out) {
                self.error = Some(bad);
            }
        }
        i
    }

    /// One state transition over the bytes at `buf[*i..]` (non-empty).
    fn step(&mut self, buf: &[u8], i: &mut usize, out: &mut Vec<u8>) -> Result<(), BadRequest> {
        match self.state {
            ChunkState::Size => {
                if let Some(line) = self.take_line(buf, i)? {
                    let size = parse_chunk_size(&line)?;
                    self.declared = self.declared.saturating_add(size);
                    if self.declared > MAX_DECODED_BODY {
                        return Err(BadRequest::new(
                            413,
                            format!("chunked body capped at {MAX_DECODED_BODY} decoded bytes"),
                        ));
                    }
                    self.state = if size == 0 {
                        ChunkState::Trailer
                    } else {
                        ChunkState::Data(size)
                    };
                }
            }
            ChunkState::Data(remaining) => {
                let take = usize::try_from(remaining)
                    .unwrap_or(usize::MAX)
                    .min(buf.len() - *i);
                out.extend_from_slice(&buf[*i..*i + take]);
                *i += take;
                self.state = match remaining - take as u64 {
                    0 => ChunkState::DataEnd,
                    left => ChunkState::Data(left),
                };
            }
            ChunkState::DataEnd => {
                match buf[*i] {
                    b'\r' => self.state = ChunkState::DataLf,
                    b'\n' => self.state = ChunkState::Size,
                    _ => return Err(BadRequest::new(400, "chunk data not terminated by CRLF")),
                }
                *i += 1;
            }
            ChunkState::DataLf => {
                if buf[*i] != b'\n' {
                    return Err(BadRequest::new(400, "chunk data not terminated by CRLF"));
                }
                *i += 1;
                self.state = ChunkState::Size;
            }
            ChunkState::Trailer => {
                // Non-empty trailer fields are consumed and ignored
                // (this server solicits none).
                if self.take_line(buf, i)?.is_some_and(|line| line.is_empty()) {
                    self.state = ChunkState::Done;
                }
            }
            ChunkState::Done => {}
        }
        Ok(())
    }

    /// Accumulates bytes up to the next `\n`; `Some(line)` (CR
    /// stripped) once complete, `None` when the buffer ran out first.
    fn take_line(&mut self, buf: &[u8], i: &mut usize) -> Result<Option<Vec<u8>>, BadRequest> {
        let rest = &buf[*i..];
        let newline = rest.iter().position(|&b| b == b'\n');
        let end = newline.unwrap_or(rest.len());
        self.line.extend_from_slice(&rest[..end]);
        *i += newline.map_or(end, |nl| nl + 1);
        if newline.is_some() && self.line.last() == Some(&b'\r') {
            self.line.pop();
        }
        // An unfinished line may still end in the CR its newline strips.
        let limit = MAX_CHUNK_LINE + usize::from(newline.is_none());
        if self.line.len() > limit {
            return Err(BadRequest::new(400, "chunk framing line too long"));
        }
        Ok(newline.map(|_| std::mem::take(&mut self.line)))
    }
}

/// Parses a chunk-size line: hex digits, optional `;extension` tail.
fn parse_chunk_size(line: &[u8]) -> Result<u64, BadRequest> {
    let text = std::str::from_utf8(line)
        .map_err(|_| BadRequest::new(400, "chunk size line is not UTF-8"))?;
    let digits = text.split(';').next().unwrap_or("").trim();
    if digits.is_empty() || digits.len() > 16 {
        return Err(BadRequest::new(400, "bad chunk size"));
    }
    u64::from_str_radix(digits, 16).map_err(|_| BadRequest::new(400, "bad chunk size"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_decoder_stops_at_the_body_end() {
        let mut decoder = ChunkedDecoder::new();
        let mut data = Vec::new();
        let used = decoder.feed(b"5\r\nhello\r\n0\r\n\r\nGET /", &mut data);
        assert!(decoder.is_done());
        assert_eq!(data, b"hello");
        assert_eq!(used, 15, "\"GET /\" belongs to the next request");
    }

    #[test]
    fn chunked_decoder_handles_extensions_trailers_and_splits() {
        let wire = b"4;ext=1\r\nabcd\r\nA\r\n0123456789\r\n0\r\nTrailer: x\r\n\r\ntail";
        // Whole-buffer feed.
        let mut decoder = ChunkedDecoder::new();
        let mut out = Vec::new();
        let used = decoder.feed(wire, &mut out);
        assert!(decoder.is_done());
        assert_eq!(out, b"abcd0123456789");
        assert_eq!(&wire[used..], b"tail");
        assert_eq!(decoder.declared, 14);
        // Byte-at-a-time feed reaches the same state.
        let mut decoder = ChunkedDecoder::new();
        let mut out = Vec::new();
        let mut consumed = 0;
        while !decoder.is_done() {
            consumed += decoder.feed(&wire[consumed..consumed + 1], &mut out);
        }
        assert_eq!(out, b"abcd0123456789");
        assert_eq!(consumed, used);
    }

    #[test]
    fn chunked_decoder_tolerates_bare_lf() {
        let mut decoder = ChunkedDecoder::new();
        let mut out = Vec::new();
        let used = decoder.feed(b"3\nxyz\n0\n\n", &mut out);
        assert!(decoder.is_done());
        assert_eq!(out, b"xyz");
        assert_eq!(used, 9);
    }

    #[test]
    fn chunked_decoder_rejects_malformed_framing() {
        let long = vec![b'1'; MAX_CHUNK_LINE + 2];
        for wire in [b"zz\r\n".as_slice(), b"2\r\nabX", &long] {
            let mut decoder = ChunkedDecoder::new();
            decoder.feed(wire, &mut Vec::new());
            let status = decoder.error.map(|bad| bad.status);
            assert_eq!(status, Some(400), "{:?}", String::from_utf8_lossy(wire));
        }
    }
}
