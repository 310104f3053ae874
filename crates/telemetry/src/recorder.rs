//! Request flight recorder: a fixed-capacity, lock-free ring of
//! structured per-request records plus an always-retained
//! slow/error reservoir.
//!
//! The ring is a seqlock-per-slot design built entirely from atomics
//! (this crate forbids `unsafe`):
//!
//! * Writers claim a ticket with one `fetch_add` on the write cursor;
//!   the slot is `ticket % capacity`.
//! * A writer then claims the slot itself with one `compare_exchange`
//!   of the sequence word, from the even value it holds (`0`, or
//!   `2*t + 2` for the last committed ticket `t`) to the odd value
//!   `2*ticket + 1`. It claims only when that even value belongs to an
//!   older ticket; the eight data words are stored relaxed and the
//!   sequence is released as the even value `2*ticket + 2`.
//! * A writer that finds the slot odd (another writer, a full ring
//!   *lap* apart, is mid-write — e.g. preempted), already committed by
//!   a newer ticket, or changed under its exchange drops its ring
//!   write and counts it ([`FlightRecorder::dropped_total`]); the
//!   reservoir still sees the record. Claims therefore never overlap
//!   and the sequence word only grows.
//! * Readers compute the expected even sequence from the cursor, load
//!   it with acquire ordering, copy the data words, issue an acquire
//!   fence, and re-check the sequence. Only the claiming writer stores
//!   data words, and every claim moves the sequence past the value the
//!   reader expects, so any concurrent writer makes the two sequence
//!   reads disagree and the slot is skipped — a torn record is never
//!   surfaced, whatever the ring size or scheduling.
//!
//! The reservoir is off the hot path by construction: a record is
//! only pushed through its `Mutex` when it is an error (5xx, shed,
//! panic) or slower than the current top-K floor, which a relaxed
//! atomic gate decides without taking the lock.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Environment variable sizing the ring (`LEAKAGE_RECORDER_CAP`,
/// rounded up to a power of two; default [`DEFAULT_CAPACITY`]).
pub const RECORDER_CAP_ENV: &str = "LEAKAGE_RECORDER_CAP";

/// Default ring capacity when [`RECORDER_CAP_ENV`] is unset.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Slowest-requests kept by the reservoir (top-K by `total_us`).
pub const SLOW_TOP_K: usize = 16;

/// Most recent error records (5xx / shed / panic) kept by the
/// reservoir.
pub const ERROR_KEEP: usize = 64;

/// Record flag: the request was shed (admission queue or permit).
pub const FLAG_SHED: u8 = 1 << 0;
/// Record flag: the handler panicked (answered 500).
pub const FLAG_PANIC: u8 = 1 << 1;
/// Record flag: served from the response cache.
pub const FLAG_CACHE_HIT: u8 = 1 << 2;
/// Record flag: served from the pre-serialized artifact catalog.
pub const FLAG_CATALOG_HIT: u8 = 1 << 3;

/// One request's structured trace: identity, outcome, sizes, and the
/// per-stage latency attribution in microseconds. Stages are disjoint
/// wall-time intervals, so each is ≤ `total_us` and their sum is ≤
/// `total_us` (`permit_us` and `store_us` nest inside `handler_us`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestRecord {
    /// Trace id (from `X-Request-Id` or generated).
    pub trace_id: u64,
    /// Completion time, microseconds since the recorder started.
    pub end_us: u64,
    /// Route code (the server maps this to a route name).
    pub route: u8,
    /// Bit set of `FLAG_*` values.
    pub flags: u8,
    /// HTTP status answered.
    pub status: u16,
    /// Request bytes consumed off the socket.
    pub req_bytes: u32,
    /// Response bytes queued (head + body).
    pub resp_bytes: u32,
    /// Parse start → response flushed, microseconds.
    pub total_us: u32,
    /// HTTP parse time.
    pub parse_us: u32,
    /// Admission-queue wait (parse complete → worker pickup).
    pub queue_us: u32,
    /// Concurrency-permit wait inside the handler.
    pub permit_us: u32,
    /// Handler execution (contains `permit_us` and `store_us`).
    pub handler_us: u32,
    /// Profile-store / query compute inside the handler.
    pub store_us: u32,
    /// Response serialization into the connection buffer.
    pub serialize_us: u32,
    /// Socket write (shared by every response in a flushed batch).
    pub write_us: u32,
}

/// Number of packed `AtomicU64` data words per slot.
const WORDS: usize = 8;

impl RequestRecord {
    /// Whether the reservoir must always retain this record.
    pub fn is_error(&self) -> bool {
        self.status >= 500 || self.flags & (FLAG_SHED | FLAG_PANIC) != 0
    }

    fn pack(&self) -> [u64; WORDS] {
        [
            self.trace_id,
            self.end_us,
            (u64::from(self.total_us) << 32) | u64::from(self.parse_us),
            (u64::from(self.queue_us) << 32) | u64::from(self.permit_us),
            (u64::from(self.handler_us) << 32) | u64::from(self.store_us),
            (u64::from(self.serialize_us) << 32) | u64::from(self.write_us),
            (u64::from(self.req_bytes) << 32) | u64::from(self.resp_bytes),
            (u64::from(self.status) << 16) | (u64::from(self.route) << 8) | u64::from(self.flags),
        ]
    }

    fn unpack(words: [u64; WORDS]) -> Self {
        RequestRecord {
            trace_id: words[0],
            end_us: words[1],
            total_us: (words[2] >> 32) as u32,
            parse_us: words[2] as u32,
            queue_us: (words[3] >> 32) as u32,
            permit_us: words[3] as u32,
            handler_us: (words[4] >> 32) as u32,
            store_us: words[4] as u32,
            serialize_us: (words[5] >> 32) as u32,
            write_us: words[5] as u32,
            req_bytes: (words[6] >> 32) as u32,
            resp_bytes: words[6] as u32,
            status: (words[7] >> 16) as u16,
            route: (words[7] >> 8) as u8,
            flags: words[7] as u8,
        }
    }
}

struct Slot {
    /// Seqlock word: `0` = never written, `2t+1` = ticket `t` writing,
    /// `2t+2` = ticket `t` committed.
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; WORDS],
        }
    }
}

struct SlowReservoir {
    /// Slowest records, ascending by `total_us`, at most [`SLOW_TOP_K`].
    top: Vec<RequestRecord>,
    /// Most recent error records, oldest first, at most [`ERROR_KEEP`].
    errors: VecDeque<RequestRecord>,
}

/// The flight recorder: seqlock ring + slow/error reservoir.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    mask: u64,
    cursor: AtomicU64,
    /// Ring writes dropped because their slot was held by another
    /// writer or already carried a newer ticket.
    dropped: AtomicU64,
    start: Instant,
    slow: Mutex<SlowReservoir>,
    /// `total_us` floor for top-K admission, readable without the
    /// lock. Zero until the top-K fills.
    slow_gate: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding `capacity` records (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(8, 1 << 24).next_power_of_two();
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            mask: capacity as u64 - 1,
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            start: Instant::now(),
            slow: Mutex::new(SlowReservoir {
                top: Vec::with_capacity(SLOW_TOP_K),
                errors: VecDeque::with_capacity(ERROR_KEEP),
            }),
            slow_gate: AtomicU64::new(0),
        }
    }

    /// Ring capacity from [`RECORDER_CAP_ENV`], or `DEFAULT_CAPACITY`
    /// when unset/unparseable.
    pub fn capacity_from_env() -> usize {
        std::env::var(RECORDER_CAP_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&cap| cap > 0)
            .unwrap_or(DEFAULT_CAPACITY)
    }

    /// Ring capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever published (monotone; wraps the ring after
    /// `capacity`).
    pub fn recorded_total(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Ring writes dropped because a writer a lap apart held the slot
    /// (or had already committed a newer ticket there). Their tickets
    /// are counted in [`Self::recorded_total`] but never readable.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Microseconds since the recorder started; the time base for
    /// [`RequestRecord::end_us`].
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Publishes one record: a ticket claim, a slot claim, eight
    /// relaxed stores, and (only for errors or new top-K entrants) a
    /// reservoir insert.
    pub fn record(&self, rec: &RequestRecord) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let writing = ticket * 2 + 1;
        let held = slot.seq.load(Ordering::Relaxed);
        let claimed = held.is_multiple_of(2)
            && held < writing
            && slot
                .seq
                // Acquire: the previous holder's data stores happen
                // before ours, so they cannot land on top of them.
                .compare_exchange(held, writing, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        if claimed {
            fence(Ordering::Release);
            for (word, value) in slot.words.iter().zip(rec.pack()) {
                word.store(value, Ordering::Relaxed);
            }
            slot.seq.store(writing + 1, Ordering::Release);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }

        let qualifies =
            rec.is_error() || u64::from(rec.total_us) > self.slow_gate.load(Ordering::Relaxed);
        if qualifies {
            self.reserve(rec);
        }
    }

    fn reserve(&self, rec: &RequestRecord) {
        let mut slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
        if rec.is_error() {
            if slow.errors.len() == ERROR_KEEP {
                slow.errors.pop_front();
            }
            slow.errors.push_back(*rec);
        }
        let floor = if slow.top.len() < SLOW_TOP_K {
            0
        } else {
            slow.top[0].total_us
        };
        if slow.top.len() < SLOW_TOP_K || rec.total_us > floor {
            let at = slow.top.partition_point(|r| r.total_us <= rec.total_us);
            slow.top.insert(at, *rec);
            if slow.top.len() > SLOW_TOP_K {
                slow.top.remove(0);
            }
            if slow.top.len() == SLOW_TOP_K {
                self.slow_gate
                    .store(u64::from(slow.top[0].total_us), Ordering::Relaxed);
            }
        }
    }

    /// Attempts a consistent read of ticket `ticket`'s slot.
    fn read_ticket(&self, ticket: u64) -> Option<RequestRecord> {
        let slot = &self.slots[(ticket & self.mask) as usize];
        let expected = ticket * 2 + 2;
        if slot.seq.load(Ordering::Acquire) != expected {
            return None;
        }
        let mut words = [0u64; WORDS];
        for (out, word) in words.iter_mut().zip(&slot.words) {
            *out = word.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != expected {
            return None;
        }
        Some(RequestRecord::unpack(words))
    }

    /// The `n` most recent consistent records, newest first. Slots
    /// being concurrently overwritten are skipped, never torn.
    pub fn recent(&self, n: usize) -> Vec<RequestRecord> {
        let cursor = self.cursor.load(Ordering::Acquire);
        let span = (n as u64).min(cursor).min(self.slots.len() as u64);
        let mut out = Vec::with_capacity(span as usize);
        for back in 1..=span {
            if let Some(rec) = self.read_ticket(cursor - back) {
                out.push(rec);
            }
        }
        out
    }

    /// Every consistent record with `end_us >= since_us`, newest
    /// first. `since_us` is on the [`Self::now_us`] clock.
    pub fn window(&self, since_us: u64) -> Vec<RequestRecord> {
        let mut out = self.recent(self.slots.len());
        out.retain(|r| r.end_us >= since_us);
        out
    }

    /// Reservoir snapshot: (slowest records, slowest first descending;
    /// retained error records, newest first).
    pub fn slow(&self) -> (Vec<RequestRecord>, Vec<RequestRecord>) {
        let slow = self.slow.lock().unwrap_or_else(PoisonError::into_inner);
        let mut top: Vec<RequestRecord> = slow.top.clone();
        top.reverse();
        let errors: Vec<RequestRecord> = slow.errors.iter().rev().copied().collect();
        (top, errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, total: u32) -> RequestRecord {
        RequestRecord {
            trace_id: id,
            total_us: total,
            status: 200,
            ..RequestRecord::default()
        }
    }

    #[test]
    fn pack_round_trips_every_field() {
        let full = RequestRecord {
            trace_id: u64::MAX,
            end_us: 123_456_789,
            route: 7,
            flags: FLAG_SHED | FLAG_CACHE_HIT,
            status: 503,
            req_bytes: 68,
            resp_bytes: 4096,
            total_us: 900,
            parse_us: 1,
            queue_us: 2,
            permit_us: 3,
            handler_us: 800,
            store_us: 700,
            serialize_us: 4,
            write_us: 5,
        };
        assert_eq!(RequestRecord::unpack(full.pack()), full);
    }

    #[test]
    fn recent_returns_newest_first() {
        let recorder = FlightRecorder::new(8);
        for id in 0..5 {
            recorder.record(&rec(id, 10));
        }
        let recent = recorder.recent(3);
        let ids: Vec<u64> = recent.iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![4, 3, 2]);
    }

    /// A writer a lap behind a stalled one drops its ring write rather
    /// than share the slot, and the slot is usable again once the
    /// stalled writer commits.
    #[test]
    fn a_lapping_writer_never_shares_a_slot() {
        let recorder = FlightRecorder::new(8);
        // Ticket 0 claims slot 0 and stalls mid-write.
        let stalled = recorder.cursor.fetch_add(1, Ordering::Relaxed);
        recorder.slots[0]
            .seq
            .store(stalled * 2 + 1, Ordering::Relaxed);
        for id in 1..=8 {
            recorder.record(&rec(id, 10));
        }
        assert_eq!(recorder.dropped_total(), 1, "ticket 8 found slot 0 held");
        let ids: Vec<u64> = recorder.recent(8).iter().map(|r| r.trace_id).collect();
        assert_eq!(ids, vec![7, 6, 5, 4, 3, 2, 1], "slot 0 is never read torn");
        // The stalled writer commits; the next lap claims slot 0 again,
        // even though ticket 8's write never landed.
        recorder.slots[0]
            .seq
            .store(stalled * 2 + 2, Ordering::Release);
        for id in 9..=16 {
            recorder.record(&rec(id, 10));
        }
        assert_eq!(recorder.dropped_total(), 1);
        assert_eq!(recorder.recent(1)[0].trace_id, 16);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(FlightRecorder::new(1000).capacity(), 1024);
        assert_eq!(FlightRecorder::new(1).capacity(), 8);
    }

    #[test]
    fn slow_gate_keeps_top_k() {
        let recorder = FlightRecorder::new(8);
        for total in 1..=100u32 {
            recorder.record(&rec(u64::from(total), total));
        }
        let (top, errors) = recorder.slow();
        assert_eq!(top.len(), SLOW_TOP_K);
        assert_eq!(top[0].total_us, 100);
        assert_eq!(top.last().unwrap().total_us, 100 - SLOW_TOP_K as u32 + 1);
        assert!(errors.is_empty());
    }
}
