//! Flight-recorder integration tests: seqlock consistency under
//! concurrent writers/readers, ring wraparound, and slow/error
//! reservoir retention.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use leakage_telemetry::recorder::SLOW_TOP_K;
use leakage_telemetry::{FlightRecorder, RequestRecord, FLAG_PANIC, FLAG_SHED};

/// A record whose every field is derived from its trace id, so a
/// reader can detect any cross-record mixing.
fn derived(id: u64) -> RequestRecord {
    let seed = id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    RequestRecord {
        trace_id: id,
        end_us: seed,
        route: (seed >> 8) as u8,
        flags: (seed >> 16) as u8,
        status: (seed >> 24) as u16,
        req_bytes: (seed >> 3) as u32,
        resp_bytes: (seed >> 5) as u32,
        total_us: (seed >> 7) as u32,
        parse_us: (seed >> 11) as u32,
        queue_us: (seed >> 13) as u32,
        permit_us: (seed >> 17) as u32,
        handler_us: (seed >> 19) as u32,
        store_us: (seed >> 23) as u32,
        write_us: (seed >> 31) as u32,
    }
}

/// Seqlock validation: hammer a small ring from several writer
/// threads while readers continuously snapshot it. Every surfaced
/// record must be internally consistent (all fields derived from its
/// trace id) — a torn read would mix words from two records.
#[test]
fn concurrent_writers_never_surface_torn_records() {
    let recorder = Arc::new(FlightRecorder::new(64));
    let stop = Arc::new(AtomicBool::new(false));
    let writers: u64 = 4;
    let per_writer: u64 = 20_000;

    let mut handles = Vec::new();
    for w in 0..writers {
        let recorder = Arc::clone(&recorder);
        handles.push(thread::spawn(move || {
            for i in 0..per_writer {
                recorder.record(&derived(w * per_writer + i + 1));
            }
        }));
    }

    let mut readers = Vec::new();
    for _ in 0..2 {
        let recorder = Arc::clone(&recorder);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for rec in recorder.recent(64) {
                    assert_eq!(
                        rec,
                        derived(rec.trace_id),
                        "torn record surfaced for trace id {}",
                        rec.trace_id
                    );
                    seen += 1;
                }
            }
            seen
        }));
    }

    for handle in handles {
        handle.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let mut validated = 0;
    for reader in readers {
        validated += reader.join().unwrap();
    }
    assert!(validated > 0, "readers validated no records");
    assert_eq!(
        recorder.recorded_total(),
        writers * per_writer,
        "every write must claim exactly one ticket"
    );
}

#[test]
fn ring_wraps_and_keeps_only_the_newest() {
    let recorder = FlightRecorder::new(8);
    for id in 1..=20u64 {
        recorder.record(&derived(id));
    }
    let recent = recorder.recent(100);
    let ids: Vec<u64> = recent.iter().map(|r| r.trace_id).collect();
    assert_eq!(ids, vec![20, 19, 18, 17, 16, 15, 14, 13]);
    for rec in &recent {
        assert_eq!(*rec, derived(rec.trace_id));
    }
}

#[test]
fn reservoir_always_retains_errors_and_top_k() {
    let recorder = FlightRecorder::new(8);
    // 200 fast successes push everything interesting out of the ring...
    for id in 1..=200u64 {
        recorder.record(&RequestRecord {
            trace_id: id,
            total_us: 10,
            status: 200,
            ..RequestRecord::default()
        });
    }
    // ...but a 500, a shed, a panic, and one slow request recorded
    // *before* that flood must survive in the reservoir.
    let recorder2 = FlightRecorder::new(8);
    recorder2.record(&RequestRecord {
        trace_id: 900,
        status: 500,
        total_us: 5,
        ..RequestRecord::default()
    });
    recorder2.record(&RequestRecord {
        trace_id: 901,
        status: 503,
        flags: FLAG_SHED,
        total_us: 1,
        ..RequestRecord::default()
    });
    recorder2.record(&RequestRecord {
        trace_id: 902,
        status: 500,
        flags: FLAG_PANIC,
        total_us: 2,
        ..RequestRecord::default()
    });
    recorder2.record(&RequestRecord {
        trace_id: 903,
        status: 200,
        total_us: 50_000,
        ..RequestRecord::default()
    });
    for id in 1..=200u64 {
        recorder2.record(&RequestRecord {
            trace_id: id,
            total_us: 10,
            status: 200,
            ..RequestRecord::default()
        });
    }
    assert_eq!(recorder2.recent(1000).len(), 8, "ring holds only 8");
    let (top, errors) = recorder2.slow();
    let error_ids: Vec<u64> = errors.iter().map(|r| r.trace_id).collect();
    assert!(error_ids.contains(&900), "5xx retained: {error_ids:?}");
    assert!(error_ids.contains(&901), "shed retained: {error_ids:?}");
    assert!(error_ids.contains(&902), "panic retained: {error_ids:?}");
    assert_eq!(top[0].trace_id, 903, "slowest request leads the top-K");
    assert!(top.len() <= SLOW_TOP_K);
    let totals: Vec<u32> = top.iter().map(|r| r.total_us).collect();
    let mut sorted = totals.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(totals, sorted, "top-K is sorted slowest-first");
}

/// The rolling-window view only returns records newer than the cutoff.
#[test]
fn window_filters_on_end_us() {
    let recorder = FlightRecorder::new(16);
    let early = recorder.now_us();
    recorder.record(&RequestRecord {
        trace_id: 1,
        end_us: early,
        ..RequestRecord::default()
    });
    thread::sleep(Duration::from_millis(5));
    let cutoff = recorder.now_us();
    recorder.record(&RequestRecord {
        trace_id: 2,
        end_us: recorder.now_us(),
        ..RequestRecord::default()
    });
    let ids: Vec<u64> = recorder.window(cutoff).iter().map(|r| r.trace_id).collect();
    assert_eq!(ids, vec![2]);
    assert_eq!(recorder.window(0).len(), 2);
}

/// Sanity-check the write cost stays in "one slot store" territory:
/// this is a smoke bound (debug builds, shared CI), not a benchmark.
#[test]
fn record_cost_smoke() {
    let recorder = FlightRecorder::new(4096);
    let rec = derived(42);
    let started = Instant::now();
    let n = 100_000u32;
    for _ in 0..n {
        recorder.record(&rec);
    }
    let per = started.elapsed().as_nanos() / u128::from(n);
    assert!(
        per < 20_000,
        "record() took {per}ns — far beyond a slot store"
    );
}
