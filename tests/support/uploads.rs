//! The trace uploads the serving benchmark sends, rebuilt for the
//! streaming tests and the `bench_streaming` example: the first
//! accesses of a benchmark, as many as fit one upload body.
//!
//! Included with `#[path]` by `tests/streaming_differential.rs` and
//! `examples/bench_streaming.rs`.

use cache_leakage_limits::server::http::MAX_BODY_BYTES;
use cache_leakage_limits::trace::{MemoryAccess, TraceSource, VecTrace};
use cache_leakage_limits::workloads::{by_name, Scale};

/// Records in one upload: as many 25-byte LKTR records as fit the
/// `Content-Length` cap after the 8-byte header.
pub const RECORDS: usize = (MAX_BODY_BYTES - 8) / 25;

/// The first [`RECORDS`] accesses of benchmark `name`, run at doubling
/// cycle budgets until it makes that many.
pub fn upload_events(name: &str) -> Vec<MemoryAccess> {
    let mut cycles = RECORDS as u64;
    loop {
        let mut trace = VecTrace::new();
        by_name(name, Scale::Custom(cycles))
            .expect("benchmark")
            .run(&mut trace);
        if trace.events().len() >= RECORDS {
            return trace.events()[..RECORDS].to_vec();
        }
        cycles *= 2;
    }
}
