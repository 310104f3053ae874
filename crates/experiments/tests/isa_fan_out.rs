//! The shared profiling fan-out is deterministic across thread counts:
//! the ISA-suite table regenerated from a cleared store at one and at
//! two threads is byte-identical.
//!
//! This binary holds a single test because it pins the process-wide
//! rayon thread count and clears the global profile store.

use leakage_experiments::{isa_suite, ProfileStore};
use leakage_workloads::Scale;

#[test]
fn isa_suite_csv_is_identical_at_one_and_two_threads() {
    let csv_at = |threads: usize| {
        rayon::set_num_threads(threads);
        ProfileStore::global().clear();
        isa_suite::generate(Scale::Test).to_csv()
    };
    let serial = csv_at(1);
    let parallel = csv_at(2);
    rayon::set_num_threads(0);
    assert_eq!(serial, parallel);
}
