//! End-to-end fault-tolerance tests: the deterministic fault plane
//! (`LEAKAGE_FAULTS`) killing benchmarks and tearing writes, and the
//! pipeline degrading instead of dying.
//!
//! The fault plane is process-global, so every test here holds a
//! [`FaultScope`] — a process-wide lock — for its whole body: the
//! tests in this binary serialize around it, and no other
//! suite-fetching test binary shares this process.

use cache_leakage_limits::experiments::store::QUARANTINE_SUBDIR;
use cache_leakage_limits::experiments::{
    cached_suite, fetch_partial, suite_partial_with, ProfileStore,
};
use cache_leakage_limits::faults::{panic_message, set_plane, PipelineError, Plane, StoreError};
use cache_leakage_limits::workloads::{Scale, ISA_SUITE_NAMES, SUITE_NAMES};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes fault experiments in this binary: holds the lock for the
/// scope's lifetime and guarantees an empty plane on drop (even when
/// the test panics).
struct FaultScope {
    _serial: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// Locks without installing faults yet — for tests that need a
    /// fault-free seeding phase first.
    fn idle() -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        FaultScope {
            _serial: LOCK.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    fn new(spec: &str) -> Self {
        let scope = FaultScope::idle();
        scope.install(spec);
        scope
    }

    fn install(&self, spec: &str) {
        set_plane(Plane::parse(spec).expect("test spec parses"));
    }

    fn clear(&self) {
        set_plane(Plane::empty());
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        self.clear();
    }
}

/// The headline acceptance scenario: a panic injected into exactly one
/// benchmark fails that benchmark alone — the other five complete, the
/// failure is typed, and clearing the plane fully recovers the store.
#[test]
fn one_poisoned_benchmark_does_not_sink_the_suite() {
    let scope = FaultScope::new("suite/gzip=panic");
    let store = ProfileStore::new();
    let outcome = suite_partial_with(&store, Scale::Test);
    assert_eq!(outcome.profiles.len(), SUITE_NAMES.len() - 1);
    assert_eq!(outcome.failures.len(), 1);
    assert!(!outcome.all_healthy());
    let failure = &outcome.failures[0];
    assert_eq!(failure.benchmark, "gzip");
    assert!(
        matches!(
            &failure.error,
            PipelineError::Store(StoreError::SimulationPanicked { benchmark, .. })
                if benchmark == "gzip"
        ),
        "{}",
        failure.error
    );
    // The five survivors are the suite minus gzip, in order.
    let healthy: Vec<&str> = outcome.profiles.iter().map(|p| p.name.as_str()).collect();
    let expected: Vec<&str> = SUITE_NAMES
        .iter()
        .copied()
        .filter(|n| *n != "gzip")
        .collect();
    assert_eq!(healthy, expected);

    // Fault cleared: the same store heals — the panicked key was never
    // wedged (its cell reverted to idle, not poisoned).
    scope.clear();
    let healed = suite_partial_with(&store, Scale::Test);
    assert!(healed.all_healthy(), "{:?}", healed.failures);
    assert_eq!(healed.profiles.len(), SUITE_NAMES.len());
    // The injected panic fired before any simulation work, so across
    // both runs each benchmark simulated exactly once.
    assert_eq!(store.counters().misses, SUITE_NAMES.len() as u64);
}

/// The executed programs go through the same fan-out as the suite: one
/// poisoned `isa:*` program yields a typed failure while the other
/// five complete, in order.
#[test]
fn one_poisoned_isa_program_does_not_sink_the_fan_out() {
    let _scope = FaultScope::new("suite/isa:chase=panic");
    let store = ProfileStore::new();
    let outcome = fetch_partial(&store, &ISA_SUITE_NAMES, Scale::Test);
    assert_eq!(outcome.failures.len(), 1, "{:?}", outcome.failures);
    let failure = &outcome.failures[0];
    assert_eq!(failure.benchmark, "isa:chase");
    assert!(
        matches!(
            &failure.error,
            PipelineError::Store(StoreError::SimulationPanicked { benchmark, .. })
                if benchmark == "isa:chase"
        ),
        "{}",
        failure.error
    );
    let healthy: Vec<&str> = outcome.profiles.iter().map(|p| p.name.as_str()).collect();
    let expected: Vec<&str> = ISA_SUITE_NAMES
        .iter()
        .copied()
        .filter(|n| *n != "isa:chase")
        .collect();
    assert_eq!(healthy, expected);
}

/// A panicked fetch must not wedge later fetches of the same key or of
/// other keys (the ISSUE's mutex-poisoning footgun, end to end).
#[test]
fn panicked_fetch_leaves_the_store_usable() {
    let _scope = FaultScope::new("suite/mesa=panic#1");
    let store = ProfileStore::new();
    let err = store.try_fetch("mesa", Scale::Test).unwrap_err();
    assert!(
        matches!(&err, StoreError::SimulationPanicked { benchmark, .. } if benchmark == "mesa"),
        "{err}"
    );
    // Other keys were never affected…
    store.fetch("gcc", Scale::Test);
    // …and the panicked key recovered: `#1` fired exactly once, so the
    // retry simulates cleanly.
    let profile = store.try_fetch("mesa", Scale::Test).unwrap();
    assert_eq!(profile.name, "mesa");
}

/// The infallible suite API re-raises the injected failure (with the
/// benchmark named) rather than silently dropping a row — and the
/// global store it shares recovers once the fault clears.
#[test]
fn infallible_suite_reraises_the_failure() {
    let scope = FaultScope::new("suite/ammp=panic#1");
    let payload = std::panic::catch_unwind(|| cached_suite(Scale::Test)).unwrap_err();
    let message = panic_message(payload.as_ref());
    assert!(message.contains("ammp"), "{message}");
    scope.clear();
    assert_eq!(cached_suite(Scale::Test).len(), SUITE_NAMES.len());
}

/// An injected torn write (crash mid-`write(2)`) leaves a file the next
/// reader refuses: the FNV-1a seal fails, the file is quarantined,
/// and the profile is re-simulated — a partial profile is never served.
#[test]
fn torn_write_is_never_served() {
    let scope = FaultScope::new("store/write=truncate:20#1");
    let dir = std::env::temp_dir().join(format!("leakage-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ProfileStore::with_disk_dir(&dir).fetch("applu", Scale::Test);
    scope.clear();

    // The injected fault tore the write down to 20 bytes.
    let torn: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "profile"))
        .collect();
    assert_eq!(torn.len(), 1);
    assert_eq!(std::fs::metadata(&torn[0]).unwrap().len(), 20);

    // A later run (fault-free) must quarantine, re-simulate, self-heal.
    let reader = ProfileStore::with_disk_dir(&dir);
    let profile = reader.fetch("applu", Scale::Test);
    assert_eq!(profile.name, "applu");
    let counters = reader.counters();
    assert_eq!(counters.disk_hits, 0, "torn profile must never decode");
    assert_eq!(counters.quarantined, 1, "{counters:?}");
    assert!(dir
        .join(QUARANTINE_SUBDIR)
        .join(torn[0].file_name().unwrap())
        .exists());
    // Healed: the rewritten file now round-trips.
    let reread = ProfileStore::with_disk_dir(&dir);
    reread.fetch("applu", Scale::Test);
    assert_eq!(reread.counters().disk_hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected ENOSPC on every write: persistence degrades to in-memory
/// memoization (no file, no panic), and the fetch still succeeds.
#[test]
fn enospc_degrades_to_memory_only() {
    let _scope = FaultScope::new("store/write=io:enospc");
    let dir = std::env::temp_dir().join(format!("leakage-enospc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProfileStore::with_disk_dir(&dir);
    let profile = store.fetch("gcc", Scale::Test);
    assert_eq!(profile.name, "gcc");
    // Memoization still works…
    store.fetch("gcc", Scale::Test);
    assert_eq!(store.counters().hits, 1);
    // …but nothing decodable was persisted.
    let files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .map(|d| d.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    assert!(
        files
            .iter()
            .all(|p| !p.extension().is_some_and(|e| e == "profile")),
        "{files:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transient read errors are absorbed by the retry layer: two injected
/// `EINTR`s on `store/read` and the disk hit still goes through.
#[test]
fn transient_read_errors_are_retried() {
    let scope = FaultScope::idle();
    let dir = std::env::temp_dir().join(format!("leakage-eintr-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ProfileStore::with_disk_dir(&dir).fetch("vortex", Scale::Test);

    scope.install("store/read=io:interrupted#1;store/read=io:interrupted#2");
    let store = ProfileStore::with_disk_dir(&dir);
    store.fetch("vortex", Scale::Test);
    let counters = store.counters();
    assert_eq!(
        counters.disk_hits, 1,
        "retries must absorb the EINTRs: {counters:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
