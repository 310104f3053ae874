//! Regression tests for the memoized profiling pipeline: every
//! profiling path (serial, parallel, memoized, cold or warm) must
//! produce byte-identical profiles, and experiment modules sharing one
//! process must share one simulation per `(benchmark, config)` pair.

use cache_leakage_limits::cachesim::Level1;
use cache_leakage_limits::experiments::codec::encode_profile;
use cache_leakage_limits::experiments::store::QUARANTINE_SUBDIR;
use cache_leakage_limits::experiments::{
    cached_profile, cached_suite, profile_suite, profile_suite_serial, profile_suite_uncached,
    ProfileStore,
};
use cache_leakage_limits::faults::durable;
use cache_leakage_limits::workloads::{Scale, SUITE_NAMES};
use std::path::{Path, PathBuf};

/// The determinism regression the ISSUE demands: the rayon-parallel
/// memoized path, the serial path and the uncached parallel path all
/// serialize to the same bytes — both on a cold store and on a warm
/// one.
#[test]
fn all_profiling_paths_are_byte_identical() {
    let cold: Vec<Vec<u8>> = profile_suite(Scale::Test)
        .iter()
        .map(encode_profile)
        .collect();
    let warm: Vec<Vec<u8>> = profile_suite(Scale::Test)
        .iter()
        .map(encode_profile)
        .collect();
    let serial: Vec<Vec<u8>> = profile_suite_serial(Scale::Test)
        .iter()
        .map(encode_profile)
        .collect();
    let uncached: Vec<Vec<u8>> = profile_suite_uncached(Scale::Test)
        .iter()
        .map(encode_profile)
        .collect();

    assert_eq!(cold.len(), SUITE_NAMES.len());
    assert_eq!(
        cold, warm,
        "memoized re-fetch must not change a single byte"
    );
    assert_eq!(cold, serial, "parallel and serial profiling must agree");
    assert_eq!(cold, uncached, "memoization must not change results");
}

/// The interval extraction invariant holds for the whole suite on both
/// L1 sides: per frame, interval lengths sum to the timeline length.
#[test]
fn every_suite_profile_covers_the_timeline_on_both_sides() {
    for profile in cached_suite(Scale::Test) {
        for side in [Level1::Instruction, Level1::Data] {
            assert!(
                profile.side(side).covers_timeline(),
                "{}/{side}: intervals must tile the frame timeline",
                profile.name
            );
        }
    }
}

/// Two different "experiment modules" (suite profiling and a
/// per-benchmark fixture fetch) in one process trigger at most one
/// simulation per `(benchmark, config)` pair. All tests in this binary
/// fetch the same six Test-scale pairs, so the global miss counter can
/// never exceed six no matter how the test threads interleave.
#[test]
fn modules_share_one_simulation_per_pair() {
    cached_suite(Scale::Test); // module 1: the suite pipeline
    for name in SUITE_NAMES {
        cached_profile(name, Scale::Test); // module 2: per-benchmark fixtures
    }
    let counters = ProfileStore::global().counters();
    assert!(
        counters.misses + counters.disk_hits <= SUITE_NAMES.len() as u64,
        "at most one simulation (or disk load) per pair, got {counters:?}"
    );
    // And the twelve fetches above were all served.
    assert!(
        counters.total() >= 2 * SUITE_NAMES.len() as u64,
        "{counters:?}"
    );
}

/// `cached_profile` hands out the same allocation, not merely equal
/// data — downstream experiments share memory, not copies.
#[test]
fn cached_profiles_share_one_allocation() {
    let a = cached_profile("gzip", Scale::Test);
    let b = cached_profile("gzip", Scale::Test);
    assert!(std::sync::Arc::ptr_eq(&a, &b));
}

// ---------------------------------------------------------------------
// Disk-store corruption matrix: every way a profile file can rot must
// end in quarantine + re-simulation, never in serving bad bytes.
// ---------------------------------------------------------------------

/// A fresh disk dir seeded with one simulated `vortex` profile.
/// Returns `(dir, profile_path)`.
fn seeded_dir(tag: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(format!("leakage-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ProfileStore::with_disk_dir(&dir);
    store.fetch("vortex", Scale::Test);
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|ext| ext == "profile"))
        .expect("the fetch persisted a profile");
    (dir, path)
}

/// Corrupt `path` with `mutate`, then assert a fresh store refuses the
/// file (miss + quarantine), re-simulates correctly, and leaves the
/// evidence under `quarantine/`.
fn assert_quarantines(dir: &Path, path: &Path, mutate: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).unwrap();
    mutate(&mut bytes);
    std::fs::write(path, &bytes).unwrap();

    let store = ProfileStore::with_disk_dir(dir);
    let healed = store.fetch("vortex", Scale::Test);
    let counters = store.counters();
    assert_eq!(counters.disk_hits, 0, "corrupt file must never be served");
    assert_eq!(
        counters.misses, 1,
        "the fetch must degrade to a re-simulation"
    );
    assert_eq!(counters.quarantined, 1, "{counters:?}");
    assert_eq!(healed.name, "vortex");
    let evidence = dir.join(QUARANTINE_SUBDIR).join(path.file_name().unwrap());
    assert_eq!(
        std::fs::read(evidence).unwrap(),
        bytes,
        "evidence preserved verbatim"
    );

    // The slot was rewritten with a clean copy: the next store disk-hits.
    let reread = ProfileStore::with_disk_dir(dir);
    reread.fetch("vortex", Scale::Test);
    assert_eq!(reread.counters().disk_hits, 1);
    assert_eq!(reread.counters().quarantined, 0);
    let _ = std::fs::remove_dir_all(dir);
}

/// A write torn by a crash (or injected truncation) is quarantined.
#[test]
fn truncated_profile_is_quarantined() {
    let (dir, path) = seeded_dir("truncate");
    assert_quarantines(&dir, &path, |bytes| bytes.truncate(bytes.len() / 2));
}

/// A single flipped bit anywhere in the body trips the FNV-1a seal.
#[test]
fn flipped_byte_is_quarantined() {
    let (dir, path) = seeded_dir("bitflip");
    assert_quarantines(&dir, &path, |bytes| {
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
    });
}

/// A file written by a different (stale) codec version is rejected even
/// when its seal is self-consistent.
#[test]
fn stale_format_version_is_quarantined() {
    let (dir, path) = seeded_dir("version");
    assert_quarantines(&dir, &path, |bytes| {
        // Layout: magic(4) | version u32 LE | body | durable seal.
        let mut body = durable::unseal(bytes)
            .expect("a fresh file is sealed")
            .to_vec();
        body[4..8].copy_from_slice(&2u32.to_le_bytes());
        // Re-seal so only the version — not the seal — can reject it.
        *bytes = durable::seal(body);
    });
}

/// Writers in separate stores (stand-ins for separate processes) racing
/// on one key never leave a torn or mixed file: each write goes to a
/// unique temp file and is renamed in atomically, so a later reader
/// decodes a clean profile.
#[test]
fn concurrent_writers_never_tear_the_file() {
    let dir = std::env::temp_dir().join(format!("leakage-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| ProfileStore::with_disk_dir(&dir).fetch("vortex", Scale::Test));
        }
    });
    let reader = ProfileStore::with_disk_dir(&dir);
    let profile = reader.fetch("vortex", Scale::Test);
    let counters = reader.counters();
    assert_eq!(counters.disk_hits, 1, "{counters:?}");
    assert_eq!(counters.quarantined, 0, "{counters:?}");
    assert_eq!(profile.name, "vortex");
    assert!(
        !dir.join(QUARANTINE_SUBDIR).exists(),
        "no write was ever torn"
    );
    // No temp droppings left behind.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_none_or(|ext| ext != "profile"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
