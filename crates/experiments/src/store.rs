//! Memoized benchmark profiles.
//!
//! Simulating a benchmark dominates every experiment's cost; the
//! results are pure functions of `(benchmark, Scale, HierarchyConfig,
//! generator version)`. A [`ProfileStore`] caches them so each pair is
//! simulated **once per process** regardless of how many experiment
//! modules ask — and, optionally, once per machine via an on-disk
//! layer (see [`ProfileStore::with_disk_dir`]).
//!
//! # Keying and invalidation
//!
//! A store key is a stable FNV-1a hash over the benchmark name, the
//! scale's cycle budget, every geometric parameter of the hierarchy
//! (sizes, ways, line bytes, latencies), the workload family's
//! generator version ([`leakage_workloads::generator_version`]:
//! `GENERATOR_VERSION` for the synthetic suite,
//! `ISA_GENERATOR_VERSION` for executed `isa:*` programs) and the
//! codec format version. Changing a workload generator therefore
//! requires bumping its family's version — that one bump invalidates
//! every memoized profile of that family, in memory and on disk,
//! without touching the other family's entries.
//!
//! # Failure model
//!
//! The store is the pipeline's bulkhead (the policy is documented in
//! `DESIGN.md`, "Failure model & degradation policy"):
//!
//! * **Panics don't wedge keys.** A simulation that panics is caught
//!   at the per-key cell; the cell returns to *idle* so a later fetch
//!   of the same key re-simulates instead of poisoning every
//!   subsequent fetch. [`ProfileStore::try_fetch_with`] surfaces the
//!   failure as a typed [`StoreError`]; the panicking [`fetch`]
//!   wrappers re-panic with the same message for callers that opted
//!   out of handling it.
//! * **Disk writes are crash-safe.** Profiles are written through
//!   [`leakage_faults::durable`] (unique temp file, fsync, atomic
//!   rename), and the codec appends an FNV-1a integrity footer — so
//!   a concurrent process or a mid-write crash can never expose a
//!   decodable-but-wrong profile.
//! * **Corrupt files are quarantined, not overwritten.** A file that
//!   fails to decode moves to `<dir>/quarantine/` with a logged
//!   reason and counts into `profile_store_quarantined_total`; the
//!   fetch degrades to a re-simulation and rewrites a clean file.
//! * **Transient I/O is retried.** Reads and writes run under
//!   [`leakage_faults::Backoff::DISK`]; anything harder degrades to
//!   in-memory memoization with a logged warning.
//!
//! The disk layer is instrumented as the `store/read` and
//! `store/write` fault-injection sites, and each resolution as
//! `suite/<benchmark>`, so every branch above is rehearsable with
//! `LEAKAGE_FAULTS` (e.g. `store/write=truncate:32#1` tears the first
//! write mid-file).
//!
//! # Concurrency
//!
//! Concurrent fetches of *different* keys simulate in parallel;
//! concurrent fetches of the *same* key block on a per-key cell so the
//! simulation still runs exactly once. If the resolving fetch fails,
//! one blocked waiter takes over and retries.
//!
//! [`fetch`]: ProfileStore::fetch

use crate::codec;
use crate::pipeline::{profile_benchmark_with, BenchmarkProfile};
use leakage_cachesim::{CacheConfig, HierarchyConfig};
use leakage_faults::checksum::Fnv64;
use leakage_faults::{durable, panic_message, Backoff, StoreError};
use leakage_telemetry::{counter, warn, Counter};
use leakage_workloads::{by_name, generator_version, Scale};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Environment variable naming a directory for the global store's
/// on-disk profile layer (e.g. `results/profiles`). Unset: in-memory
/// memoization only.
pub const PROFILE_DIR_ENV: &str = "LEAKAGE_PROFILE_DIR";

/// Subdirectory of the profile dir where corrupt files are moved.
pub const QUARANTINE_SUBDIR: &str = durable::QUARANTINE_DIR;

/// Snapshot of a store's counters (see [`ProfileStore::counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Fetches served from the in-memory map without simulating.
    pub hits: u64,
    /// Fetches that ran a fresh simulation.
    pub misses: u64,
    /// Fetches served by decoding an on-disk profile.
    pub disk_hits: u64,
    /// Corrupt on-disk profiles moved to the quarantine directory.
    pub quarantined: u64,
}

impl StoreCounters {
    /// Total fetches observed (quarantines are per-file events, not
    /// fetch outcomes, and are excluded).
    pub fn total(self) -> u64 {
        self.hits + self.misses + self.disk_hits
    }
}

/// The per-key synchronization cell: at most one resolver at a time,
/// waiters blocked on the condvar, and — unlike a `OnceLock` — a
/// *recoverable* empty state, so a panicked resolution hands the key
/// to the next fetcher instead of wedging it forever.
struct KeyCell {
    state: Mutex<CellState>,
    ready: Condvar,
}

enum CellState {
    /// No value and no resolver: the next fetcher takes over.
    Idle,
    /// A fetcher is resolving; wait on the condvar.
    Running,
    /// Resolved.
    Ready(Arc<BenchmarkProfile>),
}

impl KeyCell {
    fn new() -> Self {
        KeyCell {
            state: Mutex::new(CellState::Idle),
            ready: Condvar::new(),
        }
    }
}

/// A memoization cache of [`BenchmarkProfile`]s.
///
/// Counters are [`leakage_telemetry::Counter`]s. Per-instance stores
/// (tests, ad-hoc sweeps) own private unregistered counters; the
/// [`global`](ProfileStore::global) store's counters are the
/// registry's `profile_store_{mem_hits,sim_misses,disk_hits,
/// quarantined}_total` metrics, so they appear in the run manifest and
/// the Prometheus export without any separate counting path.
pub struct ProfileStore {
    entries: Mutex<HashMap<u64, Arc<KeyCell>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    disk_hits: Arc<Counter>,
    quarantined: Arc<Counter>,
    disk_dir: Option<PathBuf>,
}

impl Default for ProfileStore {
    fn default() -> Self {
        ProfileStore::new()
    }
}

impl ProfileStore {
    /// An empty, in-memory-only store.
    pub fn new() -> Self {
        ProfileStore {
            entries: Mutex::new(HashMap::new()),
            hits: Arc::new(Counter::new()),
            misses: Arc::new(Counter::new()),
            disk_hits: Arc::new(Counter::new()),
            quarantined: Arc::new(Counter::new()),
            disk_dir: None,
        }
    }

    /// A store that additionally persists profiles under `dir`
    /// (created on first write). Unreadable files are treated as
    /// misses; undecodable ones are quarantined and re-simulated.
    pub fn with_disk_dir(dir: impl Into<PathBuf>) -> Self {
        ProfileStore {
            disk_dir: Some(dir.into()),
            ..ProfileStore::new()
        }
    }

    /// The process-wide store used by [`crate::profile_suite`] and the
    /// experiment fixtures. Its disk layer is enabled when
    /// [`PROFILE_DIR_ENV`] names a directory.
    pub fn global() -> &'static ProfileStore {
        static GLOBAL: OnceLock<ProfileStore> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let mut store = match std::env::var(PROFILE_DIR_ENV) {
                Ok(dir) if !dir.is_empty() => ProfileStore::with_disk_dir(dir),
                _ => ProfileStore::new(),
            };
            // The global store counts straight into the registry.
            let registry = leakage_telemetry::registry();
            store.hits = registry.counter("profile_store_mem_hits_total");
            store.misses = registry.counter("profile_store_sim_misses_total");
            store.disk_hits = registry.counter("profile_store_disk_hits_total");
            store.quarantined = registry.counter("profile_store_quarantined_total");
            store
        })
    }

    /// The stable cache key for one `(benchmark, scale, config)` triple.
    ///
    /// Stable across processes and platforms: it hashes explicit
    /// little-endian words, never in-memory layout.
    pub fn profile_key(name: &str, scale: Scale, config: &HierarchyConfig) -> u64 {
        let mut hash = Fnv64::new();
        hash.write_len_prefixed(name.as_bytes());
        hash.write_u64(scale.cycles());
        for cache in [&config.l1i, &config.l1d, &config.l2] {
            hash_cache_geometry(&mut hash, cache);
        }
        hash.write_u64(u64::from(config.memory_latency));
        hash.write_u64(u64::from(generator_version(name)));
        hash.write_u64(u64::from(codec::FORMAT_VERSION));
        hash.finish()
    }

    /// Fetches (simulating at most once) the profile of a suite
    /// benchmark under the paper's Alpha-like hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of
    /// [`leakage_workloads::SUITE_NAMES`], or if the simulation itself
    /// panics (re-raised with the same message; the store stays
    /// usable). Use [`try_fetch`](ProfileStore::try_fetch) to handle
    /// both as values.
    pub fn fetch(&self, name: &str, scale: Scale) -> Arc<BenchmarkProfile> {
        self.fetch_with(name, scale, &HierarchyConfig::alpha_like())
    }

    /// Like [`fetch`](ProfileStore::fetch), but returns failures as
    /// [`StoreError`]s instead of panicking.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownBenchmark`] for names outside the suite,
    /// [`StoreError::SimulationPanicked`] when the simulation (or a
    /// fault-injection site inside it) panics.
    pub fn try_fetch(&self, name: &str, scale: Scale) -> Result<Arc<BenchmarkProfile>, StoreError> {
        self.try_fetch_with(name, scale, &HierarchyConfig::alpha_like())
    }

    /// Fetches (simulating at most once) the profile of a suite
    /// benchmark under an arbitrary hierarchy — the entry point for
    /// geometry sweeps.
    ///
    /// # Panics
    ///
    /// See [`fetch`](ProfileStore::fetch).
    pub fn fetch_with(
        &self,
        name: &str,
        scale: Scale,
        config: &HierarchyConfig,
    ) -> Arc<BenchmarkProfile> {
        self.try_fetch_with(name, scale, config)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// The fallible core every fetch goes through.
    ///
    /// # Errors
    ///
    /// See [`try_fetch`](ProfileStore::try_fetch).
    pub fn try_fetch_with(
        &self,
        name: &str,
        scale: Scale,
        config: &HierarchyConfig,
    ) -> Result<Arc<BenchmarkProfile>, StoreError> {
        let key = Self::profile_key(name, scale, config);
        let cell = {
            let mut entries = self.lock_entries();
            Arc::clone(entries.entry(key).or_insert_with(|| Arc::new(KeyCell::new())))
        };
        // Claim the cell or wait for the fetch that holds it. A failed
        // resolution returns the cell to idle and wakes the waiters,
        // one of which takes over here — so a panic delays racing
        // fetches of this key but never wedges them.
        {
            let mut state = cell.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match &*state {
                    CellState::Ready(profile) => {
                        self.hits.inc();
                        return Ok(Arc::clone(profile));
                    }
                    CellState::Running => {
                        state = cell.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                    CellState::Idle => {
                        *state = CellState::Running;
                        break;
                    }
                }
            }
        }
        // Resolve outside the cell lock; catch panics so the cell (and
        // this store's maps) survive a dying simulation.
        let resolved = catch_unwind(AssertUnwindSafe(|| {
            self.resolve_miss(key, name, scale, config)
        }));
        let mut state = cell.state.lock().unwrap_or_else(PoisonError::into_inner);
        let result = match resolved {
            Ok(Ok(profile)) => {
                let profile = Arc::new(profile);
                *state = CellState::Ready(Arc::clone(&profile));
                Ok(profile)
            }
            Ok(Err(err)) => {
                *state = CellState::Idle;
                Err(err)
            }
            Err(payload) => {
                *state = CellState::Idle;
                Err(StoreError::SimulationPanicked {
                    benchmark: name.to_string(),
                    message: panic_message(payload.as_ref()),
                })
            }
        };
        cell.ready.notify_all();
        result
    }

    fn lock_entries(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<KeyCell>>> {
        // Recover, don't cascade: the map only holds Arc handles, so a
        // fetch that panicked elsewhere leaves it structurally intact.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn resolve_miss(
        &self,
        key: u64,
        name: &str,
        scale: Scale,
        config: &HierarchyConfig,
    ) -> Result<BenchmarkProfile, StoreError> {
        // The per-benchmark kill switch: LEAKAGE_FAULTS=suite/gzip=panic
        // dies here, inside the catch_unwind of the resolving fetch.
        leakage_faults::panic_point(&format!("suite/{name}"));
        if let Some(profile) = self.load_from_disk(key, name) {
            self.disk_hits.inc();
            return Ok(profile);
        }
        self.misses.inc();
        let mut bench = by_name(name, scale).ok_or_else(|| StoreError::UnknownBenchmark {
            name: name.to_string(),
        })?;
        let profile = profile_benchmark_with(&mut bench, config.clone());
        self.save_to_disk(key, &profile);
        Ok(profile)
    }

    fn disk_path(&self, key: u64, name: &str) -> Option<PathBuf> {
        self.disk_dir
            .as_ref()
            .map(|dir| dir.join(format!("{name}-{key:016x}.profile")))
    }

    fn load_from_disk(&self, key: u64, name: &str) -> Option<BenchmarkProfile> {
        let path = self.disk_path(key, name)?;
        let bytes = leakage_faults::retry(Backoff::DISK, |_| {
            leakage_faults::io_point("store/read")?;
            std::fs::read(&path)
        });
        let bytes = match bytes {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return None,
            Err(err) => {
                warn!("cannot read {}: {err}; degrading to a miss", path.display());
                return None;
            }
        };
        match codec::decode_profile(&bytes) {
            // The key already fixes the benchmark, but verify the name
            // anyway to catch hand-renamed files.
            Ok(profile) if profile.name == name => Some(profile),
            Ok(profile) => {
                self.quarantine(
                    &path,
                    &format!("file names {name:?} but contains {:?}", profile.name),
                );
                None
            }
            Err(err) => {
                self.quarantine(&path, &err.to_string());
                None
            }
        }
    }

    /// Moves a corrupt profile into `<dir>/quarantine/` so the
    /// evidence survives for diagnosis and the broken bytes can never
    /// be served again, then counts and logs the event.
    fn quarantine(&self, path: &Path, reason: &str) {
        self.quarantined.inc();
        let outcome = durable::quarantine(path);
        match &outcome.moved {
            Ok(target) => warn!(
                "quarantined corrupt profile {} -> {}: {reason}",
                path.display(),
                target.display()
            ),
            Err(_) => warn!(
                "deleted corrupt profile {} (quarantine move failed): {reason}",
                path.display()
            ),
        }
        if outcome.evicted.files > 0 {
            counter!("quarantined_evicted_total").add(outcome.evicted.files);
            warn!(
                "profile quarantine pen over budget; evicted {} file(s) / {} byte(s)",
                outcome.evicted.files, outcome.evicted.bytes
            );
        }
    }

    /// Best-effort: a failed write (read-only FS, disk full) degrades
    /// to in-memory memoization rather than failing the experiment.
    /// Transient errors are retried with backoff; each attempt
    /// re-encodes its own buffer so an injected truncation corrupts at
    /// most that attempt's file.
    fn save_to_disk(&self, key: u64, profile: &BenchmarkProfile) {
        let Some(path) = self.disk_path(key, &profile.name) else {
            return;
        };
        if let Some(dir) = path.parent() {
            if let Err(err) = std::fs::create_dir_all(dir) {
                warn!("cannot create {}: {err}; profile not persisted", dir.display());
                return;
            }
        }
        let bytes = codec::encode_profile(profile);
        let written = leakage_faults::retry(Backoff::DISK, |_| {
            let mut attempt = bytes.clone();
            // Fault site: may truncate the buffer (torn-write
            // simulation) or inject an I/O error.
            leakage_faults::corrupt_point("store/write", &mut attempt)?;
            durable::write_atomically(&path, &attempt)
        });
        if let Err(err) = written {
            warn!("cannot write {}: {err}; profile not persisted", path.display());
        }
    }

    /// Current counter values.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            disk_hits: self.disk_hits.get(),
            quarantined: self.quarantined.get(),
        }
    }

    /// Drops every memoized profile (counters keep accumulating). Disk
    /// files are untouched.
    pub fn clear(&self) {
        self.lock_entries().clear();
    }
}

fn hash_cache_geometry(hash: &mut Fnv64, cache: &CacheConfig) {
    hash.write_u64(cache.size_bytes());
    hash.write_u64(u64::from(cache.ways()));
    hash.write_u64(u64::from(cache.line_bytes()));
    hash.write_u64(u64::from(cache.hit_latency()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_separate_every_dimension() {
        let alpha = HierarchyConfig::alpha_like();
        let base = ProfileStore::profile_key("gzip", Scale::Test, &alpha);
        assert_eq!(base, ProfileStore::profile_key("gzip", Scale::Test, &alpha));
        assert_ne!(base, ProfileStore::profile_key("gcc", Scale::Test, &alpha));
        assert_ne!(base, ProfileStore::profile_key("gzip", Scale::Small, &alpha));
        let wider = HierarchyConfig {
            l1d: CacheConfig::new("L1D", 64 * 1024, 4, 64, 3).unwrap(),
            ..HierarchyConfig::alpha_like()
        };
        assert_ne!(base, ProfileStore::profile_key("gzip", Scale::Test, &wider));
        // Scale::Custom collapses onto the preset with the same budget:
        // same workload, same profile, so the same key is correct.
        assert_eq!(
            base,
            ProfileStore::profile_key("gzip", Scale::Custom(200_000), &alpha)
        );
    }

    #[test]
    fn fetch_simulates_once_then_hits() {
        let store = ProfileStore::new();
        let first = store.fetch("gzip", Scale::Test);
        assert_eq!(
            store.counters(),
            StoreCounters { hits: 0, misses: 1, disk_hits: 0, quarantined: 0 }
        );
        let second = store.fetch("gzip", Scale::Test);
        assert_eq!(
            store.counters(),
            StoreCounters { hits: 1, misses: 1, disk_hits: 0, quarantined: 0 }
        );
        // Same allocation, not merely an equal profile.
        assert!(Arc::ptr_eq(&first, &second));
        // A different benchmark is a distinct entry.
        store.fetch("mesa", Scale::Test);
        assert_eq!(store.counters().misses, 2);
    }

    #[test]
    fn concurrent_same_key_fetches_simulate_once() {
        let store = ProfileStore::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| store.fetch("applu", Scale::Test));
            }
        });
        assert_eq!(store.counters().misses, 1);
        assert_eq!(store.counters().hits, 3);
    }

    #[test]
    fn clear_forces_resimulation() {
        let store = ProfileStore::new();
        store.fetch("gzip", Scale::Test);
        store.clear();
        store.fetch("gzip", Scale::Test);
        assert_eq!(store.counters().misses, 2);
    }

    #[test]
    fn disk_layer_round_trips() {
        let dir = std::env::temp_dir().join(format!("leakage-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let writer = ProfileStore::with_disk_dir(&dir);
        let original = writer.fetch("gzip", Scale::Test);
        assert_eq!(writer.counters().misses, 1);

        // A fresh store (new process stand-in) reads the file back.
        let reader = ProfileStore::with_disk_dir(&dir);
        let reloaded = reader.fetch("gzip", Scale::Test);
        assert_eq!(
            reader.counters(),
            StoreCounters { hits: 0, misses: 0, disk_hits: 1, quarantined: 0 }
        );
        assert_eq!(reloaded.name, original.name);
        assert_eq!(reloaded.icache.dist, original.icache.dist);
        assert_eq!(reloaded.dcache.cache, original.dcache.cache);

        // Corrupt the file: the next fresh store quarantines it and
        // self-heals by re-simulating.
        let file = profile_files(&dir).pop().unwrap();
        let name = file.file_name().unwrap().to_owned();
        std::fs::write(&file, b"garbage").unwrap();
        let healer = ProfileStore::with_disk_dir(&dir);
        let healed = healer.fetch("gzip", Scale::Test);
        assert_eq!(healer.counters().misses, 1);
        assert_eq!(healer.counters().quarantined, 1);
        assert_eq!(healed.icache.dist, original.icache.dist);
        // The evidence landed in quarantine/ and the slot was rewritten
        // with a clean copy.
        let quarantined = dir.join(QUARANTINE_SUBDIR).join(name);
        assert_eq!(std::fs::read(&quarantined).unwrap(), b"garbage");
        let rewritten = ProfileStore::with_disk_dir(&dir);
        rewritten.fetch("gzip", Scale::Test);
        assert_eq!(rewritten.counters().disk_hits, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `.profile` files under `dir` (ignores `quarantine/`).
    fn profile_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "profile"))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn unknown_benchmark_panics_with_context() {
        let store = ProfileStore::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.fetch("perlbmk", Scale::Test)
        }))
        .unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("perlbmk"), "{message}");
    }

    #[test]
    fn unknown_benchmark_is_a_typed_error() {
        let store = ProfileStore::new();
        let err = store.try_fetch("perlbmk", Scale::Test).unwrap_err();
        assert!(matches!(err, StoreError::UnknownBenchmark { .. }), "{err}");
        // The failed fetch must not wedge the store.
        store.fetch("gzip", Scale::Test);
    }

    // Panic-injection recovery tests live in `tests/fault_tolerance.rs`
    // (their own process): the fault plane is process-global, and the
    // pipeline unit tests in this binary fetch the whole suite
    // concurrently.
}
