//! Per-chunk leases: deadline-stamped ownership with epochs.
//!
//! With stdio workers the coordinator owns every worker's lifetime, so
//! "the worker died" and "the chunk is free again" are the same event.
//! A socket transport breaks that: a partitioned worker looks exactly
//! like a dead one, keeps computing, and may deliver its chunk *after*
//! the coordinator has reassigned it. The lease manager makes
//! reassignment safe:
//!
//! * every assignment **acquires** a lease — a monotonically increasing
//!   per-chunk *epoch*, durably recorded as a deadline-stamped file in
//!   `<job>/leases/` so a post-mortem can reconstruct ownership;
//! * expiring a lease (missed heartbeats, stall deadline) bumps the
//!   epoch *before* the chunk returns to the queue, so frames sealed
//!   under the old epoch can never commit — the runner compares the
//!   sender's epoch against [`LeaseManager::current`] and discards
//!   stale answers (`jobs_late_commits_discarded_total`);
//! * a durable checkpoint **releases** the lease; first write wins and
//!   every later answer for that chunk is a discard, which also absorbs
//!   duplicated frames from a `net/dup` fault.
//!
//! Lease files are advisory evidence, not a lock service: the single
//! coordinator's in-memory epoch map is authoritative while it runs,
//! and a restart re-seeds epochs from the surviving files so a
//! pre-restart worker's frames still lose to any post-restart lease.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use leakage_faults::durable;

/// Subdirectory of a job dir holding the lease files.
pub const LEASE_SUBDIR: &str = "leases";

/// One chunk's current ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The ownership epoch; grows by one on every acquire *and* every
    /// expiry, so a revoked owner can never match again.
    pub epoch: u64,
    /// The worker id the chunk was assigned to (0 after an expiry).
    pub worker: u32,
    /// Wall-clock deadline stamped into the lease file, milliseconds
    /// since the Unix epoch.
    pub deadline_unix_ms: u64,
}

/// The per-job lease table; owned by the job's runner thread.
#[derive(Debug)]
pub struct LeaseManager {
    dir: PathBuf,
    leases: HashMap<u64, Lease>,
}

impl LeaseManager {
    /// Opens the lease table for a job directory, re-seeding epochs
    /// from any lease files a previous coordinator left behind —
    /// post-restart assignments must outrank pre-restart ones — and
    /// sweeping temp files a crashed lease write left behind.
    pub fn open(job_dir: &Path) -> LeaseManager {
        let dir = job_dir.join(LEASE_SUBDIR);
        let mut leases = HashMap::new();
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(chunk) = parse_lease_file_name(&name) else {
                    if durable::is_temp_name(&name) {
                        let _ = fs::remove_file(entry.path());
                    }
                    continue;
                };
                let recovered = fs::read_to_string(entry.path())
                    .ok()
                    .and_then(|text| parse_lease_body(&text));
                if let Some(lease) = recovered {
                    leases.insert(chunk, lease);
                }
            }
        }
        LeaseManager { dir, leases }
    }

    /// Grants the next epoch for `chunk` to `worker` and durably
    /// records it with a `ttl`-from-now deadline. Returns the epoch
    /// the assignment must carry.
    pub fn acquire(&mut self, chunk: u64, worker: u32, ttl: Duration) -> u64 {
        let epoch = self.current(chunk) + 1;
        let lease = Lease {
            epoch,
            worker,
            deadline_unix_ms: unix_ms_after(ttl),
        };
        self.leases.insert(chunk, lease);
        self.persist(chunk, &lease);
        epoch
    }

    /// Revokes `chunk`'s lease after a missed deadline: bumps the
    /// epoch so the old owner's frames can never commit, and records
    /// the revocation. Returns the new (unowned) epoch.
    pub fn expire(&mut self, chunk: u64) -> u64 {
        let epoch = self.current(chunk) + 1;
        let lease = Lease {
            epoch,
            worker: 0,
            deadline_unix_ms: unix_ms_after(Duration::ZERO),
        };
        self.leases.insert(chunk, lease);
        self.persist(chunk, &lease);
        epoch
    }

    /// The chunk's current epoch; 0 when it was never leased.
    pub fn current(&self, chunk: u64) -> u64 {
        self.leases.get(&chunk).map_or(0, |lease| lease.epoch)
    }

    /// Releases `chunk` after its checkpoint became durable: the epoch
    /// map keeps the final value (late frames still mismatch it via
    /// the runner's `done` bitmap), but the on-disk file is gone — a
    /// clean job dir ends with an empty `leases/`.
    pub fn release(&mut self, chunk: u64) {
        let _ = fs::remove_file(self.dir.join(lease_file_name(chunk)));
    }

    fn persist(&self, chunk: u64, lease: &Lease) {
        let body = format!(
            "leakage-job-lease v1\nchunk={chunk} epoch={} worker={} deadline_unix_ms={}\n",
            lease.epoch, lease.worker, lease.deadline_unix_ms
        );
        let write = fs::create_dir_all(&self.dir).and_then(|()| {
            durable::write_atomically(&self.dir.join(lease_file_name(chunk)), body.as_bytes())
        });
        if let Err(err) = write {
            // Leases are safety bookkeeping *about* durable state, not
            // the durable state itself; losing a lease file degrades
            // post-mortem evidence, never correctness.
            leakage_telemetry::warn!("jobs: lease write for chunk {chunk} failed: {err}");
        }
    }
}

fn lease_file_name(chunk: u64) -> String {
    format!("chunk-{chunk:06}.lease")
}

fn parse_lease_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("chunk-")?.strip_suffix(".lease")?;
    if digits.len() < 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn parse_lease_body(text: &str) -> Option<Lease> {
    let mut lines = text.lines();
    if lines.next()? != "leakage-job-lease v1" {
        return None;
    }
    let mut epoch = None;
    let mut worker = None;
    let mut deadline = None;
    for field in lines.next()?.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "epoch" => epoch = value.parse().ok(),
            "worker" => worker = value.parse().ok(),
            "deadline_unix_ms" => deadline = value.parse().ok(),
            _ => {}
        }
    }
    Some(Lease {
        epoch: epoch?,
        worker: worker?,
        deadline_unix_ms: deadline?,
    })
}

fn unix_ms_after(ttl: Duration) -> u64 {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or(Duration::ZERO);
    (now + ttl).as_millis() as u64
}

/// Read-only view of a job's lease files, for tests and post-mortems.
///
/// # Errors
///
/// Propagates directory-listing failures; unparseable files are
/// skipped (they are evidence, not state).
pub fn list_leases(job_dir: &Path) -> io::Result<Vec<(u64, Lease)>> {
    let dir = job_dir.join(LEASE_SUBDIR);
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut all = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(chunk) = parse_lease_file_name(&name.to_string_lossy()) else {
            continue;
        };
        if let Some(lease) =
            fs::read_to_string(entry.path()).ok().and_then(|t| parse_lease_body(&t))
        {
            all.push((chunk, lease));
        }
    }
    all.sort_by_key(|(chunk, _)| *chunk);
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "leakage-lease-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn epochs_grow_across_acquire_and_expire() {
        let dir = scratch("epochs");
        let mut leases = LeaseManager::open(&dir);
        assert_eq!(leases.current(3), 0, "never leased");
        assert_eq!(leases.acquire(3, 101, Duration::from_secs(5)), 1);
        assert_eq!(leases.expire(3), 2, "expiry revokes by bumping");
        assert_eq!(leases.acquire(3, 202, Duration::from_secs(5)), 3);
        assert_eq!(leases.current(3), 3);
        // Another chunk's epochs are independent.
        assert_eq!(leases.acquire(4, 101, Duration::from_secs(5)), 1);
    }

    #[test]
    fn leases_survive_a_coordinator_restart() {
        let dir = scratch("restart");
        let mut leases = LeaseManager::open(&dir);
        leases.acquire(0, 7, Duration::from_secs(30));
        leases.acquire(1, 8, Duration::from_secs(30));
        leases.expire(1);
        leases.acquire(2, 9, Duration::from_secs(30));
        leases.release(2);

        let reopened = LeaseManager::open(&dir);
        assert_eq!(reopened.current(0), 1, "live lease recovered");
        assert_eq!(reopened.current(1), 2, "revocation epoch recovered");
        assert_eq!(
            reopened.current(2),
            0,
            "released (committed) leases leave no file"
        );
        // Post-restart assignments outrank everything pre-restart.
        let mut reopened = reopened;
        assert_eq!(reopened.acquire(0, 11, Duration::from_secs(5)), 2);
    }

    #[test]
    fn lease_files_are_stamped_and_listable() {
        let dir = scratch("stamped");
        let mut leases = LeaseManager::open(&dir);
        leases.acquire(5, 42, Duration::from_secs(60));
        let listed = list_leases(&dir).unwrap();
        assert_eq!(listed.len(), 1);
        let (chunk, lease) = listed[0];
        assert_eq!(chunk, 5);
        assert_eq!(lease.epoch, 1);
        assert_eq!(lease.worker, 42);
        assert!(lease.deadline_unix_ms > unix_ms_after(Duration::ZERO));
        // Garbage in the lease dir is skipped, not fatal.
        fs::write(dir.join(LEASE_SUBDIR).join("chunk-000009.lease"), "junk").unwrap();
        fs::write(dir.join(LEASE_SUBDIR).join("notes.txt"), "hi").unwrap();
        assert_eq!(list_leases(&dir).unwrap().len(), 1);
        assert_eq!(LeaseManager::open(&dir).current(9), 0);
    }
}
