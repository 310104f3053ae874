//! Crash-safe durable files: the workspace's single write and
//! quarantine policy.
//!
//! Every file whose bytes matter after a crash — disk profiles, job
//! checkpoints, lease files, `job.json`, the `canceled` marker — goes
//! through this module, so the policy lives in exactly one place:
//!
//! * [`write_atomically`] writes a unique temp file in the target's
//!   directory, fsyncs it, and renames it into place. A crash at any
//!   point leaves the old file or the new one, never a mix, and no
//!   directory entry ever points at unsynced bytes. [`is_temp_name`]
//!   recognises the temp files a crashed writer leaves behind, so
//!   recovery code can sweep them.
//! * [`quarantine`] moves a file that failed verification verbatim into
//!   a sibling `quarantine/` pen, so a post-mortem can inspect the
//!   exact bytes while no reader can ever decode them again. A move
//!   that fails falls back to deleting the file: an unreadable file
//!   must not wedge every future read of its slot.
//! * Pens are capped at a byte budget ([`QUARANTINE_BUDGET_ENV`]) by
//!   evicting the *oldest* files first — the newest evidence is the
//!   most likely to still matter — so sustained corruption (or a chaos
//!   run) cannot fill the disk.
//!
//! The module reports what happened ([`Quarantined`]) instead of
//! logging or counting it; callers own their counters and log lines.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Name of the quarantine pen, a sibling of the files it receives.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Environment variable overriding the quarantine byte budget shared
/// by all pens. Unset means [`DEFAULT_BUDGET_BYTES`].
pub const QUARANTINE_BUDGET_ENV: &str = "LEAKAGE_QUARANTINE_BUDGET";

/// Default per-pen budget: 64 MiB of quarantined evidence.
pub const DEFAULT_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

/// Writes `bytes` to `path` atomically: a unique temp file in the same
/// directory, `write_all`, `sync_all`, rename.
///
/// # Errors
///
/// Any filesystem failure; the temp file is removed on error.
pub fn write_atomically(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A fresh temp path next to `path`: `<stem>.tmp.<pid>.<sequence>`.
/// Unique per process *and* per call, so two threads writing the same
/// target never interleave into one temp file.
fn temp_path(path: &Path) -> PathBuf {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let sequence = SEQUENCE.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp.{}.{sequence}", std::process::id()))
}

/// Whether `name` is a temp file name [`write_atomically`] creates
/// (`<stem>.tmp.<pid>.<sequence>`). Such a file outliving its writer
/// is garbage by construction: the rename never happened.
pub fn is_temp_name(name: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let mut parts = name.rsplitn(4, '.');
    matches!(
        (parts.next(), parts.next(), parts.next(), parts.next()),
        (Some(sequence), Some(pid), Some("tmp"), Some(stem))
            if digits(sequence) && digits(pid) && !stem.is_empty()
    )
}

/// What one [`quarantine`] call did.
#[derive(Debug)]
pub struct Quarantined {
    /// The pen: `<parent>/quarantine/`.
    pub pen: PathBuf,
    /// Where the file landed, or why the move failed (the file was
    /// then deleted in place).
    pub moved: io::Result<PathBuf>,
    /// What the budget pass evicted from the pen afterwards.
    pub evicted: Evicted,
}

/// Moves `path` verbatim into its sibling [`QUARANTINE_DIR`] pen,
/// deleting it in place if the move fails, then caps the pen at the
/// configured budget.
pub fn quarantine(path: &Path) -> Quarantined {
    let pen = path.with_file_name(QUARANTINE_DIR);
    let dest = pen.join(path.file_name().unwrap_or_default());
    let moved = fs::create_dir_all(&pen)
        .and_then(|()| fs::rename(path, &dest))
        .map(|()| dest);
    if moved.is_err() {
        let _ = fs::remove_file(path);
    }
    let evicted = enforce_budget(&pen, budget_from_env());
    Quarantined {
        pen,
        moved,
        evicted,
    }
}

/// What one budget pass removed from a pen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evicted {
    /// Files deleted, oldest first.
    pub files: u64,
    /// Their combined size in bytes.
    pub bytes: u64,
}

/// The configured pen budget: [`QUARANTINE_BUDGET_ENV`] when set to a
/// parseable byte count, otherwise [`DEFAULT_BUDGET_BYTES`].
fn budget_from_env() -> u64 {
    std::env::var(QUARANTINE_BUDGET_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse().ok())
        .unwrap_or(DEFAULT_BUDGET_BYTES)
}

/// Deletes the oldest files in `pen` until its total size fits
/// `budget` bytes. A missing pen is an empty pen; subdirectories are
/// left alone (pens are flat). Files whose metadata cannot be read are
/// skipped rather than guessed at, and deletion failures (e.g. a
/// concurrent reader on some platforms) are tolerated — the next
/// quarantine pass retries them.
fn enforce_budget(pen: &Path, budget: u64) -> Evicted {
    let Ok(entries) = fs::read_dir(pen) else {
        return Evicted::default();
    };
    let mut files: Vec<(SystemTime, u64, PathBuf)> = entries
        .flatten()
        .filter_map(|entry| {
            let meta = entry.metadata().ok()?;
            if !meta.is_file() {
                return None;
            }
            let stamp = meta.modified().ok()?;
            Some((stamp, meta.len(), entry.path()))
        })
        .collect();
    let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
    if total <= budget {
        return Evicted::default();
    }
    // Oldest first; ties broken by name so eviction order is stable.
    files.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.2.cmp(&b.2)));
    let mut evicted = Evicted::default();
    for (_, len, path) in files {
        if total <= budget {
            break;
        }
        if fs::remove_file(&path).is_ok() {
            total = total.saturating_sub(len);
            evicted.files += 1;
            evicted.bytes += len;
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pen(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "leakage-quarantine-budget-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn drop_file(dir: &Path, name: &str, bytes: usize, age_secs: u64) {
        let path = dir.join(name);
        fs::write(&path, vec![b'x'; bytes]).unwrap();
        // Backdate via mtime so "oldest" is deterministic without
        // sleeping between writes.
        let stamp = SystemTime::now() - std::time::Duration::from_secs(age_secs);
        let file = fs::File::options().append(true).open(&path).unwrap();
        file.set_modified(stamp).unwrap();
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn failed_rename_leaves_no_temp_file() {
        let dir = pen("rename");
        // A non-empty directory where the file should go: the temp
        // file is written and synced, then the rename fails.
        let target = dir.join("job.json");
        fs::create_dir_all(target.join("occupied")).unwrap();
        assert!(write_atomically(&target, b"{}").is_err());
        assert_eq!(
            names(&dir),
            ["job.json"],
            "only the blocking directory remains"
        );
        assert!(target.is_dir());
    }

    #[test]
    fn temp_names_are_recognised() {
        for name in [
            "chunk-000003.ckpt",
            "chunk-000003.lease",
            "job.json",
            "canceled",
        ] {
            let tmp = temp_path(&Path::new("job").join(name));
            let tmp = tmp.file_name().unwrap().to_string_lossy();
            assert!(is_temp_name(&tmp), "{tmp} is a temp name");
            assert!(!is_temp_name(name), "{name} is not a temp name");
        }
        for live in [
            "gzip-0123456789abcdef.profile",
            "tmp.1.2",
            "chunk.tmp.1.x",
            "chunk.tmp..2",
            "chunk.temp.1.2",
        ] {
            assert!(!is_temp_name(live), "{live} is not a temp name");
        }
    }

    #[test]
    fn quarantine_deletes_the_file_when_the_pen_cannot_be_created() {
        let dir = pen("blocked");
        fs::write(dir.join(QUARANTINE_DIR), b"a plain file in the way").unwrap();
        let path = dir.join("gzip-0123456789abcdef.profile");
        fs::write(&path, b"garbage").unwrap();
        let outcome = quarantine(&path);
        assert!(outcome.moved.is_err());
        assert!(!path.exists(), "a file that cannot be penned is deleted");
        assert_eq!(names(&dir), [QUARANTINE_DIR]);
    }

    #[test]
    fn under_budget_pens_are_untouched() {
        let dir = pen("under");
        drop_file(&dir, "a", 100, 30);
        drop_file(&dir, "b", 100, 10);
        assert_eq!(enforce_budget(&dir, 1000), Evicted::default());
        assert!(dir.join("a").exists() && dir.join("b").exists());
    }

    #[test]
    fn oldest_files_evict_first_until_the_budget_fits() {
        let dir = pen("evict");
        drop_file(&dir, "oldest", 400, 300);
        drop_file(&dir, "middle", 400, 200);
        drop_file(&dir, "newest", 400, 100);
        let evicted = enforce_budget(&dir, 900);
        assert_eq!(
            evicted,
            Evicted {
                files: 1,
                bytes: 400
            }
        );
        assert!(!dir.join("oldest").exists(), "oldest goes first");
        assert!(dir.join("middle").exists());
        assert!(dir.join("newest").exists());
        // Shrinking the budget keeps evicting in age order.
        let evicted = enforce_budget(&dir, 350);
        assert_eq!(evicted.files, 2, "both survivors exceed 350 bytes");
        assert!(!dir.join("middle").exists());
        assert!(!dir.join("newest").exists());
    }

    #[test]
    fn missing_pens_are_empty_pens() {
        let ghost = std::env::temp_dir().join("leakage-quarantine-ghost-pen");
        assert_eq!(enforce_budget(&ghost, 0), Evicted::default());
    }
}
