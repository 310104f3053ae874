//! Bounded retry with exponential backoff for transient I/O.
//!
//! The disk profile store and trace I/O see two classes of failure:
//! *transient* conditions (`EINTR`, timeouts) that a short, bounded
//! retry absorbs, and *hard* failures (ENOSPC, permissions,
//! corruption) that retrying cannot fix. [`Transient`] draws that
//! line; [`retry`] applies it.

use std::io;
use std::time::Duration;

/// Classifies errors worth retrying. Blanket-implemented for the
/// workspace's error types; anything else can opt in.
pub trait Transient {
    /// Whether a bounded retry has any chance of clearing this error.
    fn is_transient(&self) -> bool;
}

impl Transient for io::Error {
    fn is_transient(&self) -> bool {
        matches!(
            self.kind(),
            io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        )
    }
}

impl Transient for crate::TraceError {
    fn is_transient(&self) -> bool {
        match self {
            crate::TraceError::Io(err) => err.is_transient(),
            _ => false,
        }
    }
}

impl Transient for crate::StoreError {
    fn is_transient(&self) -> bool {
        match self {
            crate::StoreError::Io { source, .. } => source.is_transient(),
            _ => false,
        }
    }
}

/// An exponential-backoff schedule: `attempts` tries total, sleeping
/// `base * 2^i` between try `i` and try `i+1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Total attempts (including the first); at least 1.
    pub attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub base: Duration,
}

impl Backoff {
    /// The store's disk-layer default: three attempts, 1 ms then 2 ms
    /// between them — enough to clear `EINTR` storms without
    /// stretching a failing run.
    pub const DISK: Backoff = Backoff {
        attempts: 3,
        base: Duration::from_millis(1),
    };

    /// A schedule that never sleeps (tests, latency-sensitive sites).
    pub const IMMEDIATE: Backoff = Backoff {
        attempts: 3,
        base: Duration::ZERO,
    };

    /// The sleep before retry `retry_index` (0-based), i.e.
    /// `base * 2^retry_index`.
    pub fn delay(&self, retry_index: u32) -> Duration {
        self.base.saturating_mul(1u32 << retry_index.min(16))
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::DISK
    }
}

/// Runs `op` until it succeeds, fails non-transiently, or exhausts the
/// schedule. The attempt number (0-based) is passed to `op` so callers
/// can log or vary behavior.
///
/// # Errors
///
/// The first non-transient error, or the last transient one once the
/// schedule is exhausted.
pub fn retry<T, E, F>(backoff: Backoff, mut op: F) -> Result<T, E>
where
    E: Transient,
    F: FnMut(u32) -> Result<T, E>,
{
    let attempts = backoff.attempts.max(1);
    let mut attempt = 0;
    loop {
        match op(attempt) {
            Ok(value) => return Ok(value),
            Err(err) if err.is_transient() && attempt + 1 < attempts => {
                let delay = backoff.delay(attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                attempt += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transient() -> io::Error {
        io::Error::new(io::ErrorKind::Interrupted, "eintr")
    }

    fn hard() -> io::Error {
        io::Error::new(io::ErrorKind::PermissionDenied, "denied")
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let mut calls = 0;
        let result: Result<u32, io::Error> = retry(Backoff::IMMEDIATE, |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(transient())
            } else {
                Ok(7)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(calls, 3);
    }

    #[test]
    fn hard_errors_fail_immediately() {
        let mut calls = 0;
        let result: Result<(), io::Error> = retry(Backoff::IMMEDIATE, |_| {
            calls += 1;
            Err(hard())
        });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::PermissionDenied);
        assert_eq!(calls, 1);
    }

    #[test]
    fn schedule_exhaustion_returns_last_error() {
        let mut calls = 0;
        let result: Result<(), io::Error> = retry(Backoff::IMMEDIATE, |_| {
            calls += 1;
            Err(transient())
        });
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(calls, 3);
    }

    #[test]
    fn delays_double() {
        let backoff = Backoff {
            attempts: 4,
            base: Duration::from_millis(1),
        };
        assert_eq!(backoff.delay(0), Duration::from_millis(1));
        assert_eq!(backoff.delay(1), Duration::from_millis(2));
        assert_eq!(backoff.delay(2), Duration::from_millis(4));
    }

    #[test]
    fn trace_and_store_errors_classify_through() {
        use crate::{StoreError, TraceError};
        assert!(TraceError::Io(transient()).is_transient());
        assert!(!TraceError::BadMagic.is_transient());
        assert!(StoreError::Io {
            path: "x".into(),
            source: transient()
        }
        .is_transient());
        assert!(!StoreError::UnknownBenchmark { name: "x".into() }.is_transient());
    }
}
