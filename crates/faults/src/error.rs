//! Typed errors for the pipeline, profile store, and trace I/O layers.

use std::any::Any;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Extracts a human-readable message from a caught panic payload
/// (`&str` and `String` payloads, which is what `panic!` produces;
/// anything else reports its opacity rather than losing the event).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Failures of one benchmark inside the profiling fan-out.
///
/// The suite-level contract: a `PipelineError` is scoped to a single
/// benchmark, so `profile_suite_partial` can report it alongside the
/// other benchmarks' completed profiles.
#[derive(Debug)]
pub enum PipelineError {
    /// The benchmark's simulation (or its fault-injection site)
    /// panicked; the panic was caught at the task boundary.
    Panicked {
        /// The benchmark whose task panicked.
        benchmark: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// The profile store could not produce a profile.
    Store(StoreError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Panicked { benchmark, message } => {
                write!(f, "benchmark {benchmark} panicked: {message}")
            }
            PipelineError::Store(err) => write!(f, "profile store: {err}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Store(err) => Some(err),
            PipelineError::Panicked { .. } => None,
        }
    }
}

impl From<StoreError> for PipelineError {
    fn from(err: StoreError) -> Self {
        PipelineError::Store(err)
    }
}

/// Failures of the memoizing profile store.
#[derive(Debug)]
pub enum StoreError {
    /// The requested benchmark is not in the suite registry.
    UnknownBenchmark {
        /// The name that failed to resolve.
        name: String,
    },
    /// The simulation resolving a store miss panicked. The store
    /// recovers the per-key cell, so later fetches of the same key
    /// re-simulate instead of wedging.
    SimulationPanicked {
        /// The benchmark being simulated.
        benchmark: String,
        /// The panic payload, stringified.
        message: String,
    },
    /// Disk-layer I/O failed after retries. Reads degrade to a miss
    /// before this surfaces; it is reported for writes asked to be
    /// durable.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownBenchmark { name } => {
                write!(f, "unknown benchmark {name:?}; see SUITE_NAMES")
            }
            StoreError::SimulationPanicked { benchmark, message } => {
                write!(f, "simulation of {benchmark} panicked: {message}")
            }
            StoreError::Io { path, source } => {
                write!(f, "profile I/O on {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Failures of the binary trace reader/writer
/// (`leakage_trace::io`). Structural violations are separated from
/// transport errors so callers can retry the latter and reject the
/// former.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying read or write failed.
    Io(io::Error),
    /// The stream does not start with the trace magic.
    BadMagic,
    /// The header's format version is not the supported one.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The stream ended mid-record.
    TornRecord,
    /// A record carried an out-of-range access-kind byte.
    InvalidKind(u8),
    /// The trace holds no events, in a context that needs at least one
    /// (e.g. computing the trace's end cycle for interval extraction).
    /// Returned instead of panicking by the fallible accessors on
    /// `TraceStats` and the sources that require a non-empty stream.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(err) => write!(f, "trace I/O: {err}"),
            TraceError::BadMagic => write!(f, "not a leakage trace (bad magic)"),
            TraceError::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found}")
            }
            TraceError::TornRecord => write!(f, "torn trace record at end of stream"),
            TraceError::InvalidKind(byte) => write!(f, "invalid access kind byte {byte}"),
            TraceError::Empty => write!(f, "empty trace"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(err: io::Error) -> Self {
        TraceError::Io(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_messages_extracted() {
        let caught = std::panic::catch_unwind(|| panic!("plain str")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "plain str");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(42_u32)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "non-string panic payload");
    }

    #[test]
    fn displays_carry_context() {
        let err = PipelineError::Panicked {
            benchmark: "gzip".into(),
            message: "boom".into(),
        };
        assert!(err.to_string().contains("gzip"));
        assert!(err.to_string().contains("boom"));

        let err = StoreError::Io {
            path: PathBuf::from("/tmp/x.profile"),
            source: io::Error::new(io::ErrorKind::Other, "disk full"),
        };
        assert!(err.to_string().contains("x.profile"));
        assert!(std::error::Error::source(&err).is_some());

        let err = TraceError::UnsupportedVersion { found: 99 };
        assert!(err.to_string().contains("version 99"));

        assert_eq!(TraceError::Empty.to_string(), "empty trace");
        assert!(std::error::Error::source(&TraceError::Empty).is_none());
    }

    #[test]
    fn conversions_wrap() {
        let pipeline: PipelineError = StoreError::UnknownBenchmark {
            name: "nope".into(),
        }
        .into();
        assert!(matches!(pipeline, PipelineError::Store(_)));
        let trace: TraceError = io::Error::new(io::ErrorKind::Interrupted, "eintr").into();
        assert!(matches!(trace, TraceError::Io(_)));
    }
}
