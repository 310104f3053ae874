//! Observability for the leakage-limit pipeline: a metrics registry,
//! scoped span timers, leveled logging, and run manifests.
//!
//! The crate is dependency-free (it must build under the
//! vendored-offline constraint) and cheap enough for per-access hot
//! loops:
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) are relaxed
//!   atomics. Call sites cache their handle through the [`counter!`],
//!   [`gauge!`] and [`histogram!`] macros, so the steady-state cost of
//!   an increment is one `OnceLock` load plus one relaxed
//!   `fetch_add`. Metrics are always live — they are bookkeeping, not
//!   tracing — and a process-wide [`registry`] enumerates them for
//!   export.
//!
//! * **Spans** ([`span`], [`span_under`]) are wall-time scopes that
//!   aggregate into a hierarchical profile keyed by slash-joined
//!   paths (`suite/gzip/simulate`). Each thread keeps its own span
//!   stack; a parent path captured with [`current_path`] before a
//!   rayon fan-out lets worker threads attach under the spawning
//!   scope via [`span_under`]. When telemetry is disabled (the
//!   default), [`span`] takes no timestamp, touches no lock, and
//!   returns an inert guard — a single relaxed load and branch.
//!
//! * **Logging** ([`error!`], [`warn!`], [`info!`], [`debug!`]) is
//!   filtered by the `LEAKAGE_LOG` environment variable
//!   (`error|warn|info|debug|off`); the default is `warn`, keeping
//!   normal runs quiet.
//!
//! * **Flight recorder** ([`FlightRecorder`]) is a fixed-capacity
//!   seqlock ring of per-request [`RequestRecord`]s plus an
//!   always-retained slow/error reservoir, sized by
//!   `LEAKAGE_RECORDER_CAP`. One `fetch_add` and eight relaxed stores
//!   per request; readers skip (never tear) slots being overwritten.
//!
//! * **Run manifests** ([`RunManifest`]) bundle free-form config
//!   key/values and per-experiment pass/fail verdicts with a snapshot
//!   of the registry and the span profile, serialized to JSON (no
//!   serde — the writer is in-crate) or exported in Prometheus text
//!   format ([`prometheus_text`]).
//!
//! Emission is controlled by `LEAKAGE_TELEMETRY=json|prom|off`
//! ([`emission_mode`]); [`set_enabled`] turns span collection on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod log;
mod manifest;
mod metrics;
mod prom;
pub mod recorder;
mod span;

pub use log::{log_enabled, set_log_level, Level};
pub use manifest::RunManifest;
pub use metrics::{
    registry, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
    StripedCounter, COUNTER_STRIPES,
};
pub use prom::prometheus_text;
pub use recorder::{
    FlightRecorder, RequestRecord, FLAG_CACHE_HIT, FLAG_CATALOG_HIT, FLAG_PANIC, FLAG_SHED,
};
pub use span::{
    current_path, span, span_report, span_tree, span_under, SpanGuard, SpanNode, SpanStat,
};

use std::sync::atomic::{AtomicBool, Ordering};

/// Environment variable selecting the emission mode (`json`, `prom`,
/// or `off`). Unset or unrecognized values mean [`Mode::Off`].
pub const TELEMETRY_ENV: &str = "LEAKAGE_TELEMETRY";

/// Environment variable selecting the log level filter
/// (`error|warn|info|debug|off`); default `warn`.
pub const LOG_ENV: &str = "LEAKAGE_LOG";

/// How (and whether) collected telemetry should be emitted at the end
/// of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Write the run manifest (registry snapshot, span profile,
    /// verdicts) as JSON.
    Json,
    /// Export the registry in Prometheus text format.
    Prom,
    /// Collect nothing, emit nothing (the default).
    Off,
}

/// Parses [`TELEMETRY_ENV`]. Unset, empty, or unrecognized → `Off`.
pub fn emission_mode() -> Mode {
    match std::env::var(TELEMETRY_ENV) {
        Ok(value) => match value.to_ascii_lowercase().as_str() {
            "json" => Mode::Json,
            "prom" | "prometheus" => Mode::Prom,
            _ => Mode::Off,
        },
        Err(_) => Mode::Off,
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span collection on or off process-wide. Metrics are always
/// live; only span timers (the part that takes timestamps and locks)
/// are gated.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span collection is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
