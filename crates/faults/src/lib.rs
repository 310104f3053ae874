//! Fault tolerance for the leakage-limit pipeline: typed errors, a
//! deterministic fault-injection plane, retry helpers, and the
//! crash-safe durable-file policy.
//!
//! The limit study's numbers only mean something if the harness
//! degrades gracefully: one panicking benchmark must not poison the
//! other five, and a crash mid-write must never leave a
//! decodable-but-wrong profile on disk. This crate is the shared
//! vocabulary for that discipline:
//!
//! * **Typed errors** ([`PipelineError`], [`StoreError`],
//!   [`TraceError`]) replace ad-hoc `unwrap`/`expect` chains at the
//!   crate boundaries, so callers can distinguish "retry this",
//!   "quarantine that file", and "this benchmark is lost" instead of
//!   aborting the process.
//!
//! * **Fault injection** ([`inject`]): the `LEAKAGE_FAULTS`
//!   environment variable arms named sites in the pipeline
//!   (`suite/gzip`, `store/write`, `trace/read`, …) with panics, I/O
//!   errors, write truncation, or latency — deterministically, so a CI
//!   job can inject a panic into exactly one benchmark and assert the
//!   other five complete. See [`inject::Plane`] for the spec grammar.
//!
//! * **Retry** ([`retry`]): bounded exponential backoff for transient
//!   I/O ([`retry::Transient`] classifies `Interrupted`-style errors),
//!   used by the disk profile store.
//!
//! * **Checksums** ([`checksum`]): the FNV-1a integrity primitive the
//!   profile codec's footer and the store's cache keys share.
//!
//! * **Durable files** ([`durable`]): the one crash-safe write path
//!   (temp file → fsync → rename) and the one quarantine move (into a
//!   sibling `quarantine/` pen capped at a byte budget, oldest evicted
//!   first) that every persisted profile, checkpoint and job file uses.
//!
//! The crate is dependency-free. Apart from how a durable file is
//! written and set aside, it makes no policy decisions itself — what
//! is retried, what is isolated, and what aborts is documented in
//! `DESIGN.md` ("Failure model & degradation policy") and implemented
//! at the call sites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod durable;
mod error;
pub mod inject;
pub mod retry;

pub use error::{panic_message, PipelineError, StoreError, TraceError};
pub use inject::{
    corrupt_point, io_point, panic_point, plane, set_plane, Plane, SpecError, FAULTS_ENV,
};
pub use retry::{retry, Backoff, Transient};
