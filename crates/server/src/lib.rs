//! The leakage analysis service: a dependency-free HTTP/1.1 front end
//! for the paper-reproduction pipeline.
//!
//! ```text
//!   GET  /healthz                          liveness + suite listing
//!   GET  /metrics                          Prometheus text exposition
//!   GET  /v1/version                       generator/format/git versions
//!   GET  /v1/profile/<benchmark>?scale=..  memoized profile summary
//!   GET  /v1/table/{1,2,3}?format=json|csv paper tables on demand
//!   GET  /v1/figure/{7,8,9}?format=..      paper figure pairs
//!   POST /v1/sweep                         batched Fig. 6 model points
//!   POST /v1/trace/intervals?line_bits=..  streamed LKTR trace → interval summary
//!   GET  /debug/requests?n=&route=&min_us= flight-recorder ring dump
//!   GET  /debug/slow                       slowest + errored requests
//!   GET  /debug/stats                      rolling 10 s per-route stats
//! ```
//!
//! Production behaviors, all dependency-free on `std::net`:
//!
//! - **Keep-alive + pipelining**: HTTP/1.1 persistent connections with
//!   incremental parsing ([`http`], [`conn`]); pipelined requests are
//!   answered as one batched write.
//! - **Epoll reactor** (the only transport, so the server builds on
//!   Linux only): one readiness thread owns every idle connection;
//!   workers only ever touch connections with a complete parsed
//!   request ([`reactor`]).
//! - **Admission control**: a bounded queue between the reactor and
//!   the fixed worker pool; when full, the reactor itself answers
//!   503 + `Retry-After` ([`pool`]).
//! - **Per-endpoint concurrency limits**: simulation-backed GETs and
//!   sweep batches each hold a semaphore permit ([`limit`]).
//! - **Streaming uploads**: `POST /v1/trace/intervals` accepts
//!   `Transfer-Encoding: chunked` bodies without ever buffering them —
//!   the worker pumps wire bytes straight through the chunk deframer
//!   and trace decoder into the constant-memory streaming interval
//!   extractor ([`streaming`]).
//! - **Sharded hot state**: lock-striped profile-store front
//!   ([`storefront`]), sharded O(1)-eviction LRU response cache
//!   ([`respcache`]), striped telemetry counters.
//! - **Pre-serialized artifacts**: the finite default-scale artifact
//!   space is rendered to wire bytes once and served as `Arc` clones
//!   ([`artifacts`]).
//! - **Panic isolation**: a panicking handler — including one armed
//!   via `LEAKAGE_FAULTS=server/handler/<route>=panic` — costs that
//!   request a 500, never a worker ([`routes`]).
//! - **Graceful shutdown**: SIGINT/SIGTERM stop the reactor,
//!   admitted work drains, keep-alive connections are told
//!   `Connection: close`, workers join ([`signal`], [`pool`]).
//! - **Telemetry**: per-route request counters, latency histograms,
//!   and an in-flight gauge in the shared registry, served back out
//!   through `/metrics`.
//! - **Request tracing**: every request carries a `u64` trace id
//!   (honouring `X-Request-Id`) through reactor → queue → worker →
//!   handler, echoed back with a per-stage `Server-Timing` header
//!   ([`trace`]); completed requests land in a lock-free flight
//!   recorder served by `/debug/*` — exempt from admission shedding,
//!   so the observability plane stays reachable under overload.
//!
//! The [`loadgen`] module (and `loadgen` binary) is the closed-loop
//! measurement harness: keep-alive connections, optional pipelining,
//! throughput plus interpolated p50/p95/p99/max latency as JSON.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("leakage-server runs on Linux only: its transport is an epoll reactor");

pub mod artifacts;
pub mod conn;
pub mod http;
pub mod limit;
pub mod loadgen;
pub mod pool;
pub mod reactor;
pub mod respcache;
pub mod routes;
pub mod signal;
pub mod storefront;
pub mod streaming;
pub mod trace;

pub use http::{fetch, Client, ClientResponse, Request, Response, WireResponse};
pub use loadgen::{LoadgenConfig, LoadReport};
pub use pool::{Server, ServerConfig};
