//! `dlp-serve` — the DL-projection service.
//!
//! Serves the paper's defect-level projections — DL(T), DL(n), the
//! coverage curve, and the extracted-fault report — over a
//! dependency-free HTTP/1.1 API backed by a **content-addressed
//! artifact cache**: every response body is a deterministic function of
//! its cache key, so a hit replays the exact bytes a miss would have
//! computed, and a corrupted artifact degrades to a typed miss instead
//! of an error. Misses run the real pipeline (extraction → ATPG → gate-
//! and switch-level simulation) under a per-request
//! [`dlp_core::RunBudget`]; a tripped budget answers `503` rather than
//! a partial projection.
//!
//! Layer map:
//!
//! - [`http`] — request parsing with hard byte limits, response
//!   rendering; the surface the fault-injection corpus attacks.
//! - [`cache`] — sealed-envelope artifact store with single-flight
//!   recompute locks; see the module docs for the eviction policy.
//! - [`service`] — routing, the cache-key contract, and the projection
//!   handlers; `/metrics` exposes the live [`dlp_core::obs::Recorder`]
//!   as an OpenMetrics exposition. Every request runs under a
//!   [`dlp_core::obs::TraceContext`] — a trace id over the request's
//!   own recorder — whose span tree lands in the flight recorder
//!   behind `/v1/traces`.
//! - [`accesslog`] — one canonical-JSON line per finished request,
//!   on stderr or an append-only file.
//! - [`server`] — a fixed pool of workers, each accepting its own
//!   connections, with clean startup/shutdown for tests and the CI gate.
//!
//! Binaries: `dlp-serve` (the daemon), `serve_gate` (the CI
//! miss → hit → `/metrics` gate), `serve_load` (the latency benchmark
//! behind `BENCH_serve.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accesslog;
pub mod cache;
pub mod error;
pub mod http;
pub mod server;
pub mod service;

pub use accesslog::{AccessLog, AccessLogConfig};
pub use cache::{ArtifactCache, CacheLookup, CACHE_KIND, ENGINE_VERSION};
pub use error::ServeError;
pub use http::{parse_request, Request, Response};
pub use server::{serve, ServerConfig, ServerHandle};
pub use service::{
    artifact_key, fallout_param, netlist_for, route, traces_limit_param, CircuitClass, Service,
    ServiceConfig,
};
