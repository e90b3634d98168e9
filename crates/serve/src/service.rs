//! Endpoint routing and the cache-backed projection handlers.
//!
//! ## Endpoints
//!
//! | Path           | Query                            | Body                                   |
//! |----------------|----------------------------------|----------------------------------------|
//! | `/v1/dl`       | `circuit`, `seed`, `dist`, …     | DL(T) at the full generated test set   |
//! | `/v1/dln`      | `circuit`, `n`                   | DL(n) under an n-detect schedule       |
//! | `/v1/curve`    | `circuit`, `seed`, `dist`, …     | `(k, T, θ, Γ, DL)` coverage samples    |
//! | `/v1/faults`   | `circuit`                        | extracted-fault report                 |
//! | `/v1/circuits` | —                                | the served catalogue, with classes     |
//! | `/v1/traces`   | `limit`                          | flight-recorder dump of slow/error traces |
//! | `/metrics`     | —                                | OpenMetrics exposition of the service  |
//! | `/healthz`     | —                                | liveness probe                         |
//!
//! `dist` selects the fallout distribution the DL projection assumes
//! (see [`fallout_param`]): `poisson` (default), `nb` with `alpha`, or
//! `hier` with `die_alpha`/`wafer_alpha`/`lot_alpha`/`dies_per_wafer`/
//! `wafers_per_lot`. All distributions are calibrated to the paper's
//! fixed yield, so responses compare the *same* line under different
//! clustering assumptions.
//!
//! The catalogue spans two compute classes ([`CircuitClass`]): the
//! small members run the full layout + extraction + ATPG + dual-sim
//! pipeline; the ISCAS-85-class analogues beyond monolithic
//! place-and-route reach are served through the tiled template path of
//! DESIGN.md §13 (kind-proxy critical-area weights from a cached
//! c432-class template, PPSFP under a seeded random test set).
//!
//! ## The cache-key contract
//!
//! Every cacheable response is addressed by a [`KeyHasher`] digest over,
//! in order: the endpoint name, the netlist fingerprint (structure and
//! names, via [`dlp_sim::ckpt::hash_netlist`]), the request seed, the
//! n-detect target, the fallout distribution (via
//! [`dlp_core::montecarlo::DieMix::write_key`] — the same bytes that
//! bind Monte-Carlo checkpoints to their distribution), the
//! defect-model parameters (the `Debug` rendering of
//! [`DefectStatistics::maly_cmos`]), [`ENGINE_VERSION`], and the crate
//! version. Anything that can change response bytes is in the key;
//! anything in the key that changes makes old artifacts unreachable
//! rather than wrong.
//!
//! One pipeline execution feeds three endpoints: a miss on `/v1/dl` or
//! `/v1/curve` runs extraction + simulation once and seals the `dl`,
//! `curve`, *and* `faults` artifacts for that `(circuit, seed, dist)`
//! (the fault report is distribution-independent and sealed under the
//! default key), so the natural exploration order (project, then
//! inspect the curve) pays for the pipeline once.
//!
//! Below the artifacts sits one in-memory catalogue entry per circuit,
//! built on the circuit's first request: its netlist, the key prefix of
//! each keyed endpoint (the hasher state after the endpoint name and
//! the netlist fingerprint), and its stage slot. So a hit neither
//! generates nor hashes a netlist. Layout and extraction depend only on
//! the netlist and the defect statistics, so the slot extracts each
//! circuit at most once per service. Every later miss on the circuit,
//! on any endpoint, and every scale-class miss (whose template is the
//! c432-class extraction) reuses it. Each miss counts one of
//! `serve.stage.compute` and `serve.stage.reuse`.
//!
//! ## Per-request tracing
//!
//! Every request runs under a [`TraceContext`] (DESIGN.md §16): a
//! deterministically derived trace id over a private recorder. The
//! handlers open their spans on that recorder — `http.parse` → `route`
//! → `cache.probe` → (miss) `recompute`, with the pipeline's stage
//! spans nested inside it because they ran there (`layout` and
//! `extract` only on the miss that computes the stage) → `seal` →
//! `write` —
//! so the trace is the recorder's span tree under a `request` root.
//! When the request completes, the recorder's totals merge into the
//! service's global recorder, so `/metrics` totals are identical to
//! direct recording for any completion order. The finished
//! [`dlp_core::obs::TraceRecord`] goes to the access log and the flight
//! recorder behind `/v1/traces`; every 4xx/5xx body carries the trace
//! id for correlation.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dlp_bench::pipeline::{self, Extraction, PAPER_YIELD};
use dlp_circuit::{generators, Netlist};
use dlp_core::ckpt::KeyHasher;
use dlp_core::obs::trace::derive_trace_id;
use dlp_core::obs::{FlightRecorder, Json, Recorder, TraceContext, TraceOutcome};
use dlp_core::par::ThreadCount;
use dlp_core::{PipelineError, Ppm, RunBudget, Stage};
use dlp_extract::defects::DefectStatistics;
use dlp_extract::sharded::{kind_map, TiledWeights};
use dlp_ndetect::{build_schedule_resumable, NDetectConfig};
use dlp_sim::detection::random_vectors;
use dlp_sim::switchlevel::DetectionMode;
use dlp_sim::{ppsfp, stuck_at};
use dlp_yield::dist::Fallout;

use crate::accesslog::{AccessLog, AccessLogConfig};
use crate::cache::{ArtifactCache, CacheLookup, ENGINE_VERSION};
use crate::error::ServeError;
use crate::http::{Request, Response, CONTENT_TYPE_OPENMETRICS};

/// How the service computes a circuit's projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitClass {
    /// The full pipeline: layout, realistic-fault extraction, ATPG,
    /// and both simulators.
    Full,
    /// The tiled template path (DESIGN.md §13): kind-proxy
    /// critical-area weights expanded from the cached c432-class
    /// template, PPSFP under a seeded random test set.
    Scale,
}

impl CircuitClass {
    /// The API rendering: `"full"` or `"scale"`.
    pub fn as_str(self) -> &'static str {
        match self {
            CircuitClass::Full => "full",
            CircuitClass::Scale => "scale",
        }
    }
}

/// Builds a catalogue member's netlist.
pub type Generator = fn() -> Netlist;

/// Circuits the service will project, by API name, with the compute
/// class each is served under and the generator of its netlist.
pub const CIRCUITS: &[(&str, CircuitClass, Generator)] = &[
    ("c17", CircuitClass::Full, generators::c17),
    ("c432", CircuitClass::Full, generators::c432_class),
    ("c1355", CircuitClass::Scale, generators::c1355_class),
    ("c2670", CircuitClass::Scale, generators::c2670_class),
    ("c5315", CircuitClass::Scale, generators::c5315_class),
    ("c6288", CircuitClass::Scale, generators::c6288_class),
    ("c7552", CircuitClass::Scale, generators::c7552_class),
];

/// Where c432-class, the scale path's template, sits in [`CIRCUITS`].
const TEMPLATE: usize = 1;

/// Largest accepted n-detect target (matches the `ndetect_dl` study).
pub const MAX_N: usize = 8;

/// Applied test length for scale-class members — the `scale_sweep`
/// bench's `VECTORS`, enough for the random-pattern-easy family to
/// saturate while keeping a cold miss bounded.
pub const SCALE_VECTORS: usize = 256;

/// Default negative-binomial cluster parameter when `dist=nb` is
/// requested without an explicit `alpha` (Stapper's mid-range).
pub const DEFAULT_NB_ALPHA: f64 = 2.0;

/// Default flight-recorder retention: up to this many slowest
/// successful traces plus this many most-recent errored ones.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 64;

/// Largest accepted `limit` on `/v1/traces` — a dump can never be
/// asked to render more traces than a generously sized recorder could
/// retain.
pub const MAX_TRACES_LIMIT: usize = 4096;

/// The endpoints the router recognizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/v1/dl` — DL(T) projection.
    Dl,
    /// `/v1/dln` — DL(n) under an n-detect schedule.
    Dln,
    /// `/v1/curve` — coverage-curve samples.
    Curve,
    /// `/v1/faults` — extracted-fault report.
    Faults,
    /// `/v1/circuits` — the served catalogue.
    Circuits,
    /// `/v1/traces` — flight-recorder dump.
    Traces,
    /// `/metrics` — OpenMetrics exposition.
    Metrics,
    /// `/healthz` — liveness probe.
    Health,
}

/// The stable label an endpoint carries in metric names, access-log
/// lines, and trace records.
pub fn endpoint_label(endpoint: Endpoint) -> &'static str {
    match endpoint {
        Endpoint::Dl => "dl",
        Endpoint::Dln => "dln",
        Endpoint::Curve => "curve",
        Endpoint::Faults => "faults",
        Endpoint::Circuits => "circuits",
        Endpoint::Traces => "traces",
        Endpoint::Metrics => "metrics",
        Endpoint::Health => "healthz",
    }
}

/// The cache disposition a finished request reports, read from its
/// per-request recorder. Corruption wins over a hit (the corrupt
/// artifact was recomputed), a hit over a miss (sibling sealing can
/// record a miss counter on a request that was ultimately served from
/// cache — never the reverse).
fn cache_label(obs: &Recorder) -> &'static str {
    let count = |name| obs.counter_value(name).unwrap_or(0);
    if count("serve.cache.corrupt") > 0 {
        "corrupt"
    } else if count("serve.cache.hit") > 0 {
        "hit"
    } else if count("serve.cache.miss") > 0 {
        "miss"
    } else {
        "none"
    }
}

/// Maps a request path to an endpoint.
///
/// # Errors
///
/// [`ServeError::UnknownEndpoint`] for any other path.
pub fn route(path: &str) -> Result<Endpoint, ServeError> {
    match path {
        "/v1/dl" => Ok(Endpoint::Dl),
        "/v1/dln" => Ok(Endpoint::Dln),
        "/v1/curve" => Ok(Endpoint::Curve),
        "/v1/faults" => Ok(Endpoint::Faults),
        "/v1/circuits" => Ok(Endpoint::Circuits),
        "/v1/traces" => Ok(Endpoint::Traces),
        "/metrics" => Ok(Endpoint::Metrics),
        "/healthz" => Ok(Endpoint::Health),
        _ => Err(ServeError::UnknownEndpoint {
            path: path.to_string(),
        }),
    }
}

/// Where a circuit name sits in [`CIRCUITS`].
///
/// # Errors
///
/// [`ServeError::UnknownCircuit`] when the name is not in [`CIRCUITS`].
fn catalogue_index(name: &str) -> Result<usize, ServeError> {
    CIRCUITS
        .iter()
        .position(|(n, ..)| *n == name)
        .ok_or_else(|| ServeError::UnknownCircuit {
            name: name.to_string(),
        })
}

/// The netlist behind an API circuit name.
///
/// # Errors
///
/// [`ServeError::UnknownCircuit`] when the name is not in [`CIRCUITS`].
pub fn netlist_for(name: &str) -> Result<Netlist, ServeError> {
    catalogue_index(name).map(|index| (CIRCUITS[index].2)())
}

/// Splits a raw query string into `(name, value)` pairs. No percent
/// decoding — every value the API accepts is `[A-Za-z0-9_]+`.
pub fn query_params(query: Option<&str>) -> Vec<(String, String)> {
    let Some(query) = query else {
        return Vec::new();
    };
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((name, value)) => (name.to_string(), value.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

fn required<'a>(params: &'a [(String, String)], name: &'static str) -> Result<&'a str, ServeError> {
    params
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
        .ok_or(ServeError::MissingParam { name })
}

fn u64_param(
    params: &[(String, String)],
    name: &'static str,
    default: u64,
) -> Result<u64, ServeError> {
    match params.iter().find(|(k, _)| k == name) {
        None => Ok(default),
        Some((_, v)) => v.parse().map_err(|_| ServeError::BadParam {
            name,
            what: format!("{v:?} is not a base-10 unsigned integer"),
        }),
    }
}

fn f64_param(
    params: &[(String, String)],
    name: &'static str,
    default: f64,
) -> Result<f64, ServeError> {
    match params.iter().find(|(k, _)| k == name) {
        None => Ok(default),
        // `parse::<f64>` accepts "NaN"/"inf"/negatives; the distribution
        // constructors reject those with a typed BadDistribution, which
        // the caller maps to a 400.
        Some((_, v)) => v.parse().map_err(|_| ServeError::BadParam {
            name,
            what: format!("{v:?} is not a number"),
        }),
    }
}

/// Parses the fallout-distribution selection from the query string:
/// `dist=poisson` (the default), `dist=nb` with `alpha`, or `dist=hier`
/// with `die_alpha`/`wafer_alpha`/`lot_alpha`/`dies_per_wafer`/
/// `wafers_per_lot` (defaults: [`dlp_yield::Hierarchical`]'s production
/// parameters 2/8/20/400/25).
///
/// # Errors
///
/// [`ServeError::BadParam`] for an unknown `dist` or any parameter the
/// distribution constructors reject (non-positive or non-finite α,
/// zero group sizes) — every garbage value answers 400, never a panic
/// or a silently-defaulted projection.
pub fn fallout_param(params: &[(String, String)]) -> Result<Fallout, ServeError> {
    let dist = params
        .iter()
        .find(|(k, _)| k == "dist")
        .map(|(_, v)| v.as_str())
        .unwrap_or("poisson");
    match dist {
        "poisson" => Ok(Fallout::poisson()),
        "nb" => {
            let alpha = f64_param(params, "alpha", DEFAULT_NB_ALPHA)?;
            Fallout::negative_binomial(alpha).map_err(|e| ServeError::BadParam {
                name: "alpha",
                what: e.to_string(),
            })
        }
        "hier" => {
            let die_alpha = f64_param(params, "die_alpha", 2.0)?;
            let wafer_alpha = f64_param(params, "wafer_alpha", 8.0)?;
            let lot_alpha = f64_param(params, "lot_alpha", 20.0)?;
            let dies_per_wafer = u64_param(params, "dies_per_wafer", 400)?;
            let wafers_per_lot = u64_param(params, "wafers_per_lot", 25)?;
            Fallout::hierarchical(
                die_alpha,
                wafer_alpha,
                lot_alpha,
                dies_per_wafer,
                wafers_per_lot,
            )
            .map_err(|e| ServeError::BadParam {
                name: "dist",
                what: e.to_string(),
            })
        }
        other => Err(ServeError::BadParam {
            name: "dist",
            what: format!("{other:?} is not one of poisson, nb, hier"),
        }),
    }
}

/// Parses the optional `limit` query parameter of `/v1/traces`:
/// `None` means "everything retained".
///
/// # Errors
///
/// [`ServeError::BadParam`] when `limit` is not an integer, is zero
/// (an empty dump is never what the caller meant), or exceeds
/// [`MAX_TRACES_LIMIT`].
pub fn traces_limit_param(params: &[(String, String)]) -> Result<Option<usize>, ServeError> {
    match params.iter().find(|(k, _)| k == "limit") {
        None => Ok(None),
        Some((_, v)) => {
            let limit: usize = v.parse().map_err(|_| ServeError::BadParam {
                name: "limit",
                what: format!("{v:?} is not a base-10 unsigned integer"),
            })?;
            if limit == 0 || limit > MAX_TRACES_LIMIT {
                return Err(ServeError::BadParam {
                    name: "limit",
                    what: format!("{limit} is outside the supported range 1..={MAX_TRACES_LIMIT}"),
                });
            }
            Ok(Some(limit))
        }
    }
}

/// The content-addressed key of one response artifact. Public so tests
/// and the fault-injection corpus can address artifacts directly; see
/// the module docs for the contract.
pub fn artifact_key(
    endpoint: &str,
    netlist: &Netlist,
    seed: u64,
    n: u64,
    fallout: &Fallout,
) -> u64 {
    finish_key(key_prefix(endpoint, netlist), seed, n, fallout)
}

/// The first half of [`artifact_key`]: the endpoint name and the
/// netlist fingerprint, the part a catalogue entry computes once.
fn key_prefix(endpoint: &str, netlist: &Netlist) -> KeyHasher {
    let mut h = KeyHasher::new();
    h.write_bytes(endpoint.as_bytes());
    dlp_sim::ckpt::hash_netlist(&mut h, netlist);
    h
}

/// The rest of [`artifact_key`] on top of a [`key_prefix`].
fn finish_key(mut h: KeyHasher, seed: u64, n: u64, fallout: &Fallout) -> u64 {
    static DEFECT_MODEL: OnceLock<String> = OnceLock::new();
    let defect_model = DEFECT_MODEL.get_or_init(|| format!("{:?}", DefectStatistics::maly_cmos()));
    h.write_u64(seed);
    h.write_u64(n);
    fallout.dist().write_key(&mut h);
    h.write_bytes(defect_model.as_bytes());
    h.write_u64(ENGINE_VERSION);
    h.write_bytes(env!("CARGO_PKG_VERSION").as_bytes());
    h.finish()
}

/// A memoised stage: the extraction, or the stage and message of the
/// error that stopped it.
type StageResult = Result<Arc<Extraction>, (Stage, String)>;

/// One catalogue member as the service holds it, built on its first
/// request.
struct Circuit {
    name: &'static str,
    class: CircuitClass,
    netlist: Netlist,
    /// [`key_prefix`] of each keyed endpoint.
    dl_key: KeyHasher,
    curve_key: KeyHasher,
    faults_key: KeyHasher,
    dln_key: KeyHasher,
    /// Layout + extraction, computed at most once (see
    /// [`Service::stage`]).
    stage: OnceLock<StageResult>,
}

impl Circuit {
    fn new(name: &'static str, class: CircuitClass, netlist: Netlist) -> Circuit {
        Circuit {
            name,
            class,
            dl_key: key_prefix("dl", &netlist),
            curve_key: key_prefix("curve", &netlist),
            faults_key: key_prefix("faults", &netlist),
            dln_key: key_prefix("dln", &netlist),
            netlist,
            stage: OnceLock::new(),
        }
    }
}

/// Configuration for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory the artifact cache lives in.
    pub cache_dir: String,
    /// Worker count for the simulation stages of a miss.
    pub threads: ThreadCount,
    /// Wall-clock budget for one miss recompute; `None` is unlimited.
    /// A tripped budget answers `503`, never a partial projection.
    pub miss_budget_ms: Option<u64>,
    /// Flight-recorder retention (slowest successes + recent errors,
    /// each bounded here); `0` disables trace retention and makes
    /// `/v1/traces` answer `409`.
    pub flight_capacity: usize,
    /// Where the per-request access log goes.
    pub access_log: AccessLogConfig,
}

/// The projection service: request handling over an [`ArtifactCache`]
/// and the stage memo, with a live [`Recorder`] feeding `/metrics`.
pub struct Service {
    cache: ArtifactCache,
    obs: Recorder,
    threads: ThreadCount,
    miss_budget_ms: Option<u64>,
    in_flight: AtomicI64,
    /// Monotonic request sequence; with the raw target it derives the
    /// deterministic trace id.
    seq: AtomicU64,
    flight: FlightRecorder,
    access_log: AccessLog,
    /// One entry per [`CIRCUITS`] member, in catalogue order.
    catalogue: [OnceLock<Circuit>; CIRCUITS.len()],
    /// The c432-class critical-area profile the scale-class members
    /// borrow, tiled once from the memoised c432-class extraction.
    scale: OnceLock<Result<TiledWeights, String>>,
}

impl Service {
    /// Opens the cache directory and the access log, and builds a
    /// service.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] if the cache directory cannot be created or
    /// the access-log file cannot be opened.
    pub fn new(config: &ServiceConfig) -> Result<Service, ServeError> {
        Ok(Service {
            cache: ArtifactCache::new(&config.cache_dir)?,
            obs: Recorder::enabled(),
            threads: config.threads,
            miss_budget_ms: config.miss_budget_ms,
            in_flight: AtomicI64::new(0),
            seq: AtomicU64::new(0),
            flight: FlightRecorder::new(config.flight_capacity),
            access_log: AccessLog::open(&config.access_log)?,
            catalogue: std::array::from_fn(|_| OnceLock::new()),
            scale: OnceLock::new(),
        })
    }

    /// The catalogue entry of `CIRCUITS[index]`, built on first use.
    fn circuit(&self, index: usize) -> &Circuit {
        self.catalogue[index].get_or_init(|| {
            let (name, class, generate) = CIRCUITS[index];
            Circuit::new(name, class, generate())
        })
    }

    /// The service's artifact cache (tests address artifacts directly).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The service's live recorder (tests assert on counters).
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// The flight recorder behind `/v1/traces` (tests inspect retained
    /// traces directly).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The `/v1/traces` document.
    ///
    /// # Errors
    ///
    /// [`ServeError::TracingDisabled`] when the flight recorder was
    /// configured with capacity 0.
    pub fn dump_traces(&self, limit: Option<usize>) -> Result<Json, ServeError> {
        if !self.flight.is_enabled() {
            return Err(ServeError::TracingDisabled);
        }
        Ok(self.flight.dump(limit))
    }

    /// Writes the flight recorder's full dump to the access log — the
    /// server calls this on clean shutdown so the retained slow/error
    /// traces outlive the process without any signal handling.
    pub fn shutdown_dump(&self) {
        if self.flight.is_enabled() && self.access_log.is_enabled() && !self.flight.is_empty() {
            self.access_log.write_json(&self.flight.dump(None));
        }
    }

    /// Handles one parsed request. Never fails: a [`ServeError`] is
    /// rendered as its mapped status with a JSON error body carrying
    /// the trace id. Also maintains the `/metrics` signals:
    /// `serve.requests`, `serve.errors`, the `serve.request_seconds`
    /// latency histograms (plain and per-endpoint × cache), and the
    /// `serve.in_flight` gauge.
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_traced(req, None)
    }

    /// [`handle`](Self::handle) for a request whose HTTP parse began at
    /// `parse_start`: the trace starts there, and the parse is its first
    /// span, `http.parse`.
    pub fn handle_traced(&self, req: &Request, parse_start: Option<Instant>) -> Response {
        let started = Instant::now();
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let trace_id = derive_trace_id(&req.target, seq);
        let ctx = TraceContext::new(trace_id, seq, parse_start.unwrap_or(started));
        if let Some(start) = parse_start {
            drop(ctx.obs().span_since("http.parse", start));
        }
        let depth = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.obs.gauge("serve.in_flight", depth as f64);
        let (response, endpoint, error) = match self.respond(req, ctx.obs()) {
            Ok((response, endpoint)) => (response, endpoint, None),
            Err(e) => {
                ctx.obs().incr("serve.errors");
                let (status, reason) = e.status();
                let endpoint = route(req.path()).map_or("invalid", endpoint_label);
                (
                    Response::error_traced(status, reason, &e.to_string(), ctx.trace_id()),
                    endpoint,
                    Some(e.to_string()),
                )
            }
        };
        ctx.obs().incr("serve.requests");
        let cache = cache_label(ctx.obs());
        let elapsed = started.elapsed().as_secs_f64();
        ctx.obs().observe("serve.request_seconds", elapsed);
        ctx.obs().observe(
            &format!("serve.request_seconds{{endpoint={endpoint},cache={cache}}}"),
            elapsed,
        );
        let params = query_params(req.query());
        let lookup = |name: &str| {
            params
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        let (record, request_obs) = ctx.finish(&TraceOutcome {
            endpoint,
            target: &req.target,
            circuit: lookup("circuit"),
            dist: lookup("dist"),
            status: response.status,
            cache,
            bytes: response.body.len() as u64,
            error,
        });
        self.obs.merge_from(&request_obs);
        let depth = self.in_flight.fetch_sub(1, Ordering::SeqCst) - 1;
        self.obs.gauge("serve.in_flight", depth as f64);
        self.access_log.write_record(&record);
        self.flight.record(record);
        response
    }

    /// Renders a request that failed HTTP parsing — same error-body
    /// shape and metrics as [`Service::handle`], without a [`Request`].
    /// The trace still exists (endpoint `invalid`, target
    /// `<unparsed>`), so even a malformed request leaves an access-log
    /// line and a flight-recorder entry.
    pub fn reject(&self, e: &crate::http::HttpError) -> Response {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let ctx = TraceContext::new(derive_trace_id("<unparsed>", seq), seq, Instant::now());
        ctx.obs().incr("serve.requests");
        ctx.obs().incr("serve.errors");
        let (status, reason) = e.status();
        let response = Response::error_traced(status, reason, &e.to_string(), ctx.trace_id());
        let (record, request_obs) = ctx.finish(&TraceOutcome {
            endpoint: "invalid",
            target: "<unparsed>",
            circuit: None,
            dist: None,
            status,
            cache: "none",
            bytes: response.body.len() as u64,
            error: Some(e.to_string()),
        });
        self.obs.merge_from(&request_obs);
        self.access_log.write_record(&record);
        self.flight.record(record);
        response
    }

    fn respond(
        &self,
        req: &Request,
        obs: &Recorder,
    ) -> Result<(Response, &'static str), ServeError> {
        let endpoint = {
            let _route = obs.span("route");
            route(req.path())?
        };
        let params = query_params(req.query());
        let response = match endpoint {
            Endpoint::Health => {
                let _write = obs.span("write");
                let body = Json::object([("status", Json::String("ok".to_string()))]);
                Response::ok_json(dlp_core::ckpt::render(&body))
            }
            Endpoint::Circuits => {
                let _write = obs.span("write");
                let circuits = CIRCUITS.iter().map(|(name, class, _)| {
                    Json::object([
                        ("name", Json::String((*name).to_string())),
                        ("class", Json::String(class.as_str().to_string())),
                    ])
                });
                let body = Json::object([("circuits", Json::Array(circuits.collect()))]);
                Response::ok_json(dlp_core::ckpt::render(&body))
            }
            Endpoint::Traces => {
                let limit = traces_limit_param(&params)?;
                let dump = self.dump_traces(limit)?;
                let _write = obs.span("write");
                Response::ok_json(dlp_core::ckpt::render(&dump))
            }
            Endpoint::Metrics => {
                let _write = obs.span("write");
                Response {
                    status: 200,
                    reason: "OK",
                    content_type: CONTENT_TYPE_OPENMETRICS,
                    body: self.obs.report("serve").to_openmetrics().into_bytes(),
                }
            }
            Endpoint::Dl | Endpoint::Curve | Endpoint::Faults => {
                let circuit = required(&params, "circuit")?;
                let seed = u64_param(&params, "seed", 0)?;
                let fallout = fallout_param(&params)?;
                let circuit = self.circuit(catalogue_index(circuit)?);
                self.projection(endpoint, circuit, seed, &fallout, obs)?
            }
            Endpoint::Dln => {
                let circuit = required(&params, "circuit")?;
                let n = u64_param(&params, "n", 1)?;
                if !(1..=MAX_N as u64).contains(&n) {
                    return Err(ServeError::BadParam {
                        name: "n",
                        what: format!("{n} is outside the supported range 1..={MAX_N}"),
                    });
                }
                self.dln(self.circuit(catalogue_index(circuit)?), n as usize, obs)?
            }
        };
        Ok((response, endpoint_label(endpoint)))
    }

    /// The shared handler behind `/v1/dl`, `/v1/curve`, `/v1/faults`.
    fn projection(
        &self,
        endpoint: Endpoint,
        circuit: &Circuit,
        seed: u64,
        fallout: &Fallout,
        obs: &Recorder,
    ) -> Result<Response, ServeError> {
        let dl_key = finish_key(circuit.dl_key.clone(), seed, 0, fallout);
        let curve_key = finish_key(circuit.curve_key.clone(), seed, 0, fallout);
        // The fault report depends only on the circuit — never on the
        // seed or the fallout distribution.
        let faults_key = finish_key(circuit.faults_key.clone(), 0, 0, &Fallout::poisson());
        let want = match endpoint {
            Endpoint::Dl => dl_key,
            Endpoint::Curve => curve_key,
            _ => faults_key,
        };
        let (body, _hit) = self.cache.get_or_compute(want, obs, || {
            let (dl, curve, faults) = match circuit.class {
                CircuitClass::Full => self.compute_projection(circuit, seed, fallout, obs),
                CircuitClass::Scale => self.compute_scale_projection(circuit, seed, fallout, obs),
            }
            .map_err(ServeError::from)?;
            // One execution feeds all three endpoints: seal the sibling
            // artifacts before returning the requested one. A sibling
            // already sealed intact holds these very bytes and is left
            // alone, so the seed-independent fault report is sealed once
            // per circuit rather than again on every fresh seed.
            let _seal = obs.span("seal");
            for (key, sibling) in [(dl_key, &dl), (curve_key, &curve), (faults_key, &faults)] {
                if key != want && !matches!(self.cache.lookup(key), CacheLookup::Hit(_)) {
                    self.cache.store(key, sibling)?;
                }
            }
            Ok(match endpoint {
                Endpoint::Dl => dl,
                Endpoint::Curve => curve,
                _ => faults,
            })
        })?;
        let _write = obs.span("write");
        Ok(Response::ok_json(body))
    }

    fn dln(&self, circuit: &Circuit, n: usize, obs: &Recorder) -> Result<Response, ServeError> {
        if circuit.class == CircuitClass::Scale {
            // The n-detect schedule needs the full ATPG + switch-level
            // stack, which is exactly what the scale path avoids.
            return Err(ServeError::BadParam {
                name: "circuit",
                what: format!(
                    "{} is served by the scale path; /v1/dln covers \
                     full-pipeline circuits only",
                    circuit.name
                ),
            });
        }
        let key = finish_key(circuit.dln_key.clone(), 0, n as u64, &Fallout::poisson());
        let (body, _hit) = self.cache.get_or_compute(key, obs, || {
            self.compute_dln(circuit, n, obs).map_err(ServeError::from)
        })?;
        let _write = obs.span("write");
        Ok(Response::ok_json(body))
    }

    fn miss_budget(&self) -> RunBudget {
        match self.miss_budget_ms {
            Some(ms) => RunBudget::unlimited().with_deadline(Duration::from_millis(ms)),
            None => RunBudget::unlimited(),
        }
    }

    /// The circuit's layout + extraction, computed at most once per
    /// service: the stage depends on the netlist and the defect
    /// statistics, never on the seed, `n` or the fallout model.
    /// Concurrent callers on one circuit wait for a single computation,
    /// and a failure is remembered. The call that computes counts
    /// `serve.stage.compute` and records the `layout` and `extract`
    /// spans; every other call counts `serve.stage.reuse`.
    fn stage(&self, circuit: &Circuit, obs: &Recorder) -> Result<Arc<Extraction>, PipelineError> {
        let mut computed = false;
        let result = circuit.stage.get_or_init(|| {
            computed = true;
            let stats = DefectStatistics::maly_cmos();
            pipeline::extract_netlist_obs(circuit.netlist.clone(), &stats, obs)
                .map(Arc::new)
                .map_err(|e| (e.stage(), e.message().to_string()))
        });
        obs.incr(if computed {
            "serve.stage.compute"
        } else {
            "serve.stage.reuse"
        });
        result
            .clone()
            .map_err(|(stage, message)| PipelineError::new(stage, message))
    }

    /// Extraction + ATPG + both simulators, once; returns the
    /// `(dl, curve, faults)` bodies in artifact form.
    ///
    /// Under the default Poisson fallout the DL numbers come from the
    /// historical `FaultWeights::defect_level` path, bit-identical to
    /// every release before the distribution existed; the clustered
    /// models evaluate `DL = 1 − Y(λ)/Y(θλ)` at the λ their own yield
    /// law calibrates to [`PAPER_YIELD`].
    fn compute_projection(
        &self,
        circuit: &Circuit,
        seed: u64,
        fallout: &Fallout,
        obs: &Recorder,
    ) -> Result<(Json, Json, Json), PipelineError> {
        let extraction = self.stage(circuit, obs)?;
        let budget = self.miss_budget();
        let run = pipeline::simulate_budgeted(&extraction, seed, self.threads, &budget, obs)?;
        let samples = pipeline::curve_samples(&extraction, &run)?;

        let k = run.vectors.len();
        let w = extraction.faults.weights();
        let t = run.record_t.coverage_after(k);
        let theta = run.record_theta.weighted_coverage_after(k, &w)?;
        let gamma = run.record_theta.coverage_after(k);
        let lambda = fallout
            .dist()
            .lambda_for_yield(PAPER_YIELD)
            .map_err(|e| PipelineError::from(e).context("fixed-yield calibration"))?;
        let legacy_poisson = matches!(fallout, Fallout::Poisson(_));
        let dl = if legacy_poisson {
            extraction
                .weights
                .defect_level(theta)
                .map_err(|e| PipelineError::from(e).context("DL at full test length"))?
        } else {
            fallout
                .dist()
                .defect_level(lambda, theta)
                .map_err(|e| PipelineError::from(e).context("DL at full test length"))?
        };

        let dl_body = Json::object([
            ("circuit", Json::String(circuit.name.to_string())),
            ("class", Json::String("full".to_string())),
            ("seed", Json::Number(seed as f64)),
            ("dist", Json::String(fallout.label())),
            ("lambda", Json::Number(lambda)),
            ("yield", Json::Number(PAPER_YIELD)),
            ("vectors", Json::Number(k as f64)),
            ("random_prefix", Json::Number(run.random_prefix as f64)),
            ("redundant", Json::Number(run.redundant as f64)),
            ("t", Json::Number(t)),
            ("theta", Json::Number(theta)),
            ("gamma", Json::Number(gamma)),
            ("dl", Json::Number(dl)),
            ("dl_ppm", Json::Number(Ppm::from_fraction(dl).value())),
        ]);
        let mut curve_rows = Vec::with_capacity(samples.len());
        for &(k, t, theta, gamma, dl) in &samples {
            let dl = if legacy_poisson {
                dl
            } else {
                fallout
                    .dist()
                    .defect_level(lambda, theta)
                    .map_err(|e| PipelineError::from(e).context(format!("curve DL at k = {k}")))?
            };
            curve_rows.push(Json::object([
                ("k", Json::Number(k as f64)),
                ("t", Json::Number(t)),
                ("theta", Json::Number(theta)),
                ("gamma", Json::Number(gamma)),
                ("dl", Json::Number(dl)),
            ]));
        }
        let curve_body = Json::object([
            ("circuit", Json::String(circuit.name.to_string())),
            ("class", Json::String("full".to_string())),
            ("seed", Json::Number(seed as f64)),
            ("dist", Json::String(fallout.label())),
            ("lambda", Json::Number(lambda)),
            ("yield", Json::Number(PAPER_YIELD)),
            ("samples", Json::Array(curve_rows)),
        ]);
        let faults_body = Json::object([
            ("circuit", Json::String(circuit.name.to_string())),
            ("class", Json::String("full".to_string())),
            ("gates", Json::Number(circuit.netlist.gate_count() as f64)),
            ("faults", Json::Number(extraction.faults.len() as f64)),
            (
                "bridge_weight",
                Json::Number(extraction.faults.bridge_weight()),
            ),
            ("open_weight", Json::Number(extraction.faults.open_weight())),
            (
                "diagnostics",
                Json::Number(extraction.diagnostics.len() as f64),
            ),
        ]);
        Ok((dl_body, curve_body, faults_body))
    }

    /// The c432-class template every scale-class miss borrows its
    /// critical-area profile from: the memoised c432-class extraction
    /// and its tiled weights, tiled once. A tiling failure is
    /// remembered like a stage failure.
    fn scale_template(
        &self,
        obs: &Recorder,
    ) -> Result<(Arc<Extraction>, &TiledWeights), PipelineError> {
        let extraction = self
            .stage(self.circuit(TEMPLATE), obs)
            .map_err(|e| e.context("scale template unavailable"))?;
        let tiled = self.scale.get_or_init(|| {
            let sites = stuck_at::enumerate(&extraction.netlist).collapse();
            TiledWeights::new(&extraction.netlist, &extraction.faults, sites.faults())
                .map_err(|e| e.to_string())
        });
        let tiled = tiled.as_ref().map_err(|msg| {
            PipelineError::new(
                Stage::Extraction,
                format!("scale template unavailable: {msg}"),
            )
        })?;
        Ok((extraction, tiled))
    }

    /// The scale-class path (DESIGN.md §13): critical-area weights
    /// expanded from the cached template by gate kind, one
    /// PPSFP pass over the collapsed stuck-at universe under a seeded
    /// random test set. No switch-level stage runs, so `t` and `gamma`
    /// both report the plain stuck-at coverage and θ is the
    /// weight-normalized coverage of the same record.
    fn compute_scale_projection(
        &self,
        circuit: &Circuit,
        seed: u64,
        fallout: &Fallout,
        obs: &Recorder,
    ) -> Result<(Json, Json, Json), PipelineError> {
        let (template, tiled) = self.scale_template(obs)?;
        let (name, netlist) = (circuit.name, &circuit.netlist);
        let sites = stuck_at::enumerate(netlist).collapse();
        let map = kind_map(&template.netlist, netlist);
        let w = tiled
            .expand(netlist, sites.faults(), &map)
            .map_err(|e| PipelineError::from(e).context(format!("{name} weights")))?;
        let lambda = fallout
            .dist()
            .lambda_for_yield(PAPER_YIELD)
            .map_err(|e| PipelineError::from(e).context("fixed-yield calibration"))?;
        let vectors = random_vectors(netlist.inputs().len(), SCALE_VECTORS, seed);
        let budget = self.miss_budget();
        let record = ppsfp::simulate_resumable(
            netlist,
            sites.faults(),
            &vectors,
            self.threads,
            obs,
            &budget,
            None,
        )
        .map_err(|e| PipelineError::from(e).context(format!("simulating {name}")))?;

        let k = vectors.len();
        let t = record.coverage_after(k);
        let theta = record
            .weighted_coverage_after(k, &w)
            .map_err(|e| PipelineError::from(e).context(format!("θ of {name}")))?;
        let dl = fallout
            .dist()
            .defect_level(lambda, theta)
            .map_err(|e| PipelineError::from(e).context("DL at full test length"))?;

        let dl_body = Json::object([
            ("circuit", Json::String(circuit.name.to_string())),
            ("class", Json::String("scale".to_string())),
            ("seed", Json::Number(seed as f64)),
            ("dist", Json::String(fallout.label())),
            ("lambda", Json::Number(lambda)),
            ("yield", Json::Number(PAPER_YIELD)),
            ("vectors", Json::Number(k as f64)),
            ("t", Json::Number(t)),
            ("theta", Json::Number(theta)),
            ("gamma", Json::Number(t)),
            ("dl", Json::Number(dl)),
            ("dl_ppm", Json::Number(Ppm::from_fraction(dl).value())),
        ]);

        // Log-spaced curve samples over the applied test set, like the
        // full path's `curve_samples`.
        let mut curve_rows = Vec::new();
        let mut at = 1usize;
        let mut lengths = Vec::new();
        while at < k {
            lengths.push(at);
            at = (at * 2).max(at + 1);
        }
        lengths.push(k);
        for k_at in lengths {
            let t_at = record.coverage_after(k_at);
            let theta_at = record
                .weighted_coverage_after(k_at, &w)
                .map_err(|e| PipelineError::from(e).context(format!("θ at k = {k_at}")))?;
            let dl_at = fallout
                .dist()
                .defect_level(lambda, theta_at)
                .map_err(|e| PipelineError::from(e).context(format!("curve DL at k = {k_at}")))?;
            curve_rows.push(Json::object([
                ("k", Json::Number(k_at as f64)),
                ("t", Json::Number(t_at)),
                ("theta", Json::Number(theta_at)),
                ("gamma", Json::Number(t_at)),
                ("dl", Json::Number(dl_at)),
            ]));
        }
        let curve_body = Json::object([
            ("circuit", Json::String(circuit.name.to_string())),
            ("class", Json::String("scale".to_string())),
            ("seed", Json::Number(seed as f64)),
            ("dist", Json::String(fallout.label())),
            ("lambda", Json::Number(lambda)),
            ("yield", Json::Number(PAPER_YIELD)),
            ("samples", Json::Array(curve_rows)),
        ]);

        let faults_body = Json::object([
            ("circuit", Json::String(circuit.name.to_string())),
            ("class", Json::String("scale".to_string())),
            ("gates", Json::Number(netlist.gate_count() as f64)),
            ("faults", Json::Number(sites.len() as f64)),
            ("template", Json::String("c432_class".to_string())),
            (
                "template_gates",
                Json::Number(template.netlist.gate_count() as f64),
            ),
        ]);
        Ok((dl_body, curve_body, faults_body))
    }

    /// DL(n): incremental n-detect schedule + one switch-level pass,
    /// the `ndetect_dl` study's measurement at a single target.
    fn compute_dln(
        &self,
        circuit: &Circuit,
        n: usize,
        obs: &Recorder,
    ) -> Result<Json, PipelineError> {
        let extraction = self.stage(circuit, obs)?;
        let netlist = &circuit.netlist;
        let budget = self.miss_budget();
        let sa = stuck_at::enumerate(netlist).collapse();
        let schedule = build_schedule_resumable(
            netlist,
            sa.faults(),
            n,
            &NDetectConfig::default(),
            &budget,
            None,
        )?;
        let (sim, lowered) = pipeline::switch_stage(&extraction)?;
        let record = sim.detect_obs(
            &lowered,
            &schedule.vectors,
            DetectionMode::Voltage,
            self.threads,
            obs,
        )?;
        let k = schedule.len_at[n - 1];
        let theta = record.weighted_coverage_after(k, &extraction.faults.weights())?;
        let dl = extraction
            .weights
            .defect_level(theta)
            .map_err(|e| PipelineError::from(e).context(format!("DL at n = {n}")))?;
        Ok(Json::object([
            ("circuit", Json::String(circuit.name.to_string())),
            ("n", Json::Number(n as f64)),
            ("yield", Json::Number(PAPER_YIELD)),
            ("test_len", Json::Number(k as f64)),
            (
                "below_target",
                Json::Number(schedule.below_target.len() as f64),
            ),
            ("theta", Json::Number(theta)),
            ("dl", Json::Number(dl)),
            ("dl_ppm", Json::Number(Ppm::from_fraction(dl).value())),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_covers_the_api() {
        assert_eq!(route("/v1/dl").expect("dl"), Endpoint::Dl);
        assert_eq!(route("/v1/dln").expect("dln"), Endpoint::Dln);
        assert_eq!(route("/v1/curve").expect("curve"), Endpoint::Curve);
        assert_eq!(route("/v1/faults").expect("faults"), Endpoint::Faults);
        assert_eq!(route("/v1/circuits").expect("circuits"), Endpoint::Circuits);
        assert_eq!(route("/v1/traces").expect("traces"), Endpoint::Traces);
        assert_eq!(route("/metrics").expect("metrics"), Endpoint::Metrics);
        assert_eq!(route("/healthz").expect("healthz"), Endpoint::Health);
        assert!(matches!(
            route("/v1/nope"),
            Err(ServeError::UnknownEndpoint { .. })
        ));
        assert!(matches!(
            route("/v1/dl/extra"),
            Err(ServeError::UnknownEndpoint { .. })
        ));
    }

    #[test]
    fn query_parsing_is_order_preserving_and_tolerant() {
        let params = query_params(Some("circuit=c17&seed=42&flag"));
        assert_eq!(
            params,
            vec![
                ("circuit".to_string(), "c17".to_string()),
                ("seed".to_string(), "42".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        assert!(query_params(None).is_empty());
        assert!(query_params(Some("")).is_empty());
    }

    #[test]
    fn catalogue_rejects_unknown_circuits() {
        for (name, ..) in CIRCUITS {
            assert!(netlist_for(name).is_ok(), "{name} should be served");
        }
        assert_eq!(CIRCUITS[TEMPLATE].0, "c432", "the scale template");
        assert!(matches!(
            netlist_for("c9999"),
            Err(ServeError::UnknownCircuit { .. })
        ));
    }

    #[test]
    fn keys_separate_every_dimension() {
        let c17 = generators::c17();
        let c432 = generators::c432_class();
        let p = Fallout::poisson();
        let base = artifact_key("dl", &c17, 0, 0, &p);
        assert_ne!(base, artifact_key("curve", &c17, 0, 0, &p), "endpoint");
        assert_ne!(base, artifact_key("dl", &c432, 0, 0, &p), "netlist");
        assert_ne!(base, artifact_key("dl", &c17, 1, 0, &p), "seed");
        assert_ne!(base, artifact_key("dl", &c17, 0, 1, &p), "n");
        assert_eq!(base, artifact_key("dl", &c17, 0, 0, &p), "stable");
        let nb2 = Fallout::negative_binomial(2.0).expect("alpha 2");
        let nb3 = Fallout::negative_binomial(3.0).expect("alpha 3");
        let hier = Fallout::hierarchical(2.0, 8.0, 20.0, 400, 25).expect("hier");
        assert_ne!(base, artifact_key("dl", &c17, 0, 0, &nb2), "distribution");
        assert_ne!(
            artifact_key("dl", &c17, 0, 0, &nb2),
            artifact_key("dl", &c17, 0, 0, &nb3),
            "cluster parameter"
        );
        assert_ne!(
            artifact_key("dl", &c17, 0, 0, &nb2),
            artifact_key("dl", &c17, 0, 0, &hier),
            "distribution family"
        );
    }

    #[test]
    fn fallout_parsing_covers_the_three_families() {
        let parse = |q: &str| fallout_param(&query_params(Some(q)));
        assert_eq!(parse("circuit=c17").expect("default"), Fallout::poisson());
        assert_eq!(parse("dist=poisson").expect("poisson"), Fallout::poisson());
        assert_eq!(
            parse("dist=nb&alpha=0.5").expect("nb 0.5").label(),
            "nb(alpha=0.5)"
        );
        assert_eq!(parse("dist=nb").expect("nb default").label(), "nb(alpha=2)");
        assert_eq!(
            parse("dist=hier").expect("hier default").label(),
            "hier(die=2,wafer=8,lot=20,dpw=400,wpl=25)"
        );
        assert_eq!(
            parse("dist=hier&die_alpha=1&dies_per_wafer=64")
                .expect("hier custom")
                .label(),
            "hier(die=1,wafer=8,lot=20,dpw=64,wpl=25)"
        );
        for bad in [
            "dist=weibull",
            "dist=nb&alpha=0",
            "dist=nb&alpha=-1",
            "dist=nb&alpha=NaN",
            "dist=nb&alpha=inf",
            "dist=nb&alpha=banana",
            "dist=hier&wafer_alpha=NaN",
            "dist=hier&dies_per_wafer=0",
        ] {
            assert!(
                matches!(parse(bad), Err(ServeError::BadParam { .. })),
                "{bad} must be a typed 400"
            );
        }
    }

    #[test]
    fn bad_params_are_typed() {
        let tmp = std::env::temp_dir().join(format!("dlp_serve_params_{}", std::process::id()));
        let service = Service::new(&ServiceConfig {
            cache_dir: tmp.to_string_lossy().into_owned(),
            threads: ThreadCount::fixed(1).expect("one thread"),
            miss_budget_ms: None,
            flight_capacity: 32,
            access_log: crate::accesslog::AccessLogConfig::Off,
        })
        .expect("service");
        let req = |target: &str| crate::http::Request {
            method: "GET".to_string(),
            target: target.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(service.handle(&req("/healthz")).status, 200);
        assert_eq!(service.handle(&req("/v1/nope")).status, 404);
        assert_eq!(
            service.handle(&req("/v1/dl")).status,
            400,
            "missing circuit"
        );
        assert_eq!(
            service.handle(&req("/v1/dl?circuit=c9999")).status,
            404,
            "unknown circuit"
        );
        assert_eq!(
            service
                .handle(&req("/v1/dl?circuit=c17&seed=banana"))
                .status,
            400,
            "bad seed"
        );
        assert_eq!(
            service.handle(&req("/v1/dln?circuit=c17&n=0")).status,
            400,
            "n below range"
        );
        assert_eq!(
            service.handle(&req("/v1/dln?circuit=c17&n=9")).status,
            400,
            "n above range"
        );
        assert_eq!(
            service
                .handle(&req("/v1/dl?circuit=c17&dist=weibull"))
                .status,
            400,
            "unknown distribution"
        );
        assert_eq!(
            service
                .handle(&req("/v1/dl?circuit=c17&dist=nb&alpha=0"))
                .status,
            400,
            "non-positive alpha"
        );
        assert_eq!(
            service
                .handle(&req("/v1/dl?circuit=c17&dist=nb&alpha=NaN"))
                .status,
            400,
            "non-finite alpha"
        );
        assert_eq!(
            service
                .handle(&req("/v1/dl?circuit=c17&dist=hier&dies_per_wafer=0"))
                .status,
            400,
            "empty wafer"
        );
        assert_eq!(
            service.handle(&req("/v1/dln?circuit=c1355&n=1")).status,
            400,
            "dln on a scale-class member"
        );
        assert_eq!(service.obs().counter_value("serve.errors"), Some(11));
        assert_eq!(service.obs().counter_value("serve.requests"), Some(12));
        // Every error left a trace: same count in the flight recorder
        // (plus the healthz success, which the recorder also retains
        // while below capacity).
        assert_eq!(service.flight().len(), 12);
    }

    #[test]
    fn traces_limit_parses_and_rejects_garbage() {
        let parse = |q: Option<&str>| traces_limit_param(&query_params(q));
        assert_eq!(parse(None).expect("absent"), None);
        assert_eq!(parse(Some("limit=1")).expect("one"), Some(1));
        assert_eq!(
            parse(Some("limit=4096")).expect("max"),
            Some(MAX_TRACES_LIMIT)
        );
        for bad in ["limit=banana", "limit=0", "limit=4097", "limit=999999999"] {
            assert!(
                matches!(parse(Some(bad)), Err(ServeError::BadParam { .. })),
                "{bad} must be a typed 400"
            );
        }
    }
}
