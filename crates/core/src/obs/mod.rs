//! Dependency-free pipeline observability: a span tree, named
//! counters/gauges/series, log-bucketed histograms, and a JSON
//! [`RunReport`] with an OpenMetrics exposition.
//!
//! The extract → simulate → fit pipeline is exactly the kind of
//! multi-stage flow where silent data loss hides: a surprising `DL(T)`
//! curve gives no hint of *which* stage dropped faults or ate the
//! wall-clock. This module gives every stage a [`Recorder`] to write
//! into:
//!
//! * **spans** — monotonic wall-clock timing of a named scope
//!   ([`Recorder::span`] returns an RAII guard). Each span is recorded
//!   once, as a node of the recorder's span tree (see below); the
//!   per-name totals (`nanos`, `count`) are folded from the same node
//!   when it closes;
//! * **counters** — named monotonic `u64` tallies ([`Recorder::add`],
//!   [`Recorder::incr`]) such as faults enumerated or dies simulated;
//! * **gauges** — last-write-wins `f64` observations
//!   ([`Recorder::gauge`]) such as critical-area totals;
//! * **series** — append-only `f64` sequences ([`Recorder::push`]) such
//!   as the live-fault count per 64-pattern simulation block, bounded
//!   at [`SERIES_CAP`] points by 2:1 decimation (see below);
//! * **histograms** — log-bucketed value distributions
//!   ([`Recorder::observe`], [`hist::Histogram`]) such as per-chunk
//!   worker latencies, reported with p50/p90/p99/max.
//!
//! A snapshot of everything recorded is a [`RunReport`], which
//! serialises to a [`Json`] value laid out by the same renderer as the
//! bench harness's `BENCH_*.json` files, parses back with the hardened
//! [`Json`] reader
//! ([`RunReport::from_json`] — used by CI to validate emitted reports),
//! and exports as OpenMetrics text ([`RunReport::to_openmetrics`]) for
//! scraping. The bench bins share the schema discipline through
//! [`bench::BenchReport`]. A request trace ([`trace::TraceContext`]) is
//! a trace id over its own recorder, so run reports and `/v1/traces`
//! share one span model: [`SpanNode`].
//!
//! # The `DLP_TRACE` contract
//!
//! Tracing defaults to **off**: the pipeline entry points take a
//! [`Recorder`] and callers that do not care pass [`Recorder::noop`],
//! whose methods return before touching any state (a branch on one
//! `bool` — no clock reads, no allocation, no locking). Binaries that
//! honour tracing resolve [`TraceSetting::from_env`]: `DLP_TRACE`
//! unset, empty, or `0` is off; `1` means "write the report to the
//! caller's default path"; anything else is the report path itself.
//!
//! # The span tree
//!
//! An enabled span records a [`SpanNode`]: its name, its parent (the
//! innermost span still open on the same recorder), its start offset
//! from the recorder's origin (its first span, or a request's start),
//! and its duration. Stages nest because
//! they really ran inside each other — `extract` under `recompute` in a
//! service miss, `extract.bridges` under `extract` everywhere. Spans
//! are opened on the thread that drives a stage, never inside parallel
//! workers, so the tree's shape is the same at every `DLP_THREADS`.
//!
//! The tree is bounded like a series: at most [`SPAN_CAP`] nodes are
//! retained. A span opened past the cap still feeds its name's totals
//! and is tallied in the `obs.spans_dropped` counter of the emitted
//! report. [`Recorder::merge_from`] folds totals only, so a long-lived
//! recorder that merges many per-request recorders keeps no tree.
//!
//! # Bounded series memory
//!
//! A long Monte-Carlo run pushes one point per shard; unbounded series
//! would grow the trace with the workload. Each series is therefore
//! capped at [`SERIES_CAP`] retained points: on reaching the cap the
//! buffer is decimated 2:1 (every other point kept) and the acceptance
//! stride doubles, so the retained points stay an approximately uniform
//! subsample of the full sequence. Every point not retained is tallied
//! in the `obs.series_dropped_points` counter of the emitted report —
//! truncation is visible, never silent.
//!
//! # Determinism
//!
//! Recording never feeds back into computation: an enabled recorder
//! observes the pipeline but cannot perturb it, so results stay
//! bit-identical for every `DLP_THREADS` setting with tracing on or
//! off. The *report contents* are deterministic too, with two
//! documented exceptions: per-worker scheduling splits
//! (`<scope>.worker<i>.*` counters/series and wall-clock timing
//! telemetry) depend on which worker won which chunk; and histogram
//! *timing* values vary run to run. Histograms over deterministic
//! quantities (detections per block, shard escapes, pair weights) have
//! identical bucket counts — and therefore identical percentiles — for
//! every thread count, because bucket tallies are order-independent
//! integer adds (see [`hist`]).

pub mod bench;
pub mod hist;
pub mod json;
pub mod openmetrics;
pub mod trace;

pub use bench::{BenchEntry, BenchEnv, BenchReport, BENCH_SCHEMA_VERSION};
pub use hist::{HistEntry, Histogram};
pub use json::{Json, JsonError};
pub use openmetrics::OmError;
pub use trace::{FlightRecorder, TraceContext, TraceOutcome, TraceRecord};

use hist::Histogram as Hist;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The environment variable that enables trace reports.
pub const TRACE_ENV: &str = "DLP_TRACE";

/// Maximum retained points per series; see the module docs on bounded
/// series memory.
pub const SERIES_CAP: usize = 4096;

/// Maximum retained span-tree nodes per recorder; see the module docs
/// on the span tree.
pub const SPAN_CAP: usize = 4096;

/// Resolution of the `DLP_TRACE` environment variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSetting {
    /// Tracing disabled (unset, empty, or `0`).
    Off,
    /// Tracing enabled; write the report to the caller's default path
    /// (`DLP_TRACE=1`).
    Default,
    /// Tracing enabled; write the report to this path.
    Path(String),
}

impl TraceSetting {
    /// Reads [`TRACE_ENV`] from the environment.
    pub fn from_env() -> TraceSetting {
        Self::from_setting(std::env::var(TRACE_ENV).ok().as_deref())
    }

    /// Parses an explicit `DLP_TRACE`-style setting (`None` = unset).
    ///
    /// # Example
    ///
    /// ```
    /// use dlp_core::obs::TraceSetting;
    ///
    /// assert_eq!(TraceSetting::from_setting(None), TraceSetting::Off);
    /// assert_eq!(TraceSetting::from_setting(Some("0")), TraceSetting::Off);
    /// assert_eq!(TraceSetting::from_setting(Some("1")), TraceSetting::Default);
    /// assert_eq!(
    ///     TraceSetting::from_setting(Some("out/trace.json")),
    ///     TraceSetting::Path("out/trace.json".into())
    /// );
    /// ```
    pub fn from_setting(setting: Option<&str>) -> TraceSetting {
        match setting.map(str::trim) {
            None | Some("") | Some("0") => TraceSetting::Off,
            Some("1") => TraceSetting::Default,
            Some(path) => TraceSetting::Path(path.to_string()),
        }
    }

    /// Whether tracing is enabled at all.
    pub fn is_on(&self) -> bool {
        *self != TraceSetting::Off
    }

    /// The report path: `default` under [`TraceSetting::Default`], the
    /// explicit path under [`TraceSetting::Path`], `None` when off.
    pub fn resolve(&self, default: &str) -> Option<String> {
        match self {
            TraceSetting::Off => None,
            TraceSetting::Default => Some(default.to_string()),
            TraceSetting::Path(p) => Some(p.clone()),
        }
    }
}

/// Locks `m`, recovering the data of a poisoned mutex: recorded
/// telemetry stays usable after a panicking worker.
pub(crate) fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Nanoseconds from `start` to now, saturating.
pub(crate) fn elapsed_nanos(start: Instant) -> u64 {
    nanos_between(start, Instant::now())
}

fn nanos_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Accumulated timing of one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SpanStats {
    nanos: u64,
    count: u64,
}

/// One append-only series with cap-and-decimate memory bounding.
#[derive(Debug)]
struct SeriesBuf {
    points: Vec<f64>,
    /// Points to skip after each accepted point (`stride - 1`).
    skip: u64,
    /// Remaining skips before the next acceptance.
    pending: u64,
    /// Points pushed but not retained (skipped or decimated away).
    dropped: u64,
}

impl SeriesBuf {
    fn new() -> SeriesBuf {
        SeriesBuf {
            points: Vec::new(),
            skip: 0,
            pending: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, value: f64) {
        if self.pending > 0 {
            self.pending -= 1;
            self.dropped += 1;
            return;
        }
        self.points.push(value);
        self.pending = self.skip;
        if self.points.len() >= SERIES_CAP {
            // 2:1 decimation: keep even indices, double the stride. The
            // retained points remain a uniform subsample of the pushed
            // sequence (multiples of the new stride), and `pending`
            // already counts down to the next multiple.
            let mut keep = 0usize;
            for i in 0..self.points.len() {
                if i % 2 == 0 {
                    self.points[keep] = self.points[i];
                    keep += 1;
                }
            }
            self.dropped += (self.points.len() - keep) as u64;
            self.points.truncate(keep);
            self.skip = self.skip * 2 + 1;
        }
    }
}

#[derive(Debug, Default)]
struct State {
    spans: BTreeMap<String, SpanStats>,
    /// Retained span-tree nodes in open order; at most [`SPAN_CAP`].
    tree: Vec<SpanNode>,
    /// Retained nodes still open, innermost last, with their start.
    open: Vec<(usize, Instant)>,
    /// Spans opened past [`SPAN_CAP`]: in the totals, not in the tree.
    spans_dropped: u64,
    /// The instant node offsets count from; the first span's start
    /// unless set up front.
    origin: Option<Instant>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    series: BTreeMap<String, SeriesBuf>,
    hists: BTreeMap<String, Hist>,
}

impl State {
    const fn new() -> State {
        State {
            spans: BTreeMap::new(),
            tree: Vec::new(),
            open: Vec::new(),
            spans_dropped: 0,
            origin: None,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            series: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn add_span(&mut self, name: &str, nanos: u64, count: u64) {
        if let Some(s) = self.spans.get_mut(name) {
            s.nanos = s.nanos.saturating_add(nanos);
            s.count = s.count.saturating_add(count);
        } else {
            self.spans
                .insert(name.to_string(), SpanStats { nanos, count });
        }
    }

    fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = c.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    fn gauge(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    fn push(&mut self, name: &str, value: f64) {
        if let Some(s) = self.series.get_mut(name) {
            s.push(value);
        } else {
            let mut buf = SeriesBuf::new();
            buf.push(value);
            self.series.insert(name.to_string(), buf);
        }
    }

    fn merge_hist(&mut self, name: &str, h: &Hist) {
        if let Some(existing) = self.hists.get_mut(name) {
            existing.merge(h);
        } else {
            self.hists.insert(name.to_string(), h.clone());
        }
    }
}

/// The shared no-op recorder behind [`Recorder::noop`].
static NOOP: Recorder = Recorder::disabled();

/// Collects the span tree, counters, gauges, series, and histograms for
/// one pipeline run.
///
/// `Recorder` is `Sync`: parallel workers may record concurrently (the
/// state sits behind a mutex). A disabled recorder ([`Recorder::noop`] /
/// [`Recorder::disabled`]) short-circuits every method on a single
/// `bool` — the overhead contract the benches verify.
///
/// # Example
///
/// ```
/// use dlp_core::obs::Recorder;
///
/// let obs = Recorder::enabled();
/// {
///     let _span = obs.span("extract");
///     let _bridges = obs.span("extract.bridges");
///     obs.add("extract.faults", 128);
///     obs.gauge("extract.weight.total", 0.29);
///     obs.push("sim.live_per_block", 128.0);
///     obs.observe("sim.detects_per_block", 17.0);
/// }
/// let report = obs.report("demo");
/// assert_eq!(report.counter("extract.faults"), Some(128));
/// assert!(report.span_nanos("extract").is_some());
/// assert_eq!(report.tree[1].name, "extract.bridges");
/// assert_eq!(report.tree[1].parent, Some(report.tree[0].id));
/// assert_eq!(report.hist("sim.detects_per_block").map(|h| h.count), Some(1));
/// ```
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder that collects everything.
    pub const fn enabled() -> Recorder {
        Recorder {
            enabled: true,
            state: Mutex::new(State::new()),
        }
    }

    /// A recorder whose every method is a no-op.
    pub const fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            state: Mutex::new(State::new()),
        }
    }

    /// An enabled recorder whose span offsets count from `origin`.
    fn enabled_from(origin: Instant) -> Recorder {
        Recorder {
            enabled: true,
            state: Mutex::new(State {
                origin: Some(origin),
                ..State::new()
            }),
        }
    }

    /// The process-wide shared no-op recorder, for callers that do not
    /// trace.
    pub fn noop() -> &'static Recorder {
        &NOOP
    }

    /// A recorder matching a [`TraceSetting`]: collecting when the
    /// setting is on, no-op otherwise.
    pub fn from_setting(setting: &TraceSetting) -> Recorder {
        if setting.is_on() {
            Recorder::enabled()
        } else {
            Recorder::disabled()
        }
    }

    /// Whether this recorder collects anything. Use to skip building
    /// expensive labels (e.g. `format!`ed counter names) up front.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a named span, a child of the innermost span still open on
    /// this recorder. The returned guard closes it when dropped.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.open(name, self.enabled.then(Instant::now))
    }

    /// [`span`](Self::span) for an interval that began at `start`,
    /// before the call — e.g. the transport's HTTP parse, timed before
    /// the request was known.
    pub fn span_since(&self, name: &'static str, start: Instant) -> Span<'_> {
        self.open(name, self.enabled.then_some(start))
    }

    fn open(&self, name: &'static str, start: Option<Instant>) -> Span<'_> {
        let node = start.and_then(|start| {
            let mut state = lock_or_recover(&self.state);
            let origin = *state.origin.get_or_insert(start);
            let id = state.tree.len();
            if id >= SPAN_CAP {
                state.spans_dropped += 1;
                return None;
            }
            let parent = state.open.last().map(|&(p, _)| p as u64);
            state.tree.push(SpanNode {
                id: id as u64,
                parent,
                name: name.to_string(),
                start_nanos: nanos_between(origin, start),
                nanos: 0,
            });
            state.open.push((id, start));
            Some(id)
        });
        Span {
            recorder: self,
            name,
            start,
            node,
        }
    }

    /// When this recorder's span offsets start (`None` before the first
    /// span).
    fn origin(&self) -> Option<Instant> {
        lock_or_recover(&self.state).origin
    }

    /// Adds `delta` to the named monotonic counter (created at 0).
    pub fn add(&self, name: &str, delta: u64) {
        if self.enabled {
            lock_or_recover(&self.state).add(name, delta);
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// The named counter's current value (`None` when disabled or never
    /// written). Lets callers derive gauges from cumulative tallies.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        lock_or_recover(&self.state).counters.get(name).copied()
    }

    /// All counters whose name starts with `prefix`, sorted by name
    /// (empty when disabled).
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        if !self.enabled {
            return Vec::new();
        }
        lock_or_recover(&self.state)
            .counters
            .range(prefix.to_string()..)
            .take_while(|(n, _)| n.starts_with(prefix))
            .map(|(n, &v)| (n.clone(), v))
            .collect()
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        if self.enabled {
            lock_or_recover(&self.state).gauge(name, value);
        }
    }

    /// Appends `value` to the named series (bounded at [`SERIES_CAP`]
    /// retained points; see the module docs).
    pub fn push(&self, name: &str, value: f64) {
        if self.enabled {
            lock_or_recover(&self.state).push(name, value);
        }
    }

    /// Records `value` into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        if !self.enabled {
            return;
        }
        let mut state = lock_or_recover(&self.state);
        if let Some(h) = state.hists.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Hist::new();
            h.observe(value);
            state.hists.insert(name.to_string(), h);
        }
    }

    /// Merges a locally-built histogram into the named histogram — the
    /// low-contention path for workers that tally privately and merge
    /// once (bucket adds commute, so merge order cannot change the
    /// result).
    pub fn merge_hist(&self, name: &str, h: &Hist) {
        if self.enabled {
            lock_or_recover(&self.state).merge_hist(name, h);
        }
    }

    /// Folds the totals `other` recorded into this recorder: span
    /// totals and counters add, histograms merge bucket-wise, series
    /// points append (dropped tallies carried over), gauges last-write
    /// win. The span tree is not merged — it stays with `other`. Addition
    /// commutes, so merging per-request recorders in any completion
    /// order yields the same totals direct recording would have — the
    /// property that keeps the service's `/metrics` stable across
    /// worker counts.
    ///
    /// A no-op when either side is disabled. `other` is snapshotted
    /// under its own lock before this recorder's lock is taken, so the
    /// two locks are never held at once.
    pub fn merge_from(&self, other: &Recorder) {
        if !self.enabled || !other.enabled {
            return;
        }
        let (spans, counters, gauges, series, hists) = {
            let theirs = lock_or_recover(&other.state);
            let series: Vec<(String, Vec<f64>, u64)> = theirs
                .series
                .iter()
                .map(|(n, s)| (n.clone(), s.points.clone(), s.dropped))
                .collect();
            (
                theirs.spans.clone(),
                theirs.counters.clone(),
                theirs.gauges.clone(),
                series,
                theirs.hists.clone(),
            )
        };
        let mut state = lock_or_recover(&self.state);
        for (name, s) in &spans {
            state.add_span(name, s.nanos, s.count);
        }
        for (name, value) in &counters {
            state.add(name, *value);
        }
        for (name, value) in &gauges {
            state.gauge(name, *value);
        }
        for (name, h) in &hists {
            state.merge_hist(name, h);
        }
        for (name, points, dropped) in series {
            let buf = state.series.entry(name).or_insert_with(SeriesBuf::new);
            for p in points {
                buf.push(p);
            }
            buf.dropped = buf.dropped.saturating_add(dropped);
        }
    }

    /// Snapshots everything recorded so far into a [`RunReport`]. A span
    /// still open is reported with its duration so far.
    pub fn report(&self, name: &str) -> RunReport {
        let state = lock_or_recover(&self.state);
        let mut counters = state.counters.clone();
        let series_dropped: u64 = state.series.values().map(|s| s.dropped).sum();
        for (counter, dropped) in [
            ("obs.series_dropped_points", series_dropped),
            ("obs.spans_dropped", state.spans_dropped),
        ] {
            if dropped > 0 {
                let c = counters.entry(counter.to_string()).or_insert(0);
                *c = c.saturating_add(dropped);
            }
        }
        let mut tree = state.tree.clone();
        let now = Instant::now();
        for &(id, start) in &state.open {
            if let Some(node) = tree.get_mut(id) {
                node.nanos = nanos_between(start, now);
            }
        }
        RunReport {
            name: name.to_string(),
            spans: state
                .spans
                .iter()
                .map(|(n, s)| SpanEntry {
                    name: n.clone(),
                    nanos: s.nanos,
                    count: s.count,
                })
                .collect(),
            counters: counters.into_iter().collect(),
            gauges: state.gauges.iter().map(|(n, &v)| (n.clone(), v)).collect(),
            series: state
                .series
                .iter()
                .map(|(n, s)| (n.clone(), s.points.clone()))
                .collect(),
            hists: state.hists.iter().map(|(n, h)| h.snapshot(n)).collect(),
            tree,
        }
    }
}

/// RAII span guard from [`Recorder::span`]; closes the span on drop.
#[derive(Debug)]
pub struct Span<'a> {
    recorder: &'a Recorder,
    name: &'static str,
    /// `None` when the recorder is disabled or the span already closed.
    start: Option<Instant>,
    /// The retained tree node; `None` past [`SPAN_CAP`].
    node: Option<usize>,
}

impl Span<'_> {
    /// Closes the span at `end`: fills in its tree node and folds its
    /// duration into the name's totals.
    fn close(&mut self, end: Instant) {
        let Some(start) = self.start.take() else {
            return;
        };
        let nanos = nanos_between(start, end);
        let mut state = lock_or_recover(&self.recorder.state);
        if let Some(id) = self.node {
            if let Some(node) = state.tree.get_mut(id) {
                node.nanos = nanos;
            }
            if let Some(pos) = state.open.iter().rposition(|&(i, _)| i == id) {
                state.open.remove(pos);
            }
        }
        state.add_span(self.name, nanos, 1);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.start.is_some() {
            self.close(Instant::now());
        }
    }
}

/// Accumulated timing of one named span in a [`RunReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEntry {
    /// The span name.
    pub name: String,
    /// Total wall-clock nanoseconds across all executions.
    pub nanos: u64,
    /// How many times the span ran.
    pub count: u64,
}

/// One span of a recorded tree — the node type of both
/// [`RunReport::tree`] and [`TraceRecord::spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Node id: its index in open order.
    pub id: u64,
    /// The enclosing span's id; `None` for a top-level span.
    pub parent: Option<u64>,
    /// The span name (`extract`, `cache.probe`, …).
    pub name: String,
    /// Nanoseconds from the recorder's origin (a run's first span, a
    /// request's start) to the span's start.
    pub start_nanos: u64,
    /// The span's duration in nanoseconds.
    pub nanos: u64,
}

impl SpanNode {
    /// The node as a JSON object with keys `id`, `parent` (`null` at
    /// the top), `name`, `start_nanos` and `nanos`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("id", Json::Number(self.id as f64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
            ),
            ("name", Json::String(self.name.clone())),
            ("start_nanos", Json::Number(self.start_nanos as f64)),
            ("nanos", Json::Number(self.nanos as f64)),
        ])
    }

    /// Parses the shape [`to_json`](Self::to_json) writes.
    ///
    /// # Errors
    ///
    /// [`JsonError`] (offset 0) when a field is missing or is not a
    /// non-negative integer.
    pub fn from_json(v: &Json) -> Result<SpanNode, JsonError> {
        let err = || JsonError {
            offset: 0,
            message: "malformed span node",
        };
        let field = |key: &str| v.get(key).ok_or_else(err);
        let int = |key: &str| field(key)?.as_uint().ok_or_else(err);
        Ok(SpanNode {
            id: int("id")?,
            parent: match field("parent")? {
                Json::Null => None,
                p => Some(p.as_uint().ok_or_else(err)?),
            },
            name: field("name")?.as_str().ok_or_else(err)?.to_string(),
            start_nanos: int("start_nanos")?,
            nanos: int("nanos")?,
        })
    }
}

/// Decodes each member of the object section `key` of a run report
/// (an absent section decodes to nothing).
fn section<T>(
    doc: &Json,
    key: &str,
    decode: impl Fn(String, &Json) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    let members = doc.get(key).and_then(Json::as_object).unwrap_or(&[]);
    members.iter().map(|(n, v)| decode(n.clone(), v)).collect()
}

/// An immutable snapshot of a [`Recorder`], serialisable to JSON and to
/// OpenMetrics text.
///
/// The JSON shape, as [`write_to`](Self::write_to) lays it out with
/// [`crate::ckpt::render_pretty`] (every number, integral ones
/// included, is written as a float; non-finite values as `null`):
///
/// ```json
/// {
///   "name": "full_flow_c432",
///   "spans": {
///     "extract": {"nanos":91342011.0,"count":1.0}
///   },
///   "counters": {"extract.faults":1182.0},
///   "gauges": {"extract.weight.total":0.2876},
///   "series": {
///     "sim.gate.live_per_block": [864.0,131.0,42.0]
///   },
///   "hists": {
///     "sim.gate.detects_per_block": {
///       "count": 3.0,
///       "invalid": 0.0,
///       "sum": 61.0,
///       "min": 4.0,
///       "max": 38.0,
///       "buckets": [
///         [4.5,1.0],
///         [20.0,1.0],
///         [40.0,1.0]
///       ]
///     }
///   },
///   "tree": [
///     {"id":0.0,"parent":null,"name":"extract","start_nanos":0.0,"nanos":91342011.0}
///   ]
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// The run name (the `TRACE_<name>.json` stem by convention).
    pub name: String,
    /// Per-span accumulated timings, sorted by name.
    pub spans: Vec<SpanEntry>,
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Series, sorted by name.
    pub series: Vec<(String, Vec<f64>)>,
    /// Histogram snapshots, sorted by name.
    pub hists: Vec<HistEntry>,
    /// The retained span tree, in open order (empty for reports written
    /// before the tree existed).
    pub tree: Vec<SpanNode>,
}

impl RunReport {
    /// Total nanoseconds of the named span, if recorded.
    pub fn span_nanos(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.name == name).map(|s| s.nanos)
    }

    /// The named counter's value, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The named gauge's value, if recorded.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The named series, if recorded.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// The named histogram snapshot, if recorded.
    pub fn hist(&self, name: &str) -> Option<&HistEntry> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// The report as a [`Json`] value of the shape in the type docs.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Number(v as f64);
        let floats = |vs: &[f64]| Json::Array(vs.iter().copied().map(Json::Number).collect());
        let spans = self.spans.iter().map(|s| {
            let totals = [("nanos", int(s.nanos)), ("count", int(s.count))];
            (&s.name, Json::object(totals))
        });
        let hists = self.hists.iter().map(|h| {
            let buckets = h
                .buckets
                .iter()
                .map(|&(bound, count)| Json::Array(vec![Json::Number(bound), int(count)]));
            let hist = Json::object([
                ("count", int(h.count)),
                ("invalid", int(h.invalid)),
                ("sum", Json::Number(h.sum)),
                ("min", Json::Number(h.min)),
                ("max", Json::Number(h.max)),
                ("buckets", Json::Array(buckets.collect())),
            ]);
            (&h.name, hist)
        });
        Json::object([
            ("name", Json::String(self.name.clone())),
            ("spans", Json::object(spans)),
            (
                "counters",
                Json::object(self.counters.iter().map(|(n, v)| (n, int(*v)))),
            ),
            (
                "gauges",
                Json::object(self.gauges.iter().map(|(n, v)| (n, Json::Number(*v)))),
            ),
            (
                "series",
                Json::object(self.series.iter().map(|(n, vs)| (n, floats(vs)))),
            ),
            ("hists", Json::object(hists)),
            (
                "tree",
                Json::Array(self.tree.iter().map(SpanNode::to_json).collect()),
            ),
        ])
    }

    /// Parses a serialised report back (the inverse of
    /// [`to_json`](Self::to_json)). Reports written before histograms
    /// or the span tree existed (no `"hists"` / `"tree"` key) parse with
    /// those sections empty;
    /// `null` numbers deserialise as the non-finite sentinels they
    /// stood for (`NaN`, or ±∞ for an empty histogram's min/max).
    ///
    /// # Errors
    ///
    /// [`JsonError`] for malformed JSON or a malformed section (offset
    /// 0 for schema-level problems), including a count that breaks the
    /// integer rule of [`Json::as_uint`].
    pub fn from_json(text: &str) -> Result<RunReport, JsonError> {
        let schema_err = |message| JsonError { offset: 0, message };
        let doc = Json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| schema_err("missing report name"))?
            .to_string();
        let int = |v: Option<&Json>, message| {
            v.and_then(Json::as_uint).ok_or_else(|| schema_err(message))
        };
        let num_or_null = |v: Option<&Json>, null_means: f64, message: &'static str| match v {
            Some(Json::Null) => Ok(null_means),
            v => v.and_then(Json::as_f64).ok_or_else(|| schema_err(message)),
        };
        let spans = section(&doc, "spans", |name, v| {
            Ok(SpanEntry {
                name,
                nanos: int(v.get("nanos"), "missing or malformed span nanos")?,
                count: int(v.get("count"), "missing or malformed span count")?,
            })
        })?;
        let counters = section(&doc, "counters", |n, v| {
            Ok((n, int(Some(v), "malformed counter value")?))
        })?;
        let gauges = section(&doc, "gauges", |n, v| {
            Ok((n, num_or_null(Some(v), f64::NAN, "malformed gauge value")?))
        })?;
        let series = section(&doc, "series", |n, v| {
            let points = v
                .as_array()
                .ok_or_else(|| schema_err("series must be an array"))?
                .iter()
                .map(|p| num_or_null(Some(p), f64::NAN, "malformed series point"));
            Ok((n, points.collect::<Result<_, _>>()?))
        })?;
        let hists = section(&doc, "hists", |name, v| {
            let buckets = v
                .get("buckets")
                .and_then(Json::as_array)
                .ok_or_else(|| schema_err("missing or malformed hist buckets"))?
                .iter()
                .map(|pair| match pair.as_array() {
                    Some([bound, count]) => Ok((
                        bound
                            .as_f64()
                            .ok_or_else(|| schema_err("malformed bucket bound"))?,
                        int(Some(count), "malformed bucket count")?,
                    )),
                    _ => Err(schema_err("hist bucket must be a [bound, count] pair")),
                });
            Ok(HistEntry {
                name,
                count: int(v.get("count"), "missing or malformed hist count")?,
                invalid: int(v.get("invalid"), "missing or malformed hist invalid")?,
                sum: num_or_null(v.get("sum"), f64::NAN, "missing or malformed hist sum")?,
                min: num_or_null(v.get("min"), f64::INFINITY, "missing or malformed hist min")?,
                max: num_or_null(
                    v.get("max"),
                    f64::NEG_INFINITY,
                    "missing or malformed hist max",
                )?,
                buckets: buckets.collect::<Result<_, _>>()?,
            })
        })?;
        let tree = match doc.get("tree") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| schema_err("tree must be an array"))?
                .iter()
                .map(SpanNode::from_json)
                .collect::<Result<Vec<SpanNode>, JsonError>>()?,
        };
        Ok(RunReport {
            name,
            spans,
            counters,
            gauges,
            series,
            hists,
            tree,
        })
    }

    /// Renders the report as OpenMetrics text exposition (see
    /// [`openmetrics`] for the family schema); always ends with
    /// `# EOF`. The output satisfies [`openmetrics::validate`].
    pub fn to_openmetrics(&self) -> String {
        openmetrics::render(self)
    }

    /// Writes [`to_json`](Self::to_json), laid out by
    /// [`crate::ckpt::render_pretty`], to `path` atomically
    /// (write-temp-then-rename via [`crate::ckpt::atomic_write`]), so a
    /// crash mid-write can never leave a half-written trace.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating, writing, or renaming the file.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        crate::ckpt::atomic_write(path, &crate::ckpt::render_pretty(&self.to_json()))
    }

    /// Reads and verifies a report previously written by
    /// [`write_to`](Self::write_to): the file must exist, be UTF-8, and
    /// parse as a run report.
    ///
    /// # Errors
    ///
    /// [`crate::ckpt::CkptError::Io`] if the file cannot be read,
    /// [`crate::ckpt::CkptError::Json`] if it does not parse.
    pub fn load(path: &str) -> Result<RunReport, crate::ckpt::CkptError> {
        Ok(RunReport::from_json(&crate::ckpt::read_text(path)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A report as [`RunReport::write_to`] writes it.
    fn text(report: &RunReport) -> String {
        crate::ckpt::render_pretty(&report.to_json())
    }

    #[test]
    fn trace_setting_parses() {
        assert_eq!(TraceSetting::from_setting(None), TraceSetting::Off);
        assert_eq!(TraceSetting::from_setting(Some("")), TraceSetting::Off);
        assert_eq!(TraceSetting::from_setting(Some(" 0 ")), TraceSetting::Off);
        assert_eq!(TraceSetting::from_setting(Some("1")), TraceSetting::Default);
        assert_eq!(
            TraceSetting::from_setting(Some("a/b.json")),
            TraceSetting::Path("a/b.json".to_string())
        );
        assert_eq!(TraceSetting::Off.resolve("x.json"), None);
        assert_eq!(
            TraceSetting::Default.resolve("x.json"),
            Some("x.json".to_string())
        );
        assert_eq!(
            TraceSetting::Path("y.json".to_string()).resolve("x.json"),
            Some("y.json".to_string())
        );
        assert!(!TraceSetting::Off.is_on());
        assert!(TraceSetting::Default.is_on());
    }

    #[test]
    fn noop_recorder_records_nothing() {
        let obs = Recorder::noop();
        assert!(!obs.is_enabled());
        {
            let _span = obs.span("stage");
            obs.add("c", 3);
            obs.gauge("g", 1.5);
            obs.push("s", 2.0);
            obs.observe("h", 4.0);
        }
        let report = obs.report("noop");
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert!(report.series.is_empty());
        assert!(report.hists.is_empty());
        assert_eq!(obs.counter_value("c"), None);
        assert!(obs.counters_with_prefix("").is_empty());
    }

    #[test]
    fn enabled_recorder_accumulates() {
        let obs = Recorder::enabled();
        for _ in 0..3 {
            let _span = obs.span("stage");
            obs.add("c", 2);
            obs.push("s", 1.0);
            obs.observe("h", 10.0);
        }
        obs.incr("c");
        obs.gauge("g", 1.0);
        obs.gauge("g", 2.5);
        let report = obs.report("run");
        assert_eq!(report.name, "run");
        assert_eq!(report.counter("c"), Some(7));
        assert_eq!(report.gauge("g"), Some(2.5));
        assert_eq!(report.series("s"), Some(&[1.0, 1.0, 1.0][..]));
        let h = report.hist("h").expect("histogram recorded");
        assert_eq!(h.count, 3);
        assert_eq!(h.p50(), Some(10.0));
        let span = &report.spans[0];
        assert_eq!(span.name, "stage");
        assert_eq!(span.count, 3);
        assert_eq!(report.span_nanos("stage"), Some(span.nanos));
        assert_eq!(report.counter("missing"), None);
        assert_eq!(obs.counter_value("c"), Some(7));
    }

    #[test]
    fn counters_with_prefix_filters_and_sorts() {
        let obs = Recorder::enabled();
        obs.add("sim.worker1.busy", 5);
        obs.add("sim.worker0.busy", 3);
        obs.add("sim.wall", 9);
        obs.add("extract.faults", 1);
        assert_eq!(
            obs.counters_with_prefix("sim.worker"),
            vec![
                ("sim.worker0.busy".to_string(), 3),
                ("sim.worker1.busy".to_string(), 5)
            ]
        );
        assert!(obs.counters_with_prefix("nothing").is_empty());
    }

    #[test]
    fn recorder_is_sync_across_threads() {
        let obs = Recorder::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..100 {
                        obs.incr("hits");
                        obs.observe("values", f64::from(i));
                    }
                });
            }
        });
        let report = obs.report("t");
        assert_eq!(report.counter("hits"), Some(400));
        assert_eq!(report.hist("values").map(|h| h.count), Some(400));
    }

    #[test]
    fn merge_hist_matches_direct_observation() {
        let direct = Recorder::enabled();
        let merged = Recorder::enabled();
        let mut local = Histogram::new();
        for v in [1.0, 5.0, 9.0, 1024.0] {
            direct.observe("h", v);
            local.observe(v);
        }
        merged.merge_hist("h", &local);
        merged.merge_hist("h", &Histogram::new());
        assert_eq!(direct.report("a").hist("h"), merged.report("b").hist("h"));
    }

    #[test]
    fn merge_from_matches_direct_recording() {
        // Record the same activity directly and via two per-request
        // recorders merged in, and demand identical reports except for
        // the span tree, which merging does not carry.
        let direct = Recorder::enabled();
        let merged = Recorder::enabled();
        let t0 = Instant::now();
        for part in 0..2u64 {
            let child = Recorder::enabled();
            for obs in [&direct, &child] {
                obs.add("requests", 1 + part);
                let mut span = obs.span_since("stage", t0);
                span.close(t0 + Duration::from_nanos(100 * (part + 1)));
                obs.observe("latency", 2.0 * (part as f64 + 1.0));
                obs.push("points", part as f64);
            }
            merged.merge_from(&child);
        }
        direct.gauge("g", 7.0);
        merged.gauge("g", 7.0);
        let (direct, merged) = (direct.report("x"), merged.report("x"));
        assert_eq!(direct.span_nanos("stage"), Some(300));
        assert_eq!(direct.tree.len(), 2);
        assert!(merged.tree.is_empty());
        assert_eq!(
            RunReport {
                tree: Vec::new(),
                ..direct
            },
            merged
        );
    }

    #[test]
    fn span_tree_nests_by_open_order() {
        let obs = Recorder::enabled();
        {
            let _extract = obs.span("extract");
            {
                let _bridges = obs.span("extract.bridges");
            }
            let _opens = obs.span("extract.opens");
        }
        let _open = obs.span("sim.gate");
        let tree = obs.report("t").tree;
        let shape: Vec<(&str, Option<u64>)> =
            tree.iter().map(|n| (n.name.as_str(), n.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("extract", None),
                ("extract.bridges", Some(0)),
                ("extract.opens", Some(0)),
                ("sim.gate", None),
            ]
        );
        // Children lie inside their parents; the still-open span is
        // reported with its duration so far.
        for n in &tree[1..3] {
            assert!(n.start_nanos >= tree[0].start_nanos);
            assert!(n.start_nanos + n.nanos <= tree[0].start_nanos + tree[0].nanos);
        }
        assert!(tree[3].start_nanos >= tree[0].start_nanos + tree[0].nanos);
    }

    #[test]
    fn span_tree_is_bounded_with_visible_drops() {
        let obs = Recorder::enabled();
        {
            let _outer = obs.span("outer");
            for _ in 0..2 * SPAN_CAP {
                let _s = obs.span("s");
            }
        }
        let report = obs.report("bounded");
        assert!(report.tree.len() <= SPAN_CAP);
        let count = report.spans.iter().find(|s| s.name == "s").map(|s| s.count);
        assert_eq!(count, Some(2 * SPAN_CAP as u64));
        let dropped = report.counter("obs.spans_dropped").unwrap_or(0);
        assert_eq!(dropped as usize + report.tree.len(), 2 * SPAN_CAP + 1);
        // Merging carries the totals, not the tree or its drop tally.
        let target = Recorder::enabled();
        target.merge_from(&obs);
        let merged = target.report("merged");
        assert!(merged.tree.is_empty());
        assert_eq!(merged.counter("obs.spans_dropped"), None);
        assert_eq!(merged.spans, report.spans);
        // A short run reports no drop counter.
        let short = Recorder::enabled();
        drop(short.span("s"));
        assert_eq!(short.report("short").counter("obs.spans_dropped"), None);
    }

    #[test]
    fn merge_from_is_commutative_for_counters_and_hists() {
        let a = Recorder::enabled();
        a.add("c", 3);
        a.observe("h", 1.0);
        let b = Recorder::enabled();
        b.add("c", 5);
        b.observe("h", 900.0);
        let ab = Recorder::enabled();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let ba = Recorder::enabled();
        ba.merge_from(&b);
        ba.merge_from(&a);
        let (rab, rba) = (ab.report("m"), ba.report("m"));
        assert_eq!(rab.counter("c"), Some(8));
        assert_eq!(rab.counter("c"), rba.counter("c"));
        assert_eq!(rab.hist("h"), rba.hist("h"));
        assert_eq!(rab.span_nanos("x"), None);
    }

    #[test]
    fn merge_from_disabled_sides_is_a_noop() {
        let target = Recorder::enabled();
        target.add("c", 1);
        target.merge_from(Recorder::noop());
        assert_eq!(target.counter_value("c"), Some(1));
        let noop = Recorder::disabled();
        let busy = Recorder::enabled();
        busy.add("c", 9);
        noop.merge_from(&busy);
        assert_eq!(noop.counter_value("c"), None);
    }

    #[test]
    fn merge_from_carries_series_drop_accounting_once() {
        // A child that decimated its series must not double-report the
        // dropped points after merging.
        let child = Recorder::enabled();
        for i in 0..(2 * SERIES_CAP) {
            child.push("s", i as f64);
        }
        let child_dropped = child
            .report("c")
            .counter("obs.series_dropped_points")
            .unwrap_or(0);
        assert!(child_dropped > 0);
        let target = Recorder::enabled();
        target.merge_from(&child);
        let merged = target.report("t");
        let merged_dropped = merged.counter("obs.series_dropped_points").unwrap_or(0);
        let retained = merged.series("s").map_or(0, <[f64]>::len);
        assert_eq!(merged_dropped as usize + retained, 2 * SERIES_CAP);
    }

    #[test]
    fn series_memory_is_bounded_with_visible_drops() {
        const PUSHES: usize = 10_000;
        let obs = Recorder::enabled();
        for i in 0..PUSHES {
            obs.push("long", i as f64);
        }
        let report = obs.report("bounded");
        let points = report.series("long").expect("series recorded");
        assert!(points.len() <= SERIES_CAP, "len = {}", points.len());
        // After two decimations the stride is 4: the retained points are
        // exactly the multiples of 4, a uniform subsample.
        for (i, &p) in points.iter().enumerate() {
            assert_eq!(p, (4 * i) as f64);
        }
        // Every dropped point is accounted for.
        let dropped = report.counter("obs.series_dropped_points").unwrap_or(0);
        assert_eq!(dropped as usize + points.len(), PUSHES);
        // Short series are untouched and report no drop counter.
        let short = Recorder::enabled();
        for i in 0..100 {
            short.push("s", f64::from(i));
        }
        let report = short.report("short");
        assert_eq!(report.series("s").map(<[f64]>::len), Some(100));
        assert_eq!(report.counter("obs.series_dropped_points"), None);
    }

    #[test]
    fn report_json_round_trips_through_parser() {
        let obs = Recorder::enabled();
        {
            let _span = obs.span("extract");
            obs.add("extract.faults", 42);
            obs.gauge("weight", 0.25);
            obs.gauge("bad", f64::NAN);
            obs.push("live", 10.0);
            obs.push("live", 7.0);
            obs.observe("detects", 3.0);
            obs.observe("detects", 700.0);
        }
        let report = obs.report("unit \"quoted\"");
        let json = Json::parse(&text(&report)).expect("report must parse");
        assert_eq!(
            json.get("name"),
            Some(&Json::String("unit \"quoted\"".to_string()))
        );
        let counters = json.get("counters").expect("counters");
        assert_eq!(
            counters.get("extract.faults").and_then(Json::as_f64),
            Some(42.0)
        );
        assert_eq!(
            json.get("gauges")
                .and_then(|g| g.get("weight"))
                .and_then(Json::as_f64),
            Some(0.25)
        );
        // Non-finite gauges serialise as null.
        assert_eq!(
            json.get("gauges").and_then(|g| g.get("bad")),
            Some(&Json::Null)
        );
        let live = json
            .get("series")
            .and_then(|s| s.get("live"))
            .and_then(Json::as_array)
            .expect("series array");
        assert_eq!(live.len(), 2);
        let spans = json
            .get("spans")
            .and_then(|s| s.get("extract"))
            .expect("span");
        assert!(spans.get("nanos").and_then(Json::as_f64).is_some());
        assert_eq!(spans.get("count").and_then(Json::as_f64), Some(1.0));
        let detects = json
            .get("hists")
            .and_then(|h| h.get("detects"))
            .expect("hist");
        assert_eq!(detects.get("count").and_then(Json::as_f64), Some(2.0));
        assert_eq!(detects.get("max").and_then(Json::as_f64), Some(700.0));
    }

    #[test]
    fn non_finite_series_values_serialise_as_null() {
        // Regression: a NaN/∞ pushed into a series must not produce the
        // bare `NaN` / `inf` tokens `{}` formatting would emit — the
        // report must stay parseable by obs::Json.
        let obs = Recorder::enabled();
        obs.push("s", 1.0);
        obs.push("s", f64::NAN);
        obs.push("s", f64::INFINITY);
        obs.push("s", f64::NEG_INFINITY);
        let text = text(&obs.report("nonfinite"));
        let json = Json::parse(&text).expect("report with non-finite series parses");
        let s = json
            .get("series")
            .and_then(|s| s.get("s"))
            .and_then(Json::as_array)
            .expect("series");
        assert_eq!(s[0], Json::Number(1.0));
        assert_eq!(&s[1..], &[Json::Null, Json::Null, Json::Null]);
        // And the typed round-trip maps null back to NaN.
        let parsed = RunReport::from_json(&text).expect("typed parse");
        let points = parsed.series("s").expect("series");
        assert_eq!(points[0], 1.0);
        assert!(points[1..].iter().all(|p| p.is_nan()));
    }

    #[test]
    fn report_round_trips_through_from_json() {
        let obs = Recorder::enabled();
        {
            let _span = obs.span("stage");
            obs.add("c", 12);
            obs.gauge("g", 2.5);
            obs.push("s", 3.0);
            for v in [1.0, 2.0, 4.0, 900.0] {
                obs.observe("h", v);
            }
        }
        let report = obs.report("roundtrip");
        let parsed = RunReport::from_json(&text(&report)).expect("parses");
        assert_eq!(parsed, report);
        // Percentiles computed from the parsed report match.
        assert_eq!(
            parsed.hist("h").and_then(HistEntry::p99),
            report.hist("h").and_then(HistEntry::p99)
        );
    }

    #[test]
    fn from_json_tolerates_pre_histogram_reports() {
        // The PR-3 report shape had no "hists" key.
        let legacy = r#"{
  "name": "old",
  "spans": { "extract": { "nanos": 5, "count": 1 } },
  "counters": { "c": 2 },
  "gauges": { "g": 1.5 },
  "series": { "s": [1.0, 2.0] }
}"#;
        let parsed = RunReport::from_json(legacy).expect("legacy parses");
        assert!(parsed.hists.is_empty());
        assert!(parsed.tree.is_empty());
        assert_eq!(parsed.counter("c"), Some(2));
        // Malformed sections are typed errors, not panics.
        for bad in [
            r#"{"spans": {}}"#,
            r#"{"name": "x", "counters": {"c": -1}}"#,
            r#"{"name": "x", "spans": {"s": {"nanos": 1}}}"#,
            r#"{"name": "x", "series": {"s": 5}}"#,
            r#"{"name": "x", "hists": {"h": {"count": 1}}}"#,
            r#"{"name": "x", "tree": {}}"#,
            r#"{"name": "x", "tree": [{"id": 0, "name": "s"}]}"#,
            r#"{"name": "x", "tree": [{"id": -1, "parent": null, "name": "s", "start_nanos": 0, "nanos": 1}]}"#,
        ] {
            assert!(RunReport::from_json(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn from_json_rejects_counts_past_the_integer_rule() {
        // 2^54 + 1 parses to the float 2^54: accepting it would store a
        // rounded count.
        for bad in [
            r#"{"name": "x", "counters": {"c": 18014398509481985}}"#,
            r#"{"name": "x", "spans": {"s": {"nanos": 1e300, "count": 1}}}"#,
        ] {
            let err = RunReport::from_json(bad).expect_err("past 2^53");
            assert_eq!(err.offset, 0, "{bad}: a schema-level error");
        }
        let exact = r#"{"name": "x", "counters": {"c": 9007199254740992}}"#;
        let parsed = RunReport::from_json(exact).expect("2^53 is exact");
        assert_eq!(parsed.counter("c"), Some(1 << 53));
    }

    #[test]
    fn empty_report_is_valid_json() {
        let report = Recorder::enabled().report("empty");
        let json = Json::parse(&text(&report)).expect("parses");
        assert_eq!(json.get("counters"), Some(&Json::Object(Vec::new())));
        assert_eq!(json.get("hists"), Some(&Json::Object(Vec::new())));
        assert_eq!(
            RunReport::from_json(&text(&report)).expect("round-trips"),
            report
        );
    }
}
