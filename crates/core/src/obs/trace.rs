//! Request-scoped tracing: a trace id over a per-request [`Recorder`],
//! and the bounded flight recorder behind `dlp-serve`'s `/v1/traces`.
//!
//! A [`TraceContext`] is one request's
//!
//! * **trace id**, derived with [`derive_trace_id`] from the request
//!   target and a per-service sequence number — stable across worker
//!   counts (no clocks, no randomness), unique within a service;
//! * **sequence number**;
//! * private **[`Recorder`]** ([`TraceContext::obs`]), whose span
//!   offsets count from the request start. The request's handlers and
//!   pipeline stages record their spans there, so a miss's `extract`
//!   nests under `recompute` because it ran there, and concurrent
//!   requests never contaminate each other's counters.
//!
//! [`TraceContext::finish`] returns a [`TraceRecord`] — a synthetic
//! `request` root spanning the whole request, with the recorder's span
//! tree under it — plus the recorder. The caller merges the recorder
//! into the service-global one with [`Recorder::merge_from`]; because
//! span totals, counters and histogram buckets add, the merged totals
//! equal what direct recording would have produced, for any completion
//! order — the property that keeps `/metrics` thread-count-invariant.
//!
//! The [`FlightRecorder`] retains completed [`TraceRecord`]s under a
//! fixed capacity: the K slowest successes plus the K most recent
//! errored requests, O(capacity) memory no matter how long the service
//! runs.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use super::{elapsed_nanos, lock_or_recover, Json, Recorder, SpanNode};
use crate::ckpt::KeyHasher;

/// Derives a request's trace id from its raw target and the service's
/// request sequence number. Deterministic — two services replaying the
/// same request sequence derive the same ids regardless of
/// `DLP_THREADS` — and unique within a service because `seq` is.
pub fn derive_trace_id(target: &str, seq: u64) -> u64 {
    let mut h = KeyHasher::new();
    h.write_bytes(b"serve.trace");
    h.write_bytes(target.as_bytes());
    h.write_u64(seq);
    h.finish()
}

/// The canonical rendering of a trace id: 16 lowercase hex digits.
pub fn trace_id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// What a request resolved to, for [`TraceContext::finish`].
#[derive(Debug, Clone)]
pub struct TraceOutcome<'a> {
    /// Stable endpoint label (`dl`, `metrics`, `invalid`, …).
    pub endpoint: &'a str,
    /// The raw request target.
    pub target: &'a str,
    /// The `circuit` query parameter, when present.
    pub circuit: Option<&'a str>,
    /// The `dist` query parameter, when present.
    pub dist: Option<&'a str>,
    /// The HTTP status answered.
    pub status: u16,
    /// Cache disposition: `hit`, `miss`, `corrupt`, or `none`.
    pub cache: &'a str,
    /// Response body size in bytes.
    pub bytes: u64,
    /// The error message, for non-2xx outcomes.
    pub error: Option<String>,
}

/// One request's trace: its id, sequence number, and private
/// [`Recorder`].
#[derive(Debug)]
pub struct TraceContext {
    trace_id: u64,
    seq: u64,
    obs: Recorder,
}

impl TraceContext {
    /// Opens a trace for a request that began at `start`.
    pub fn new(trace_id: u64, seq: u64, start: Instant) -> TraceContext {
        TraceContext {
            trace_id,
            seq,
            obs: Recorder::enabled_from(start),
        }
    }

    /// This request's trace id.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The request's private recorder. Handlers and pipeline stages
    /// open their spans here; the caller merges it into the global
    /// recorder after [`finish`](Self::finish).
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Closes the trace: the root `request` span ends now, and the
    /// recorder's span tree hangs under it (ids shifted by one, its
    /// top-level spans parented to the root). Returns the finished
    /// [`TraceRecord`] together with the request recorder for the
    /// caller to merge globally.
    pub fn finish(self, outcome: &TraceOutcome<'_>) -> (TraceRecord, Recorder) {
        let report = self.obs.report("");
        let nanos = self.obs.origin().map_or(0, elapsed_nanos);
        let root = SpanNode {
            id: 0,
            parent: None,
            name: "request".to_string(),
            start_nanos: 0,
            nanos,
        };
        let spans = std::iter::once(root)
            .chain(report.tree.into_iter().map(|node| SpanNode {
                id: node.id + 1,
                parent: Some(node.parent.map_or(0, |p| p + 1)),
                ..node
            }))
            .collect();
        let record = TraceRecord {
            trace_id: self.trace_id,
            seq: self.seq,
            endpoint: outcome.endpoint.to_string(),
            target: outcome.target.to_string(),
            circuit: outcome.circuit.map(str::to_string),
            dist: outcome.dist.map(str::to_string),
            status: outcome.status,
            cache: outcome.cache.to_string(),
            bytes: outcome.bytes,
            nanos,
            error: outcome.error.clone(),
            spans,
            counters: report.counters,
        };
        (record, self.obs)
    }
}

/// One finished request trace: identity, outcome, the span tree, and
/// the request's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// The trace id (see [`derive_trace_id`]).
    pub trace_id: u64,
    /// The service-local request sequence number.
    pub seq: u64,
    /// Stable endpoint label.
    pub endpoint: String,
    /// Raw request target.
    pub target: String,
    /// The `circuit` query parameter, when present.
    pub circuit: Option<String>,
    /// The `dist` query parameter, when present.
    pub dist: Option<String>,
    /// HTTP status answered.
    pub status: u16,
    /// Cache disposition: `hit`, `miss`, `corrupt`, or `none`.
    pub cache: String,
    /// Response body bytes.
    pub bytes: u64,
    /// Request wall time in nanoseconds (the root span's duration).
    pub nanos: u64,
    /// Error message for non-2xx outcomes.
    pub error: Option<String>,
    /// The span tree: the `request` root (id 0) first, then the
    /// request recorder's nodes in open order.
    pub spans: Vec<SpanNode>,
    /// The request recorder's counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl TraceRecord {
    /// The named counter's value (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    fn opt_str(v: &Option<String>) -> Json {
        match v {
            Some(s) => Json::String(s.clone()),
            None => Json::Null,
        }
    }

    /// The full trace as JSON: identity, outcome, the span tree, and
    /// the per-request counters — the `/v1/traces` element shape.
    pub fn to_json(&self) -> Json {
        let spans = self.spans.iter().map(SpanNode::to_json).collect();
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), Json::Number(*v as f64)))
            .collect();
        Json::Object(vec![
            (
                "trace_id".to_string(),
                Json::String(trace_id_hex(self.trace_id)),
            ),
            ("seq".to_string(), Json::Number(self.seq as f64)),
            ("endpoint".to_string(), Json::String(self.endpoint.clone())),
            ("target".to_string(), Json::String(self.target.clone())),
            ("circuit".to_string(), Self::opt_str(&self.circuit)),
            ("dist".to_string(), Self::opt_str(&self.dist)),
            ("status".to_string(), Json::Number(f64::from(self.status))),
            ("cache".to_string(), Json::String(self.cache.clone())),
            ("bytes".to_string(), Json::Number(self.bytes as f64)),
            ("nanos".to_string(), Json::Number(self.nanos as f64)),
            ("error".to_string(), Self::opt_str(&self.error)),
            ("spans".to_string(), Json::Array(spans)),
            ("counters".to_string(), Json::Object(counters)),
        ])
    }

    /// The compact one-line shape of the structured access log:
    /// identity and outcome plus per-stage nanosecond totals (span
    /// durations summed by name, the root excluded — its wall time is
    /// the `nanos` field).
    pub fn to_access_json(&self) -> Json {
        let mut stages: BTreeMap<&str, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_some() {
                let slot = stages.entry(s.name.as_str()).or_insert(0);
                *slot = slot.saturating_add(s.nanos);
            }
        }
        Json::Object(vec![
            (
                "trace_id".to_string(),
                Json::String(trace_id_hex(self.trace_id)),
            ),
            ("endpoint".to_string(), Json::String(self.endpoint.clone())),
            ("target".to_string(), Json::String(self.target.clone())),
            ("circuit".to_string(), Self::opt_str(&self.circuit)),
            ("dist".to_string(), Self::opt_str(&self.dist)),
            ("cache".to_string(), Json::String(self.cache.clone())),
            ("status".to_string(), Json::Number(f64::from(self.status))),
            ("bytes".to_string(), Json::Number(self.bytes as f64)),
            ("nanos".to_string(), Json::Number(self.nanos as f64)),
            ("error".to_string(), Self::opt_str(&self.error)),
            (
                "stages".to_string(),
                Json::Object(
                    stages
                        .into_iter()
                        .map(|(n, v)| (n.to_string(), Json::Number(v as f64)))
                        .collect(),
                ),
            ),
        ])
    }
}

#[derive(Default)]
struct FlightState {
    /// Successful requests, unordered; bounded at `capacity` by
    /// replace-the-fastest.
    slowest: Vec<TraceRecord>,
    /// Errored requests (status >= 400), oldest first; bounded at
    /// `capacity` by dropping the oldest.
    errors: VecDeque<TraceRecord>,
    recorded: u64,
    dropped: u64,
}

/// A bounded store of finished [`TraceRecord`]s: retains the
/// `capacity` slowest successful requests plus the `capacity` most
/// recent errored ones — the requests worth looking at after the fact
/// — in O(capacity) memory. Capacity 0 disables recording entirely.
pub struct FlightRecorder {
    capacity: usize,
    state: Mutex<FlightState>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock_or_recover(&self.state);
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("recorded", &state.recorded)
            .field("retained", &(state.slowest.len() + state.errors.len()))
            .finish()
    }
}

impl FlightRecorder {
    /// A flight recorder retaining up to `capacity` slow traces plus
    /// `capacity` errored traces.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            state: Mutex::new(FlightState::default()),
        }
    }

    /// A recorder that retains nothing ([`record`](Self::record) is a
    /// no-op).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::new(0)
    }

    /// Whether this recorder retains anything.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many traces are currently retained.
    pub fn len(&self) -> usize {
        let state = lock_or_recover(&self.state);
        state.slowest.len() + state.errors.len()
    }

    /// Whether no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Offers a finished trace. Errored requests (status >= 400) go to
    /// the error ring (oldest evicted at capacity); successes displace
    /// the fastest retained success once the success list is full.
    pub fn record(&self, record: TraceRecord) {
        if self.capacity == 0 {
            return;
        }
        let mut state = lock_or_recover(&self.state);
        state.recorded += 1;
        if record.status >= 400 {
            state.errors.push_back(record);
            while state.errors.len() > self.capacity {
                state.errors.pop_front();
                state.dropped += 1;
            }
            return;
        }
        if state.slowest.len() < self.capacity {
            state.slowest.push(record);
            return;
        }
        let fastest = state
            .slowest
            .iter()
            .enumerate()
            .min_by_key(|(_, r)| r.nanos)
            .map(|(i, _)| i);
        if let Some(i) = fastest {
            if state.slowest[i].nanos < record.nanos {
                state.slowest[i] = record;
            }
        }
        // Exactly one trace was dropped: either the displaced retained
        // one or the new one.
        state.dropped += 1;
    }

    /// Every retained trace, sorted by request sequence number.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let state = lock_or_recover(&self.state);
        let mut out: Vec<TraceRecord> = state
            .slowest
            .iter()
            .chain(state.errors.iter())
            .cloned()
            .collect();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// The `/v1/traces` document: capacity, totals, and the retained
    /// traces (sorted by sequence number, truncated to `limit`).
    pub fn dump(&self, limit: Option<usize>) -> Json {
        let (recorded, dropped) = {
            let state = lock_or_recover(&self.state);
            (state.recorded, state.dropped)
        };
        let mut traces = self.snapshot();
        if let Some(limit) = limit {
            traces.truncate(limit);
        }
        Json::Object(vec![
            ("name".to_string(), Json::String("serve.traces".to_string())),
            ("capacity".to_string(), Json::Number(self.capacity as f64)),
            ("recorded".to_string(), Json::Number(recorded as f64)),
            ("dropped".to_string(), Json::Number(dropped as f64)),
            (
                "traces".to_string(),
                Json::Array(traces.iter().map(TraceRecord::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(status: u16) -> TraceOutcome<'static> {
        TraceOutcome {
            endpoint: "dl",
            target: "/v1/dl?circuit=c17",
            circuit: Some("c17"),
            dist: None,
            status,
            cache: "miss",
            bytes: 42,
            error: None,
        }
    }

    fn record_with(seq: u64, status: u16, nanos: u64) -> TraceRecord {
        TraceRecord {
            trace_id: derive_trace_id("/t", seq),
            seq,
            endpoint: "dl".to_string(),
            target: "/t".to_string(),
            circuit: None,
            dist: None,
            status,
            cache: "none".to_string(),
            bytes: 0,
            nanos,
            error: None,
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    #[test]
    fn trace_ids_are_deterministic_and_separate() {
        assert_eq!(derive_trace_id("/a", 1), derive_trace_id("/a", 1));
        assert_ne!(derive_trace_id("/a", 1), derive_trace_id("/a", 2));
        assert_ne!(derive_trace_id("/a", 1), derive_trace_id("/b", 1));
        assert_eq!(trace_id_hex(0xab), "00000000000000ab");
    }

    #[test]
    fn span_tree_nests_under_the_request_root() {
        let parse_start = Instant::now();
        let ctx = TraceContext::new(7, 0, parse_start);
        drop(ctx.obs().span_since("http.parse", parse_start));
        {
            let _route = ctx.obs().span("route");
        }
        {
            let _outer = ctx.obs().span("recompute");
            let _inner = ctx.obs().span("sim");
        }
        let (record, obs) = ctx.finish(&outcome(200));
        assert_eq!(record.trace_id, 7);
        let names: Vec<(&str, Option<u64>)> = record
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("request", None),
                ("http.parse", Some(0)),
                ("route", Some(0)),
                ("recompute", Some(0)),
                ("sim", Some(3)),
            ]
        );
        // Ids are dense, children are contained in their parents, and
        // the root's children run one after another.
        let root = &record.spans[0];
        assert_eq!(root.nanos, record.nanos);
        for (i, s) in record.spans.iter().enumerate() {
            assert_eq!(s.id, i as u64);
            if let Some(p) = s.parent {
                let p = &record.spans[p as usize];
                assert!(s.start_nanos >= p.start_nanos);
                assert!(s.start_nanos + s.nanos <= p.start_nanos + p.nanos);
            }
        }
        assert_eq!(record.spans[1].start_nanos, 0);
        for w in record.spans[1..4].windows(2) {
            assert!(w[0].start_nanos + w[0].nanos <= w[1].start_nanos);
        }
        // The same spans fed the request recorder's totals.
        let report = obs.report("");
        assert_eq!(report.span_nanos("sim"), Some(record.spans[4].nanos));
        assert_eq!(record.counter("nope"), 0);
    }

    #[test]
    fn record_json_renders_and_parses() {
        let ctx = TraceContext::new(0xfeed, 3, Instant::now());
        {
            let _s = ctx.obs().span("route");
        }
        let (record, _obs) = ctx.finish(&outcome(404));
        let text = crate::ckpt::render(&record.to_json());
        let doc = Json::parse(&text).expect("trace json parses");
        assert_eq!(
            doc.get("trace_id").and_then(Json::as_str),
            Some("000000000000feed")
        );
        assert_eq!(doc.get("status").and_then(Json::as_f64), Some(404.0));
        assert_eq!(doc.get("dist"), Some(&Json::Null));
        let spans = doc.get("spans").and_then(Json::as_array).expect("spans");
        let parsed: Vec<SpanNode> = spans
            .iter()
            .map(|s| SpanNode::from_json(s).expect("span node"))
            .collect();
        assert_eq!(parsed, record.spans);
        // The access-log line parses too and aggregates stage nanos.
        let line = crate::ckpt::render(&record.to_access_json());
        let doc = Json::parse(&line).expect("access line parses");
        assert!(doc
            .get("stages")
            .and_then(|s| s.get("route"))
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn flight_recorder_retains_slowest_and_recent_errors() {
        let flight = FlightRecorder::new(2);
        assert!(flight.is_enabled());
        for (seq, status, nanos) in [
            (0, 200, 5),
            (1, 200, 10),
            (2, 200, 1), // fastest: dropped
            (3, 200, 7), // displaces the 5ns trace
            (4, 404, 1),
            (5, 500, 1),
            (6, 400, 1), // evicts the oldest error (seq 4)
        ] {
            flight.record(record_with(seq, status, nanos));
        }
        let kept: Vec<u64> = flight.snapshot().iter().map(|r| r.seq).collect();
        assert_eq!(kept, vec![1, 3, 5, 6]);
        let dump = flight.dump(None);
        assert_eq!(dump.get("recorded").and_then(Json::as_f64), Some(7.0));
        assert_eq!(dump.get("dropped").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            dump.get("traces")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(4)
        );
        // A limit truncates the dump but not the store.
        let limited = flight.dump(Some(1));
        assert_eq!(
            limited
                .get("traces")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(flight.len(), 4);
    }

    #[test]
    fn disabled_flight_recorder_records_nothing() {
        let flight = FlightRecorder::disabled();
        assert!(!flight.is_enabled());
        flight.record(record_with(0, 200, 99));
        flight.record(record_with(1, 500, 99));
        assert!(flight.is_empty());
        assert_eq!(
            flight.dump(None).get("traces").and_then(Json::as_array),
            Some(&[][..])
        );
    }
}
