//! One benchmark for the DL(T) flow and the projection service.
//!
//! Four workloads: three repeat cold flows (layout → extraction → ATPG →
//! gate- and switch-level fault simulation → Monte-Carlo → eq. 11 fit)
//! on circuit sets chosen to load different layers, and one drives the
//! projection service over loopback TCP. Each run checks its outputs
//! against digests and reports end-to-end metrics; a traced run reports
//! per-layer metrics and writes `out/TRACE_<workload>.json`.

pub mod compare;
mod flow;
pub mod layers;
mod serve;
pub mod spans;
mod stats;

use dlp_core::ckpt::render;
use dlp_core::obs::Json;

use crate::spans::SpanRec;

/// The workloads, in run order.
pub const WORKLOADS: &[&str] = &["flow-layout", "flow-switch", "flow-iddq", "serve-mix"];

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 5;

/// The seed whose output digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Output digests at [`DEFAULT_SEED`]. A change that alters any flow's
/// records, weights, fit or Monte-Carlo escapes, or any sealed service
/// response, changes these.
const PINNED: &[(&str, u64)] = &[
    ("flow-layout", 0x6ce9_1437_78ae_e5d9),
    ("flow-switch", 0x69b3_38e3_68a0_99cd),
    ("flow-iddq", 0x0739_adf5_189c_71c7),
    ("serve-mix", 0xb8ec_5e69_adf6_e9bd),
];

/// The pinned digest of a workload, when `seed` is the default.
pub(crate) fn pinned(workload: &str, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    PINNED.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d)
}

/// Where runs write their results and traces.
pub fn out_dir() -> String {
    format!("{}/out", env!("CARGO_MANIFEST_DIR"))
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// For a percentile: its sample count and the samples beyond it.
    pub count: Option<(usize, usize)>,
    /// Free-form context, such as the base of a ratio.
    pub note: Option<String>,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            count: None,
            note: None,
        }
    }

    /// Annotates a percentile with its sample counts.
    pub fn with_count(mut self, samples: usize, beyond: usize) -> Metric {
        self.count = Some((samples, beyond));
        self
    }

    /// Annotates the value.
    pub fn with_note(mut self, note: &str) -> Metric {
        self.note = Some(note.to_string());
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value".to_string(), Json::Number(self.value)),
            ("unit".to_string(), Json::String(self.unit.to_string())),
        ];
        if let Some((n, beyond)) = self.count {
            fields.push(("samples".to_string(), Json::Number(n as f64)));
            fields.push(("beyond".to_string(), Json::Number(beyond as f64)));
        }
        if let Some(note) = &self.note {
            fields.push(("note".to_string(), Json::String(note.clone())));
        }
        Json::Object(fields)
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Object(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect(),
    )
}

/// One workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted: circuit flows or requests.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// The workload's output digest.
    pub digest: Option<u64>,
    /// The end-to-end metrics every workload reports.
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end rows, such as per-phase hit and
    /// miss latencies.
    pub details: Vec<Metric>,
    /// The per-layer metrics every workload reports (traced runs only).
    pub layers: Vec<Metric>,
    /// Workload-specific per-layer rows (traced runs only).
    pub layer_details: Vec<Metric>,
    /// The trace document (traced runs only).
    pub trace: Option<Json>,
}

impl Outcome {
    /// A run that could not start.
    pub fn failed(why: &str) -> Outcome {
        eprintln!("{why}");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            digest: None,
            metrics: Vec::new(),
            details: Vec::new(),
            layers: Vec::new(),
            layer_details: Vec::new(),
            trace: None,
        }
    }

    /// The one-line result: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn result_line(&self, traced: bool) -> String {
        // Counts are written as integers; the JSON renderer would give
        // them a fractional part.
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            render(&metrics_json(if traced {
                &self.layers
            } else {
                &self.metrics
            }))
        )
    }

    /// Everything the run measured.
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Number(self.attempted as f64)),
            ("failed".to_string(), Json::Number(self.failed as f64)),
            (
                "digest".to_string(),
                self.digest
                    .map_or(Json::Null, |d| Json::String(format!("{d:016x}"))),
            ),
            ("metrics".to_string(), metrics_json(&self.metrics)),
            ("details".to_string(), metrics_json(&self.details)),
            ("layers".to_string(), metrics_json(&self.layers)),
            (
                "layer_details".to_string(),
                metrics_json(&self.layer_details),
            ),
        ])
    }
}

/// Runs one workload in this process; `None` for an unknown name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    if let Some(w) = flow::FLOWS.iter().find(|w| w.name == name) {
        return Some(flow::run(w, seed, seconds, trace));
    }
    match name {
        "serve-mix" => Some(serve::run(seed, seconds, trace)),
        "flow-smoke" => Some(flow::run(&flow::SMOKE, seed, seconds, trace)),
        "serve-smoke" => Some(serve::smoke(seed, seconds)),
        _ => None,
    }
}

/// The `TRACE_<workload>.json` document: per-layer metrics, each
/// layer's self time, and every benchmark span.
pub(crate) fn trace_document(
    workload: &str,
    layers: &[Metric],
    layer_details: &[Metric],
    self_times: &[Metric],
    recs: &[SpanRec],
) -> Json {
    let spans = recs
        .iter()
        .map(|r| {
            Json::Object(vec![
                ("name".to_string(), Json::String(r.name.to_string())),
                ("start_ns".to_string(), Json::Number(r.start as f64)),
                ("end_ns".to_string(), Json::Number(r.end as f64)),
                (
                    "parent".to_string(),
                    r.parent.map_or(Json::Null, |p| Json::Number(p as f64)),
                ),
                ("op".to_string(), Json::Number(r.op as f64)),
            ])
        })
        .collect();
    Json::Object(vec![
        ("workload".to_string(), Json::String(workload.to_string())),
        ("layers".to_string(), metrics_json(layers)),
        ("layer_details".to_string(), metrics_json(layer_details)),
        ("self_time".to_string(), metrics_json(self_times)),
        ("spans".to_string(), Json::Array(spans)),
    ])
}
