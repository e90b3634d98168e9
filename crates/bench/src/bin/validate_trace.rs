//! CI validator for observability artifacts.
//!
//! Usage:
//!
//! ```text
//! validate_trace <report.json>               # run-report mode
//! validate_trace --bench <bench.json>        # bench-report schema mode
//! validate_trace --serve-trace <traces.json> # flight-recorder dump mode
//! ```
//!
//! Run-report mode parses the report with the in-tree JSON parser and
//! checks that every pipeline stage left a span, the load-bearing
//! counters are nonzero, the per-worker timeline telemetry is coherent
//! (wall/slot accounting, utilization and imbalance gauges in range),
//! the required histograms are well-formed, and the report round-trips
//! through [`RunReport::from_json`] into a valid OpenMetrics exposition
//! — the check.sh gate that keeps the `DLP_TRACE` path honest.
//!
//! Bench mode checks a `BENCH_*.json` file against the versioned
//! [`BenchReport`] schema (schema_version, env, entries), so the bench
//! writers cannot silently drift back to ad-hoc maps, and warns (without
//! failing) when the recorded `env.git_rev` does not match the current
//! checkout or carries the `-dirty` worktree marker.
//!
//! Serve-trace mode checks a `GET /v1/traces` flight-recorder dump
//! (`TRACE_serve_gate.json` in CI): unique well-formed trace ids, a
//! single `request` root per trace, parent links that resolve, children
//! contained in their parents (start and duration), the required stage
//! spans on every recomputing trace, and a span tree that explains at
//! least 90% of each recomputing request's wall time.

use std::process::ExitCode;

use dlp_core::obs::{openmetrics, BenchReport, Json, RunReport};

/// Spans every full-flow run must produce.
const REQUIRED_SPANS: &[&str] = &[
    "layout",
    "extract",
    "atpg",
    "sim.gate",
    "sim.switch",
    "montecarlo",
    "model.fit",
];

/// Counters that must exist and be nonzero.
const REQUIRED_COUNTERS: &[&str] = &[
    "layout.route.waves",
    "layout.route.expanded",
    "extract.defect_classes",
    "extract.bridge_pairs",
    "extract.faults",
    "atpg.vectors",
    "sim.gate.faults",
    "sim.gate.blocks",
    "sim.gate.detected",
    "sim.switch.faults",
    "mc.shards",
    "mc.dies",
];

/// Histograms every full-flow run must carry. Timing histograms
/// (`*.block_nanos`, `*.chunk_nanos`) are scheduling-dependent and so
/// checked for shape, not content.
const REQUIRED_HISTS: &[&str] = &[
    "sim.gate.detects_per_block",
    "sim.gate.chunk_nanos",
    "mc.shard_escapes",
    "extract.pair_weight",
    "pipeline.fault_weight",
];

/// Parallel regions that must leave worker-timeline telemetry.
const TIMELINE_SCOPES: &[&str] = &["sim.gate", "sim.switch", "extract", "mc"];

fn counter(counters: &[(String, Json)], name: &str) -> Option<f64> {
    counters
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| v.as_f64())
}

fn check_spans_and_counters(report: &Json) -> Result<(), String> {
    let spans = report
        .get("spans")
        .and_then(Json::as_object)
        .ok_or("report has no spans object")?;
    for name in REQUIRED_SPANS {
        let span = spans
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing span {name:?}"))?;
        let nanos = span
            .get("nanos")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("span {name:?} has no nanos"))?;
        let count = span
            .get("count")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("span {name:?} has no count"))?;
        if count < 1.0 {
            return Err(format!("span {name:?} never entered"));
        }
        if nanos < 0.0 {
            return Err(format!("span {name:?} has negative time"));
        }
    }
    let counters = report
        .get("counters")
        .and_then(Json::as_object)
        .ok_or("report has no counters object")?;
    for name in REQUIRED_COUNTERS {
        let value = counter(counters, name)
            .ok_or_else(|| format!("missing counter {name:?}"))?;
        if value <= 0.0 {
            return Err(format!("counter {name:?} is zero"));
        }
    }
    // Per-worker tallies must account for every gate-level fault
    // simulation: their sum equals the sum of the live-per-block series.
    let worker_sum: f64 = counters
        .iter()
        .filter(|(k, _)| k.starts_with("sim.gate.worker") && k.ends_with(".items"))
        .filter_map(|(_, v)| v.as_f64())
        .sum();
    let live_sum: f64 = report
        .get("series")
        .and_then(|s| s.get("sim.gate.live_per_block"))
        .and_then(Json::as_array)
        .map(|xs| xs.iter().filter_map(Json::as_f64).sum())
        .ok_or("missing series sim.gate.live_per_block")?;
    if worker_sum != live_sum {
        return Err(format!(
            "sim.gate worker tallies sum to {worker_sum}, \
             but {live_sum} fault simulations were performed"
        ));
    }
    Ok(())
}

/// Worker-timeline coherence per parallel scope: wall/slot accounting,
/// at least one worker timeline, and both balance gauges in range.
fn check_timelines(report: &Json) -> Result<(), String> {
    let counters = report
        .get("counters")
        .and_then(Json::as_object)
        .ok_or("report has no counters object")?;
    let gauges = report
        .get("gauges")
        .and_then(Json::as_object)
        .ok_or("report has no gauges object")?;
    let series = report
        .get("series")
        .and_then(Json::as_object)
        .ok_or("report has no series object")?;
    for scope in TIMELINE_SCOPES {
        let wall = counter(counters, &format!("{scope}.wall_nanos"))
            .ok_or_else(|| format!("missing counter {scope}.wall_nanos"))?;
        let slot = counter(counters, &format!("{scope}.slot_nanos"))
            .ok_or_else(|| format!("missing counter {scope}.slot_nanos"))?;
        if wall <= 0.0 || slot < wall {
            return Err(format!(
                "{scope}: wall {wall} / slot {slot} nanos are incoherent \
                 (slot = wall x workers must be >= wall > 0)"
            ));
        }
        let busy_sum: f64 = counters
            .iter()
            .filter(|(k, _)| {
                k.starts_with(&format!("{scope}.worker")) && k.ends_with(".busy_nanos")
            })
            .filter_map(|(_, v)| v.as_f64())
            .sum();
        let timeline = series
            .iter()
            .find(|(k, _)| *k == format!("{scope}.worker0.timeline"))
            .and_then(|(_, v)| v.as_array())
            .ok_or_else(|| format!("missing series {scope}.worker0.timeline"))?;
        if timeline.is_empty() {
            return Err(format!("{scope}.worker0.timeline is empty"));
        }
        let utilization = gauges
            .iter()
            .find(|(k, _)| *k == format!("{scope}.utilization"))
            .and_then(|(_, v)| v.as_f64())
            .ok_or_else(|| format!("missing gauge {scope}.utilization"))?;
        // Busy time is measured inside the worker loop, so Σbusy can
        // only undershoot the slot budget (plus timer granularity).
        if !(0.0..=1.001).contains(&utilization) || busy_sum > slot * 1.001 {
            return Err(format!(
                "{scope}: utilization {utilization} (busy {busy_sum} of slot {slot}) \
                 is out of range"
            ));
        }
        let imbalance = gauges
            .iter()
            .find(|(k, _)| *k == format!("{scope}.imbalance"))
            .and_then(|(_, v)| v.as_f64())
            .ok_or_else(|| format!("missing gauge {scope}.imbalance"))?;
        if imbalance < 1.0 {
            return Err(format!(
                "{scope}: imbalance {imbalance} < 1 (defined as max busy / mean busy)"
            ));
        }
    }
    Ok(())
}

/// Histogram well-formedness: present, populated, strictly increasing
/// bucket bounds, and bucket counts that sum to the observation count.
fn check_hists(report: &Json) -> Result<(), String> {
    let hists = report
        .get("hists")
        .and_then(Json::as_object)
        .ok_or("report has no hists object")?;
    for name in REQUIRED_HISTS {
        let hist = hists
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing histogram {name:?}"))?;
        let count = hist
            .get("count")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("histogram {name:?} has no count"))?;
        if count < 1.0 {
            return Err(format!("histogram {name:?} is empty"));
        }
        let buckets = hist
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("histogram {name:?} has no buckets"))?;
        let mut total = 0.0;
        let mut last_bound = f64::NEG_INFINITY;
        for bucket in buckets {
            let pair = bucket
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("histogram {name:?} has a malformed bucket"))?;
            let bound = pair[0]
                .as_f64()
                .ok_or_else(|| format!("histogram {name:?} has a non-numeric bound"))?;
            if bound <= last_bound {
                return Err(format!(
                    "histogram {name:?} bucket bounds are not strictly increasing"
                ));
            }
            last_bound = bound;
            total += pair[1]
                .as_f64()
                .ok_or_else(|| format!("histogram {name:?} has a non-numeric count"))?;
        }
        if total != count {
            return Err(format!(
                "histogram {name:?}: bucket counts sum to {total}, \
                 but count is {count}"
            ));
        }
    }
    Ok(())
}

/// The report must round-trip through the typed [`RunReport`] parser and
/// render to a valid OpenMetrics exposition.
fn check_openmetrics(text: &str) -> Result<(), String> {
    let report = RunReport::from_json(text)
        .map_err(|e| format!("report does not parse as a RunReport: {e}"))?;
    let exposition = report.to_openmetrics();
    openmetrics::validate(&exposition)
        .map_err(|e| format!("OpenMetrics exposition is invalid: {e}"))
}

fn check(report: &Json, text: &str) -> Result<(), String> {
    check_spans_and_counters(report)?;
    check_timelines(report)?;
    check_hists(report)?;
    check_openmetrics(text)
}

fn check_bench(text: &str) -> Result<String, String> {
    let report = BenchReport::from_json(text).map_err(|e| e.to_string())?;
    if report.entries.is_empty() {
        return Err("bench report has no entries".to_string());
    }
    // Stale-metadata watchdog (non-fatal): the recorded revision should
    // match the checkout being validated, and a dirty marker means the
    // numbers came from a modified worktree.
    if let Some(current) = dlp_core::obs::BenchEnv::current_git_rev() {
        if report.env.git_rev != current {
            eprintln!(
                "validate_trace: warning: report records git_rev {} but the checkout is at {} — \
                 regenerate the report, its numbers describe another tree",
                report.env.git_rev, current
            );
        }
    }
    if report.env.git_rev.ends_with("-dirty") {
        eprintln!(
            "validate_trace: warning: report was written from a modified worktree ({})",
            report.env.git_rev
        );
    }
    Ok(format!(
        "{} ({} entries, git_rev {})",
        report.name,
        report.entries.len(),
        report.env.git_rev
    ))
}

/// One span row lifted out of a trace's JSON for containment checks.
struct SpanRow {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: u64,
    nanos: u64,
}

fn span_rows(trace: &Json) -> Result<Vec<SpanRow>, String> {
    let spans = trace
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("trace has no spans array")?;
    if spans.is_empty() {
        return Err("trace has an empty span tree".to_string());
    }
    spans
        .iter()
        .map(|s| {
            let field = |name: &str| {
                s.get(name)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("span has no numeric {name}"))
            };
            Ok(SpanRow {
                id: field("id")? as u64,
                parent: s.get("parent").and_then(Json::as_f64).map(|p| p as u64),
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span has no name")?
                    .to_string(),
                start: field("start_nanos")? as u64,
                nanos: field("nanos")? as u64,
            })
        })
        .collect()
}

/// Stage spans every recomputing (cache-miss) request must carry.
const REQUIRED_SERVE_SPANS: &[&str] = &["route", "cache.probe", "recompute", "seal", "write"];

fn check_one_trace(trace: &Json) -> Result<(bool, String), String> {
    let trace_id = trace
        .get("trace_id")
        .and_then(Json::as_str)
        .ok_or("trace has no trace_id")?;
    if trace_id.len() != 16 || !trace_id.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("trace_id {trace_id:?} is not 16 hex digits"));
    }
    let spans = span_rows(trace)?;
    let roots: Vec<&SpanRow> = spans.iter().filter(|s| s.parent.is_none()).collect();
    if roots.len() != 1 || roots[0].name != "request" {
        return Err(format!(
            "{trace_id}: expected exactly one root span named \"request\", \
             found {} root(s)",
            roots.len()
        ));
    }
    let root = roots[0];
    for span in &spans {
        let Some(parent_id) = span.parent else {
            continue;
        };
        let parent = spans
            .iter()
            .find(|s| s.id == parent_id)
            .ok_or_else(|| format!("{trace_id}: span {} has a dangling parent", span.id))?;
        if span.nanos > parent.nanos {
            return Err(format!(
                "{trace_id}: child {:?} ({} ns) outlasts its parent {:?} ({} ns)",
                span.name, span.nanos, parent.name, parent.nanos
            ));
        }
        if span.start < parent.start {
            return Err(format!(
                "{trace_id}: child {:?} starts before its parent {:?}",
                span.name, parent.name
            ));
        }
    }
    let recomputed = spans.iter().any(|s| s.name == "recompute");
    if recomputed {
        for name in REQUIRED_SERVE_SPANS {
            if !spans.iter().any(|s| s.name == *name) {
                return Err(format!("{trace_id}: recomputing trace has no {name:?} span"));
            }
        }
        let recompute_id = spans
            .iter()
            .find(|s| s.name == "recompute")
            .map(|s| s.id)
            .unwrap_or_default();
        if !spans.iter().any(|s| s.parent == Some(recompute_id)) {
            return Err(format!(
                "{trace_id}: the recompute span adopted no pipeline stage spans"
            ));
        }
        let covered: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| s.nanos)
            .sum();
        if (covered as f64) < 0.9 * root.nanos as f64 {
            return Err(format!(
                "{trace_id}: the span tree explains only {covered} of {} root nanos",
                root.nanos
            ));
        }
    }
    Ok((recomputed, trace_id.to_string()))
}

fn check_serve_trace(text: &str) -> Result<String, String> {
    let dump = Json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let traces = dump
        .get("traces")
        .and_then(Json::as_array)
        .ok_or("dump has no traces array")?;
    if traces.is_empty() {
        return Err("dump has no traces".to_string());
    }
    let mut ids = Vec::new();
    let mut recomputes = 0usize;
    for trace in traces {
        let (recomputed, id) = check_one_trace(trace)?;
        if ids.contains(&id) {
            return Err(format!("trace id {id} appears twice"));
        }
        ids.push(id);
        recomputes += usize::from(recomputed);
    }
    if recomputes == 0 {
        return Err("no trace in the dump recomputed — the gate should have \
                    driven at least one cold miss"
            .to_string());
    }
    Ok(format!(
        "{} traces, {recomputes} with recompute span trees",
        traces.len()
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [path] => ("run", path.clone()),
        [flag, path] if flag == "--bench" => ("bench", path.clone()),
        [flag, path] if flag == "--serve-trace" => ("serve", path.clone()),
        _ => {
            eprintln!("usage: validate_trace [--bench | --serve-trace] <report.json>");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate_trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if mode != "run" {
        let checked = if mode == "bench" {
            check_bench(&text)
        } else {
            check_serve_trace(&text)
        };
        return match checked {
            Ok(summary) => {
                println!("validate_trace: {path} OK — {summary}");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("validate_trace: {path}: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let report = match Json::parse(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("validate_trace: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check(&report, &text) {
        Ok(()) => {
            println!("validate_trace: {path} OK");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("validate_trace: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}
