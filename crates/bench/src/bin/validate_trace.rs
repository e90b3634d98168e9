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
//! Run-report mode parses the report into a typed [`RunReport`] and
//! checks that every pipeline stage left a span, the load-bearing
//! counters are nonzero, the per-worker timeline telemetry is coherent
//! (wall/slot accounting, utilization and imbalance gauges in range),
//! the required histograms are well-formed, the span tree passes the
//! tree check below with `extract.{bridges,opens,cuts}` children of
//! `extract`, and the report renders to a valid OpenMetrics exposition
//! — the check.sh gate that keeps the `DLP_TRACE` path honest.
//!
//! Bench mode checks a `BENCH_*.json` file against the versioned
//! [`BenchReport`] schema (schema_version, env, entries), so the bench
//! writers cannot silently drift back to ad-hoc maps, and warns (without
//! failing) when the recorded `env.git_rev` does not match the current
//! checkout or carries the `-dirty` worktree marker. A report that git
//! tracks and reports unmodified is committed evidence of an earlier
//! tree, so its recorded revision is historical by construction and
//! draws neither warning.
//!
//! Serve-trace mode checks a `GET /v1/traces` flight-recorder dump
//! (`TRACE_serve_gate.json` in CI): unique well-formed trace ids, a
//! single `request` root per trace that passes the tree check, the
//! required stage spans on every recomputing trace with pipeline stages
//! nested under `recompute`, and a root whose children explain at least
//! 90% of each recomputing request's wall time.
//!
//! Both tree-carrying modes share one tree check: every parent id
//! resolves, and every child lies inside its parent (it starts no
//! earlier and ends no later).

use std::process::ExitCode;

use dlp_core::obs::{openmetrics, BenchReport, Json, RunReport, SpanNode};

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

fn check_spans_and_counters(report: &RunReport) -> Result<(), String> {
    for name in REQUIRED_SPANS {
        let span = report
            .spans
            .iter()
            .find(|s| s.name == *name)
            .ok_or_else(|| format!("missing span {name:?}"))?;
        if span.count < 1 {
            return Err(format!("span {name:?} never entered"));
        }
    }
    for name in REQUIRED_COUNTERS {
        match report.counter(name) {
            None => return Err(format!("missing counter {name:?}")),
            Some(0) => return Err(format!("counter {name:?} is zero")),
            Some(_) => {}
        }
    }
    // Per-worker tallies must account for every gate-level fault
    // simulation: their sum equals the sum of the live-per-block series.
    let worker_sum: u64 = counter_sum(report, "sim.gate.worker", ".items");
    let live_sum: f64 = report
        .series("sim.gate.live_per_block")
        .ok_or("missing series sim.gate.live_per_block")?
        .iter()
        .sum();
    if worker_sum as f64 != live_sum {
        return Err(format!(
            "sim.gate worker tallies sum to {worker_sum}, \
             but {live_sum} fault simulations were performed"
        ));
    }
    Ok(())
}

/// The sum of every counter named `<prefix>…<suffix>`.
fn counter_sum(report: &RunReport, prefix: &str, suffix: &str) -> u64 {
    report
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

/// Worker-timeline coherence per parallel scope: wall/slot accounting,
/// at least one worker timeline, and both balance gauges in range.
fn check_timelines(report: &RunReport) -> Result<(), String> {
    for scope in TIMELINE_SCOPES {
        let counter = |name: &str| {
            let name = format!("{scope}.{name}");
            report
                .counter(&name)
                .ok_or(format!("missing counter {name}"))
        };
        let gauge = |name: &str| {
            let name = format!("{scope}.{name}");
            report.gauge(&name).ok_or(format!("missing gauge {name}"))
        };
        let (wall, slot) = (counter("wall_nanos")?, counter("slot_nanos")?);
        if wall == 0 || slot < wall {
            return Err(format!(
                "{scope}: wall {wall} / slot {slot} nanos are incoherent \
                 (slot = wall x workers must be >= wall > 0)"
            ));
        }
        let busy_sum = counter_sum(report, &format!("{scope}.worker"), ".busy_nanos");
        let timeline = format!("{scope}.worker0.timeline");
        if report.series(&timeline).is_none_or(<[f64]>::is_empty) {
            return Err(format!("missing or empty series {timeline}"));
        }
        let utilization = gauge("utilization")?;
        // Busy time is measured inside the worker loop, so Σbusy can
        // only undershoot the slot budget (plus timer granularity).
        if !(0.0..=1.001).contains(&utilization) || busy_sum as f64 > slot as f64 * 1.001 {
            return Err(format!(
                "{scope}: utilization {utilization} (busy {busy_sum} of slot {slot}) \
                 is out of range"
            ));
        }
        let imbalance = gauge("imbalance")?;
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
fn check_hists(report: &RunReport) -> Result<(), String> {
    for name in REQUIRED_HISTS {
        let hist = report
            .hist(name)
            .ok_or_else(|| format!("missing histogram {name:?}"))?;
        if hist.count < 1 {
            return Err(format!("histogram {name:?} is empty"));
        }
        if hist.buckets.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(format!(
                "histogram {name:?} bucket bounds are not strictly increasing"
            ));
        }
        let total: u64 = hist.buckets.iter().map(|&(_, n)| n).sum();
        if total != hist.count {
            return Err(format!(
                "histogram {name:?}: bucket counts sum to {total}, \
                 but count is {}",
                hist.count
            ));
        }
    }
    Ok(())
}

/// Extraction sub-passes that must nest under `extract` in the tree.
const EXTRACT_SUBSPANS: &[&str] = &["extract.bridges", "extract.opens", "extract.cuts"];

/// The one tree check: parent ids resolve, and each child lies inside
/// its parent.
fn check_tree(nodes: &[SpanNode]) -> Result<(), String> {
    if nodes.is_empty() {
        return Err("the span tree is empty".to_string());
    }
    for node in nodes {
        let Some(parent) = parent_of(nodes, node)? else {
            continue;
        };
        let end = node.start_nanos.saturating_add(node.nanos);
        let parent_end = parent.start_nanos.saturating_add(parent.nanos);
        if node.start_nanos < parent.start_nanos || end > parent_end {
            return Err(format!(
                "child {:?} [{}, {end}) is not inside its parent {:?} [{}, {parent_end})",
                node.name, node.start_nanos, parent.name, parent.start_nanos
            ));
        }
    }
    Ok(())
}

fn parent_of<'a>(nodes: &'a [SpanNode], node: &SpanNode) -> Result<Option<&'a SpanNode>, String> {
    node.parent
        .map(|id| {
            nodes
                .iter()
                .find(|p| p.id == id)
                .ok_or_else(|| format!("span {} ({:?}) has a dangling parent", node.id, node.name))
        })
        .transpose()
}

/// Run-report mode: every check above, the span tree with the
/// extraction sub-passes under `extract`, and a valid OpenMetrics
/// rendering.
fn check(text: &str) -> Result<(), String> {
    let report = RunReport::from_json(text)
        .map_err(|e| format!("report does not parse as a RunReport: {e}"))?;
    check_spans_and_counters(&report)?;
    check_timelines(&report)?;
    check_hists(&report)?;
    check_tree(&report.tree)?;
    for sub in EXTRACT_SUBSPANS {
        let node = report
            .tree
            .iter()
            .find(|n| n.name == *sub)
            .ok_or_else(|| format!("the span tree has no {sub:?} node"))?;
        if parent_of(&report.tree, node)?.map(|p| p.name.as_str()) != Some("extract") {
            return Err(format!("{sub:?} is not a child of \"extract\""));
        }
    }
    openmetrics::validate(&report.to_openmetrics())
        .map_err(|e| format!("OpenMetrics exposition is invalid: {e}"))
}

/// Whether a bench report's recorded revision deserves the stale and
/// dirty warnings, from `git status --porcelain --ignored` on its path
/// (`None` when git could not answer). Empty output means git tracks the
/// file and it is unchanged since `HEAD`; an untracked, ignored or
/// modified file, or one outside any checkout, is a fresh report.
fn revision_is_current(porcelain: Option<&str>) -> bool {
    porcelain.is_none_or(|status| !status.trim().is_empty())
}

/// `git status --porcelain --ignored` for the one file at `path`, run in
/// the file's directory (`-C ""` keeps the current one).
fn git_status_of(path: &str) -> Option<String> {
    let path = std::path::Path::new(path);
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(path.parent()?)
        .args(["status", "--porcelain", "--ignored", "--"])
        .arg(path.file_name()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

fn check_bench(path: &str, text: &str) -> Result<String, String> {
    let report = BenchReport::from_json(text).map_err(|e| e.to_string())?;
    if report.entries.is_empty() {
        return Err("bench report has no entries".to_string());
    }
    // Stale-metadata watchdog (non-fatal): a freshly written report's
    // revision should match the checkout being validated, and a dirty
    // marker means the numbers came from a modified worktree.
    if revision_is_current(git_status_of(path).as_deref()) {
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
    }
    Ok(format!(
        "{} ({} entries, git_rev {})",
        report.name,
        report.entries.len(),
        report.env.git_rev
    ))
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
    let spans = trace
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("trace has no spans array")?
        .iter()
        .map(SpanNode::from_json)
        .collect::<Result<Vec<SpanNode>, _>>()
        .map_err(|e| format!("{trace_id}: {e}"))?;
    check_tree(&spans).map_err(|e| format!("{trace_id}: {e}"))?;
    let roots: Vec<&SpanNode> = spans.iter().filter(|s| s.parent.is_none()).collect();
    if roots.len() != 1 || roots[0].name != "request" {
        return Err(format!(
            "{trace_id}: expected exactly one root span named \"request\", \
             found {} root(s)",
            roots.len()
        ));
    }
    let root = roots[0];
    let recompute = spans.iter().find(|s| s.name == "recompute");
    if let Some(recompute) = recompute {
        for name in REQUIRED_SERVE_SPANS {
            if !spans.iter().any(|s| s.name == *name) {
                return Err(format!(
                    "{trace_id}: recomputing trace has no {name:?} span"
                ));
            }
        }
        if !spans.iter().any(|s| s.parent == Some(recompute.id)) {
            return Err(format!(
                "{trace_id}: no pipeline stage span nests under recompute"
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
    Ok((recompute.is_some(), trace_id.to_string()))
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
    let checked = match mode {
        "run" => check(&text).map(|()| String::new()),
        "bench" => check_bench(&path, &text).map(|summary| format!(" — {summary}")),
        _ => check_serve_trace(&text).map(|summary| format!(" — {summary}")),
    };
    match checked {
        Ok(summary) => {
            println!("validate_trace: {path} OK{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("validate_trace: {path}: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_fresh_reports_have_a_current_revision() {
        // Tracked and unchanged since HEAD: committed evidence.
        assert!(!revision_is_current(Some("")));
        // Modified, staged, untracked, ignored, or git could not answer.
        for status in [
            Some(" M BENCH_x.json\n"),
            Some("M  BENCH_x.json\n"),
            Some("?? BENCH_x.json\n"),
            Some("!! target/BENCH_x.json\n"),
            None,
        ] {
            assert!(revision_is_current(status), "{status:?}");
        }
    }
}
