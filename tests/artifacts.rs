//! Every committed report still loads, verifies, and survives a
//! rewrite by the current writer.
//!
//! The `BENCH_*.json` files, the perf baselines and the committed run
//! trace are the evidence behind the numbers in the docs; a reader
//! change that strands one of them would go unnoticed by round trips
//! inside one build. Each file is loaded through the typed reader (which
//! verifies a recorded checksum), rendered again by the writer, and
//! parsed back: the canonical renderings of both must agree.

use dlp::core::ckpt::{render, render_pretty};
use dlp::core::obs::hist::Histogram;
use dlp::core::obs::{BenchReport, Recorder, RunReport};

/// The committed `BenchReport` files.
const BENCH_FILES: &[&str] = &[
    "BENCH_ndetect.json",
    "BENCH_scale_sweep.json",
    "BENCH_yield.json",
    "baselines/perf_baseline.json",
    "baselines/serve_baseline.json",
    "baselines/yield_baseline.json",
];

/// The committed run report.
const TRACE_FILE: &str = "TRACE_full_flow_c432.json";

fn path(file: &str) -> String {
    format!("{}/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// The writer's text for `report` loads back to the same report: their
/// canonical renderings agree (so `NaN` compares as the `null` it is
/// written as).
fn assert_bench_rewrites(file: &str, report: &BenchReport) {
    let text = render_pretty(&report.to_json());
    let again = BenchReport::from_json(&text)
        .unwrap_or_else(|e| panic!("{file}: the rewritten report does not load: {e}"));
    assert_eq!(
        render(&again.to_json()),
        render(&report.to_json()),
        "{file}: the rewrite changed the report"
    );
}

/// As [`assert_bench_rewrites`], for a run report (non-finite gauges and
/// empty-histogram sentinels compare as the `null` they are written as).
fn assert_run_rewrites(file: &str, report: &RunReport) {
    let text = render_pretty(&report.to_json());
    let again = RunReport::from_json(&text)
        .unwrap_or_else(|e| panic!("{file}: the rewritten report does not load: {e}"));
    assert_eq!(
        render(&again.to_json()),
        render(&report.to_json()),
        "{file}: the rewrite changed the report"
    );
}

#[test]
fn committed_bench_reports_load_verify_and_rewrite() {
    for file in BENCH_FILES {
        // `load` verifies the checksum wherever the file records one.
        let report =
            BenchReport::load(&path(file)).unwrap_or_else(|e| panic!("{file} does not load: {e}"));
        assert!(!report.entries.is_empty(), "{file} has no entries");
        assert_bench_rewrites(file, &report);
    }
}

#[test]
fn committed_run_trace_loads_and_rewrites() {
    let report = RunReport::load(&path(TRACE_FILE))
        .unwrap_or_else(|e| panic!("{TRACE_FILE} does not load: {e}"));
    assert_eq!(report.name, "full_flow_c432");
    assert!(!report.spans.is_empty() && !report.tree.is_empty());
    assert_run_rewrites(TRACE_FILE, &report);
}

#[test]
fn non_finite_values_and_empty_histograms_rewrite() {
    let obs = Recorder::enabled();
    {
        let _span = obs.span("stage");
        obs.add("c", 3);
        obs.gauge("nan", f64::NAN);
        obs.gauge("inf", f64::INFINITY);
        obs.push("s", f64::NEG_INFINITY);
        obs.merge_hist("empty", &Histogram::new());
        obs.observe("invalid_only", -1.0);
    }
    let report = obs.report("sentinels");
    assert_run_rewrites("sentinels", &report);
    let again = RunReport::from_json(&render_pretty(&report.to_json())).expect("loads");
    assert!(again.gauge("nan").is_some_and(f64::is_nan));
    assert!(
        again.gauge("inf").is_some_and(f64::is_nan),
        "written as null"
    );
    for name in ["empty", "invalid_only"] {
        let h = again.hist(name).expect("histogram");
        assert_eq!(
            (h.count, h.min, h.max),
            (0, f64::INFINITY, f64::NEG_INFINITY)
        );
    }
    assert_eq!(again.hist("invalid_only").map(|h| h.invalid), Some(1));

    let mut bench = BenchReport::new("sentinels");
    bench.record("undefined", "ratio", f64::NAN);
    bench.record_samples("timed", "ns/iter", &[3.0, 1.0, 2.0]);
    assert_bench_rewrites("sentinels", &bench);
}
