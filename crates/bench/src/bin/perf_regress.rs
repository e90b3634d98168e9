//! Cross-run performance regression gate.
//!
//! Times every kernel of the registry (`dlp_bench::kernels`) plus a CPU
//! calibration loop, and compares the calibration-normalized costs
//! against a committed baseline (`baselines/perf_baseline.json`,
//! versioned [`BenchReport`] schema). Normalization by the in-process
//! calibration loop cancels machine speed, so the committed baseline
//! stays meaningful on different hardware; see `dlp_bench::regress` for
//! the thresholds.
//!
//! Usage:
//!
//! ```text
//! perf_regress                   # measure, then compare against the committed baseline
//! perf_regress --write-baseline  # measure, then write the report as the baseline
//! perf_regress --baseline <path> # compare against (or write) a specific baseline
//! perf_regress --current <path>  # gate a report file instead of measuring
//! ```
//!
//! Every measured run first tests the gate on its fresh report: against
//! itself it must pass at unit ratios; against a copy one half as costly
//! (a synthetic 2x slowdown) it must fail, since a gate that cannot flag
//! that would be decorative; a workload missing on either side must be
//! named and non-fatal; a baseline from another CPU count must be flagged
//! and non-fatal. It then prints the recorder-overhead ratio against its
//! bound.
//!
//! `--current` turns the binary into a pure file-vs-file comparator:
//! any versioned [`BenchReport`] that carries the calibration entry
//! (e.g. `BENCH_serve.json` from `serve_load`) can be gated against its
//! own committed baseline without re-measuring here.

use std::process::ExitCode;

use dlp_bench::kernels::{self, OBS_RATIO_LABEL};
use dlp_bench::regress::{self, gate_error, Comparison, Verdict, CALIBRATION_LABEL, TIMED_UNIT};
use dlp_core::obs::{BenchEntry, BenchReport};
use dlp_core::PipelineError;

/// The north star's bound on traced over untraced cost. Above it is a
/// named warning, not a failure: ten consecutive runs on a 2-vCPU VM read
/// 0.99–1.08, so a fatal bound would fail at random.
const OBS_RATIO_BOUND: f64 = 1.03;

/// The committed kernel baseline.
const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../baselines/perf_baseline.json"
);

fn print_comparison(cmp: &regress::Comparison) {
    if let Some((base, cur)) = cmp.cpu_mismatch {
        eprintln!(
            "warning: baseline was recorded on {base} CPU(s), this machine has {cur} — \
             thread-scaling numbers are not comparable; \
             rewrite the baseline here with --write-baseline"
        );
    }
    let verdict = |v| match v {
        Verdict::Pass => "ok",
        Verdict::Warn => "WARN",
        Verdict::Fail => "FAIL",
    };
    let rows: Vec<Vec<String>> = cmp
        .findings
        .iter()
        .map(|f| {
            let (base, now) = (
                format!("{:.0}", f.baseline_ns),
                format!("{:.0}", f.current_ns),
            );
            vec![
                f.label.clone(),
                base,
                now,
                format!("{:.2}x", f.ratio),
                verdict(f.verdict).into(),
            ]
        })
        .collect();
    let headers = ["workload", "base ns", "now ns", "normalized", "verdict"];
    dlp_bench::print_table(&headers, &rows);
    for label in &cmp.low_confidence {
        eprintln!(
            "warning: {label} was compared without repeat samples on at least one side — \
             its verdict is low-confidence"
        );
    }
    for label in &cmp.missing_in_baseline {
        eprintln!("warning: {label} is not in the baseline (rewrite it with --write-baseline)");
    }
    for label in &cmp.missing_in_current {
        eprintln!("warning: baseline workload {label} was not measured — coverage shrank");
    }
    for f in cmp.flagged() {
        let (level, what) = match f.verdict {
            Verdict::Fail => ("error", "regression"),
            _ => ("warning", "drift"),
        };
        eprintln!(
            "{level}: {what}: {} is {:.2}x its baseline cost (warn at {:.1}x, fail at {:.1}x)",
            f.label,
            f.ratio,
            regress::WARN_RATIO,
            regress::FAIL_RATIO,
        );
    }
}

/// Tests the gate on a fresh report (see the module docs), printing one
/// line per check; true when all five hold.
fn gate_self_test(current: &BenchReport) -> Result<bool, PipelineError> {
    let compare =
        |base: &BenchReport, cur: &BenchReport| regress::compare(base, cur).map_err(gate_error);
    let mut all = true;
    let mut check = |ok: bool, what: &str| {
        println!("self-test: {what}: {}", if ok { "ok" } else { "FAILED" });
        all &= ok;
    };
    let timed = |e: &BenchEntry| e.unit == TIMED_UNIT && e.label != CALIBRATION_LABEL;

    let same = compare(current, current)?;
    let unit = |f: &regress::Finding| (f.ratio - 1.0).abs() < 1e-9;
    let ok = same.passed() && !same.findings.is_empty() && same.findings.iter().all(unit);
    check(ok, "an unchanged baseline passes at 1.00x");

    // Halve every baseline workload cost (calibration untouched): the
    // current run looks 2x slower.
    let mut doctored = current.clone();
    for entry in doctored.entries.iter_mut().filter(|e| timed(e)) {
        entry.value /= 2.0;
        entry.samples.iter_mut().for_each(|s| *s /= 2.0);
    }
    let slowed = compare(&doctored, current)?;
    let ok = !slowed.passed() && slowed.findings.iter().all(|f| f.verdict == Verdict::Fail);
    check(ok, "a synthetic 2x slowdown fails every workload");

    // Coverage drift both ways: silent loss would hide regressions, a
    // hard failure would block every baseline predating a new workload.
    let dropped = current
        .entries
        .iter()
        .find(|e| timed(e))
        .map(|e| e.label.clone());
    let dropped = dropped.ok_or_else(|| gate_error("the report has no timed workload"))?;
    let mut pruned = current.clone();
    pruned.entries.retain(|e| e.label != dropped);
    let named = |cmp: Comparison, new: &[&str], lost: &[&str]| {
        cmp.passed() && cmp.missing_in_baseline == new && cmp.missing_in_current == lost
    };
    let ok = named(compare(&pruned, current)?, &[&dropped], &[]);
    check(
        ok,
        "a workload absent from the baseline is named, non-fatal",
    );
    let ok = named(compare(current, &pruned)?, &[], &[&dropped]);
    check(ok, "a workload no longer measured is named, non-fatal");

    // Calibration cancels core speed, not core count.
    let mut other_env = current.clone();
    other_env.env.cpus += 1;
    let cpus = (other_env.env.cpus, current.env.cpus);
    let drifted = compare(&other_env, current)?;
    check(
        drifted.passed() && drifted.cpu_mismatch == Some(cpus),
        "a baseline from another CPU count is flagged, non-fatal",
    );
    Ok(all)
}

fn run() -> Result<(), PipelineError> {
    let mut baseline_path = BASELINE.to_string();
    let mut current_path: Option<String> = None;
    let mut write_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            "--baseline" => {
                baseline_path = args
                    .next()
                    .ok_or_else(|| gate_error("--baseline needs a path"))?;
            }
            "--current" => {
                current_path = Some(
                    args.next()
                        .ok_or_else(|| gate_error("--current needs a path"))?,
                );
            }
            other => {
                return Err(gate_error(format!(
                    "unknown argument {other:?} \
                     (expected --write-baseline, --baseline <path>, or --current <path>)"
                )));
            }
        }
    }

    let (current, ok) = match &current_path {
        Some(path) => (
            BenchReport::load(path)
                .map_err(|e| gate_error(format!("current report {path}: {e}")))?,
            true,
        ),
        None => {
            let current = kernels::measure()?;
            let ok = gate_self_test(&current)?;
            if let Some(ratio) = current.value(OBS_RATIO_LABEL) {
                println!("perf_regress: obs_on_ratio {ratio:.3} (bound {OBS_RATIO_BOUND})");
                if ratio > OBS_RATIO_BOUND {
                    eprintln!(
                        "warning: obs_on_ratio: traced PPSFP costs {ratio:.3}x untraced, \
                         above the {OBS_RATIO_BOUND} bound"
                    );
                }
            }
            (current, ok)
        }
    };

    if write_baseline {
        if !ok {
            return passed(false);
        }
        dlp_bench::pipeline::write_bench_report(&current, &baseline_path)?;
        println!("wrote {baseline_path} (git_rev {})", current.env.git_rev);
        return passed(ok);
    }

    let baseline = BenchReport::load(&baseline_path).map_err(|e| {
        gate_error(format!(
            "baseline {baseline_path}: {e} (create it with perf_regress --write-baseline)"
        ))
    })?;
    let cmp = regress::compare(&baseline, &current).map_err(gate_error)?;
    println!(
        "perf_regress: current git_rev {} vs baseline git_rev {}",
        current.env.git_rev, baseline.env.git_rev
    );
    print_comparison(&cmp);
    passed(ok && cmp.passed())
}

/// Success when every check of the run held.
fn passed(ok: bool) -> Result<(), PipelineError> {
    if !ok {
        return Err(gate_error("perf_regress: the gate failed (see above)"));
    }
    println!("perf_regress: OK");
    Ok(())
}

fn main() -> ExitCode {
    dlp_bench::run_main(run)
}
