//! Cross-run performance regression gate.
//!
//! Measures a small fixed set of hot-path workloads (gate-level PPSFP,
//! switch-level detection, layout, critical-area extraction, Monte-Carlo
//! fallout) plus a CPU calibration loop, and compares the
//! calibration-normalized costs against a committed baseline
//! (`baselines/perf_baseline.json`, versioned [`BenchReport`] schema).
//! Normalization by the in-process calibration loop cancels machine
//! speed, so the committed baseline stays meaningful on different
//! hardware; see `dlp_bench::regress` for the thresholds.
//!
//! Usage:
//!
//! ```text
//! perf_regress                   # compare against the committed baseline
//! perf_regress --write-baseline  # measure and (re)write the baseline
//! perf_regress --self-test       # verify the gate's own detection power
//! perf_regress --baseline <path> # compare against a specific baseline
//! perf_regress --current <path>  # gate a report file instead of measuring
//! ```
//!
//! `--current` turns the binary into a pure file-vs-file comparator:
//! any versioned [`BenchReport`] that carries the calibration entry
//! (e.g. `BENCH_serve.json` from `serve_load`) can be gated against its
//! own committed baseline without re-measuring here.
//!
//! `--self-test` measures once, then (a) compares the measurement
//! against itself — must pass with unit ratios — and (b) compares it
//! against a doctored baseline in which one workload was made 2x
//! cheaper (equivalent to the current run being 2x slower) — the gate
//! must fail. A gate that cannot flag a synthetic 2x slowdown would be
//! decorative.

use std::process::ExitCode;

use dlp_bench::regress::{
    self, calibration_spin, sample_ns, Verdict, CALIBRATION_LABEL, TIMED_UNIT,
};
use dlp_circuit::{generators, switch};
use dlp_core::montecarlo::{simulate_fallout_resumable, MonteCarloConfig};
use dlp_core::obs::{BenchReport, Recorder};
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_core::{PipelineError, RunBudget};
use dlp_extract::defects::DefectStatistics;
use dlp_extract::extractor::{extract_obs, ExtractionConfig};
use dlp_layout::chip::ChipLayout;
use dlp_sim::detection::random_vectors;
use dlp_sim::switchlevel::{DetectionMode, SwitchConfig, SwitchFault, SwitchSimulator};
use dlp_sim::{ppsfp, stuck_at};

fn default_baseline_path() -> String {
    format!(
        "{}/../../baselines/perf_baseline.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Measures every gated workload into a fresh report.
fn measure() -> Result<BenchReport, PipelineError> {
    let mut report = BenchReport::new("perf_regress");
    let t1 = ThreadCount::fixed(1).map_err(dlp_core::ModelError::from)?;
    let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());

    report.record_samples(CALIBRATION_LABEL, TIMED_UNIT, &sample_ns(calibration_spin));

    let netlist = generators::c432_class();
    let faults = stuck_at::enumerate(&netlist).collapse();
    let vectors = random_vectors(netlist.inputs().len(), 256, 7);
    report.record_samples(
        "ppsfp/c432_class/256v",
        TIMED_UNIT,
        &sample_ns(|| {
            ppsfp::simulate_resumable(&netlist, faults.faults(), &vectors, t1, obs, budget, None)
                .map(|r| r.detected_count())
        }),
    );

    let c17 = generators::c17();
    let sw = switch::expand(&c17)
        .map_err(|e| PipelineError::from(e).context("expanding c17 to switch level"))?;
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let n_trans = sim.netlist().transistors().len();
    let sw_faults: Vec<SwitchFault> = (0..n_trans)
        .step_by(2)
        .map(|t| SwitchFault::StuckOpen { transistor: t })
        .collect();
    let sw_vectors = random_vectors(c17.inputs().len(), 48, 17);
    report.record_samples(
        "switch/c17/voltage_48v",
        TIMED_UNIT,
        &sample_ns(|| {
            sim.detect_obs(&sw_faults, &sw_vectors, DetectionMode::Voltage, t1, obs)
                .map(|r| r.detected_count())
        }),
    );

    // All five fault families on c432-class, so the differential driver
    // is gated as well as the reference one (c17's stuck-opens above only
    // exercise the latter).
    let c432 = generators::c432_class();
    let sw = switch::expand(&c432)
        .map_err(|e| PipelineError::from(e).context("expanding c432_class to switch level"))?;
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let mixed: Vec<SwitchFault> = dlp_bench::switch_fault_families(&c432, &sim, 4)
        .into_iter()
        .flat_map(|(_, faults)| faults)
        .collect();
    let mixed_vectors = random_vectors(c432.inputs().len(), 64, 17);
    report.record_samples(
        "switch/c432_class/mixed_64v",
        TIMED_UNIT,
        &sample_ns(|| {
            sim.detect_obs(&mixed, &mixed_vectors, DetectionMode::Voltage, t1, obs)
                .map(|r| r.detected_count())
        }),
    );

    let adder = generators::ripple_adder(4);
    let chip = ChipLayout::generate(&adder, &Default::default())
        .map_err(|e| PipelineError::from(e).context("ripple-adder layout"))?;
    let stats = DefectStatistics::maly_cmos();
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let config = ExtractionConfig { size_samples: 6 };
    report.record_samples(
        "extract/ripple_adder4/s6",
        TIMED_UNIT,
        &sample_ns(|| extract_obs(&chip, &stats, &config, threads, obs).map(|f| f.len())),
    );

    // The router on the largest flow-layout circuit: placement, pin
    // escapes and the negotiated-congestion A* searches.
    let parity = generators::parity_tree(48);
    report.record_samples(
        "layout/parity_tree48",
        TIMED_UNIT,
        &sample_ns(|| ChipLayout::generate(&parity, &Default::default()).map(|c| c.shapes().len())),
    );

    let weights = FaultWeights::new(vec![1.0; 24])
        .map_err(PipelineError::from)?
        .scaled_to_yield(0.75)
        .map_err(PipelineError::from)?;
    let detected: Vec<bool> = (0..24).map(|j| j % 4 != 0).collect();
    let mc = MonteCarloConfig {
        dies: 20_000,
        seed: 0x5EED,
    };
    report.record_samples(
        "montecarlo/20k_dies",
        TIMED_UNIT,
        &sample_ns(|| {
            simulate_fallout_resumable(&weights, &detected, &mc, t1, obs, budget, None)
                .map(|r| r.escapes)
        }),
    );

    // Flow-shaped: a benchmark flow-switch flow hands Monte-Carlo about
    // 150 faults with uneven weights and runs 50k dies on one worker.
    let (weights, detected) =
        dlp_bench::flow_shaped_fallout_inputs().map_err(PipelineError::from)?;
    let mc = MonteCarloConfig {
        dies: 50_000,
        seed: 0x5EED,
    };
    report.record_samples(
        "montecarlo/50k_dies_150_faults",
        TIMED_UNIT,
        &sample_ns(|| {
            simulate_fallout_resumable(&weights, &detected, &mc, t1, obs, budget, None)
                .map(|r| r.escapes)
        }),
    );

    Ok(report)
}

fn print_comparison(cmp: &regress::Comparison) {
    if let Some((base, cur)) = cmp.cpu_mismatch {
        eprintln!(
            "warning: baseline was recorded on {base} CPU(s), this machine has {cur} — \
             thread-scaling numbers are not comparable; \
             rewrite the baseline here with --write-baseline"
        );
    }
    let rows: Vec<Vec<String>> = cmp
        .findings
        .iter()
        .map(|f| {
            vec![
                f.label.clone(),
                format!("{:.0}", f.baseline_ns),
                format!("{:.0}", f.current_ns),
                format!("{:.2}x", f.ratio),
                match f.verdict {
                    Verdict::Pass => "ok".to_string(),
                    Verdict::Warn => "WARN".to_string(),
                    Verdict::Fail => "FAIL".to_string(),
                },
            ]
        })
        .collect();
    dlp_bench::print_table(
        &["workload", "base ns", "now ns", "normalized", "verdict"],
        &rows,
    );
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
        let what = if f.verdict == Verdict::Fail {
            "regression"
        } else {
            "drift"
        };
        eprintln!(
            "{}: {what}: {} is {:.2}x its baseline cost (warn at {:.1}x, fail at {:.1}x)",
            if f.verdict == Verdict::Fail {
                "error"
            } else {
                "warning"
            },
            f.label,
            f.ratio,
            regress::WARN_RATIO,
            regress::FAIL_RATIO,
        );
    }
}

fn self_test() -> Result<bool, PipelineError> {
    let current = measure()?;

    // (a) Unchanged baseline: comparing a measurement against itself
    // must pass with exactly unit ratios.
    let unchanged =
        regress::compare(&current, &current).map_err(|e| pipeline_err(&e.to_string()))?;
    let clean = unchanged.passed()
        && !unchanged.findings.is_empty()
        && unchanged
            .findings
            .iter()
            .all(|f| (f.ratio - 1.0).abs() < 1e-9);
    println!(
        "self-test: unchanged baseline {} ({} workloads at 1.00x)",
        if clean { "passes" } else { "FAILED" },
        unchanged.findings.len()
    );

    // (b) Synthetic 2x slowdown: halve every baseline workload cost
    // (calibration untouched), making the current run look 2x slower.
    let mut doctored = current.clone();
    for entry in &mut doctored.entries {
        if entry.unit == TIMED_UNIT && entry.label != CALIBRATION_LABEL {
            entry.value /= 2.0;
            for s in &mut entry.samples {
                *s /= 2.0;
            }
        }
    }
    let slowed = regress::compare(&doctored, &current).map_err(|e| pipeline_err(&e.to_string()))?;
    let detected = !slowed.passed() && slowed.findings.iter().all(|f| f.verdict == Verdict::Fail);
    println!(
        "self-test: synthetic 2x slowdown {} ({} workloads flagged)",
        if detected { "detected" } else { "NOT DETECTED" },
        slowed.flagged().len()
    );

    // (c)/(d) Coverage drift, both directions: a timed workload absent
    // from either side must be reported by name and stay non-fatal —
    // silent coverage loss would hide regressions, a hard failure would
    // block every baseline predating a new workload.
    let dropped = current
        .entries
        .iter()
        .find(|e| e.unit == TIMED_UNIT && e.label != CALIBRATION_LABEL)
        .map(|e| e.label.clone())
        .ok_or_else(|| pipeline_err("self-test needs at least one timed workload"))?;
    let mut pruned = current.clone();
    pruned.entries.retain(|e| e.label != dropped);
    let stale_baseline =
        regress::compare(&pruned, &current).map_err(|e| pipeline_err(&e.to_string()))?;
    let names_new = stale_baseline.passed()
        && stale_baseline.missing_in_baseline == [dropped.clone()]
        && stale_baseline.missing_in_current.is_empty();
    println!(
        "self-test: workload absent from the baseline {} ({dropped:?} flagged, non-fatal)",
        if names_new { "is named" } else { "NOT NAMED" },
    );
    let shrunk_current =
        regress::compare(&current, &pruned).map_err(|e| pipeline_err(&e.to_string()))?;
    let names_lost = shrunk_current.passed()
        && shrunk_current.missing_in_current == [dropped.clone()]
        && shrunk_current.missing_in_baseline.is_empty();
    println!(
        "self-test: workload no longer measured {} ({dropped:?} flagged, non-fatal)",
        if names_lost { "is named" } else { "NOT NAMED" },
    );

    // (e) Environment drift: a baseline recorded with a different CPU
    // count must be flagged (the committed 0.6x parallel "speedup" was
    // a single-CPU-container artifact) and stay non-fatal — calibration
    // cancels core speed, not core count.
    let mut other_env = current.clone();
    other_env.env.cpus = current.env.cpus + 1;
    let drifted =
        regress::compare(&other_env, &current).map_err(|e| pipeline_err(&e.to_string()))?;
    let cpus_named =
        drifted.passed() && drifted.cpu_mismatch == Some((current.env.cpus + 1, current.env.cpus));
    println!(
        "self-test: baseline from a {}-CPU machine {} (non-fatal)",
        current.env.cpus + 1,
        if cpus_named {
            "is flagged"
        } else {
            "NOT FLAGGED"
        },
    );

    Ok(clean && detected && names_new && names_lost && cpus_named)
}

fn pipeline_err(msg: &str) -> PipelineError {
    PipelineError::with_source(
        dlp_core::Stage::Model,
        dlp_core::ModelError::BadFitData("perf_regress gate error"),
    )
    .context(msg.to_string())
}

fn run() -> Result<bool, PipelineError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline_path = default_baseline_path();
    let mut current_path: Option<String> = None;
    let mut write_baseline = false;
    let mut want_self_test = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--write-baseline" => write_baseline = true,
            "--self-test" => want_self_test = true,
            "--baseline" => {
                baseline_path = it
                    .next()
                    .ok_or_else(|| pipeline_err("--baseline needs a path"))?
                    .clone();
            }
            "--current" => {
                current_path = Some(
                    it.next()
                        .ok_or_else(|| pipeline_err("--current needs a path"))?
                        .clone(),
                );
            }
            other => {
                return Err(pipeline_err(&format!(
                    "unknown argument {other:?} \
                     (expected --write-baseline, --self-test, --baseline <path>, \
                      or --current <path>)"
                )));
            }
        }
    }

    if want_self_test {
        return self_test();
    }

    if write_baseline {
        let report = measure()?;
        dlp_bench::pipeline::write_bench_report(&report, &baseline_path)?;
        println!("wrote {baseline_path} (git_rev {})", report.env.git_rev);
        return Ok(true);
    }

    let baseline = BenchReport::load(&baseline_path).map_err(|e| {
        pipeline_err(&format!(
            "baseline {baseline_path}: {e} (create it with perf_regress --write-baseline)"
        ))
    })?;
    let current = match &current_path {
        Some(path) => BenchReport::load(path)
            .map_err(|e| pipeline_err(&format!("current report {path}: {e}")))?,
        None => measure()?,
    };
    let cmp = regress::compare(&baseline, &current).map_err(|e| pipeline_err(&e.to_string()))?;
    println!(
        "perf_regress: current git_rev {} vs baseline git_rev {}",
        current.env.git_rev, baseline.env.git_rev
    );
    print_comparison(&cmp);
    if cmp.passed() {
        println!("perf_regress: OK");
    }
    Ok(cmp.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
