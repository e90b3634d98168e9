//! DL(T) under non-Poisson fallout: how defect clustering shifts the
//! paper's projections.
//!
//! The study holds the operating point fixed — analytic yield
//! `Y = 0.75`, the same extracted fault list, the same simulated
//! coverage trajectory θ(k) — and swaps the fallout distribution:
//! independent Poisson (the paper's assumption), Stapper's
//! negative-binomial at three cluster settings (α = 0.5 / 2 / 8), and
//! the hierarchical die × wafer × lot compound model. Each distribution
//! is calibrated to the target yield (`λ = λ(Y)`), its DL(T) trajectory
//! is computed from the *measured* θ(k) via `DL = 1 − Y(λ)/Y(θλ)`, and
//! eq. 11 is refitted per distribution, so the shift in (R, θ_max)
//! quantifies how far the Poisson-fitted paper model drifts when
//! defects cluster. A Monte-Carlo fallout run per distribution
//! cross-checks the analytic layer at the full test length.
//!
//! Writes `BENCH_yield.json` at the workspace root (versioned
//! [`BenchReport`] schema): per-distribution λ, final DL, (R, θ_max)
//! fits, the full DL(T) trajectory at logarithmic test lengths, the MC
//! cross-check, timed `yield/mc/...` entries, and the standard
//! `calibration/spin` entry so `perf_regress` can gate it.
//!
//! `--smoke` runs the same study on c17 in seconds and writes
//! `BENCH_yield_smoke.json` — the report CI gates against
//! `baselines/yield_baseline.json`.
//!
//! The bin *asserts* the headline physics: at fixed yield and fixed
//! test quality, clustering strictly lowers DL (escapes concentrate on
//! dies the test already rejects), monotonically in the cluster
//! parameter; and the MC estimates agree with the closed forms.

use std::time::Instant;

use dlp_bench::pipeline::{self, PAPER_YIELD};
use dlp_bench::regress::{calibration_spin, sample_ns, CALIBRATION_LABEL, TIMED_UNIT};
use dlp_circuit::generators;
use dlp_core::fit::fit_sousa;
use dlp_core::montecarlo::{simulate_fallout_mixed_resumable, MonteCarloConfig};
use dlp_core::obs::{BenchReport, Recorder};
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_core::{PipelineError, Ppm, RunBudget, Stage};
use dlp_extract::defects::DefectStatistics;
use dlp_yield::dist::Fallout;

/// Simulated production volume for the Monte-Carlo cross-check.
const MC_DIES: usize = 200_000;

/// Seed of the cross-check production line.
const MC_SEED: u64 = 0xC1A5;

/// Tolerance on |MC − analytic| for yield and DL at `MC_DIES` dies.
/// The hierarchical model dominates this bound: its lot-level mixing
/// shrinks the effective sample count to the lot count.
const MC_TOLERANCE: f64 = 0.02;

fn workspace_path(file: &str) -> String {
    format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"))
}

/// The swept distributions with short report-label names. The
/// hierarchical grouping is scaled down (64-die wafers, 4-wafer lots)
/// so the `MC_DIES` population spans ~780 lots — a production-sized
/// 400 × 25 grouping would leave the cross-check with 20 lots of
/// effective sample.
fn sweep() -> Result<Vec<(&'static str, Fallout)>, PipelineError> {
    let model = |r: Result<Fallout, dlp_core::ModelError>| {
        r.map_err(|e| PipelineError::with_source(Stage::Model, e))
    };
    Ok(vec![
        ("poisson", Fallout::poisson()),
        ("nb_a0.5", model(Fallout::negative_binomial(0.5))?),
        ("nb_a2", model(Fallout::negative_binomial(2.0))?),
        ("nb_a8", model(Fallout::negative_binomial(8.0))?),
        ("hier", model(Fallout::hierarchical(2.0, 8.0, 20.0, 64, 4))?),
    ])
}

struct DistResult {
    label: &'static str,
    lambda: f64,
    dl_final: f64,
    dl_mid: f64,
    fit_r: f64,
    fit_theta_max: f64,
    mc_yield: f64,
    mc_dl: f64,
    analytic_dl_at_mask: f64,
}

fn model_err(e: dlp_core::ModelError) -> PipelineError {
    PipelineError::with_source(Stage::Model, e)
}

fn run() -> Result<(), PipelineError> {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let (circuit, netlist, report_file) = if smoke {
        ("c17", generators::c17(), "BENCH_yield_smoke.json")
    } else {
        ("c432_class", generators::c432_class(), "BENCH_yield.json")
    };

    let obs = pipeline::recorder_from_env();
    let extraction = pipeline::extract_netlist_obs(netlist, &DefectStatistics::maly_cmos(), &obs)?;
    dlp_bench::report_diagnostics(&extraction.diagnostics);
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let budget = RunBudget::from_env()?;
    let run = pipeline::simulate_budgeted(&extraction, 1, threads, &budget, &obs)?;
    let raw_w = extraction.faults.weights();
    let total_vectors = run.vectors.len();
    let ks = dlp_bench::log_lengths(total_vectors);

    // The measured coverage trajectory, shared by every distribution
    // (θ is a weight *fraction*, independent of the λ calibration).
    let mut curve: Vec<(usize, f64, f64)> = Vec::new(); // (k, T, θ)
    for &k in &ks {
        let t = run.record_t.coverage_after(k);
        let theta = run.record_theta.weighted_coverage_after(k, &raw_w)?;
        curve.push((k, t, theta));
    }
    // Mid-curve comparison point: the last sample with θ clearly below
    // saturation, falling back to the middle sample (on tiny circuits
    // the full test set may reach θ = 1, where every DL is 0).
    let mid = curve
        .iter()
        .rev()
        .find(|&&(_, _, theta)| theta < 0.995)
        .copied()
        .unwrap_or(curve[curve.len() / 2]);

    let mut report = BenchReport::new("yield_cluster");
    report.record_samples(CALIBRATION_LABEL, TIMED_UNIT, &sample_ns(calibration_spin));
    let base = format!("yield/{circuit}");
    report.record(&format!("{base}/target_yield"), "fraction", PAPER_YIELD);
    report.record(&format!("{base}/vectors"), "vectors", total_vectors as f64);
    report.record(&format!("{base}/faults"), "faults", raw_w.len() as f64);
    for &(k, t, theta) in &curve {
        report.record(&format!("{base}/curve/k{k}/t"), "fraction", t);
        report.record(&format!("{base}/curve/k{k}/theta"), "fraction", theta);
    }

    let full_mask = run.record_theta.detected_after(total_vectors);
    let mut results: Vec<DistResult> = Vec::new();
    for (label, fallout) in sweep()? {
        let dist = fallout.dist();
        let lambda = dist.lambda_for_yield(PAPER_YIELD).map_err(model_err)?;

        // DL(T) trajectory and the eq. 11 refit for this distribution.
        let mut points: Vec<(f64, f64)> = Vec::new();
        let mut dl_final = 0.0;
        let mut dl_mid = 0.0;
        for &(k, t, theta) in &curve {
            let dl = dist.defect_level(lambda, theta).map_err(model_err)?;
            report.record(&format!("{base}/{label}/k{k}/dl"), "fraction", dl);
            points.push((t, dl));
            if k == curve[curve.len() - 1].0 {
                dl_final = dl;
            }
            if k == mid.0 {
                dl_mid = dl;
            }
        }
        let fitted = fit_sousa(PAPER_YIELD, &points).map_err(model_err)?;

        // Monte-Carlo cross-check at the full test length: weights
        // rescaled so Σw = λ(Y), the mask exactly as simulated.
        let scaled = FaultWeights::new(raw_w.clone())
            .map_err(model_err)?
            .scaled_to_yield((-lambda).exp())
            .map_err(model_err)?;
        let theta_full = run
            .record_theta
            .weighted_coverage_after(total_vectors, &raw_w)?;
        let analytic_dl_at_mask = dist.defect_level(lambda, theta_full).map_err(model_err)?;
        let cfg = MonteCarloConfig {
            dies: MC_DIES,
            seed: MC_SEED,
        };
        let mut mc_ns: Vec<f64> = Vec::new();
        let mut est = None;
        for _ in 0..3 {
            let t0 = Instant::now();
            let e = simulate_fallout_mixed_resumable(
                &scaled,
                &full_mask,
                &cfg,
                dist,
                threads,
                Recorder::noop(),
                &RunBudget::unlimited(),
                None,
            )
            .map_err(model_err)?;
            mc_ns.push(t0.elapsed().as_nanos() as f64);
            est = Some(e);
        }
        let est = est.ok_or_else(|| {
            PipelineError::with_source(
                Stage::Model,
                dlp_core::ModelError::BadFitData("no MC repeats ran"),
            )
        })?;
        report.record_samples(&format!("yield/mc/{circuit}/{label}"), "ns/iter", &mc_ns);

        let expected_yield = dist.expected_yield(lambda).map_err(model_err)?;
        if (est.yield_estimate() - expected_yield).abs() > MC_TOLERANCE
            || (est.defect_level() - analytic_dl_at_mask).abs() > MC_TOLERANCE
        {
            return Err(PipelineError::with_source(
                Stage::Model,
                dlp_core::ModelError::BadFitData(
                    "Monte-Carlo fallout disagrees with the analytic model",
                ),
            )
            .context(format!(
                "{label}: MC (Y {:.4}, DL {:.4}) vs analytic (Y {:.4}, DL {:.4})",
                est.yield_estimate(),
                est.defect_level(),
                expected_yield,
                analytic_dl_at_mask
            )));
        }

        report.record(&format!("{base}/{label}/lambda"), "defects", lambda);
        report.record(&format!("{base}/{label}/dl_final"), "fraction", dl_final);
        report.record(&format!("{base}/{label}/dl_mid"), "fraction", dl_mid);
        report.record(
            &format!("{base}/{label}/fit_r"),
            "ratio",
            fitted.susceptibility_ratio(),
        );
        report.record(
            &format!("{base}/{label}/fit_theta_max"),
            "fraction",
            fitted.theta_max(),
        );
        report.record(
            &format!("{base}/{label}/mc_yield"),
            "fraction",
            est.yield_estimate(),
        );
        report.record(
            &format!("{base}/{label}/mc_dl"),
            "fraction",
            est.defect_level(),
        );
        results.push(DistResult {
            label,
            lambda,
            dl_final,
            dl_mid,
            fit_r: fitted.susceptibility_ratio(),
            fit_theta_max: fitted.theta_max(),
            mc_yield: est.yield_estimate(),
            mc_dl: est.defect_level(),
            analytic_dl_at_mask,
        });
    }

    // Headline physics, asserted: at fixed yield and fixed coverage,
    // clustering lowers DL, monotonically in cluster strength. (Checked
    // at the mid-curve point; at θ = 1 every distribution ships DL 0.)
    let dl_of = |label: &str| {
        results
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.dl_mid)
            .unwrap_or(f64::NAN)
    };
    let ordered = [
        dl_of("nb_a0.5"),
        dl_of("nb_a2"),
        dl_of("nb_a8"),
        dl_of("poisson"),
    ];
    if dl_of("poisson") > 1e-12
        && !(ordered.windows(2).all(|p| p[0] < p[1]) && dl_of("hier") < dl_of("poisson"))
    {
        return Err(PipelineError::with_source(
            Stage::Model,
            dlp_core::ModelError::BadFitData(
                "clustered DL ordering violated (expected DL to fall as clustering grows)",
            ),
        )
        .context(format!(
            "mid-curve DLs: {ordered:?}, hier {}",
            dl_of("hier")
        )));
    }

    println!(
        "yield_cluster — {circuit}, Y = {PAPER_YIELD}, {} faults, {} vectors \
         (mid-curve point: k = {}, θ = {:.4})",
        raw_w.len(),
        total_vectors,
        mid.0,
        mid.2
    );
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                format!("{:.4}", r.lambda),
                format!("{:.1}", Ppm::from_fraction(r.dl_mid).value()),
                format!("{:.1}", Ppm::from_fraction(r.dl_final).value()),
                format!("{:.3}", r.fit_r),
                format!("{:.4}", r.fit_theta_max),
                format!("{:.4}", r.mc_yield),
                format!("{:.1}", Ppm::from_fraction(r.mc_dl).value()),
                format!("{:.1}", Ppm::from_fraction(r.analytic_dl_at_mask).value()),
            ]
        })
        .collect();
    dlp_bench::print_table(
        &[
            "dist",
            "lambda",
            "DL_mid ppm",
            "DL_end ppm",
            "fit R",
            "fit th_max",
            "MC yield",
            "MC DL ppm",
            "ana DL ppm",
        ],
        &rows,
    );

    let path = workspace_path(report_file);
    pipeline::write_bench_report(&report, &path)?;
    println!("yield_cluster: wrote {path}");
    if let Some(trace) = pipeline::write_run_report(&obs, "yield_cluster")? {
        println!("yield_cluster: wrote {trace}");
    }
    Ok(())
}

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}
