//! Figure 4 of the paper: measured fault coverage versus test length for
//! the c432-class chip — stuck-at `T(k)` (gate-level), weighted realistic
//! `θ(k)` and unweighted realistic `Γ(k)` (switch-level).
//!
//! Expected shape (the paper's §4): the three curves have distinct
//! susceptibilities; `θ` saturates below 1 (voltage-undetectable opens),
//! and the weighted curve's susceptibility `τ_θ` is *smaller* than `τ_T`
//! (bridges dominate the weight and are easy), so `R > 1`.

use dlp_bench::pipeline;
use dlp_bench::{ascii_plot, print_table, to_csv, Series};
use dlp_circuit::generators;
use dlp_core::fit;
use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
use dlp_extract::defects::DefectStatistics;

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

fn run() -> Result<(), dlp_core::PipelineError> {
    eprintln!("stage 1: layout + extraction...");
    let stats = DefectStatistics::maly_cmos();
    let ex = pipeline::extract_netlist_obs(generators::c432_class(), &stats, Recorder::noop())?;
    dlp_bench::report_diagnostics(&ex.diagnostics);
    eprintln!(
        "stage 2: ATPG + fault simulation ({} realistic faults)...",
        ex.faults.len()
    );
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let budget = RunBudget::from_env()?;
    let run = pipeline::simulate_budgeted(&ex, 1994, threads, &budget, Recorder::noop())?;
    let samples = pipeline::curve_samples(&ex, &run)?;

    println!(
        "Fig. 4 — coverage vs test length, c432-class ({} vectors: {} random + {} deterministic)\n",
        run.vectors.len(),
        run.random_prefix,
        run.vectors.len() - run.random_prefix
    );
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|&(k, t, theta, gamma, _)| {
            vec![
                format!("{k}"),
                format!("{t:.4}"),
                format!("{theta:.4}"),
                format!("{gamma:.4}"),
            ]
        })
        .collect();
    print_table(&["k", "T(k)", "theta(k)", "Gamma(k)"], &rows);

    let series = vec![
        Series::new(
            "T",
            samples
                .iter()
                .map(|&(k, t, ..)| ((k as f64).log10(), t))
                .collect(),
        ),
        Series::new(
            "theta",
            samples
                .iter()
                .map(|&(k, _, th, ..)| ((k as f64).log10(), th))
                .collect(),
        ),
        Series::new(
            "Gamma",
            samples
                .iter()
                .map(|&(k, _, _, g, _)| ((k as f64).log10(), g))
                .collect(),
        ),
    ];
    println!("\n{}", ascii_plot(&series, 72, 18));
    println!("(x axis: log10 k)\nCSV:\n{}", to_csv(&series));

    // Fit susceptibilities to the measured curves (eqs. 7-8) and report
    // the susceptibility ratio R (eq. 10).
    let t_pts: Vec<(u64, f64)> = samples.iter().map(|&(k, t, ..)| (k as u64, t)).collect();
    let th_pts: Vec<(u64, f64)> = samples
        .iter()
        .map(|&(k, _, th, ..)| (k as u64, th))
        .collect();
    let g_pts: Vec<(u64, f64)> = samples
        .iter()
        .map(|&(k, _, _, g, _)| (k as u64, g))
        .collect();
    let fit_t = fit::fit_coverage_growth(&t_pts, true)?;
    let fit_th = fit::fit_coverage_growth(&th_pts, true)?;
    let fit_g = fit::fit_coverage_growth(&g_pts, true)?;
    println!(
        "susceptibility fits: ln tau_T = {:.2} (sat {:.3}), ln tau_theta = {:.2} (sat {:.3}), ln tau_Gamma = {:.2} (sat {:.3})",
        fit_t.tau().ln(),
        fit_t.max(),
        fit_th.tau().ln(),
        fit_th.max(),
        fit_g.tau().ln(),
        fit_g.max(),
    );
    let r = fit_t.tau().ln() / fit_th.tau().ln();
    println!("susceptibility ratio R = ln tau_T / ln tau_theta = {r:.2}");

    // Acceptance criteria (DESIGN.md §4).
    let last = samples.last().expect("samples");
    assert!(
        r > 1.0,
        "R must exceed 1 in a bridge-heavy line (got {r:.2})"
    );
    assert!(
        fit_th.max() < 0.995,
        "theta must saturate below 1 (got {:.4})",
        fit_th.max()
    );
    assert!(
        last.1 > 0.8,
        "random+deterministic vectors reach high stuck-at coverage"
    );
    println!("\nacceptance checks passed: R > 1, theta_max < 1, final T > 0.8.");
    Ok(())
}
