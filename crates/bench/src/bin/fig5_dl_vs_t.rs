//! Figure 5 of the paper: simulated defect level versus stuck-at coverage
//! `(T(k), DL(θ(k)))` for the c432-class chip at `Y = 0.75`, against the
//! Williams–Brown prediction and the fitted eq. 11 curve.
//!
//! The paper fit `R = 1.9`, `θ_max = 0.96` on its real c432 layout; we fit
//! the same two parameters to our simulated points and check the same
//! qualitative shape: the simulated fallout dips *below* Williams–Brown at
//! moderate coverage and stays *above* it (residual floor) at high
//! coverage.

use dlp_bench::pipeline::{self, PAPER_YIELD};
use dlp_bench::{ascii_plot, print_table, to_csv, Series};
use dlp_circuit::generators;
use dlp_core::fit;
use dlp_core::sousa::SousaModel;
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
    eprintln!("stage 2: ATPG + fault simulation...");
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let budget = RunBudget::from_env()?;
    let run = pipeline::simulate_budgeted(&ex, 1994, threads, &budget, Recorder::noop())?;
    let samples = pipeline::curve_samples(&ex, &run)?;

    let points: Vec<(f64, f64)> = samples.iter().map(|&(_, t, _, _, dl)| (t, dl)).collect();
    let fitted = fit::fit_sousa(PAPER_YIELD, &points)?;
    let wb = SousaModel::williams_brown(PAPER_YIELD)?;

    println!("Fig. 5 — DL vs stuck-at coverage, c432-class, Y = {PAPER_YIELD}\n");
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|&(k, t, _, _, dl)| {
            vec![
                format!("{k}"),
                format!("{:.2}", 100.0 * t),
                format!("{:.0}", 1e6 * dl),
                format!("{:.0}", 1e6 * wb.defect_level(t).unwrap()),
                format!("{:.0}", 1e6 * fitted.defect_level(t).unwrap()),
            ]
        })
        .collect();
    print_table(&["k", "T %", "sim DL ppm", "WB ppm", "fit ppm"], &rows);

    println!(
        "\nfitted eq. 11: R = {:.2}, theta_max = {:.3}   (paper, real c432: R = 1.9, theta_max = 0.96)",
        fitted.susceptibility_ratio(),
        fitted.theta_max()
    );
    println!(
        "residual defect level: {:.0} ppm",
        1e6 * fitted.residual_defect_level()
    );

    let sim_series = Series::new("simulated", points.clone());
    let wb_series = Series::new("Williams-Brown", wb.curve(40));
    let fit_series = Series::new("fitted eq.11", fitted.curve(40));
    println!(
        "\n{}",
        ascii_plot(
            &[wb_series.clone(), fit_series.clone(), sim_series.clone()],
            72,
            18
        )
    );
    println!("CSV (model curves):\n{}", to_csv(&[wb_series, fit_series]));
    println!("CSV (simulated points):\n{}", to_csv(&[sim_series]));

    // Acceptance criteria (DESIGN.md §4): concavity relative to WB and the
    // paper's parameter regime.
    let mid = samples.iter().find(|&&(_, t, ..)| (0.3..0.9).contains(&t));
    if let Some(&(_, t, _, _, dl)) = mid {
        assert!(
            dl < wb.defect_level(t)?,
            "simulated DL must dip below WB at T = {t:.2}"
        );
    }
    let last = samples.last().expect("samples");
    assert!(
        last.4 > wb.defect_level(last.1)?,
        "simulated DL must exceed WB near full coverage (residual floor)"
    );
    assert!(fitted.susceptibility_ratio() > 1.0, "R > 1");
    assert!(fitted.theta_max() < 1.0, "theta_max < 1");
    println!("\nacceptance checks passed: concavity, R > 1, theta_max < 1.");
    Ok(())
}
