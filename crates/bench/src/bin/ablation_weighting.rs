//! Ablation (DESIGN.md §5): weighted vs unweighted fault sets.
//!
//! The Fig. 5 / Fig. 6 contrast, quantified: predict the defect level from
//! the *unweighted* coverage `Γ` (as if all realistic faults were equally
//! likely, Huisman's hypothesis) and measure its error against the
//! weighted ground truth `DL(θ)` at every test length.

use dlp_bench::pipeline::{self, PAPER_YIELD};
use dlp_bench::print_table;
use dlp_circuit::generators;
use dlp_core::sousa::SousaModel;
use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
use dlp_extract::defects::DefectStatistics;

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

fn run() -> Result<(), dlp_core::PipelineError> {
    eprintln!("pipeline (c432-class)...");
    let stats = DefectStatistics::maly_cmos();
    let ex = pipeline::extract_netlist_obs(generators::c432_class(), &stats, Recorder::noop())?;
    dlp_bench::report_diagnostics(&ex.diagnostics);
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let budget = RunBudget::from_env()?;
    let run = pipeline::simulate_budgeted(&ex, 1994, threads, &budget, Recorder::noop())?;
    let samples = pipeline::curve_samples(&ex, &run)?;
    let naive = SousaModel::williams_brown(PAPER_YIELD)?;

    println!("Ablation: weighted DL(theta) vs unweighted prediction 1-Y^(1-Gamma)\n");
    let mut worst: f64 = 0.0;
    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|&(k, _, theta, gamma, dl)| {
            let unweighted = naive.defect_level(gamma).unwrap();
            let err = (unweighted - dl).abs() / dl.max(1e-9);
            worst = worst.max(err);
            vec![
                format!("{k}"),
                format!("{theta:.4}"),
                format!("{gamma:.4}"),
                format!("{:.0}", 1e6 * dl),
                format!("{:.0}", 1e6 * unweighted),
                format!("{:.0} %", 100.0 * err),
            ]
        })
        .collect();
    print_table(
        &[
            "k",
            "theta",
            "Gamma",
            "DL(theta) ppm",
            "DL(Gamma) ppm",
            "rel err",
        ],
        &rows,
    );
    println!(
        "\nworst relative error of the unweighted prediction: {:.0} %",
        100.0 * worst
    );
    println!("conclusion: ignoring fault weights mispredicts DL even with a");
    println!("complete realistic fault list — eq. 4's weighting is essential.");
    assert!(
        worst > 0.10,
        "the ablation should show a visible (>10 %) error"
    );
    Ok(())
}
