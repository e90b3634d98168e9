//! The paper's conclusion, quantified: "more sophisticated detection
//! techniques, like delay and/or current testing, must become part of the
//! production routine, if a zero defect level strategy is aimed."
//!
//! This experiment re-runs the Fig. 4 detection with the I_DDQ observation
//! model added and reports how much of the voltage-invisible residual
//! weight (the `1 − θ_max` slice, eq. 11's floor) current testing
//! recovers.

use dlp_bench::pipeline::{self, PAPER_YIELD};
use dlp_bench::print_table;
use dlp_circuit::generators;
use dlp_core::Ppm;
use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
use dlp_extract::defects::DefectStatistics;
use dlp_sim::switchlevel::DetectionMode;

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

fn run() -> Result<(), dlp_core::PipelineError> {
    eprintln!("layout + extraction (c432-class)...");
    let stats = DefectStatistics::maly_cmos();
    let ex = pipeline::extract_netlist_obs(generators::c432_class(), &stats, Recorder::noop())?;
    dlp_bench::report_diagnostics(&ex.diagnostics);
    eprintln!("ATPG...");
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let budget = RunBudget::from_env()?;
    let run = pipeline::simulate_budgeted(&ex, 1994, threads, &budget, Recorder::noop())?;
    let w = ex.faults.weights();
    let k = run.vectors.len();

    let (sim, lowered) = pipeline::switch_stage(&ex)?;

    let mut rows = Vec::new();
    let mut thetas = Vec::new();
    for (name, mode) in [
        ("voltage only", DetectionMode::Voltage),
        ("IDDQ only", DetectionMode::Iddq),
        ("voltage + IDDQ", DetectionMode::VoltageAndIddq),
    ] {
        eprintln!("detection: {name}...");
        let record = sim.detect_obs(&lowered, &run.vectors, mode, threads, Recorder::noop())?;
        let theta = record.weighted_coverage_after(k, &w)?;
        let dl = ex.weights.defect_level(theta)?;
        thetas.push(theta);
        rows.push(vec![
            name.to_string(),
            format!("{theta:.4}"),
            format!("{:.4}", record.coverage_after(k)),
            format!("{}", Ppm::from_fraction(dl)),
        ]);
    }

    println!("\nZero-defect strategy: detection technique vs realistic coverage");
    println!("(c432-class, Y = {PAPER_YIELD}, {k} vectors)\n");
    print_table(&["technique", "theta", "Gamma", "DL"], &rows);

    let (v, i, c) = (thetas[0], thetas[1], thetas[2]);
    println!(
        "\nvoltage-invisible weight recovered by adding IDDQ: {:.1} % of the residual",
        100.0 * (c - v) / (1.0 - v).max(1e-9)
    );
    assert!(c > v, "adding IDDQ must raise theta");
    assert!(
        (1.0 - c) < 0.6 * (1.0 - v),
        "IDDQ should recover most of the voltage residual: 1-theta {:.4} -> {:.4}",
        1.0 - v,
        1.0 - c
    );
    println!(
        "residual DL floor: voltage {} -> combined {}",
        Ppm::from_fraction(ex.weights.defect_level(v)?),
        Ppm::from_fraction(ex.weights.defect_level(c)?)
    );
    let _ = i;
    println!("\nacceptance check passed: current testing collapses the residual —");
    println!("exactly the production change the paper calls for.");
    Ok(())
}
