//! Ablation (DESIGN.md §5): defect-statistics mix versus the
//! susceptibility ratio `R`.
//!
//! The paper argues `R > 1` *because* bridging faults dominate in
//! positive-photoresist CMOS lines. Flipping the line to open-heavy should
//! pull `R` down toward (or below) 1 — the model parameters are physical,
//! not curve-fitting artefacts.

use dlp_bench::pipeline::{self, PAPER_YIELD};
use dlp_bench::print_table;
use dlp_circuit::generators;
use dlp_core::fit;
use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
use dlp_extract::defects::DefectStatistics;

fn run_line(
    name: &str,
    stats: &DefectStatistics,
) -> Result<(String, f64, f64, f64), dlp_core::PipelineError> {
    eprintln!("pipeline ({name} line)...");
    let ex = pipeline::extract_netlist_obs(generators::c432_class(), stats, Recorder::noop())?;
    dlp_bench::report_diagnostics(&ex.diagnostics);
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let budget = RunBudget::from_env()?;
    let run = pipeline::simulate_budgeted(&ex, 1994, threads, &budget, Recorder::noop())?;
    let samples = pipeline::curve_samples(&ex, &run)?;
    let points: Vec<(f64, f64)> = samples.iter().map(|&(_, t, _, _, dl)| (t, dl)).collect();
    let fitted = fit::fit_sousa(PAPER_YIELD, &points)?;
    let share = ex.faults.bridge_weight() / (ex.faults.bridge_weight() + ex.faults.open_weight());
    Ok((
        name.to_string(),
        share,
        fitted.susceptibility_ratio(),
        fitted.theta_max(),
    ))
}

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

fn run() -> Result<(), dlp_core::PipelineError> {
    let lines = [
        run_line("bridge-heavy (Maly)", &DefectStatistics::maly_cmos())?,
        run_line("open-heavy (ablation)", &DefectStatistics::open_heavy())?,
    ];
    println!("\nAblation: defect mix vs fitted (R, theta_max), c432-class, Y = 0.75\n");
    let rows: Vec<Vec<String>> = lines
        .iter()
        .map(|(name, share, r, tmax)| {
            vec![
                name.clone(),
                format!("{:.1} %", 100.0 * share),
                format!("{r:.2}"),
                format!("{tmax:.3}"),
            ]
        })
        .collect();
    print_table(&["process line", "bridge share", "R", "theta_max"], &rows);

    let r_bridge = lines[0].2;
    let r_open = lines[1].2;
    println!("\nR(bridge-heavy) = {r_bridge:.2} vs R(open-heavy) = {r_open:.2}");
    assert!(
        r_bridge > r_open,
        "bridge dominance must raise the susceptibility ratio"
    );
    println!("ablation check passed: R tracks the physical defect mix.");
    Ok(())
}
