//! Figure 3 of the paper: the histogram of extracted fault weights for the
//! c432-class standard-cell layout.
//!
//! The paper's point: occurrence probabilities disperse over roughly three
//! decades (~10⁻⁹..10⁻⁶ before scaling), which "clearly invalidates the
//! assumption that this effect could be negligible" (Huisman's
//! equal-probability hypothesis).

use dlp_bench::pipeline::{self, PAPER_YIELD};
use dlp_bench::print_table;
use dlp_circuit::generators;
use dlp_core::obs::Recorder;
use dlp_core::weighted::FaultWeights;
use dlp_extract::defects::DefectStatistics;

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

fn run() -> Result<(), dlp_core::PipelineError> {
    eprintln!("building layout and extracting faults (c432-class)...");
    let stats = DefectStatistics::maly_cmos();
    let ex = pipeline::extract_netlist_obs(generators::c432_class(), &stats, Recorder::noop())?;
    dlp_bench::report_diagnostics(&ex.diagnostics);
    println!(
        "chip: {} x {} λ, {} shapes; {} weighted faults (bridge share {:.1} %)",
        ex.chip.bbox().width(),
        ex.chip.bbox().height(),
        ex.chip.shapes().len(),
        ex.faults.len(),
        100.0 * ex.faults.bridge_weight() / (ex.faults.bridge_weight() + ex.faults.open_weight())
    );

    let weights = FaultWeights::new(ex.faults.weights())?.scaled_to_yield(PAPER_YIELD)?;
    println!(
        "yield-scaled to Y = {PAPER_YIELD}: total weight {:.4}\n",
        weights.total_weight()
    );

    let bins = 14;
    let (edges, counts) = weights.log_weight_histogram(bins);
    println!("Fig. 3 — histogram of log10(fault weight)");
    let peak = *counts.iter().max().unwrap_or(&1);
    let rows: Vec<Vec<String>> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            vec![
                format!("[{:.2}, {:.2})", edges[i], edges[i + 1]),
                format!("{c}"),
                "#".repeat(1 + c * 48 / peak.max(1)),
            ]
        })
        .collect();
    print_table(&["log10(w)", "count", ""], &rows);

    let dispersion = weights.weight_dispersion_decades();
    println!("\nweight dispersion: {dispersion:.1} decades (paper: ≈3 decades for c432)");
    assert!(
        dispersion >= 2.5,
        "acceptance: dispersion must span ≥2.5 decades, got {dispersion:.2}"
    );
    println!("acceptance check passed: dispersion ≥ 2.5 decades.");
    Ok(())
}
