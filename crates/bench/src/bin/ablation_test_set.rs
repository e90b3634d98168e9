//! Ablation (DESIGN.md §5): test-set composition versus `theta_max`.
//!
//! Random-only versus random+deterministic vector sequences: the
//! deterministic top-up raises the stuck-at endpoint `T` but barely moves
//! the realistic saturation `theta_max` — supporting the paper's claim
//! that "the main limitation resides in the detection technique rather
//! than in the test length".

use dlp_bench::pipeline;
use dlp_bench::print_table;
use dlp_circuit::generators;
use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
use dlp_extract::defects::DefectStatistics;
use dlp_sim::switchlevel::DetectionMode;
use dlp_sim::{detection, ppsfp, stuck_at};

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

fn run() -> Result<(), dlp_core::PipelineError> {
    eprintln!("layout + extraction (c432-class)...");
    let stats = DefectStatistics::maly_cmos();
    let ex = pipeline::extract_netlist_obs(generators::c432_class(), &stats, Recorder::noop())?;
    dlp_bench::report_diagnostics(&ex.diagnostics);
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let netlist = &ex.netlist;
    let w = ex.faults.weights();

    let (sim, lowered) = pipeline::switch_stage(&ex)?;
    let sa = stuck_at::enumerate(netlist).collapse();

    let mut rows = Vec::new();
    // Random-only sequences of growing length, then the full ATPG recipe.
    for &n in &[256usize, 1024, 4096] {
        eprintln!("random-only, {n} vectors...");
        let vectors = detection::random_vectors(36, n, 1994);
        let t = ppsfp::simulate_resumable(
            netlist,
            sa.faults(),
            &vectors,
            threads,
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )?
        .coverage_after(n);
        let mode = DetectionMode::Voltage;
        let rec = sim.detect_obs(&lowered, &vectors, mode, threads, Recorder::noop())?;
        let theta = rec.weighted_coverage_after(n, &w)?;
        rows.push(vec![
            format!("random x{n}"),
            format!("{:.4}", t),
            format!("{theta:.4}"),
        ]);
    }
    eprintln!("random + deterministic (full ATPG)...");
    let budget = RunBudget::from_env()?;
    let run = pipeline::simulate_budgeted(&ex, 1994, threads, &budget, Recorder::noop())?;
    let k = run.vectors.len();
    rows.push(vec![
        format!("ATPG x{k}"),
        format!("{:.4}", run.record_t.coverage_after(k)),
        format!("{:.4}", run.record_theta.weighted_coverage_after(k, &w)?),
    ]);

    println!("\nAblation: test-set composition vs coverages, c432-class\n");
    print_table(&["test set", "T", "theta"], &rows);
    println!("\nobservation: quadrupling random vectors or adding deterministic");
    println!("stuck-at tests moves T far more than theta — the theta ceiling is");
    println!("set by the voltage detection technique, exactly the paper's point");
    println!("about needing IDDQ/delay tests for a zero-defect strategy.");
    Ok(())
}
