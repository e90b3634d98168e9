//! The paper's full experimental flow on the c432-class benchmark:
//!
//! 1. generate the 2-metal standard-cell layout and extract the weighted
//!    realistic fault list (the paper's `lift`),
//! 2. generate stuck-at test vectors (random + deterministic),
//! 3. fault-simulate: gate-level `T(k)`, switch-level `θ(k)` and `Γ(k)`
//!    (the paper's `swift`),
//! 4. Monte-Carlo cross-check: fabricate virtual dies and count escapes,
//! 5. fit eq. 11's `(R, θ_max)` to the simulated `(T, DL(θ))` points.
//!
//! This reproduces the shape results of the paper's §4 end to end. It is
//! compute-heavy; run with `--release`:
//! `cargo run --release --example full_flow_c432`.
//!
//! Set `DLP_TRACE=1` (default path) or `DLP_TRACE=<path>` to write a JSON
//! run report — stage spans, counters, and per-block series — next to the
//! `BENCH_*.json` files. Tracing is off by default and never changes any
//! number the flow prints.

use dlp::bench::pipeline;
use dlp::circuit::generators;
use dlp::core::montecarlo::{simulate_fallout_resumable, MonteCarloConfig};
use dlp::core::par::ThreadCount;
use dlp::core::{fit, sousa::SousaModel, RunBudget};
use dlp::extract::defects::DefectStatistics;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let obs = pipeline::recorder_from_env();
    let threads = ThreadCount::from_env()?;

    println!("[1/5] layout + fault extraction of the c432-class chip...");
    let stats = DefectStatistics::maly_cmos();
    let extraction = pipeline::extract_netlist_obs(generators::c432_class(), &stats, &obs)?;
    for warning in extraction.diagnostics.iter() {
        println!("      warning: {warning}");
    }
    println!(
        "      {} x {} λ, {} shapes; {} weighted faults, bridge share {:.1} %",
        extraction.chip.bbox().width(),
        extraction.chip.bbox().height(),
        extraction.chip.shapes().len(),
        extraction.faults.len(),
        100.0 * extraction.faults.bridge_weight()
            / (extraction.faults.bridge_weight() + extraction.faults.open_weight())
    );
    println!(
        "      yield scaled: Y = {:.3}",
        extraction.weights.yield_value()
    );

    println!("[2/5] ATPG (random + PODEM)...");
    println!("[3/5] fault simulation (gate-level T(k), switch-level theta(k))...");
    let budget = RunBudget::from_env()?;
    let run = pipeline::simulate_budgeted(&extraction, 1, threads, &budget, &obs)?;
    println!(
        "      {} vectors ({} random), {} stuck-at faults proven redundant",
        run.vectors.len(),
        run.random_prefix,
        run.redundant
    );

    let ks: Vec<usize> = [
        1,
        2,
        4,
        8,
        16,
        32,
        64,
        128,
        256,
        512,
        1024,
        run.vectors.len(),
    ]
    .into_iter()
    .filter(|&k| k <= run.vectors.len())
    .collect();
    let w = extraction.faults.weights();
    println!(
        "      {:>6} {:>9} {:>9} {:>9} {:>12}",
        "k", "T(k)", "theta(k)", "Gamma(k)", "DL(theta) ppm"
    );
    let mut fit_points = Vec::new();
    for &k in &ks {
        let t = run.record_t.coverage_after(k);
        let theta = run.record_theta.weighted_coverage_after(k, &w)?;
        let gamma = run.record_theta.coverage_after(k);
        let dl = extraction.weights.defect_level(theta)?;
        println!(
            "      {k:>6} {t:>9.4} {theta:>9.4} {gamma:>9.4} {:>12.0}",
            1e6 * dl
        );
        fit_points.push((t, dl));
    }

    println!("[4/5] Monte-Carlo cross-check (50 000 virtual dies)...");
    let detected: Vec<bool> = run
        .record_theta
        .first_detect()
        .iter()
        .map(|d| d.is_some())
        .collect();
    let mc = simulate_fallout_resumable(
        &extraction.weights,
        &detected,
        &MonteCarloConfig {
            dies: 50_000,
            seed: 0x5EED,
        },
        threads,
        &obs,
        &RunBudget::from_env()?,
        None,
    )?;
    let theta_full = run
        .record_theta
        .weighted_coverage_after(run.vectors.len(), &w)?;
    println!(
        "      yield {:.3} (analytic {:.3}), defect level {:.0} ppm (analytic {:.0} ppm)",
        mc.yield_estimate(),
        extraction.weights.yield_value(),
        1e6 * mc.defect_level(),
        1e6 * extraction.weights.defect_level(theta_full)?
    );

    println!("[5/5] fitting eq. 11 to the simulated (T, DL) points...");
    let fitted = {
        let _span = obs.span("model.fit");
        fit::fit_sousa(0.75, &fit_points)?
    };
    println!(
        "      R = {:.2}, theta_max = {:.3}  (paper, real c432 layout: R = 1.9, theta_max = 0.96)",
        fitted.susceptibility_ratio(),
        fitted.theta_max()
    );
    let reference = SousaModel::new(0.75, fitted.susceptibility_ratio(), fitted.theta_max())?;
    println!(
        "      residual defect level: {:.0} ppm",
        1e6 * reference.residual_defect_level()
    );
    println!(
        "      shape check: R > 1 (bridges easier than stuck-ats): {}",
        fitted.susceptibility_ratio() > 1.0
    );
    println!(
        "      shape check: theta_max < 1 (voltage test incomplete): {}",
        fitted.theta_max() < 1.0
    );

    if let Some(path) = pipeline::write_run_report(&obs, "full_flow_c432")? {
        println!("trace: run report written to {path}");
    }
    Ok(())
}
