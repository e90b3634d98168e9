//! Defect-level projection from simulated test data: generate tests for a
//! benchmark circuit, measure the coverage growth curve, fit the model
//! parameters, and answer "how many vectors do I need for my ppm target?".
//!
//! Run with `cargo run --release --example defect_level_projection`.

use dlp::atpg::generate::{generate_tests, AtpgConfig};
use dlp::circuit::generators;
use dlp::core::obs::Recorder;
use dlp::core::par::ThreadCount;
use dlp::core::sousa::SousaModel;
use dlp::core::Ppm;
use dlp::core::{fit, RunBudget};
use dlp::sim::{ppsfp, stuck_at};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generators::c432_class();
    println!(
        "circuit: {} ({} gates, {} inputs, {} outputs)",
        netlist.name(),
        netlist.gate_count(),
        netlist.inputs().len(),
        netlist.outputs().len()
    );

    // Stuck-at universe and test set (random phase + PODEM top-up).
    let faults = stuck_at::enumerate(&netlist).collapse();
    println!(
        "faults: {} collapsed (from {})",
        faults.len(),
        faults.total_uncollapsed()
    );
    let threads = ThreadCount::from_env()?;
    let config = AtpgConfig {
        random_budget: 1024,
        random_stall: 256,
        ..Default::default()
    };
    let result = generate_tests(&netlist, faults.faults(), &config)?;
    println!(
        "ATPG: {} vectors ({} random + {} deterministic), coverage {:.2} %",
        result.vectors.len(),
        result.random_prefix_len,
        result.vectors.len() - result.random_prefix_len,
        100.0 * result.coverage
    );

    // Measure T(k) with the PPSFP simulator and fit the growth law.
    let record = ppsfp::simulate_resumable(
        &netlist,
        faults.faults(),
        &result.vectors,
        threads,
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )?;
    let points: Vec<(u64, f64)> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        .iter()
        .filter(|&&k| k <= result.vectors.len())
        .map(|&k| (k as u64, record.coverage_after(k)))
        .collect();
    let growth = fit::fit_coverage_growth(&points, true)?;
    println!(
        "\ncoverage growth fit: tau_T = e^{:.2}, saturation = {:.3}",
        growth.tau().ln(),
        growth.max()
    );
    for &(k, c) in &points {
        println!(
            "  k = {k:5}: measured T = {:.4}, fitted {:.4}",
            c,
            growth.at(k)
        );
    }

    // Project the defect level with the paper's fitted parameters for a
    // bridge-heavy line (R = 1.9, theta_max = 0.96) at a scaled Y = 0.75.
    let model = SousaModel::new(0.75, 1.9, 0.96)?;
    println!("\nprojection at Y = 0.75 (eq. 11, R = 1.9, theta_max = 0.96):");
    for &(k, t) in &points {
        let dl = model.defect_level(t)?;
        println!(
            "  k = {k:5}: T = {:.1} %  ->  DL = {}",
            100.0 * t,
            Ppm::from_fraction(dl)
        );
    }
    println!(
        "residual defect level (test-technique floor): {}",
        Ppm::from_fraction(model.residual_defect_level())
    );

    // The inverse question: vectors for 500 ppm.
    let target = 500e-6;
    match model.required_coverage(target) {
        Ok(t_req) => {
            let k_req = growth.vectors_for(t_req.min(growth.max() * 0.999_99))?;
            println!(
                "\nfor DL = {}: need T = {:.2} %  ≈ {} random vectors",
                Ppm::from_fraction(target),
                100.0 * t_req,
                k_req
            );
        }
        Err(e) => println!("\nDL {} unreachable: {e}", Ppm::from_fraction(target)),
    }
    Ok(())
}
