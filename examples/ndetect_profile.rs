//! n-detection profiling: count-capped fault simulation, an incremental
//! n-detect schedule, and the DL(n) growth law on c17.
//!
//! Run with `cargo run --example ndetect_profile`.

use dlp::circuit::generators;
use dlp::core::ndetect::{fit_ndetect_growth, NDetectGrowth};
use dlp::core::obs::Recorder;
use dlp::core::par::ThreadCount;
use dlp::core::{ModelError, PipelineError, Ppm, RunBudget};
use dlp::ndetect::{build_schedule, NDetectConfig};
use dlp::sim::{detection, ppsfp, stuck_at};

fn main() -> Result<(), PipelineError> {
    println!("== dlp: n-detection test sets on c17 ==\n");
    let c17 = generators::c17();
    let faults = stuck_at::enumerate(&c17).collapse();

    // --- Detection-count profile of a random test set --------------------
    // How many times does each fault fire under 32 random vectors?
    let vectors = detection::random_vectors(c17.inputs().len(), 32, 7);
    let threads = ThreadCount::from_env().map_err(ModelError::from)?;
    let profile = ppsfp::simulate_counted_resumable(
        &c17,
        faults.faults(),
        &vectors,
        8,
        threads,
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
    .map_err(PipelineError::from)?;
    println!(
        "random 32-vector profile ({} faults, counts capped at 8):",
        faults.len()
    );
    for n in [1usize, 2, 4, 8] {
        println!(
            "  detected >= {n} times: {:>5.1} %",
            100.0 * profile.coverage_at_least(n)
        );
    }

    // --- An incremental n-detect schedule --------------------------------
    // The test set for target n is a prefix of the set for n + 1.
    let max_n = 4;
    let schedule = build_schedule(&c17, faults.faults(), max_n, &NDetectConfig::default())
        .map_err(PipelineError::from)?;
    println!("\nn-detect schedule (greedy pool + PODEM top-ups):");
    for n in 1..=max_n {
        let set = schedule.test_set(n).expect("n within target");
        println!("  target n = {n}: {:>2} vectors", set.len());
    }

    // --- DL(n) under a hypothetical theta(n) growth law ------------------
    // theta(n) = theta_max (1 - rho^n): each extra detection catches a
    // constant fraction of the remaining realistic-fault weight.
    let growth = NDetectGrowth::new(0.90, 0.98).map_err(PipelineError::from)?;
    let fitted = fit_ndetect_growth(&[(1, growth.at(1)), (2, growth.at(2)), (4, growth.at(4))])
        .map_err(PipelineError::from)?;
    println!(
        "\nDL(n) at Y = 0.75 for theta_1 = {}, theta_max = {} (refit rho = {:.3}):",
        growth.theta1(),
        growth.theta_max(),
        fitted.miss_ratio()
    );
    for n in 1..=6u32 {
        let dl = growth.defect_level(0.75, n).map_err(PipelineError::from)?;
        println!(
            "  n = {n}: theta = {:.4}  DL = {}",
            growth.at(n),
            Ppm::from_fraction(dl)
        );
    }
    println!("\nFor the measured c432-class table, run the `ndetect_dl` binary.");
    Ok(())
}
