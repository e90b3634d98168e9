//! Voltage vs I_DDQ testing on a small block — the paper's closing
//! argument in miniature: steady-state voltage tests cannot reach 100 %
//! realistic coverage, and current testing recovers most of the residual.
//!
//! Run with `cargo run --release --example iddq_vs_voltage`.

use dlp::circuit::{generators, switch};
use dlp::core::obs::Recorder;
use dlp::core::par::ThreadCount;
use dlp::core::weighted::FaultWeights;
use dlp::core::Ppm;
use dlp::extract::defects::DefectStatistics;
use dlp::extract::extractor::{self, ExtractionConfig};
use dlp::extract::faults::OpenLevelModel;
use dlp::extract::report::ExtractionReport;
use dlp::layout::chip::ChipLayout;
use dlp::sim::detection::random_vectors;
use dlp::sim::switchlevel::{DetectionMode, SwitchConfig, SwitchSimulator};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generators::ripple_adder(4);
    let chip = ChipLayout::generate(&netlist, &Default::default())?;
    let threads = ThreadCount::from_env()?;
    let (stats, config) = (DefectStatistics::maly_cmos(), ExtractionConfig::default());
    let faults = extractor::extract_obs(&chip, &stats, &config, threads, Recorder::noop())?;
    println!("{}\n", ExtractionReport::new(&faults));

    let weights = FaultWeights::new(faults.weights())?.scaled_to_yield(0.75)?;
    let sw = switch::expand(&netlist)?;
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let lowered = faults.to_switch_faults(&netlist, sim.netlist(), &OpenLevelModel::default())?;
    let vectors = random_vectors(netlist.inputs().len(), 512, 2026);
    let k = vectors.len();
    let w = faults.weights();

    println!(
        "{:>16} {:>9} {:>9} {:>12}",
        "technique", "theta", "Gamma", "DL"
    );
    for (name, mode) in [
        ("voltage", DetectionMode::Voltage),
        ("IDDQ", DetectionMode::Iddq),
        ("voltage+IDDQ", DetectionMode::VoltageAndIddq),
    ] {
        let record = sim.detect_obs(&lowered, &vectors, mode, threads, Recorder::noop())?;
        let theta = record.weighted_coverage_after(k, &w)?;
        let gamma = record.coverage_after(k);
        let dl = weights.defect_level(theta)?;
        println!(
            "{name:>16} {theta:>9.4} {gamma:>9.4} {:>12}",
            Ppm::from_fraction(dl)
        );
    }
    println!("\nWhat to look for: IDDQ alone already catches the bridges and");
    println!("stuck-ons (anything that draws static current) on the first");
    println!("fighting vector; combined testing pushes theta toward 1 and the");
    println!("residual defect level toward zero — the paper's zero-defect");
    println!("strategy in action.");
    Ok(())
}
