//! Layout fault extraction on a small design: generate a standard-cell
//! layout, extract the weighted realistic fault list, and report the
//! weight statistics the paper's Fig. 3 is built from.
//!
//! Run with `cargo run --release --example layout_fault_extraction`.

use dlp::circuit::generators;
use dlp::core::obs::Recorder;
use dlp::core::par::ThreadCount;
use dlp::core::weighted::FaultWeights;
use dlp::extract::defects::DefectStatistics;
use dlp::extract::extractor::{self, ExtractionConfig};
use dlp::extract::faults::FaultKind;
use dlp::geometry::Layer;
use dlp::layout::chip::ChipLayout;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generators::ripple_adder(4);
    println!(
        "circuit: {} ({} gates)",
        netlist.name(),
        netlist.gate_count()
    );

    let chip = ChipLayout::generate(&netlist, &Default::default())?;
    println!(
        "layout:  {} x {} λ, {} rows, {} shapes, {} transistors",
        chip.bbox().width(),
        chip.bbox().height(),
        chip.rows(),
        chip.shapes().len(),
        chip.transistors().len()
    );
    for layer in [Layer::Poly, Layer::Metal1, Layer::Metal2] {
        println!(
            "  {layer} conductor area: {} λ²",
            chip.conductor_area(layer)
        );
    }
    let violations = chip.verify_connectivity();
    println!("  connectivity check: {} violations", violations.len());
    std::fs::write("rca4_layout.svg", dlp::layout::svg::render(&chip))?;
    println!("  wrote rca4_layout.svg (open in a browser to inspect)");

    let stats = DefectStatistics::maly_cmos();
    let (config, threads) = (ExtractionConfig::default(), ThreadCount::from_env()?);
    let faults = extractor::extract_obs(&chip, &stats, &config, threads, Recorder::noop())?;
    println!("\nextracted {} weighted realistic faults", faults.len());

    let mut per_kind = std::collections::BTreeMap::new();
    for f in faults.faults() {
        let key = match f.kind {
            FaultKind::Bridge { .. } => "bridge (short)",
            FaultKind::Break { .. } => "break (interconnect open)",
            FaultKind::StuckOpen { .. } => "transistor stuck-open",
            FaultKind::StuckOn { .. } => "transistor stuck-on",
        };
        let e = per_kind.entry(key).or_insert((0usize, 0.0f64));
        e.0 += 1;
        e.1 += f.weight;
    }
    for (k, (n, w)) in &per_kind {
        println!("  {k:28} n = {n:5}   total weight = {w:.3e}");
    }
    println!(
        "  bridge weight share: {:.1} % (bridge-heavy line)",
        100.0 * faults.bridge_weight() / (faults.bridge_weight() + faults.open_weight())
    );

    // The Fig. 3 view: the log-weight histogram after scaling to Y = 0.75.
    let weights = FaultWeights::new(faults.weights())?.scaled_to_yield(0.75)?;
    println!(
        "\nafter yield scaling to Y = 0.75: total weight {:.4} (= -ln 0.75)",
        weights.total_weight()
    );
    println!(
        "weight dispersion: {:.1} decades (the paper reports ≈3 for c432)",
        weights.weight_dispersion_decades()
    );
    let (edges, counts) = weights.log_weight_histogram(12);
    let peak = *counts.iter().max().unwrap_or(&1);
    println!("\nlog10(weight) histogram:");
    for (i, &c) in counts.iter().enumerate() {
        let bar = "#".repeat(1 + c * 40 / peak.max(1));
        println!("  [{:6.2}, {:6.2}) {c:5} {bar}", edges[i], edges[i + 1]);
    }

    // The heaviest faults are the ones that dominate the defect level.
    let mut ranked: Vec<_> = faults.faults().iter().collect();
    ranked.sort_by(|a, b| b.weight.total_cmp(&a.weight));
    println!("\nheaviest faults:");
    for f in ranked.iter().take(8) {
        println!("  {:10.3e}  {}", f.weight, f.label);
    }
    Ok(())
}
