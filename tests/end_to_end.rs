//! Integration tests spanning the whole toolkit: netlist → layout →
//! extraction → simulation → defect-level models.
//!
//! These use small circuits so the full pipeline stays fast in debug
//! builds; the c432-class experiment itself runs in the release-mode
//! figure binaries (`crates/bench/src/bin/`).

use dlp::atpg::generate::{generate_tests, AtpgConfig};
use dlp::circuit::{bench, generators, switch};
use dlp::core::obs::Recorder;
use dlp::core::par::ThreadCount;
use dlp::core::weighted::FaultWeights;
use dlp::core::{fit, sousa::SousaModel, williams_brown, RunBudget};
use dlp::extract::defects::DefectStatistics;
use dlp::extract::extractor::{self, ExtractionConfig};
use dlp::extract::faults::OpenLevelModel;
use dlp::layout::chip::ChipLayout;
use dlp::sim::switchlevel::{DetectionMode, SwitchConfig, SwitchSimulator};
use dlp::sim::{detection, ppsfp, stuck_at};

/// Workers for the stage calls, from `DLP_THREADS`, so both thread passes
/// of the suite exercise the parallel paths.
fn threads() -> ThreadCount {
    ThreadCount::from_env().expect("DLP_THREADS")
}

/// The full paper flow on c17: every stage must compose.
#[test]
fn c17_full_physical_flow() {
    let netlist = generators::c17();
    let chip = ChipLayout::generate(&netlist, &Default::default()).expect("layout");
    assert_eq!(chip.verify_connectivity().len(), 0, "no geometric shorts");
    assert_eq!(chip.unrouted(), 0, "fully routed");

    let faults = extractor::extract_obs(
        &chip,
        &DefectStatistics::maly_cmos(),
        &ExtractionConfig::default(),
        threads(),
        Recorder::noop(),
    )
    .expect("extract");
    assert!(
        faults.len() > 80,
        "meaningful fault list, got {}",
        faults.len()
    );

    let weights = FaultWeights::new(faults.weights())
        .expect("weights")
        .scaled_to_yield(0.75)
        .expect("scaling");
    assert!((weights.yield_value() - 0.75).abs() < 1e-12);

    // Test generation reaches full stuck-at coverage on c17.
    let sa = stuck_at::enumerate(&netlist).collapse();
    let atpg = generate_tests(&netlist, sa.faults(), &AtpgConfig::default()).unwrap();
    assert_eq!(atpg.coverage, 1.0);

    // Switch-level detection of the realistic faults.
    let sw = switch::expand(&netlist).expect("expand");
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let lowered = faults
        .to_switch_faults(&netlist, sim.netlist(), &OpenLevelModel::default())
        .expect("lowering");
    let record = sim
        .detect_obs(
            &lowered,
            &atpg.vectors,
            DetectionMode::Voltage,
            threads(),
            Recorder::noop(),
        )
        .expect("detect");

    let theta = record
        .weighted_coverage_after(atpg.vectors.len(), &faults.weights())
        .unwrap();
    let gamma = record.coverage_after(atpg.vectors.len());
    assert!(theta > 0.6, "theta = {theta}");
    assert!(gamma > 0.5, "gamma = {gamma}");
    assert!(theta < 1.0, "some opens must stay voltage-invisible");

    // The defect level from the weighted coverage is finite and below the
    // zero-coverage fallout.
    let dl = weights.defect_level(theta).expect("dl");
    assert!(dl > 0.0 && dl < 0.25);
}

/// Weighted coverage rises faster than unweighted when bridges dominate —
/// the mechanism behind R > 1.
#[test]
fn theta_leads_gamma_in_bridge_heavy_line() {
    let netlist = generators::ripple_adder(3);
    let chip = ChipLayout::generate(&netlist, &Default::default()).expect("layout");
    let faults = extractor::extract_obs(
        &chip,
        &DefectStatistics::maly_cmos(),
        &ExtractionConfig::default(),
        threads(),
        Recorder::noop(),
    )
    .expect("extract");
    let sw = switch::expand(&netlist).expect("expand");
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let lowered = faults
        .to_switch_faults(&netlist, sim.netlist(), &OpenLevelModel::default())
        .expect("lowering");
    let vectors = detection::random_vectors(netlist.inputs().len(), 96, 42);
    let record = sim
        .detect_obs(
            &lowered,
            &vectors,
            DetectionMode::Voltage,
            threads(),
            Recorder::noop(),
        )
        .expect("detect");
    let w = faults.weights();
    // The paper's Fig. 1 / Fig. 4 shape: the weighted curve leads early
    // (heavy bridges retire fast), then saturates below the unweighted one
    // (voltage-invisible opens count more per-fault than per-weight), so
    // the curves cross.
    let early_theta = record.weighted_coverage_after(4, &w).unwrap();
    let early_gamma = record.coverage_after(4);
    assert!(
        early_theta > early_gamma,
        "theta must lead early: {early_theta:.4} vs {early_gamma:.4}"
    );
    let late_theta = record.weighted_coverage_after(96, &w).unwrap();
    let late_gamma = record.coverage_after(96);
    assert!(late_theta < 1.0 && late_gamma < 1.0);
    let flat = record.weighted_coverage_after(48, &w).unwrap();
    assert!(
        (late_theta - flat).abs() < 0.02,
        "theta saturates: {flat:.4} -> {late_theta:.4}"
    );
}

/// The round trip the paper proposes for design-phase projection: simulate
/// fallout points, fit (R, theta_max), and use the model for coverage
/// requirements.
#[test]
fn fit_and_project_round_trip() {
    // Synthetic "measured" fallout from a known model plus the inverse
    // query, end to end through the public API.
    let truth = SousaModel::new(0.75, 1.9, 0.96).expect("model");
    let points: Vec<(f64, f64)> = (0..=30)
        .map(|i| {
            let t = i as f64 / 30.0;
            (t, truth.defect_level(t).expect("dl"))
        })
        .collect();
    let fitted = fit::fit_sousa(0.75, &points).expect("fit");
    assert!((fitted.susceptibility_ratio() - 1.9).abs() < 0.05);
    assert!((fitted.theta_max() - 0.96).abs() < 0.01);

    let t_needed = fitted
        .required_coverage(2.0 * fitted.residual_defect_level())
        .expect("above the floor");
    assert!(t_needed < 1.0);
    // Williams-Brown would demand more coverage for the same DL target.
    let wb_needed =
        williams_brown::required_coverage(0.75, 2.0 * fitted.residual_defect_level()).expect("wb");
    assert!(wb_needed > t_needed);
}

/// `.bench` round trip composes with layout and simulation.
#[test]
fn bench_format_to_layout() {
    let text = bench::write(&generators::c17());
    let parsed = bench::parse("c17_again", &text).expect("parse");
    let chip = ChipLayout::generate(&parsed, &Default::default()).expect("layout");
    assert!(chip.shapes().len() > 100);
    // The switch netlist of the reparsed circuit matches the original's
    // transistor count.
    let sw = switch::expand(&parsed).expect("expand");
    assert_eq!(sw.transistors().len(), 24);
}

/// Gate-level and switch-level simulators agree on fault-free outputs for
/// every generator circuit (cross-engine consistency).
#[test]
fn simulators_agree_on_good_circuits() {
    for netlist in [
        generators::c17(),
        generators::ripple_adder(3),
        generators::comparator(3),
        generators::decoder(3),
        generators::parity_tree(5),
        generators::mux_tree(2),
        generators::alu_slice(),
    ] {
        let sw = switch::expand(&netlist).expect("expand");
        let sim = SwitchSimulator::new(sw, SwitchConfig::default());
        let vectors = detection::random_vectors(netlist.inputs().len(), 24, 7);
        let outs = sim.run_good(&vectors);
        for (k, v) in vectors.iter().enumerate() {
            let words: Vec<u64> = v.iter().map(|&b| if b { 1 } else { 0 }).collect();
            let gate = netlist.eval_words(&words);
            for (oi, &w) in gate.iter().enumerate() {
                assert_eq!(
                    outs[k][oi],
                    dlp::sim::switchlevel::Logic::from_bool(w & 1 == 1),
                    "{} vector {k} output {oi}",
                    netlist.name()
                );
            }
        }
    }
}

/// Stuck-at coverage from the PPSFP simulator drives the Williams–Brown
/// and eq. 11 models coherently: better coverage never raises DL.
#[test]
fn coverage_to_defect_level_monotone() {
    let netlist = generators::c432_class();
    let faults = stuck_at::enumerate(&netlist).collapse();
    let vectors = detection::random_vectors(36, 256, 3);
    let record = ppsfp::simulate_resumable(
        &netlist,
        faults.faults(),
        &vectors,
        threads(),
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
    .expect("sim");
    let model = SousaModel::new(0.75, 1.9, 0.96).expect("model");
    let mut prev = f64::INFINITY;
    for k in [1usize, 4, 16, 64, 256] {
        let t = record.coverage_after(k);
        let dl = model.defect_level(t).expect("dl");
        assert!(dl <= prev + 1e-12, "DL must not rise with more vectors");
        prev = dl;
    }
}
