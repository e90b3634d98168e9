//! Cross-validation of the defect-level mathematics against direct
//! simulation: the Monte Carlo production line, the coverage-growth laws,
//! and the eq. 9 / eq. 11 consistency relations, driven end-to-end from a
//! real extracted fault list.

use dlp::circuit::{generators, switch};
use dlp::core::montecarlo::{simulate_fallout_resumable, MonteCarloConfig};
use dlp::core::obs::Recorder;
use dlp::core::par::ThreadCount;
use dlp::core::weighted::FaultWeights;
use dlp::core::{coverage, sousa::SousaModel, RunBudget};
use dlp::extract::defects::DefectStatistics;
use dlp::extract::extractor::{self, ExtractionConfig};
use dlp::extract::faults::OpenLevelModel;
use dlp::layout::chip::ChipLayout;
use dlp::sim::detection::random_vectors;
use dlp::sim::switchlevel::{DetectionMode, SwitchConfig, SwitchSimulator};

/// Workers for the stage calls, from `DLP_THREADS`, so both thread passes
/// of the suite exercise the parallel paths.
fn threads() -> ThreadCount {
    ThreadCount::from_env().expect("DLP_THREADS")
}

/// Monte Carlo fallout of the *actual extracted* c17 fault list with the
/// *actual simulated* detection mask must match eq. 3 — the model and the
/// physical flow agree end to end.
#[test]
fn monte_carlo_agrees_with_eq3_on_extracted_faults() {
    let netlist = generators::c17();
    let chip = ChipLayout::generate(&netlist, &Default::default()).expect("layout");
    let faults = extractor::extract_obs(
        &chip,
        &DefectStatistics::maly_cmos(),
        &ExtractionConfig::default(),
        threads(),
        Recorder::noop(),
    )
    .expect("extract");
    let weights = FaultWeights::new(faults.weights())
        .expect("weights")
        .scaled_to_yield(0.8)
        .expect("scale");

    let sw = switch::expand(&netlist).expect("expand");
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let lowered = faults
        .to_switch_faults(&netlist, sim.netlist(), &OpenLevelModel::default())
        .expect("lowering");
    let vectors = random_vectors(5, 64, 77);
    let record = sim
        .detect_obs(
            &lowered,
            &vectors,
            DetectionMode::Voltage,
            threads(),
            Recorder::noop(),
        )
        .expect("detect");
    let mask = record.detected_after(vectors.len());

    let theta = weights.theta(&mask).expect("theta");
    let formula = weights.defect_level(theta).expect("dl");
    let estimate = simulate_fallout_resumable(
        &weights,
        &mask,
        &MonteCarloConfig {
            dies: 300_000,
            seed: 4,
        },
        threads(),
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
    .expect("mc");
    assert!(
        (estimate.defect_level() - formula).abs() < 0.01,
        "Monte Carlo {} vs eq. 3 {}",
        estimate.defect_level(),
        formula
    );
    assert!(
        (estimate.yield_estimate() - 0.8).abs() < 0.01,
        "yield {}",
        estimate.yield_estimate()
    );
}

/// Eq. 9 consistency at the model level: composing the fitted growth laws
/// through eq. 9 reproduces θ(k) without going through k explicitly.
#[test]
fn eq9_links_growth_laws_and_eq11() {
    let tau_t = 3.1f64.exp();
    let tau_th = 2.2f64.exp();
    let theta_max = 0.93;
    let r = coverage::susceptibility_ratio(tau_t, tau_th).expect("ratio");
    let t_growth = coverage::CoverageGrowth::new(tau_t, 1.0).expect("growth");
    let th_growth = coverage::CoverageGrowth::new(tau_th, theta_max).expect("growth");
    let model = SousaModel::new(0.75, r, theta_max).expect("model");
    let weights = FaultWeights::new(vec![1.0; 4])
        .expect("w")
        .scaled_to_yield(0.75)
        .expect("scale");
    for e in 1..7 {
        let k = 10u64.pow(e);
        let t = t_growth.at(k);
        let theta = th_growth.at(k);
        // DL through eq. 11 at T(k) == DL through eq. 3 at theta(k).
        let via_t = model.defect_level(t).expect("dl");
        let via_theta = weights.defect_level(theta).expect("dl");
        assert!(
            (via_t - via_theta).abs() < 1e-9,
            "k={k}: {via_t} vs {via_theta}"
        );
    }
}

/// The fitted-parameter round trip at the fault-set level: build weights
/// with a known detected fraction, check θ/Γ disagree exactly as the skew
/// dictates, and that scaling never changes them.
#[test]
fn weighted_coverage_invariants_under_scaling() {
    let raw: Vec<f64> = (1..=40).map(|j| (j as f64).powi(2) * 1e-4).collect();
    let weights = FaultWeights::new(raw).expect("weights");
    let mask: Vec<bool> = (0..40).map(|j| j % 2 == 0).collect();
    let theta = weights.theta(&mask).expect("theta");
    let gamma = weights.gamma(&mask).expect("gamma");
    assert!((gamma - 0.5).abs() < 1e-12);
    // Even-indexed (lighter on average, since weight grows with j and the
    // heaviest index 39 is odd) -> theta < gamma here.
    assert!(theta < gamma);
    for y in [0.5, 0.75, 0.9] {
        let scaled = weights.scaled_to_yield(y).expect("scale");
        assert!((scaled.theta(&mask).expect("theta") - theta).abs() < 1e-12);
        assert!((scaled.gamma(&mask).expect("gamma") - gamma).abs() < 1e-12);
        assert!((scaled.yield_value() - y).abs() < 1e-12);
    }
}

/// Required-coverage planning across the three models on one scenario:
/// eq. 11 with R > 1 always demands no more coverage than Williams–Brown,
/// and a reachable target is genuinely achieved.
#[test]
fn planning_consistency_across_models() {
    for &(r, theta_max) in &[(1.5, 1.0), (2.0, 0.98), (2.5, 0.95)] {
        let model = SousaModel::new(0.8, r, theta_max).expect("model");
        let floor = model.residual_defect_level();
        for target_factor in [1.5, 3.0, 10.0] {
            let target = (floor * target_factor).clamp(50e-6, 0.19);
            if target < floor {
                continue;
            }
            let t_needed = model.required_coverage(target).expect("reachable");
            let wb_needed = dlp::core::williams_brown::required_coverage(0.8, target);
            if let Ok(wb) = wb_needed {
                assert!(
                    t_needed <= wb + 1e-9,
                    "R={r}: eq11 demands {t_needed} vs WB {wb} for {target}"
                );
            }
            let achieved = model.defect_level(t_needed).expect("dl");
            assert!(achieved <= target + 1e-9);
        }
    }
}
