//! The adversarial sweep: every corpus case must yield a typed,
//! correctly-staged error — zero panics, zero silent NaN.

use std::collections::HashSet;

use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_core::{RunBudget, Stage};
use dlp_inject::{corpus, verify_all};

#[test]
fn every_corrupted_input_yields_a_typed_error() {
    let cases = corpus();
    let report = verify_all(&cases);
    assert_eq!(report.len(), cases.len());
    let failures: Vec<String> = report
        .failures()
        .map(|(name, outcome)| format!("  {name}: {outcome}"))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} cases violated the robustness contract:\n{}",
        failures.len(),
        report.len(),
        failures.join("\n")
    );
}

#[test]
fn corpus_is_broad_enough() {
    let cases = corpus();
    assert!(
        cases.len() >= 40,
        "corpus shrank to {} cases; keep at least 40",
        cases.len()
    );
    let names: HashSet<&str> = cases.iter().map(|c| c.name).collect();
    assert_eq!(names.len(), cases.len(), "case names must be unique");
    let stages: HashSet<Stage> = cases.iter().map(|c| c.stage).collect();
    for required in [
        Stage::Netlist,
        Stage::Layout,
        Stage::Extraction,
        Stage::Simulation,
        Stage::Atpg,
        Stage::Model,
        Stage::Bench,
        Stage::Artifact,
        Stage::Serve,
    ] {
        assert!(
            stages.contains(&required),
            "no corpus case covers stage {required}"
        );
    }
}

#[test]
fn error_messages_name_the_problem() {
    // The Display chain must carry the stage tag and a human-readable
    // cause, so a figure binary's stderr line is actionable.
    let report = verify_all(&corpus());
    for (name, outcome) in report.results() {
        let text = outcome.to_string();
        assert!(
            text.contains(" stage: "),
            "case {name} lost its stage tag: {text}"
        );
        assert!(
            text.len() > "typed error:  stage: ".len() + 8,
            "case {name} has no human-readable cause: {text}"
        );
    }
}

/// Degradation side of the contract: inputs that are *degenerate but
/// legal* must produce finite numbers, never NaN.
#[test]
fn degenerate_but_legal_inputs_stay_finite() {
    // A single-fault set is the smallest legal fault population.
    let single = FaultWeights::new(vec![0.3]).expect("single fault");
    let scaled = single.scaled_to_yield(0.75).expect("scaling");
    for detected in [[false], [true]] {
        let theta = scaled.theta(&detected).expect("theta");
        let dl = scaled.defect_level(theta).expect("dl");
        assert!(theta.is_finite() && dl.is_finite());
        assert!((0.0..=1.0).contains(&dl));
    }

    // Coverage of an all-zero detection record is 0, not 0/0.
    let c17 = dlp_circuit::generators::c17();
    let faults = dlp_sim::stuck_at::enumerate(&c17).collapse();
    let record = dlp_sim::ppsfp::simulate_resumable(
        &c17,
        faults.faults(),
        &[vec![false; 5]],
        ThreadCount::from_env().expect("DLP_THREADS"),
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
    .expect("sim");
    let theta = record
        .weighted_coverage_after(0, &vec![1.0; faults.len()])
        .expect("weighted coverage");
    assert!(theta.is_finite());
}
