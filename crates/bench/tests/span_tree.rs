//! The span tree of a traced c17 flow: stages nest where they ran, and
//! the tree's shape does not depend on the worker count.

use dlp_bench::pipeline;
use dlp_circuit::generators;
use dlp_core::montecarlo::{simulate_fallout_resumable, MonteCarloConfig};
use dlp_core::obs::{Recorder, RunReport};
use dlp_core::par::ThreadCount;
use dlp_core::RunBudget;
use dlp_extract::defects::DefectStatistics;

/// Layout, extraction, ATPG, both simulators and Monte-Carlo on c17,
/// with the simulators and Monte-Carlo on `threads` workers.
fn traced_flow(threads: usize) -> RunReport {
    let obs = Recorder::enabled();
    let threads = ThreadCount::fixed(threads).expect("thread count");
    let budget = RunBudget::unlimited();
    let stats = DefectStatistics::maly_cmos();
    let extraction =
        pipeline::extract_netlist_obs(generators::c17(), &stats, &obs).expect("extraction");
    let run =
        pipeline::simulate_budgeted(&extraction, 1, threads, &budget, &obs).expect("simulation");
    let detected: Vec<bool> = run
        .record_theta
        .first_detect()
        .iter()
        .map(Option::is_some)
        .collect();
    let config = MonteCarloConfig {
        dies: 5_000,
        seed: 3,
    };
    simulate_fallout_resumable(
        &extraction.weights,
        &detected,
        &config,
        threads,
        &obs,
        &budget,
        None,
    )
    .expect("monte carlo");
    obs.report("c17")
}

/// The tree as a sorted multiset of (name, parent name) pairs.
fn shape(report: &RunReport) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = report
        .tree
        .iter()
        .map(|n| {
            let parent = n
                .parent
                .map_or(String::new(), |p| report.tree[p as usize].name.clone());
            (n.name.clone(), parent)
        })
        .collect();
    pairs.sort();
    pairs
}

#[test]
fn flow_tree_shape_is_the_same_at_one_and_four_threads() {
    let one = traced_flow(1);
    let four = traced_flow(4);
    assert_eq!(shape(&one), shape(&four));
    let pairs = shape(&one);
    for sub in ["extract.bridges", "extract.opens", "extract.cuts"] {
        assert!(
            pairs.contains(&(sub.to_string(), "extract".to_string())),
            "{sub} must nest under extract: {pairs:?}"
        );
    }
    for stage in [
        "layout",
        "extract",
        "atpg",
        "sim.gate",
        "sim.switch",
        "montecarlo",
    ] {
        assert!(
            pairs.contains(&(stage.to_string(), String::new())),
            "{stage} must be a top-level span: {pairs:?}"
        );
    }
    // Every span was written once: the tree folds to the name totals.
    for s in &one.spans {
        let nodes = one.tree.iter().filter(|n| n.name == s.name);
        assert_eq!(nodes.clone().count() as u64, s.count, "{}", s.name);
        assert_eq!(nodes.map(|n| n.nanos).sum::<u64>(), s.nanos, "{}", s.name);
    }
}
