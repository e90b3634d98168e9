//! The benchmark times the program the flow runs, not a fork of it: the
//! composition in `layers.rs` must reproduce
//! `pipeline::extract_netlist_obs` + `pipeline::simulate_budgeted` bit
//! for bit — the fault weights and both detection records.

use dlp_bench::pipeline;
use dlp_benchmark::layers::{run_flow, FlowSpec, Sample};
use dlp_benchmark::spans::Spans;
use dlp_circuit::generators;
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::RunBudget;
use dlp_extract::defects::DefectStatistics;
use dlp_sim::switchlevel::DetectionMode;

#[test]
fn layers_reproduce_the_pipeline_bit_for_bit() {
    for (name, netlist) in [
        ("c17", generators::c17()),
        ("ripple_adder(8)", generators::ripple_adder(8)),
    ] {
        let extraction = pipeline::extract_netlist_obs(
            netlist.clone(),
            &DefectStatistics::maly_cmos(),
            Recorder::noop(),
        )
        .expect("pipeline extraction");
        for threads in [1, 2] {
            let threads = ThreadCount::fixed(threads).expect("non-zero");
            let run = pipeline::simulate_budgeted(
                &extraction,
                7,
                threads,
                &RunBudget::unlimited(),
                Recorder::noop(),
            )
            .expect("pipeline simulation");
            let spec = FlowSpec {
                netlist: netlist.clone(),
                atpg_seed: 7,
                mc_seed: 7,
                mode: DetectionMode::Voltage,
                sample: Sample::ALL,
            };
            let out = run_flow(&spec, threads, Recorder::noop(), &Spans::off(), 0)
                .expect("benchmark flow");
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(out.weights.weights()),
                bits(extraction.weights.weights()),
                "{name}: weights at {threads:?}"
            );
            assert_eq!(
                out.record_t, run.record_t,
                "{name}: T(k) record at {threads:?}"
            );
            assert_eq!(
                out.record_theta, run.record_theta,
                "{name}: θ(k) record at {threads:?}"
            );
        }
    }
}
