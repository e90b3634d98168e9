//! Bench: defect-level model evaluation and fitting — the cheap
//! closed-form evaluations (eqs. 1, 2, 11) versus the Nelder–Mead fits —
//! plus the serial-vs-parallel comparison of the sharded Monte-Carlo
//! fallout simulation and a flow-shaped single-worker Monte-Carlo case.

use dlp_core::agrawal::AgrawalModel;
use dlp_core::fit;
use dlp_core::montecarlo::{simulate_fallout_resumable, MonteCarloConfig};
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::sousa::SousaModel;
use dlp_core::weighted::FaultWeights;
use dlp_core::williams_brown;
use dlp_core::RunBudget;

#[path = "harness/mod.rs"]
mod harness;

fn main() {
    let mut report = harness::Report::new("model_eval");
    let sousa = SousaModel::new(0.75, 1.9, 0.96).expect("model");
    let agrawal = AgrawalModel::new(0.75, 3.0).expect("model");

    report.bench("eval_williams_brown", || {
        williams_brown::defect_level(std::hint::black_box(0.75), 0.9).unwrap()
    });
    report.bench("eval_sousa_eq11", || {
        sousa.defect_level(std::hint::black_box(0.9)).unwrap()
    });
    report.bench("eval_agrawal_eq2", || {
        agrawal.defect_level(std::hint::black_box(0.9)).unwrap()
    });
    // θ_max = 0.96 leaves a residual defect-level floor of ~1.1%, so the
    // inversion target must sit above it (100 ppm would be unreachable).
    report.bench("inverse_required_coverage", || {
        sousa.required_coverage(std::hint::black_box(0.02)).unwrap()
    });

    let points: Vec<(f64, f64)> = (0..=40)
        .map(|i| {
            let t = i as f64 / 40.0;
            (t, sousa.defect_level(t).unwrap())
        })
        .collect();
    report.bench("fit_sousa_41pts", || {
        fit::fit_sousa(0.75, &points)
            .unwrap()
            .susceptibility_ratio()
    });
    report.bench("fit_agrawal_41pts", || {
        fit::fit_agrawal(0.75, &points).unwrap().multiplicity()
    });

    // Serial vs parallel Monte-Carlo fallout over die shards (counts are
    // bit-identical across thread counts).
    let weights = FaultWeights::new(vec![1.0; 24])
        .expect("weights")
        .scaled_to_yield(0.75)
        .expect("scaled");
    let detected: Vec<bool> = (0..24).map(|j| j % 4 != 0).collect();
    let config = MonteCarloConfig {
        dies: 100_000,
        seed: 0x5EED,
    };
    let mut serial = f64::NAN;
    for workers in [1usize, 2, 4] {
        let threads = ThreadCount::fixed(workers).unwrap();
        let ns = report.bench(&format!("montecarlo/100k_dies/threads{workers}"), || {
            simulate_fallout_resumable(
                &weights,
                &detected,
                &config,
                threads,
                Recorder::noop(),
                &RunBudget::unlimited(),
                None,
            )
            .unwrap()
            .escapes
        });
        if workers == 1 {
            serial = ns;
        } else {
            report.record(
                &format!("montecarlo/100k_dies/speedup_t{workers}"),
                serial / ns,
            );
        }
    }
    // Flow-shaped: about 150 faults with uneven weights, one worker.
    let (weights, detected) = dlp_bench::flow_shaped_fallout_inputs().expect("weights");
    let config = MonteCarloConfig {
        dies: 50_000,
        seed: 0x5EED,
    };
    let t1 = ThreadCount::fixed(1).unwrap();
    report.bench("montecarlo/50k_dies_150_faults", || {
        simulate_fallout_resumable(
            &weights,
            &detected,
            &config,
            t1,
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )
        .unwrap()
        .escapes
    });
    report.write();
}
