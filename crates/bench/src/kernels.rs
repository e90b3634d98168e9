//! The kernel registry: every kernel the `perf_regress` gate times, each
//! listed once in [`measure`] with its label, the worker counts it runs
//! at, and a closure that returns a comparable result (a count, an
//! escape tally, or the bits of a model value).
//!
//! A case at one worker records `<label>`. A worker-count sweep records
//! `<label>/threads{N}` for each count and `<label>/speedup_t{N}` (median
//! at one worker over median at N) for each count above one, and fails
//! unless its closure returns the same result at every count (DESIGN.md
//! §8). The Monte-Carlo labels carry the lane count of the kernel this
//! CPU runs (`…/lanes32` or `…/lanes4`, DESIGN.md §18), so a host that
//! runs the other kernel reports those rows as absent from the baseline
//! instead of comparing unlike kernels. Every case is timed in the same
//! rounds ([`regress::sample_rounds`](crate::regress::sample_rounds)).

use dlp_circuit::generators::{self, RandomLogicConfig};
use dlp_circuit::switch::{self, SwitchNodeId};
use dlp_circuit::{Netlist, NodeId};
use dlp_core::agrawal::AgrawalModel;
use dlp_core::montecarlo::{simulate_fallout_resumable, MonteCarloConfig};
use dlp_core::obs::bench::median;
use dlp_core::obs::{BenchReport, Recorder};
use dlp_core::par::ThreadCount;
use dlp_core::sousa::SousaModel;
use dlp_core::weighted::FaultWeights;
use dlp_core::{fit, williams_brown, ModelError, PipelineError, RunBudget};
use dlp_extract::defects::DefectStatistics;
use dlp_extract::extractor::{extract_obs, ExtractionConfig};
use dlp_layout::chip::ChipLayout;
use dlp_sim::detection::random_vectors;
use dlp_sim::stuck_at::StuckAtFault;
use dlp_sim::switchlevel::{DetectionMode, Logic, SwitchConfig, SwitchFault, SwitchSimulator};
use dlp_sim::{ppsfp, stuck_at};

use crate::regress::{calibration_spin, gate_error, sample_rounds, CALIBRATION_LABEL, TIMED_UNIT};

/// The label of the recorder-overhead ratio: the median over rounds of
/// traced over untraced c432-class PPSFP at one worker, timed back to
/// back in each round.
pub const OBS_RATIO_LABEL: &str = "ppsfp/c432_class/1024/obs_on_ratio";

const OBS_OFF: &str = "ppsfp/c432_class/1024/obs_off";
const OBS_ON: &str = "ppsfp/c432_class/1024/obs_on";

/// A case pinned to one worker.
const ONE: &[usize] = &[1];

/// A worker-count sweep.
const SWEEP: &[usize] = &[1, 2, 4];

/// One registered kernel.
struct Case<'a> {
    label: String,
    workers: &'static [usize],
    run: Box<dyn Fn(ThreadCount) -> Result<u64, PipelineError> + 'a>,
}

fn case<'a>(
    label: impl Into<String>,
    workers: &'static [usize],
    run: impl Fn(ThreadCount) -> Result<u64, PipelineError> + 'a,
) -> Case<'a> {
    let label = label.into();
    Case {
        label,
        workers,
        run: Box::new(run),
    }
}

/// Times the calibration loop and every registered kernel into one
/// report.
///
/// # Errors
///
/// A stage error from building a case's inputs or from running it, or a
/// gate error naming a sweep whose result differs across worker counts.
pub fn measure() -> Result<BenchReport, PipelineError> {
    let (noop, budget) = (Recorder::noop(), &RunBudget::unlimited());
    let t1 = ThreadCount::fixed(1).map_err(ModelError::from)?;

    // Gate-level PPSFP: c432-class at three vector counts, random logic
    // at three sizes.
    let c432 = generators::c432_class();
    let c432_faults = stuck_at::enumerate(&c432).collapse();
    let c432_vectors = [64, 256, 1024].map(|n| (n, random_vectors(c432.inputs().len(), n, 7)));
    let mut scaling = Vec::new();
    for gates in [100, 400, 1600] {
        let shape = RandomLogicConfig {
            inputs: 32,
            gates,
            outputs: 16,
            seed: 5,
        };
        let netlist = generators::random_logic(&shape)?;
        let faults = stuck_at::enumerate(&netlist).collapse();
        scaling.push((gates, netlist, faults, random_vectors(32, 256, 11)));
    }

    // Switch-level simulation: c17's stuck-opens, and on c432-class the
    // good trace, eight faults of each family and sixteen stuck-opens.
    // Stuck-on, floating input and net-to-net bridge run on the
    // differential driver (a bridge only when its nets do not feed each
    // other), stuck-open and rail bridge on the reference one (DESIGN.md
    // §17).
    let c17 = generators::c17();
    let sim17 = SwitchSimulator::new(switch::expand(&c17)?, SwitchConfig::default());
    let c17_faults: Vec<SwitchFault> = (0..sim17.netlist().transistors().len())
        .step_by(2)
        .map(|transistor| SwitchFault::StuckOpen { transistor })
        .collect();
    let c17_vectors = random_vectors(c17.inputs().len(), 48, 17);
    let sim = SwitchSimulator::new(switch::expand(&c432)?, SwitchConfig::default());
    let nets: Vec<NodeId> = c432
        .node_ids()
        .filter(|&id| !c432.fanout(id).is_empty())
        .collect();
    let (n, transistors) = (nets.len(), sim.netlist().transistors().len());
    let node = |i: usize| sim.netlist().node_of_net(nets[i % n]);
    let rail = |i: usize| [SwitchNodeId::VDD, SwitchNodeId::GND][i % 2];
    let spread = |len: usize, fault: &dyn Fn(usize) -> SwitchFault| -> Vec<SwitchFault> {
        (0..8).map(|i| fault(i * len / 8)).collect()
    };
    let families = [
        (
            "stuck_on",
            spread(transistors, &|transistor| SwitchFault::StuckOn {
                transistor,
            }),
        ),
        (
            "floating_input",
            spread(n, &|i| SwitchFault::FloatingInput {
                net: node(i),
                owners: c432.fanout(nets[i]).to_vec(),
                level: Logic::One,
            }),
        ),
        (
            "bridge",
            spread(n, &|i| SwitchFault::Bridge {
                a: node(i),
                b: node(i + n / 2),
            }),
        ),
        (
            "stuck_open",
            spread(transistors, &|transistor| SwitchFault::StuckOpen {
                transistor,
            }),
        ),
        (
            "rail_bridge",
            spread(n, &|i| SwitchFault::Bridge {
                a: node(i),
                b: rail(i),
            }),
        ),
    ];
    let fanned: Vec<SwitchFault> = (0..16)
        .map(|i| SwitchFault::StuckOpen { transistor: i * 7 })
        .collect();
    let [v64, v128, v256] = [64, 128, 256].map(|n| random_vectors(c432.inputs().len(), n, 3));

    // The router on the largest flow-layout circuit, and critical-area
    // extraction on a ripple adder.
    let parity = generators::parity_tree(48);
    let chip = ChipLayout::generate(&generators::ripple_adder(4), &Default::default())?;
    let stats = DefectStatistics::maly_cmos();

    // The defect-level models. θ_max = 0.96 floors DL near 1.1 %, so the
    // inversion's target sits above it.
    let sousa = SousaModel::new(0.75, 1.9, 0.96)?;
    let agrawal = AgrawalModel::new(0.75, 3.0)?;
    let points = (0..=40)
        .map(|i| Ok((i as f64 / 40.0, sousa.defect_level(i as f64 / 40.0)?)))
        .collect::<Result<Vec<_>, ModelError>>()?;

    // Monte-Carlo fallout: 24 equal faults, and the flow-shaped case (a
    // benchmark flow-switch flow hands the stage about 150 faults, here
    // weighted over a 1:7 range with nine in ten detected).
    let equal = FaultWeights::new(vec![1.0; 24])?.scaled_to_yield(0.75)?;
    let equal_detected: Vec<bool> = (0..24).map(|j| j % 4 != 0).collect();
    let flow = FaultWeights::new((0..150).map(|j| 1.0 + (j % 7) as f64).collect())?
        .scaled_to_yield(0.75)?;
    let flow_detected: Vec<bool> = (0..150).map(|j| j % 10 != 0).collect();

    let detected = |netlist: &Netlist,
                    faults: &[StuckAtFault],
                    vectors: &[Vec<bool>],
                    threads,
                    obs: &Recorder| {
        ppsfp::simulate_resumable(netlist, faults, vectors, threads, obs, budget, None)
            .map(|record| record.detected_count() as u64)
            .map_err(PipelineError::from)
    };
    let detect = |sim: &SwitchSimulator, faults: &[SwitchFault], vectors: &[Vec<bool>], threads| {
        sim.detect_obs(faults, vectors, DetectionMode::Voltage, threads, noop)
            .map(|record| record.detected_count() as u64)
            .map_err(PipelineError::from)
    };
    let extract = |size_samples, threads| -> Result<u64, PipelineError> {
        let config = ExtractionConfig { size_samples };
        Ok(extract_obs(&chip, &stats, &config, threads, noop)?.len() as u64)
    };
    let escapes = |weights: &FaultWeights, detected: &[bool], dies, threads, obs: &Recorder| {
        let config = MonteCarloConfig { dies, seed: 0x5EED };
        simulate_fallout_resumable(weights, detected, &config, threads, obs, budget, None)
            .map(|estimate| estimate.escapes as u64)
            .map_err(PipelineError::from)
    };
    let traced = Recorder::enabled();
    escapes(&equal, &equal_detected, 1, t1, &traced)?;
    let lanes = traced.report("mc").gauge("mc.lanes");
    let lanes =
        lanes.ok_or_else(|| gate_error("the Monte-Carlo run recorded no mc.lanes gauge"))?;
    let value = |v: Result<f64, ModelError>| -> Result<u64, PipelineError> { Ok(v?.to_bits()) };
    let bb = std::hint::black_box;

    // The registry.
    let mut cases = vec![case(CALIBRATION_LABEL, ONE, |_| Ok(calibration_spin()))];
    let (c432, c432_faults) = (&c432, c432_faults.faults());
    for (n, vectors) in &c432_vectors {
        let workers = if *n == 1024 { SWEEP } else { ONE };
        let label = format!("ppsfp/c432_class/{n}");
        cases.push(case(label, workers, move |t| {
            detected(c432, c432_faults, vectors, t, noop)
        }));
    }
    let v1024 = &c432_vectors[2].1;
    cases.push(case(OBS_OFF, ONE, |_| {
        detected(c432, c432_faults, v1024, t1, noop)
    }));
    cases.push(case(OBS_ON, ONE, |_| {
        detected(c432, c432_faults, v1024, t1, &Recorder::enabled())
    }));
    for (gates, netlist, faults, vectors) in &scaling {
        let label = format!("ppsfp_scaling/gates/{gates}");
        cases.push(case(label, ONE, move |t| {
            detected(netlist, faults.faults(), vectors, t, noop)
        }));
    }
    cases.push(case("switch/c17/voltage_48v", ONE, |t| {
        detect(&sim17, &c17_faults, &c17_vectors, t)
    }));
    cases.push(case("switch_sim/good_c432_256v", ONE, |_| {
        Ok(sim.run_good(&v256).len() as u64)
    }));
    for (family, faults) in &families {
        let label = format!("switch_sim/detect8/{family}");
        cases.push(case(label, ONE, |t| detect(&sim, faults, &v128, t)));
    }
    cases.push(case("switch_sim/detect16", SWEEP, |t| {
        detect(&sim, &fanned, &v64, t)
    }));
    cases.push(case("layout/parity_tree48", ONE, |_| {
        Ok(ChipLayout::generate(&parity, &Default::default())?
            .shapes()
            .len() as u64)
    }));
    cases.push(case("critical_area/size_samples/2", ONE, |t| extract(2, t)));
    cases.push(case("critical_area/size_samples/6", ONE, |t| extract(6, t)));
    cases.push(case("critical_area/s12", SWEEP, |t| extract(12, t)));
    cases.push(case("eval_williams_brown", ONE, |_| {
        value(williams_brown::defect_level(bb(0.75), 0.9))
    }));
    cases.push(case("eval_sousa_eq11", ONE, |_| {
        value(sousa.defect_level(bb(0.9)))
    }));
    cases.push(case("eval_agrawal_eq2", ONE, |_| {
        value(agrawal.defect_level(bb(0.9)))
    }));
    cases.push(case("inverse_required_coverage", ONE, |_| {
        value(sousa.required_coverage(bb(0.02)))
    }));
    cases.push(case("fit_sousa_41pts", ONE, |_| {
        value(fit::fit_sousa(0.75, &points).map(|m| m.susceptibility_ratio()))
    }));
    cases.push(case("fit_agrawal_41pts", ONE, |_| {
        value(fit::fit_agrawal(0.75, &points).map(|m| m.multiplicity()))
    }));
    cases.push(case(
        format!("montecarlo/100k_dies/lanes{lanes}"),
        SWEEP,
        |t| escapes(&equal, &equal_detected, 100_000, t, noop),
    ));
    cases.push(case(
        format!("montecarlo/50k_dies_150_faults/lanes{lanes}"),
        ONE,
        |t| escapes(&flow, &flow_detected, 50_000, t, noop),
    ));

    let mut report = time_cases(&cases)?;
    let samples = |label| {
        report
            .entry(label)
            .map(|e| e.samples.clone())
            .unwrap_or_default()
    };
    let (off, on) = (samples(OBS_OFF), samples(OBS_ON));
    let ratios: Vec<f64> = off.iter().zip(&on).map(|(off, on)| on / off).collect();
    report.record(OBS_RATIO_LABEL, "ratio", median(&ratios));
    Ok(report)
}

/// Runs every case once at each of its worker counts, failing with the
/// label when a sweep's result differs across them, then times them all
/// in the same rounds into a report (see the module docs for the
/// labels). A sweep starts at one worker.
fn time_cases(cases: &[Case]) -> Result<BenchReport, PipelineError> {
    let mut slots = Vec::new();
    for c in cases {
        let mut first = None;
        for &n in c.workers {
            let threads = ThreadCount::fixed(n).map_err(ModelError::from)?;
            let result = (c.run)(threads)?;
            let serial = *first.get_or_insert(result);
            if result != serial {
                return Err(gate_error(format!(
                    "{}: result {result} at {n} workers, {serial} at one: not deterministic",
                    c.label
                )));
            }
            slots.push((c, n, threads));
        }
    }
    let mut runs: Vec<_> = slots
        .iter()
        .map(|&(c, _, threads)| move || drop(std::hint::black_box((c.run)(threads))))
        .collect();
    let mut report = BenchReport::new("perf_regress");
    let mut serial = f64::NAN;
    for ((c, n, _), samples) in slots.iter().zip(sample_rounds(&mut runs)) {
        if c.workers.len() == 1 {
            report.record_samples(&c.label, TIMED_UNIT, &samples);
            continue;
        }
        report.record_samples(&format!("{}/threads{n}", c.label), TIMED_UNIT, &samples);
        if *n == 1 {
            serial = median(&samples);
        } else {
            let label = format!("{}/speedup_t{n}", c.label);
            report.record(&label, "ratio", serial / median(&samples));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_records_every_count_and_a_speedup_above_one() {
        let report = time_cases(&[case("k", SWEEP, |_| Ok(7)), case("j", ONE, |_| Ok(7))])
            .expect("deterministic");
        let labels: Vec<&str> = report.entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "k/threads1",
                "k/threads2",
                "k/speedup_t2",
                "k/threads4",
                "k/speedup_t4",
                "j"
            ]
        );
    }

    #[test]
    fn a_sweep_whose_result_depends_on_the_worker_count_fails_by_label() {
        let cases = [case("k/sweep", SWEEP, |t: ThreadCount| {
            Ok((t.get() == 4) as u64)
        })];
        let err = time_cases(&cases).expect_err("a result that moves with the worker count");
        assert!(
            err.to_string().contains("k/sweep: result 1 at 4 workers"),
            "{err}"
        );
    }
}
