//! Thread-count invariance: the parallel execution layer must be
//! bit-identical to the serial path for every worker count.
//!
//! These are the issue's determinism property tests: PPSFP stuck-at
//! simulation and switch-level fault detection produce the same
//! `DetectionRecord` for `DLP_THREADS` ∈ {1, 2, 4} on c17 and the
//! c432-class circuit. (The Monte-Carlo counterpart lives next to
//! `dlp_core::montecarlo`.)

use dlp_circuit::switch::SwitchNodeId;
use dlp_circuit::{generators, switch, Netlist, NodeId};
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::RunBudget;
use dlp_sim::detection::random_vectors;
use dlp_sim::switchlevel::{DetectionMode, Logic, SwitchConfig, SwitchFault, SwitchSimulator};
use dlp_sim::{ppsfp, stuck_at};

fn threads(n: usize) -> ThreadCount {
    ThreadCount::fixed(n).expect("positive")
}

fn assert_ppsfp_invariant(netlist: &Netlist, n_vectors: usize, seed: u64) {
    let faults = stuck_at::enumerate(netlist).collapse();
    let vectors = random_vectors(netlist.inputs().len(), n_vectors, seed);
    let reference = ppsfp::simulate_resumable(
        netlist,
        faults.faults(),
        &vectors,
        threads(1),
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
    .expect("serial PPSFP");
    for t in [2usize, 4] {
        let got = ppsfp::simulate_resumable(
            netlist,
            faults.faults(),
            &vectors,
            threads(t),
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )
        .expect("parallel PPSFP");
        assert_eq!(got, reference, "{} with {t} workers", netlist.name());
    }
}

#[test]
fn ppsfp_is_thread_count_invariant_on_c17() {
    // 70 vectors: the partial final block (70 % 64 = 6 patterns) rides
    // through the parallel merge.
    assert_ppsfp_invariant(&generators::c17(), 70, 21);
}

#[test]
fn ppsfp_is_thread_count_invariant_on_c432_class() {
    assert_ppsfp_invariant(&generators::c432_class(), 256, 33);
}

fn assert_counted_invariant(netlist: &Netlist, n_vectors: usize, seed: u64, n_cap: usize) {
    let faults = stuck_at::enumerate(netlist).collapse();
    let vectors = random_vectors(netlist.inputs().len(), n_vectors, seed);
    let reference = ppsfp::simulate_counted_resumable(
        netlist,
        faults.faults(),
        &vectors,
        n_cap,
        threads(1),
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
    .expect("serial counted PPSFP");
    for t in [2usize, 4] {
        let got = ppsfp::simulate_counted_resumable(
            netlist,
            faults.faults(),
            &vectors,
            n_cap,
            threads(t),
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )
        .expect("parallel counted PPSFP");
        assert_eq!(
            got,
            reference,
            "{} with {t} workers, cap {n_cap}",
            netlist.name()
        );
    }
}

#[test]
fn counted_is_thread_count_invariant_on_c17() {
    // 70 vectors: the partial final block (70 % 64 = 6 patterns) rides
    // through the rank-indexed merge at several caps.
    for n_cap in [1usize, 3, 8] {
        assert_counted_invariant(&generators::c17(), 70, 21, n_cap);
    }
}

#[test]
fn counted_is_thread_count_invariant_on_c432_class() {
    for n_cap in [1usize, 4] {
        assert_counted_invariant(&generators::c432_class(), 256, 33, n_cap);
    }
}

#[test]
fn tracing_does_not_perturb_counted_simulation() {
    // An *enabled* recorder at several thread counts: the profile must
    // stay bit-identical to the untraced serial reference, and the
    // invariant counters must agree across thread counts.
    let netlist = generators::c17();
    let faults = stuck_at::enumerate(&netlist).collapse();
    let vectors = random_vectors(netlist.inputs().len(), 70, 21);
    let n_cap = 3;
    let reference = ppsfp::simulate_counted_resumable(
        &netlist,
        faults.faults(),
        &vectors,
        n_cap,
        threads(1),
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
    .expect("untraced serial counted PPSFP");
    let total_credits: usize = reference.counts().iter().sum();
    for t in [1usize, 2, 4] {
        let obs = Recorder::enabled();
        let got = ppsfp::simulate_counted_resumable(
            &netlist,
            faults.faults(),
            &vectors,
            n_cap,
            threads(t),
            &obs,
            &RunBudget::unlimited(),
            None,
        )
        .expect("traced counted PPSFP");
        assert_eq!(got, reference, "traced counted PPSFP with {t} workers");
        let report = obs.report("t");
        assert_eq!(
            report.counter("sim.gate.counted.faults"),
            Some(faults.len() as u64)
        );
        assert_eq!(report.counter("sim.gate.counted.vectors"), Some(70));
        let credits: f64 = report
            .series("sim.gate.counted.detects_per_block")
            .expect("credit series")
            .iter()
            .sum();
        assert_eq!(
            credits as usize, total_credits,
            "per-block credits must sum to the total capped detection count"
        );
    }
}

fn switch_faults_sample(sim: &SwitchSimulator, netlist: &Netlist) -> Vec<SwitchFault> {
    // A handful of each family, spread across the netlist, so both
    // drivers see faults: stuck-opens, rail and feedback bridges take the
    // reference driver, the rest the differential one.
    let sw = sim.netlist();
    let n_trans = sw.transistors().len();
    let mut faults: Vec<SwitchFault> = (0..n_trans)
        .step_by((n_trans / 6).max(1))
        .flat_map(|t| {
            [
                SwitchFault::StuckOpen { transistor: t },
                SwitchFault::StuckOn { transistor: t },
            ]
        })
        .collect();
    let outs = sw.output_nodes();
    let pads = sw.input_nodes();
    faults.push(SwitchFault::Bridge {
        a: outs[0],
        b: outs[outs.len() - 1],
    });
    faults.push(SwitchFault::Bridge {
        a: pads[0],
        b: pads[pads.len() - 1],
    });
    faults.push(SwitchFault::Bridge {
        a: SwitchNodeId::VDD,
        b: outs[0],
    });
    faults.push(SwitchFault::Bridge {
        a: outs[outs.len() - 1],
        b: SwitchNodeId::GND,
    });
    let gates: Vec<NodeId> = netlist
        .node_ids()
        .filter(|&id| !netlist.fanin(id).is_empty() && !netlist.fanout(id).is_empty())
        .collect();
    for &net in gates.iter().step_by((gates.len() / 3).max(1)) {
        let fanout = netlist.fanout(net);
        // A gate's output welded to one of its loads: feedback.
        faults.push(SwitchFault::Bridge {
            a: sw.node_of_net(net),
            b: sw.node_of_net(fanout[0]),
        });
        for level in [Logic::Zero, Logic::X] {
            faults.push(SwitchFault::FloatingInput {
                net: sw.node_of_net(net),
                owners: fanout.to_vec(),
                level,
            });
        }
    }
    for level in [Logic::One, Logic::X] {
        faults.push(SwitchFault::OutputRead { output: 0, level });
    }
    faults
}

fn assert_switch_invariant(netlist: &Netlist, n_vectors: usize, seed: u64) {
    let sw = switch::expand(netlist).expect("switch expansion");
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let faults = switch_faults_sample(&sim, netlist);
    let vectors = random_vectors(netlist.inputs().len(), n_vectors, seed);
    for mode in [DetectionMode::Voltage, DetectionMode::VoltageAndIddq] {
        let reference = sim
            .detect_obs(&faults, &vectors, mode, threads(1), Recorder::noop())
            .expect("serial switch-level");
        for t in [2usize, 4] {
            let got = sim
                .detect_obs(&faults, &vectors, mode, threads(t), Recorder::noop())
                .expect("parallel switch-level");
            assert_eq!(
                got,
                reference,
                "{} with {t} workers ({mode:?})",
                netlist.name()
            );
        }
    }
}

#[test]
fn switch_level_is_thread_count_invariant_on_c17() {
    assert_switch_invariant(&generators::c17(), 48, 17);
}

#[test]
fn tracing_does_not_perturb_either_simulator() {
    // An *enabled* recorder at several thread counts: the records must
    // stay bit-identical to the untraced serial reference, and the
    // trace's own invariant counters (fault/vector totals, per-worker
    // item sums) must agree across thread counts even though the
    // per-worker split itself is scheduling-dependent.
    let netlist = generators::c17();
    let faults = stuck_at::enumerate(&netlist).collapse();
    let vectors = random_vectors(netlist.inputs().len(), 70, 21);
    let reference = ppsfp::simulate_resumable(
        &netlist,
        faults.faults(),
        &vectors,
        threads(1),
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
    .expect("untraced serial PPSFP");
    for t in [1usize, 2, 4] {
        let obs = Recorder::enabled();
        let got = ppsfp::simulate_resumable(
            &netlist,
            faults.faults(),
            &vectors,
            threads(t),
            &obs,
            &RunBudget::unlimited(),
            None,
        )
        .expect("traced PPSFP");
        assert_eq!(got, reference, "traced PPSFP with {t} workers");
        let report = obs.report("t");
        assert_eq!(report.counter("sim.gate.faults"), Some(faults.len() as u64));
        assert_eq!(report.counter("sim.gate.vectors"), Some(70));
        assert_eq!(
            report.counter("sim.gate.detected"),
            Some(reference.detected_count() as u64)
        );
        let worker_sum: u64 = (0..t)
            .map(|w| {
                report
                    .counter(&format!("sim.gate.worker{w}.items"))
                    .unwrap_or(0)
            })
            .sum();
        let live_sum: f64 = report
            .series("sim.gate.live_per_block")
            .expect("live series")
            .iter()
            .sum();
        assert_eq!(
            worker_sum, live_sum as u64,
            "worker tallies must sum to the fault-simulations performed"
        );
    }

    let sw = switch::expand(&netlist).expect("switch expansion");
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let sw_faults = switch_faults_sample(&sim, &netlist);
    let sw_vectors = random_vectors(netlist.inputs().len(), 48, 17);
    let reference = sim
        .detect_obs(
            &sw_faults,
            &sw_vectors,
            DetectionMode::Voltage,
            threads(1),
            Recorder::noop(),
        )
        .expect("untraced serial switch-level");
    let mut work_ref = None;
    for t in [1usize, 2, 4] {
        let obs = Recorder::enabled();
        let got = sim
            .detect_obs(
                &sw_faults,
                &sw_vectors,
                DetectionMode::Voltage,
                threads(t),
                &obs,
            )
            .expect("traced switch-level");
        assert_eq!(got, reference, "traced switch-level with {t} workers");
        let report = obs.report("t");
        assert_eq!(
            report.counter("sim.switch.faults"),
            Some(sw_faults.len() as u64)
        );
        let worker_sum: u64 = (0..t)
            .map(|w| {
                report
                    .counter(&format!("sim.switch.worker{w}.items"))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(worker_sum, sw_faults.len() as u64);
        // Work counters are per fault, so their totals cannot depend on
        // how faults were split across workers.
        let reference_faults = report
            .counter("sim.switch.reference_faults")
            .expect("reference-driver counter");
        assert!(reference_faults > 0 && reference_faults < sw_faults.len() as u64);
        let work = (
            report.counter("sim.switch.solves").expect("solve counter"),
            reference_faults,
            report
                .hist("sim.switch.divergence")
                .expect("divergence histogram")
                .clone(),
        );
        match &work_ref {
            None => work_ref = Some(work),
            Some(r) => assert_eq!(&work, r, "switch-level work with {t} workers"),
        }
    }
}

#[test]
fn switch_level_is_thread_count_invariant_on_c432_class() {
    assert_switch_invariant(&generators::c432_class(), 24, 29);
}

#[test]
fn histogram_percentiles_are_thread_count_invariant() {
    // Histograms over *deterministic* values (per-block detection
    // credits, first-detect vector indices) merge commutatively, so
    // their buckets — and hence every percentile — must be identical
    // for 1, 2, and 4 workers even though each worker observes a
    // scheduling-dependent subset. Timing histograms
    // (`*.block_nanos`, `*.chunk_nanos`) carry no such guarantee and
    // are deliberately not compared here.
    let netlist = generators::c432_class();
    let faults = stuck_at::enumerate(&netlist).collapse();
    let vectors = random_vectors(netlist.inputs().len(), 256, 33);
    let mut gate_ref = None;
    for t in [1usize, 2, 4] {
        let obs = Recorder::enabled();
        ppsfp::simulate_resumable(
            &netlist,
            faults.faults(),
            &vectors,
            threads(t),
            &obs,
            &RunBudget::unlimited(),
            None,
        )
        .expect("traced PPSFP");
        let report = obs.report("t");
        let hist = report
            .hist("sim.gate.detects_per_block")
            .expect("detects histogram")
            .clone();
        assert!(hist.count > 0, "histogram must see every block");
        assert_eq!(hist.invalid, 0);
        match &gate_ref {
            None => gate_ref = Some(hist),
            Some(r) => {
                assert_eq!(hist.buckets, r.buckets, "buckets with {t} workers");
                assert_eq!(hist.count, r.count, "count with {t} workers");
                assert_eq!(hist.min, r.min, "min with {t} workers");
                assert_eq!(hist.max, r.max, "max with {t} workers");
                assert_eq!(hist.p50(), r.p50(), "p50 with {t} workers");
                assert_eq!(hist.p90(), r.p90(), "p90 with {t} workers");
                assert_eq!(hist.p99(), r.p99(), "p99 with {t} workers");
            }
        }
    }

    let sw = switch::expand(&netlist).expect("switch expansion");
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let sw_faults = switch_faults_sample(&sim, &netlist);
    let sw_vectors = random_vectors(netlist.inputs().len(), 24, 29);
    let mut switch_ref = None;
    for t in [1usize, 2, 4] {
        let obs = Recorder::enabled();
        sim.detect_obs(
            &sw_faults,
            &sw_vectors,
            DetectionMode::Voltage,
            threads(t),
            &obs,
        )
        .expect("traced switch-level");
        let report = obs.report("t");
        let hist = report
            .hist("sim.switch.first_detect_index")
            .expect("first-detect histogram")
            .clone();
        assert!(hist.count > 0, "at least one fault must be detected");
        match &switch_ref {
            None => switch_ref = Some(hist),
            Some(r) => assert_eq!(&hist, r, "first-detect histogram with {t} workers"),
        }
    }
}
