//! Bench: switch-level simulation — good-circuit evaluation and
//! detection cost per fault family (eight faults each, one worker; the
//! differential driver takes stuck-ons, floating inputs and most bridges,
//! the reference driver stuck-opens and rail bridges), plus the
//! serial-vs-parallel comparison of fanning a fault list across workers.

use dlp_circuit::{generators, switch};
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_sim::detection::random_vectors;
use dlp_sim::switchlevel::{DetectionMode, SwitchConfig, SwitchFault, SwitchSimulator};

#[path = "harness/mod.rs"]
mod harness;

fn main() {
    let mut report = harness::Report::new("switch_sim");
    let netlist = generators::c432_class();
    let sw = switch::expand(&netlist).expect("expand");
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let vectors = random_vectors(netlist.inputs().len(), 256, 3);
    let t1 = ThreadCount::fixed(1).unwrap();

    report.bench("switch_sim/good_c432_256v", || sim.run_good(&vectors).len());

    // Eight faults of each family, detection over 128 vectors.
    let vectors128 = random_vectors(netlist.inputs().len(), 128, 3);
    for (family, faults) in dlp_bench::switch_fault_families(&netlist, &sim, 8) {
        report.bench(&format!("switch_sim/detect8/{family}"), || {
            sim.detect_obs(
                &faults,
                &vectors128,
                DetectionMode::Voltage,
                t1,
                Recorder::noop(),
            )
            .unwrap()
            .detected_count()
        });
    }

    // Serial vs parallel over a fault list fanned across workers (the
    // per-fault simulations are independent; the record is bit-identical).
    let fanned: Vec<SwitchFault> = (0..16)
        .map(|i| SwitchFault::StuckOpen { transistor: i * 7 })
        .collect();
    let short = random_vectors(netlist.inputs().len(), 64, 3);
    let mut serial = f64::NAN;
    for workers in [1usize, 2, 4] {
        let threads = ThreadCount::fixed(workers).unwrap();
        let ns = report.bench(&format!("switch_sim/detect16/threads{workers}"), || {
            sim.detect_obs(
                &fanned,
                &short,
                DetectionMode::Voltage,
                threads,
                Recorder::noop(),
            )
            .unwrap()
            .detected_count()
        });
        if workers == 1 {
            serial = ns;
        } else {
            report.record(
                &format!("switch_sim/detect16/speedup_t{workers}"),
                serial / ns,
            );
        }
    }
    report.write();
}
