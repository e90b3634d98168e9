//! Bench: PPSFP stuck-at fault simulation throughput — the
//! word-parallelism payoff (vectors are processed 64 at a time), plus the
//! serial-vs-parallel comparison of the thread layer and the overhead of
//! the observability recorder (noop vs enabled).

use dlp_circuit::generators;
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::RunBudget;
use dlp_sim::stuck_at::StuckAtFault;
use dlp_sim::{detection, ppsfp, stuck_at};

/// One unbudgeted run, returning the detected-fault count.
fn detected(
    netlist: &dlp_circuit::Netlist,
    faults: &[StuckAtFault],
    vectors: &[Vec<bool>],
    threads: ThreadCount,
    obs: &Recorder,
) -> usize {
    let unlimited = &RunBudget::unlimited();
    ppsfp::simulate_resumable(netlist, faults, vectors, threads, obs, unlimited, None)
        .unwrap()
        .detected_count()
}

#[path = "harness/mod.rs"]
mod harness;

fn main() {
    let mut report = harness::Report::new("fault_sim");
    let netlist = generators::c432_class();
    let faults = stuck_at::enumerate(&netlist).collapse();
    let (env_threads, noop) = (ThreadCount::from_env().unwrap(), Recorder::noop());

    for vectors in [64usize, 256, 1024] {
        let vs = detection::random_vectors(netlist.inputs().len(), vectors, 7);
        report.bench(&format!("ppsfp/c432_class/{vectors}"), || {
            detected(&netlist, faults.faults(), &vs, env_threads, noop)
        });
    }

    // Serial vs parallel on the acceptance workload (c432-class, 1024
    // vectors). Results are bit-identical across thread counts; only the
    // wall clock may differ.
    let vs = detection::random_vectors(netlist.inputs().len(), 1024, 7);
    let mut serial = f64::NAN;
    for workers in [1usize, 2, 4] {
        let threads = ThreadCount::fixed(workers).unwrap();
        let ns = report.bench(&format!("ppsfp/c432_class/1024/threads{workers}"), || {
            detected(&netlist, faults.faults(), &vs, threads, noop)
        });
        if workers == 1 {
            serial = ns;
        } else {
            report.record(
                &format!("ppsfp/c432_class/1024/speedup_t{workers}"),
                serial / ns,
            );
        }
    }

    // Observability overhead on the same workload: a no-op recorder
    // (tracing off: a single bool check per record call) against a fully
    // enabled one. The enabled ratio documents the price of a traced run.
    let threads = ThreadCount::fixed(1).unwrap();
    let untraced = report.bench("ppsfp/c432_class/1024/obs_off", || {
        detected(&netlist, faults.faults(), &vs, threads, noop)
    });
    let traced = report.bench("ppsfp/c432_class/1024/obs_on", || {
        let obs = Recorder::enabled();
        detected(&netlist, faults.faults(), &vs, threads, &obs)
    });
    report.record("ppsfp/c432_class/1024/obs_on_ratio", traced / untraced);

    // Scaling with circuit size on random logic.
    for gates in [100usize, 400, 1600] {
        let nl = generators::random_logic(&dlp_circuit::generators::RandomLogicConfig {
            inputs: 32,
            gates,
            outputs: 16,
            seed: 5,
        })
        .expect("valid shape");
        let fl = stuck_at::enumerate(&nl).collapse();
        let vs = detection::random_vectors(32, 256, 11);
        report.bench(&format!("ppsfp_scaling/gates/{gates}"), || {
            detected(&nl, fl.faults(), &vs, env_threads, noop)
        });
    }
    report.write();
}
