//! Parallel-speedup measurement: PPSFP stuck-at simulation of the
//! c432-class circuit over ≥1024 random vectors, serial (1 worker) versus
//! 4 workers.
//!
//! Asserts the `DetectionRecord`s are bit-identical — the determinism
//! contract of the parallel execution layer — and writes the measured
//! wall-clock numbers to `BENCH_parallel_speedup.json` at the workspace
//! root using the versioned [`BenchReport`] schema. The ≥2× speedup
//! criterion can only manifest on a machine with ≥4 hardware threads;
//! the report's `env.cpus` records the machine's parallelism so a
//! single-core result is interpretable.

use std::time::Instant;

use dlp_circuit::generators;
use dlp_core::obs::{bench::median, BenchReport, Recorder};
use dlp_core::par::ThreadCount;
use dlp_core::{ModelError, PipelineError, RunBudget};
use dlp_sim::{detection, ppsfp, stuck_at};

const VECTORS: usize = 1024;
const REPEATS: usize = 5;

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

/// Wall-clock seconds of `REPEATS` runs of `f`.
fn sample_secs<R>(mut f: impl FnMut() -> R) -> Vec<f64> {
    (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

fn run() -> Result<(), PipelineError> {
    let netlist = generators::c432_class();
    let faults = stuck_at::enumerate(&netlist).collapse();
    let vectors = detection::random_vectors(netlist.inputs().len(), VECTORS, 7);
    let t1 = ThreadCount::fixed(1).map_err(ModelError::from)?;
    let t4 = ThreadCount::fixed(4).map_err(ModelError::from)?;
    let unlimited = &RunBudget::unlimited();
    let simulate = |threads| {
        ppsfp::simulate_resumable(
            &netlist,
            faults.faults(),
            &vectors,
            threads,
            Recorder::noop(),
            unlimited,
            None,
        )
    };

    let serial = simulate(t1)?;
    let parallel = simulate(t4)?;
    assert_eq!(
        serial, parallel,
        "DetectionRecord must be bit-identical across thread counts"
    );

    let samples_t1 = sample_secs(|| simulate(t1).map(|r| r.detected_count()));
    let samples_t4 = sample_secs(|| simulate(t4).map(|r| r.detected_count()));
    let secs_t1 = median(&samples_t1);
    let secs_t4 = median(&samples_t4);
    let speedup = secs_t1 / secs_t4;
    let hw = std::thread::available_parallelism().map_or(1, usize::from);

    println!("parallel speedup — ppsfp/c432_class/{VECTORS} vectors");
    println!("  hardware threads : {hw}");
    println!("  DLP_THREADS=1    : {:.3} ms", secs_t1 * 1e3);
    println!("  DLP_THREADS=4    : {:.3} ms", secs_t4 * 1e3);
    println!("  speedup          : {speedup:.2}x");
    println!("  records identical: yes ({} faults)", faults.len());
    if hw >= 4 && speedup < 2.0 {
        eprintln!("warning: <2x speedup despite {hw} hardware threads");
    }

    let mut report = BenchReport::new("parallel_speedup");
    report.record_samples(
        &format!("ppsfp/c432_class/{VECTORS}/seconds_threads1"),
        "s",
        &samples_t1,
    );
    report.record_samples(
        &format!("ppsfp/c432_class/{VECTORS}/seconds_threads4"),
        "s",
        &samples_t4,
    );
    report.record(
        &format!("ppsfp/c432_class/{VECTORS}/speedup"),
        "ratio",
        speedup,
    );
    report.record(
        &format!("ppsfp/c432_class/{VECTORS}/records_bit_identical"),
        "bool",
        1.0,
    );
    let path = format!(
        "{}/../../BENCH_parallel_speedup.json",
        env!("CARGO_MANIFEST_DIR")
    );
    report.write_to(&path).map_err(|e| {
        PipelineError::with_source(
            dlp_core::Stage::Model,
            dlp_core::ModelError::BadFitData("cannot write BENCH_parallel_speedup.json"),
        )
        .context(e.to_string())
    })?;
    println!("wrote {path}");
    Ok(())
}
