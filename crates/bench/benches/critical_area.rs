//! Bench: critical-area extraction cost versus the defect-size
//! integration resolution — the accuracy/runtime ablation called out in
//! `DESIGN.md` §5 — plus the serial-vs-parallel comparison of the
//! bridge-pair integration.

use dlp_circuit::generators;
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_extract::defects::DefectStatistics;
use dlp_extract::extractor::{extract_obs, ExtractionConfig};
use dlp_layout::chip::ChipLayout;

#[path = "harness/mod.rs"]
mod harness;

fn main() {
    let mut report = harness::Report::new("critical_area");
    let netlist = generators::ripple_adder(4);
    let chip = ChipLayout::generate(&netlist, &Default::default()).expect("layout");
    let stats = DefectStatistics::maly_cmos();
    let env_threads = ThreadCount::from_env().unwrap();
    let extract = |config: &ExtractionConfig, threads| {
        extract_obs(&chip, &stats, config, threads, Recorder::noop())
            .expect("extract")
            .len()
    };

    for samples in [2usize, 6, 12] {
        let config = ExtractionConfig {
            size_samples: samples,
        };
        report.bench(&format!("critical_area/size_samples/{samples}"), || {
            extract(&config, env_threads)
        });
    }

    // Serial vs parallel bridge-pair integration at high resolution (the
    // extraction hot path; the fault set is bit-identical either way).
    let config = ExtractionConfig { size_samples: 12 };
    let mut serial = f64::NAN;
    for workers in [1usize, 2, 4] {
        let threads = ThreadCount::fixed(workers).unwrap();
        let ns = report.bench(&format!("critical_area/s12/threads{workers}"), || {
            extract(&config, threads)
        });
        if workers == 1 {
            serial = ns;
        } else {
            report.record(
                &format!("critical_area/s12/speedup_t{workers}"),
                serial / ns,
            );
        }
    }
    report.write();
}
