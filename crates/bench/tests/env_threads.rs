//! `DLP_THREADS` environment handling, exercised through the one library
//! entry point that still reads it: `pipeline::extract_netlist_obs`.
//!
//! Kept in its own integration-test binary — and as a single test
//! function — because it mutates the process environment: in-process
//! concurrency would race any other test that reads `DLP_THREADS`.

use std::error::Error;

use dlp_bench::pipeline;
use dlp_circuit::generators;
use dlp_core::obs::Recorder;
use dlp_core::Stage;
use dlp_extract::defects::DefectStatistics;
use dlp_extract::ExtractError;

#[test]
fn env_override_is_honoured_and_garbage_is_a_typed_error() {
    let saved = std::env::var("DLP_THREADS").ok();
    let restore = |v: &Option<String>| match v {
        Some(s) => std::env::set_var("DLP_THREADS", s),
        None => std::env::remove_var("DLP_THREADS"),
    };

    let stats = DefectStatistics::maly_cmos();
    let extract = || pipeline::extract_netlist_obs(generators::c17(), &stats, Recorder::noop());
    let bits = |e: &pipeline::Extraction| -> Vec<u64> {
        e.weights.weights().iter().map(|w| w.to_bits()).collect()
    };

    // A valid override runs and matches the unset (auto) result.
    std::env::remove_var("DLP_THREADS");
    let auto = extract().expect("unset DLP_THREADS");
    std::env::set_var("DLP_THREADS", "2");
    let two = extract().expect("DLP_THREADS=2");
    assert_eq!(
        bits(&auto),
        bits(&two),
        "DLP_THREADS=2 must not change the weights"
    );

    // Unusable settings surface as typed extraction-stage errors, never
    // panics.
    for bad in ["0", "garbage", "-3"] {
        std::env::set_var("DLP_THREADS", bad);
        match extract() {
            Err(e) if e.stage() == Stage::Extraction => {
                assert!(e.to_string().contains("DLP_THREADS"), "{e}");
                match e.source().and_then(|s| s.downcast_ref::<ExtractError>()) {
                    Some(ExtractError::BadThreadCount(p)) => assert_eq!(p.value(), bad),
                    other => {
                        restore(&saved);
                        panic!("DLP_THREADS={bad}: expected BadThreadCount, got {other:?}");
                    }
                }
            }
            Err(e) => {
                restore(&saved);
                panic!("DLP_THREADS={bad}: expected an extraction-stage error, got {e}");
            }
            Ok(_) => {
                restore(&saved);
                panic!("DLP_THREADS={bad}: expected an error, got an extraction");
            }
        }
    }

    restore(&saved);
}
