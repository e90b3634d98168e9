//! The chaos gate: the deterministic adversarial corpus plus the seeded
//! randomized kill/resume and artifact-corruption sweeps. Prints every
//! violation and exits non-zero if any check failed.
//!
//! Knobs (environment):
//! - `DLP_CHAOS_SEED` — sweep RNG seed (decimal; default below). A red
//!   run is reproducible by re-running with the printed seed.
//! - `DLP_CHAOS_DIR` — scratch directory for checkpoint artifacts
//!   (default: `target/chaos` inside the workspace).

use dlp_inject::{corpus, run_chaos, verify_all};

fn main() {
    let seed = std::env::var("DLP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC4A0_55ED);
    let dir = std::env::var("DLP_CHAOS_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/chaos").to_string());

    let cases = corpus();
    let corpus_report = verify_all(&cases);
    let corpus_failures: Vec<String> = corpus_report
        .failures()
        .map(|(name, outcome)| format!("  FAIL {name}: {outcome}"))
        .collect();
    println!(
        "chaos: corpus — {} cases, {} violations",
        corpus_report.len(),
        corpus_failures.len()
    );
    for line in &corpus_failures {
        println!("{line}");
    }

    let chaos_report = run_chaos(seed, &dir);
    print!("chaos: sweeps (seed {seed}) — {}", chaos_report);

    if corpus_failures.is_empty() && chaos_report.passed() {
        println!("chaos: all clear");
    } else {
        eprintln!("chaos: violations found (re-run with DLP_CHAOS_SEED={seed} to reproduce)");
        std::process::exit(1);
    }
}
