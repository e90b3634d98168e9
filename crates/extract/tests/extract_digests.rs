//! Pinned extraction digests: every fault's label, kind and weight bits,
//! plus the `extract.bridge_pairs` counter, folded into one `KeyHasher`
//! key per circuit.
//!
//! The bridge-candidate search and the per-size area kernels are
//! optimisations of a fixed computation (DESIGN.md §20), so any change to
//! them must leave these keys untouched. A change that alters a weight on
//! purpose re-pins them and says why.

use dlp_circuit::{generators, Netlist};
use dlp_core::ckpt::KeyHasher;
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_extract::defects::DefectStatistics;
use dlp_extract::extractor::{extract_obs, ExtractionConfig};
use dlp_layout::chip::ChipLayout;

fn extraction_digest(netlist: &Netlist) -> u64 {
    let chip = ChipLayout::generate(netlist, &Default::default()).expect("layout");
    let obs = Recorder::enabled();
    let set = extract_obs(
        &chip,
        &DefectStatistics::maly_cmos(),
        &ExtractionConfig::default(),
        ThreadCount::from_env().expect("DLP_THREADS"),
        &obs,
    )
    .expect("extraction");
    let mut h = KeyHasher::new();
    h.write_usize(set.len());
    for f in set.faults() {
        h.write_bytes(f.label.as_bytes());
        h.write_bytes(format!("{:?}", f.kind).as_bytes());
        h.write_u64(f.weight.to_bits());
    }
    h.write_u64(obs.counter_value("extract.bridge_pairs").unwrap_or(0));
    h.finish()
}

fn check(cases: &[(&str, Netlist, u64)]) {
    let drifted: Vec<String> = cases
        .iter()
        .filter_map(|(name, netlist, want)| {
            let d = extraction_digest(netlist);
            (d != *want).then(|| format!("{name} now {d:#018x}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "extraction digests drifted: {drifted:?}"
    );
}

/// The six circuits whose layouts `route_digests` pins.
#[test]
fn small_circuit_extractions_are_pinned() {
    check(&[
        ("c17", generators::c17(), 0xf2c3_2cd4_4b5f_7ca2),
        ("alu_slice", generators::alu_slice(), 0x4df6_f2ec_053a_61e3),
        (
            "parity_tree16",
            generators::parity_tree(16),
            0x5776_1c8e_90ec_8b45,
        ),
        ("decoder4", generators::decoder(4), 0x43f5_1d8e_e330_f028),
        ("mux_tree3", generators::mux_tree(3), 0xba15_e5c2_ecc7_f0f5),
        (
            "ripple_adder8",
            generators::ripple_adder(8),
            0xc257_1efe_0a75_1bba,
        ),
    ]);
}

/// The three flow-layout benchmark circuits.
#[test]
fn benchmarked_circuit_extractions_are_pinned() {
    check(&[
        (
            "parity_tree48",
            generators::parity_tree(48),
            0x6bd1_a324_1a73_e60b,
        ),
        (
            "ripple_adder24",
            generators::ripple_adder(24),
            0xb569_8c84_5607_dd83,
        ),
        ("mux_tree5", generators::mux_tree(5), 0x3057_0a58_0fae_2b72),
    ]);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow unoptimised; scripts/check.sh runs it in release"
)]
fn c432_class_extraction_is_pinned() {
    check(&[(
        "c432_class",
        generators::c432_class(),
        0xa9c1_91bc_7d3a_cc92,
    )]);
}
