//! Determinism and scale contracts for the ISCAS-85-class family and
//! the tiled multiplier (DESIGN.md §13).
//!
//! Two pins: the collapsed fault universe of every family member is
//! exactly what the scale-sweep numbers were recorded against, and the
//! PPSFP record over family members is bit-identical at 1, 2, and 4
//! workers.

use dlp_circuit::generators;
use dlp_circuit::Netlist;
use dlp_core::budget::RunBudget;
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_sim::detection::random_vectors;
use dlp_sim::{ppsfp, stuck_at};

#[test]
fn family_fault_universes_are_pinned() {
    for (name, nl, gates, collapsed) in [
        ("c1355_class", generators::c1355_class(), 424, 1568),
        ("c2670_class", generators::c2670_class(), 994, 3454),
        ("c5315_class", generators::c5315_class(), 1982, 6982),
        ("c6288_class", generators::c6288_class(), 1408, 6672),
        ("c7552_class", generators::c7552_class(), 3248, 11453),
        ("multiplier_tile", generators::multiplier_tile(), 320, 1544),
        ("tiledmul16", generators::tiled_multiplier(16), 5360, 24800),
    ] {
        assert_eq!(nl.gate_count(), gates, "{name} gate count");
        let faults = stuck_at::enumerate(&nl).collapse();
        assert_eq!(faults.len(), collapsed, "{name} collapsed faults");
    }
}

#[test]
fn tiled_fault_growth_reaches_a_million() {
    // Linear growth in tiles, extrapolated from two measured points,
    // must put the scale_sweep's 672-tile member past 10^6 collapsed
    // faults — without enumerating the full million in a unit test.
    let f4 = stuck_at::enumerate(&generators::tiled_multiplier(4))
        .collapse()
        .len();
    let f16 = stuck_at::enumerate(&generators::tiled_multiplier(16))
        .collapse()
        .len();
    let per_tile = (f16 - f4) / 12;
    assert!(
        (1400..=1700).contains(&per_tile),
        "per-tile fault growth {per_tile} out of range"
    );
    assert!(f4 + 668 * per_tile > 1_000_000, "672 tiles must cross 10^6");
}

/// First-detect records at 1/2/4 workers must all be bit-identical.
fn assert_thread_invariant(name: &str, nl: &Netlist) {
    let faults = stuck_at::enumerate(nl).collapse();
    let vectors = random_vectors(nl.inputs().len(), 192, 0xFA117);
    let run = |workers: usize| {
        ppsfp::simulate_resumable(
            nl,
            faults.faults(),
            &vectors,
            ThreadCount::fixed(workers).expect("positive"),
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )
        .expect(name)
    };
    let reference = run(1);
    for workers in [2usize, 4] {
        assert_eq!(
            run(workers).first_detect(),
            reference.first_detect(),
            "{name} diverged at {workers} workers"
        );
    }
}

#[test]
fn c1355_record_is_thread_invariant() {
    assert_thread_invariant("c1355_class", &generators::c1355_class());
}

#[test]
fn tiled_multiplier_record_is_thread_invariant() {
    assert_thread_invariant("tiledmul4", &generators::tiled_multiplier(4));
}
