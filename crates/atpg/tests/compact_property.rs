//! Property tests for static compaction: across seeded random netlists of
//! several shapes, the compacted set must detect *exactly* the faults the
//! full sequence detects — not merely the same count — and the counted
//! generalization must preserve per-fault detection tallies.

use dlp_atpg::compact::compact_counted;
use dlp_circuit::generators::{random_logic, RandomLogicConfig};
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::RunBudget;
use dlp_sim::{detection, ppsfp, stuck_at};

fn threads() -> ThreadCount {
    ThreadCount::from_env().expect("DLP_THREADS")
}

/// The shape sweep: (inputs, gates, outputs, netlist seed, vector seed).
fn shapes() -> Vec<(usize, usize, usize, u64, u64)> {
    vec![
        (4, 12, 2, 3, 101),
        (8, 40, 4, 7, 103),
        (12, 90, 6, 11, 107),
        (16, 150, 8, 13, 109),
        (6, 25, 3, 17, 113),
    ]
}

#[test]
fn compact_preserves_the_exact_detected_set_on_random_netlists() {
    for (inputs, gates, outputs, seed, vseed) in shapes() {
        let nl = random_logic(&RandomLogicConfig {
            inputs,
            gates,
            outputs,
            seed,
        })
        .expect("random netlist");
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = detection::random_vectors(inputs, 192, vseed);

        let (obs, unlimited) = (Recorder::noop(), &RunBudget::unlimited());
        let simulate = |vectors: &[Vec<bool>]| {
            ppsfp::simulate_resumable(
                &nl,
                faults.faults(),
                vectors,
                threads(),
                obs,
                unlimited,
                None,
            )
        };
        let full = simulate(&vectors).expect("full sim");
        let compacted = compact_counted(&nl, faults.faults(), &vectors, 1).expect("compaction");
        let reduced = simulate(&compacted.vectors).expect("compacted sim");

        // The exact per-fault detected set, not just its cardinality.
        let before: Vec<bool> = full.detected_after(vectors.len());
        let after: Vec<bool> = reduced.detected_after(compacted.vectors.len());
        assert_eq!(
            before, after,
            "detected set changed on rand({inputs},{gates},{outputs},{seed})"
        );
        assert!(
            compacted.vectors.len() <= vectors.len(),
            "compaction must never grow the set"
        );
        // Survivors keep their original relative order.
        assert!(compacted.kept.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn compact_counted_preserves_counts_on_random_netlists() {
    for (inputs, gates, outputs, seed, vseed) in shapes().into_iter().take(3) {
        let nl = random_logic(&RandomLogicConfig {
            inputs,
            gates,
            outputs,
            seed,
        })
        .expect("random netlist");
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = detection::random_vectors(inputs, 192, vseed);
        for n in [1usize, 3] {
            let (obs, unlimited) = (Recorder::noop(), &RunBudget::unlimited());
            let simulate = |vectors: &[Vec<bool>]| {
                ppsfp::simulate_counted_resumable(
                    &nl,
                    faults.faults(),
                    vectors,
                    n,
                    threads(),
                    obs,
                    unlimited,
                    None,
                )
            };
            let before = simulate(&vectors).expect("full counted");
            let compacted =
                compact_counted(&nl, faults.faults(), &vectors, n).expect("counted compaction");
            let after = simulate(&compacted.vectors).expect("compacted counted");
            for j in 0..faults.len() {
                assert!(
                    after.count(j) >= before.count(j),
                    "fault {j} lost detections at n = {n} on \
                     rand({inputs},{gates},{outputs},{seed})"
                );
            }
        }
    }
}
