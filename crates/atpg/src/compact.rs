//! Static test-set compaction by reverse-order fault simulation.
//!
//! The classic observation: vectors generated late (deterministic top-ups)
//! each target specific hard faults, while early random vectors detect
//! overlapping easy sets. Fault-simulating the sequence in *reverse* and
//! keeping only vectors that detect something still-undetected drops most
//! of the redundant prefix while preserving coverage exactly.

use dlp_circuit::Netlist;
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::RunBudget;
use dlp_sim::ppsfp;
use dlp_sim::stuck_at::StuckAtFault;

use crate::AtpgError;

/// The result of compaction.
#[derive(Debug, Clone)]
pub struct CompactionResult {
    /// The surviving vectors, in their original relative order.
    pub vectors: Vec<Vec<bool>>,
    /// Indices (into the original sequence) of the survivors.
    pub kept: Vec<usize>,
}

/// n-detect-aware compaction: reverse-order fault simulation that
/// preserves detection *counts*, not just the detected set.
///
/// Every fault the full sequence detects `c` times keeps at least
/// `min(c, n)` detections in the compacted set: scanning the vectors in
/// reverse, a vector is kept iff it detects a fault whose kept-detection
/// tally is still below its requirement. With `n = 1` this is classic
/// static compaction: a vector is kept iff it detects a fault no later
/// kept vector detects, and the compacted set detects exactly the faults
/// the full sequence detects.
///
/// # Errors
///
/// [`AtpgError::Sim`] if vector widths mismatch the netlist, a fault site
/// is out of range, or `n` is not in
/// `1..=`[`dlp_sim::ppsfp::MAX_DETECTION_CAP`] (see
/// [`ppsfp::simulate_counted_resumable`]).
///
/// # Example
///
/// ```
/// use dlp_atpg::compact::compact_counted;
/// use dlp_circuit::generators;
/// use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
/// use dlp_sim::{detection, ppsfp, stuck_at};
///
/// let c17 = generators::c17();
/// let faults = stuck_at::enumerate(&c17).collapse();
/// let vectors = detection::random_vectors(5, 128, 3);
/// let (n, threads) = (3, ThreadCount::from_env()?);
/// let compacted = compact_counted(&c17, faults.faults(), &vectors, n)?;
/// assert!(compacted.vectors.len() < vectors.len() / 2);
/// // Every fault keeps at least min(original count, 3) detections.
/// let (f, obs, budget) = (faults.faults(), Recorder::noop(), &RunBudget::unlimited());
/// let counts = |v: &[Vec<bool>]| {
///     ppsfp::simulate_counted_resumable(&c17, f, v, n, threads, obs, budget, None)
/// };
/// let (before, after) = (counts(&vectors)?, counts(&compacted.vectors)?);
/// assert!(after.counts().iter().zip(before.counts()).all(|(a, b)| a >= &b));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn compact_counted(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    vectors: &[Vec<bool>],
    n: usize,
) -> Result<CompactionResult, AtpgError> {
    let (threads, obs, budget) = (ThreadCount::Auto, Recorder::noop(), &RunBudget::unlimited());
    // How many detections (capped at n) does the full sequence give each
    // fault? That is the requirement the compacted set must preserve.
    let full =
        ppsfp::simulate_counted_resumable(netlist, faults, vectors, n, threads, obs, budget, None)?;
    let mut required: Vec<usize> = full.counts();
    let mut open: usize = required.iter().filter(|&&r| r > 0).count();

    let mut kept_rev: Vec<usize> = Vec::new();
    for idx in (0..vectors.len()).rev() {
        if open == 0 {
            break;
        }
        let live: Vec<usize> = (0..faults.len()).filter(|&j| required[j] > 0).collect();
        let live_faults: Vec<StuckAtFault> = live.iter().map(|&j| faults[j]).collect();
        let vector = std::slice::from_ref(&vectors[idx]);
        let rec =
            ppsfp::simulate_resumable(netlist, &live_faults, vector, threads, obs, budget, None)?;
        let mut keeps = false;
        for (pos, d) in rec.first_detect().iter().enumerate() {
            if d.is_some() {
                keeps = true;
                required[live[pos]] -= 1;
                if required[live[pos]] == 0 {
                    open -= 1;
                }
            }
        }
        if keeps {
            kept_rev.push(idx);
        }
    }
    kept_rev.reverse();
    Ok(CompactionResult {
        vectors: kept_rev.iter().map(|&i| vectors[i].clone()).collect(),
        kept: kept_rev,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;
    use dlp_sim::detection::{DetectionProfile, DetectionRecord};
    use dlp_sim::{detection, stuck_at};

    fn threads() -> ThreadCount {
        ThreadCount::from_env().unwrap()
    }

    /// Untraced first-detect record at the `DLP_THREADS` worker count.
    fn record(nl: &Netlist, faults: &[StuckAtFault], vectors: &[Vec<bool>]) -> DetectionRecord {
        let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
        ppsfp::simulate_resumable(nl, faults, vectors, threads(), obs, budget, None).unwrap()
    }

    /// [`record`] for the count-capped engine.
    fn profile(
        nl: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
        n: usize,
    ) -> DetectionProfile {
        let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
        ppsfp::simulate_counted_resumable(nl, faults, vectors, n, threads(), obs, budget, None)
            .unwrap()
    }

    #[test]
    fn coverage_is_preserved_exactly() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = detection::random_vectors(36, 512, 17);
        let before = record(&nl, faults.faults(), &vectors).detected_count();
        let compacted = compact_counted(&nl, faults.faults(), &vectors, 1).unwrap();
        let after = record(&nl, faults.faults(), &compacted.vectors).detected_count();
        assert_eq!(before, after);
        assert!(compacted.vectors.len() < vectors.len());
    }

    #[test]
    fn kept_indices_are_sorted_and_valid() {
        let nl = generators::ripple_adder(4);
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = detection::random_vectors(9, 200, 5);
        let compacted = compact_counted(&nl, faults.faults(), &vectors, 1).unwrap();
        assert!(compacted.kept.windows(2).all(|w| w[0] < w[1]));
        assert!(compacted.kept.iter().all(|&i| i < vectors.len()));
        for (pos, &i) in compacted.kept.iter().enumerate() {
            assert_eq!(compacted.vectors[pos], vectors[i]);
        }
    }

    #[test]
    fn compacting_a_compact_set_is_stable() {
        let nl = generators::c17();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = detection::random_vectors(5, 64, 7);
        let once = compact_counted(&nl, faults.faults(), &vectors, 1).unwrap();
        let twice = compact_counted(&nl, faults.faults(), &once.vectors, 1).unwrap();
        // A second pass may reorder marginally but never grows.
        assert!(twice.vectors.len() <= once.vectors.len());
        let cov_once = record(&nl, faults.faults(), &once.vectors).detected_count();
        let cov_twice = record(&nl, faults.faults(), &twice.vectors).detected_count();
        assert_eq!(cov_once, cov_twice);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let nl = generators::c17();
        let faults = stuck_at::enumerate(&nl).collapse();
        let r = compact_counted(&nl, faults.faults(), &[], 1).unwrap();
        assert!(r.vectors.is_empty());
        let r = compact_counted(&nl, &[], &detection::random_vectors(5, 8, 1), 1).unwrap();
        assert!(r.vectors.is_empty());
    }

    #[test]
    fn counted_compaction_preserves_counts() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = detection::random_vectors(36, 512, 17);
        for n in [1usize, 2, 4] {
            let before = profile(&nl, faults.faults(), &vectors, n);
            let compacted = compact_counted(&nl, faults.faults(), &vectors, n).unwrap();
            assert!(compacted.vectors.len() < vectors.len());
            let after = profile(&nl, faults.faults(), &compacted.vectors, n);
            for j in 0..faults.len() {
                assert!(
                    after.count(j) >= before.count(j),
                    "fault {j} dropped from {} to {} detections at n = {n}",
                    before.count(j),
                    after.count(j)
                );
            }
        }
    }

    #[test]
    fn counted_sets_grow_with_n() {
        // A deeper requirement can only need more (or equally many)
        // vectors, and every kept index must be valid and ordered.
        let nl = generators::ripple_adder(4);
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = detection::random_vectors(9, 256, 5);
        let mut prev = 0usize;
        for n in 1..=4 {
            let c = compact_counted(&nl, faults.faults(), &vectors, n).unwrap();
            assert!(c.kept.windows(2).all(|w| w[0] < w[1]));
            assert!(c.kept.iter().all(|&i| i < vectors.len()));
            assert!(
                c.vectors.len() >= prev,
                "n = {n} kept {} < {} vectors",
                c.vectors.len(),
                prev
            );
            prev = c.vectors.len();
        }
    }

    #[test]
    fn counted_compaction_rejects_bad_caps() {
        let nl = generators::c17();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = detection::random_vectors(5, 16, 1);
        for n in [0usize, usize::MAX] {
            assert!(matches!(
                compact_counted(&nl, faults.faults(), &vectors, n),
                Err(AtpgError::Sim(dlp_sim::SimError::BadDetectionCap { .. }))
            ));
        }
    }
}
