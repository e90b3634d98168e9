//! Transition (gate-delay) fault simulation.
//!
//! The paper cites delay-fault testing (its ref. [8], Park–Mercer–Williams)
//! alongside I_DDQ as the techniques a zero-defect strategy needs beyond
//! steady-state voltage tests. This module implements the standard
//! *transition fault* model: a node is slow-to-rise (or slow-to-fall), and
//! detection needs a two-pattern sequence — vector `k−1` initialises the
//! node to the old value, vector `k` launches the transition and must
//! propagate the (late, i.e. still-old) value to an output.
//!
//! Operationally, a slow-to-rise fault at node `n` is detected by vector
//! `k` iff `n` is 0 under vector `k−1`, 1 under vector `k`, and the
//! stuck-at-0 fault at `n` is detected by vector `k` — which lets the
//! simulator run on the block kernel of [`ppsfp`](crate::ppsfp).

use dlp_circuit::{Netlist, NodeId};
use dlp_core::obs::Recorder;

use crate::detection::DetectionRecord;
use crate::ppsfp::{SimSetup, WINDOW_FAULTS};
use crate::stuck_at::{FaultSite, StuckAtFault};
use crate::SimError;

/// A transition fault at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionFault {
    /// The affected signal.
    pub node: NodeId,
    /// `true` for slow-to-rise (the 0→1 edge is late), `false` for
    /// slow-to-fall.
    pub slow_to_rise: bool,
}

impl TransitionFault {
    /// Human-readable identity like `n7/STR` or `n9/STF`.
    pub fn describe(&self, netlist: &Netlist) -> String {
        let kind = if self.slow_to_rise { "STR" } else { "STF" };
        format!("{}/{kind}", netlist.node_name(self.node))
    }
}

/// Enumerates both transition faults on every node.
///
/// # Example
///
/// ```
/// use dlp_circuit::generators;
/// use dlp_sim::transition;
///
/// let c17 = generators::c17();
/// assert_eq!(transition::enumerate(&c17).len(), 22); // 11 nodes * 2
/// ```
pub fn enumerate(netlist: &Netlist) -> Vec<TransitionFault> {
    netlist
        .node_ids()
        .flat_map(|node| {
            [
                TransitionFault {
                    node,
                    slow_to_rise: true,
                },
                TransitionFault {
                    node,
                    slow_to_rise: false,
                },
            ]
        })
        .collect()
}

/// Simulates transition faults against an *ordered* vector sequence
/// (order matters: detection is two-pattern). Returns first detections;
/// vector 0 can never detect (no predecessor).
///
/// Each block runs on the [`ppsfp`](crate::ppsfp) block kernel: a
/// transition fault is the stem stuck-at fault of its old value, and
/// its detection word is that fault's word ANDed with the block's
/// launch word.
///
/// # Example
///
/// ```
/// use dlp_circuit::generators;
/// use dlp_sim::{detection, transition};
///
/// let c17 = generators::c17();
/// let faults = transition::enumerate(&c17);
/// let vectors = detection::random_vectors(5, 256, 3);
/// let record = transition::simulate(&c17, &faults, &vectors)?;
/// // Random sequences two-pattern-test most of tiny c17.
/// assert!(record.coverage_after(256) > 0.8);
/// # Ok::<(), dlp_sim::SimError>(())
/// ```
///
/// # Errors
///
/// [`SimError::VectorWidthMismatch`] if a vector's width differs from the
/// netlist's input count; [`SimError::FaultOutOfRange`] if a fault's
/// node is not in the netlist.
pub fn simulate(
    netlist: &Netlist,
    faults: &[TransitionFault],
    vectors: &[Vec<bool>],
) -> Result<DetectionRecord, SimError> {
    // The node holds its *old* value in the launch cycle: slow-to-rise
    // is stuck-at-0 there, slow-to-fall stuck-at-1.
    let stuck: Vec<StuckAtFault> = faults
        .iter()
        .map(|f| StuckAtFault {
            site: FaultSite::Stem(f.node),
            stuck_at_one: !f.slow_to_rise,
        })
        .collect();
    let mut setup = SimSetup::new(netlist, &stuck, vectors, WINDOW_FAULTS)?;
    let mut first_detect: Vec<Option<usize>> = vec![None; faults.len()];
    if vectors.len() < 2 {
        return Ok(DetectionRecord::new(first_detect, vectors.len()));
    }
    let mut live: Vec<usize> = (0..faults.len()).collect();
    let mut launch = vec![0u64; faults.len()];
    // Per node, the value under the previous block's last pattern, so
    // transitions across block boundaries are seen.
    let mut carry: Vec<u64> = vec![0; netlist.node_count()];

    for (block_idx, block) in vectors.chunks(64).enumerate() {
        if live.is_empty() {
            break;
        }
        let good = setup.good_block(block);
        // Bit p of a node's `prev` word is its value at pattern p-1;
        // the run's very first vector has no predecessor.
        let valid_mask = if block_idx == 0 {
            good.used_mask & !1
        } else {
            good.used_mask
        };
        // Launch condition: node at old value before, new value now.
        let launched: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&fi| {
                let idx = faults[fi].node.index();
                let now = good.words[idx];
                let prev = (now << 1) | carry[idx];
                let edge = if faults[fi].slow_to_rise {
                    !prev & now
                } else {
                    prev & !now
                };
                launch[fi] = edge & valid_mask;
                launch[fi] != 0
            })
            .collect();
        let obs = Recorder::noop();
        setup.detection_words(&good, &launched, 1, obs, "sim.transition", |fi, word| {
            let hit = word & launch[fi];
            if hit != 0 {
                first_detect[fi] = Some(block_idx * 64 + hit.trailing_zeros() as usize);
            }
        });
        live.retain(|&fi| first_detect[fi].is_none());
        for (c, &w) in carry.iter_mut().zip(&good.words) {
            *c = (w >> (block.len() - 1)) & 1;
        }
    }

    Ok(DetectionRecord::new(first_detect, vectors.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::random_vectors;
    use dlp_circuit::{generators, GateKind};

    /// Naive two-pattern reference: per pair (k-1, k), compute good values
    /// and check launch + propagation with a full faulty evaluation.
    fn naive_first_detect(
        netlist: &Netlist,
        fault: &TransitionFault,
        vectors: &[Vec<bool>],
    ) -> Option<usize> {
        let eval = |v: &Vec<bool>| -> Vec<u64> {
            let words: Vec<u64> = v.iter().map(|&b| if b { 1 } else { 0 }).collect();
            netlist.eval_words_all(&words)
        };
        for k in 1..vectors.len() {
            let before = eval(&vectors[k - 1]);
            let after = eval(&vectors[k]);
            let idx = fault.node.index();
            let launched = if fault.slow_to_rise {
                before[idx] & 1 == 0 && after[idx] & 1 == 1
            } else {
                before[idx] & 1 == 1 && after[idx] & 1 == 0
            };
            if !launched {
                continue;
            }
            // Faulty propagation: node forced to the old value.
            let forced = if fault.slow_to_rise { 0u64 } else { 1u64 };
            let words: Vec<u64> = vectors[k].iter().map(|&b| if b { 1 } else { 0 }).collect();
            let mut faulty = vec![0u64; netlist.node_count()];
            for id in netlist.node_ids() {
                let kind = netlist.kind(id);
                let mut v = if kind == GateKind::Input {
                    words[netlist.inputs().iter().position(|&x| x == id).unwrap()]
                } else {
                    let fan: Vec<u64> = netlist
                        .fanin(id)
                        .iter()
                        .map(|f| faulty[f.index()])
                        .collect();
                    kind.eval_words(&fan)
                };
                if id == fault.node {
                    v = forced;
                }
                faulty[id.index()] = v;
            }
            if netlist
                .outputs()
                .iter()
                .any(|o| (faulty[o.index()] ^ after[o.index()]) & 1 != 0)
            {
                return Some(k);
            }
        }
        None
    }

    #[test]
    fn agrees_with_naive_on_c17() {
        let c17 = generators::c17();
        let faults = enumerate(&c17);
        let vectors = random_vectors(5, 150, 21);
        let record = simulate(&c17, &faults, &vectors).unwrap();
        for (fi, fault) in faults.iter().enumerate() {
            let expect = naive_first_detect(&c17, fault, &vectors);
            assert_eq!(
                record.first_detect()[fi],
                expect,
                "fault {}",
                fault.describe(&c17)
            );
        }
    }

    #[test]
    fn agrees_with_naive_on_adder_sampled() {
        let nl = generators::ripple_adder(3);
        let faults = enumerate(&nl);
        let vectors = random_vectors(7, 130, 5);
        let record = simulate(&nl, &faults, &vectors).unwrap();
        for (fi, fault) in faults.iter().enumerate().step_by(3) {
            let expect = naive_first_detect(&nl, fault, &vectors);
            assert_eq!(record.first_detect()[fi], expect, "{}", fault.describe(&nl));
        }
    }

    #[test]
    fn agrees_with_naive_at_block_boundaries() {
        for nl in [generators::c17(), generators::ripple_adder(3)] {
            let faults = enumerate(&nl);
            for n in [1, 2, 63, 64, 65] {
                let vectors = random_vectors(nl.inputs().len(), n, 40 + n as u64);
                let record = simulate(&nl, &faults, &vectors).unwrap();
                for (fi, fault) in faults.iter().enumerate() {
                    let expect = naive_first_detect(&nl, fault, &vectors);
                    assert_eq!(
                        record.first_detect()[fi],
                        expect,
                        "{} at {n} vectors: {}",
                        nl.name(),
                        fault.describe(&nl)
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_nodes_are_typed_errors() {
        let c17 = generators::c17();
        let beyond = TransitionFault {
            node: NodeId::from_index(c17.node_count()),
            slow_to_rise: true,
        };
        assert_eq!(
            simulate(&c17, &[beyond], &random_vectors(5, 8, 1)),
            Err(SimError::FaultOutOfRange {
                fault: 0,
                what: "node"
            })
        );
    }

    #[test]
    fn first_vector_never_detects() {
        let c17 = generators::c17();
        let faults = enumerate(&c17);
        let vectors = random_vectors(5, 64, 2);
        let record = simulate(&c17, &faults, &vectors).unwrap();
        for d in record.first_detect().iter().flatten() {
            assert!(*d >= 1, "two-pattern tests need a predecessor");
        }
    }

    #[test]
    fn needs_both_edges() {
        // A constant input sequence can never launch a transition.
        let c17 = generators::c17();
        let faults = enumerate(&c17);
        let vectors = vec![vec![true, false, true, false, true]; 20];
        let record = simulate(&c17, &faults, &vectors).unwrap();
        assert_eq!(record.detected_count(), 0);
    }

    #[test]
    fn transition_coverage_lags_stuck_at_coverage() {
        // The same sequence covers fewer transition faults than stuck-at
        // faults (two-pattern conditions are strictly harder).
        let nl = generators::c432_class();
        let vectors = random_vectors(36, 256, 13);
        let tf = enumerate(&nl);
        let t_rec = simulate(&nl, &tf, &vectors).unwrap();
        let sa = crate::stuck_at::enumerate(&nl);
        let sa_rec = crate::ppsfp::simulate_resumable(
            &nl,
            sa.faults(),
            &vectors,
            dlp_core::par::ThreadCount::from_env().unwrap(),
            dlp_core::obs::Recorder::noop(),
            &dlp_core::RunBudget::unlimited(),
            None,
        )
        .unwrap();
        assert!(
            t_rec.coverage_after(256) < sa_rec.coverage_after(256),
            "transition {} vs stuck-at {}",
            t_rec.coverage_after(256),
            sa_rec.coverage_after(256)
        );
    }
}
