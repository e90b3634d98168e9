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
//! simulator reuse the parallel-pattern cone propagation of
//! [`ppsfp`](crate::ppsfp).

use dlp_circuit::{GateKind, Netlist, NodeId};

use crate::detection::DetectionRecord;
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
/// # Panics
///
/// Panics if a vector's width differs from the netlist's input count.
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
/// netlist's input count.
pub fn simulate(
    netlist: &Netlist,
    faults: &[TransitionFault],
    vectors: &[Vec<bool>],
) -> Result<DetectionRecord, SimError> {
    let n_in = netlist.inputs().len();
    crate::error::check_widths(vectors, n_in)?;
    let mut first_detect: Vec<Option<usize>> = vec![None; faults.len()];
    if vectors.len() < 2 {
        return Ok(DetectionRecord::new(first_detect, vectors.len()));
    }
    let mut live: Vec<usize> = (0..faults.len()).collect();

    let mut cones: std::collections::HashMap<NodeId, Vec<NodeId>> =
        std::collections::HashMap::new();
    for f in faults {
        cones
            .entry(f.node)
            .or_insert_with(|| netlist.fanout_cone(f.node));
    }

    // Carry the last pattern of the previous block so transitions across
    // block boundaries are seen.
    let mut prev_last_values: Option<Vec<u64>> = None;
    let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);

    for (block_idx, block) in vectors.chunks(64).enumerate() {
        if live.is_empty() {
            break;
        }
        let mut input_words = vec![0u64; n_in];
        for (p, v) in block.iter().enumerate() {
            for (i, &bit) in v.iter().enumerate() {
                if bit {
                    input_words[i] |= 1 << p;
                }
            }
        }
        let used_mask: u64 = if block.len() == 64 {
            u64::MAX
        } else {
            (1u64 << block.len()) - 1
        };
        let good = netlist.eval_words_all(&input_words);

        // prev[n] bit p = value of node n at pattern p-1 (pattern 0 takes
        // the last bit of the previous block; invalid for the very first
        // vector of the run).
        let valid_mask = if block_idx == 0 {
            used_mask & !1
        } else {
            used_mask
        };
        let prev: Vec<u64> = good
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let carry = match &prev_last_values {
                    Some(p) => (p[i] >> 63) & 1,
                    None => 0,
                };
                (w << 1) | carry
            })
            .collect();

        let mut faulty = good.clone();
        live.retain(|&fi| {
            let fault = &faults[fi];
            let idx = fault.node.index();
            // Launch condition: node at old value before, new value now.
            let launch = if fault.slow_to_rise {
                !prev[idx] & good[idx]
            } else {
                prev[idx] & !good[idx]
            } & valid_mask;
            if launch == 0 {
                return true;
            }
            // Propagation: the node holds its *old* value this cycle —
            // exactly a stuck-at(old) for these patterns.
            let forced = if fault.slow_to_rise { 0u64 } else { u64::MAX };
            let cone = &cones[&fault.node];
            let mut diff_at_outputs = 0u64;
            for &node in cone {
                let kind = netlist.kind(node);
                let value = if node == fault.node {
                    forced
                } else if kind == GateKind::Input {
                    good[node.index()]
                } else {
                    fanin_buf.clear();
                    fanin_buf.extend(netlist.fanin(node).iter().map(|f| faulty[f.index()]));
                    kind.eval_words(&fanin_buf)
                };
                faulty[node.index()] = value;
                if netlist.is_output(node) {
                    diff_at_outputs |= (value ^ good[node.index()]) & launch;
                }
            }
            for &node in cone {
                faulty[node.index()] = good[node.index()];
            }
            if diff_at_outputs != 0 {
                let bit = diff_at_outputs.trailing_zeros() as usize;
                first_detect[fi] = Some(block_idx * 64 + bit);
                false
            } else {
                true
            }
        });
        // Park the block's last pattern in bit 63 to carry into the next
        // block's pattern 0.
        prev_last_values = Some(
            good.iter()
                .map(|&w| (w >> (block.len() - 1)) << 63)
                .collect(),
        );
    }

    Ok(DetectionRecord::new(first_detect, vectors.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::random_vectors;
    use dlp_circuit::generators;

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
