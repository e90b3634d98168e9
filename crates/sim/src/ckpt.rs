//! Checkpoint state for interruptible PPSFP simulation.
//!
//! A PPSFP run advances in 64-pattern blocks, and every fault's
//! detection word is a pure function of `(fault, block)`, so the state
//! after any block boundary is exactly "the detection indices collected
//! so far plus the next block to simulate". [`SimCheckpoint`] captures
//! that state; resuming from it reproduces the uninterrupted run —
//! results *and* deterministic trace content — bit-identically at any
//! `DLP_THREADS`.
//!
//! On disk a checkpoint is a sealed [`dlp_core::ckpt`] envelope of kind
//! `sim.ppsfp` ([`Checkpoint::KIND`]) whose key digests the netlist
//! structure, the fault list, the vector set, and the detection cap —
//! so a checkpoint can never be resumed against different inputs.

use dlp_circuit::Netlist;
use dlp_core::ckpt::{Checkpoint, CkptError, KeyHasher};
use dlp_core::obs::Json;

use crate::stuck_at::{FaultSite, StuckAtFault};

/// Digests a netlist's structural identity into `h`: name, per-node
/// gate kind and fanin wiring, primary inputs, and outputs. Shared by
/// every checkpoint key that binds to a circuit.
pub fn hash_netlist(h: &mut KeyHasher, netlist: &Netlist) {
    h.write_bytes(netlist.name().as_bytes());
    h.write_usize(netlist.node_count());
    for id in netlist.node_ids() {
        h.write_bytes(format!("{:?}", netlist.kind(id)).as_bytes());
        h.write_usize(netlist.fanin(id).len());
        for f in netlist.fanin(id) {
            h.write_usize(f.index());
        }
    }
    h.write_usize(netlist.inputs().len());
    for i in netlist.inputs() {
        h.write_usize(i.index());
    }
    h.write_usize(netlist.outputs().len());
    for o in netlist.outputs() {
        h.write_usize(o.index());
    }
}

/// Digests a stuck-at fault list into `h` (site, pin, stuck value — in
/// list order, which detection indices refer to).
pub fn hash_faults(h: &mut KeyHasher, faults: &[StuckAtFault]) {
    h.write_usize(faults.len());
    for f in faults {
        match f.site {
            FaultSite::Stem(node) => {
                h.write_bool(false);
                h.write_usize(node.index());
                h.write_usize(0);
            }
            FaultSite::Branch { gate, pin } => {
                h.write_bool(true);
                h.write_usize(gate.index());
                h.write_usize(pin);
            }
        }
        h.write_bool(f.stuck_at_one);
    }
}

/// Resume state of an interrupted PPSFP run at a block boundary.
#[derive(Clone, PartialEq, Eq)]
pub struct SimCheckpoint {
    /// The detection cap the run was started with (`1` = first-detect).
    pub n_cap: usize,
    /// The first 64-pattern block that has *not* been simulated.
    pub next_block: usize,
    /// The run's total vector count (shape check on resume).
    pub vectors_len: usize,
    /// Per fault, the ascending vector indices of its detections so
    /// far (at most `n_cap` each), all within the completed blocks.
    pub detections: Vec<Vec<usize>>,
}

impl std::fmt::Debug for SimCheckpoint {
    // The per-fault detection lists scale with faults × n_cap; a derived
    // Debug would dump them all into any error message that embeds the
    // checkpoint, so only their aggregate size is shown.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCheckpoint")
            .field("n_cap", &self.n_cap)
            .field("next_block", &self.next_block)
            .field("vectors_len", &self.vectors_len)
            .field("faults", &self.detections.len())
            .field(
                "recorded_detections",
                &self.detections.iter().map(Vec::len).sum::<usize>(),
            )
            .finish()
    }
}

impl SimCheckpoint {
    /// The checkpoint key binding the run's inputs: netlist structure
    /// (name, gate kinds, fanin wiring, outputs), fault list, vector
    /// set, and detection cap.
    pub fn key(
        netlist: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
        n_cap: usize,
    ) -> u64 {
        let mut h = KeyHasher::new();
        hash_netlist(&mut h, netlist);
        hash_faults(&mut h, faults);
        h.write_usize(vectors.len());
        for v in vectors {
            h.write_usize(v.len());
            for &bit in v {
                h.write_bool(bit);
            }
        }
        h.write_usize(n_cap);
        h.finish()
    }
}

/// Both the first-detect and the counted mode write `sim.ppsfp`:
/// first-detect is the counted mode with `n_cap = 1`.
impl Checkpoint for SimCheckpoint {
    const KIND: &'static str = "sim.ppsfp";

    /// `{"n_cap":…,"next_block":…,"vectors_len":…,"detections":[[…],…]}`.
    fn to_payload(&self) -> Json {
        let detections = self
            .detections
            .iter()
            .map(|d| Json::Array(d.iter().map(|&i| Json::Number(i as f64)).collect()))
            .collect();
        Json::object([
            ("n_cap", Json::Number(self.n_cap as f64)),
            ("next_block", Json::Number(self.next_block as f64)),
            ("vectors_len", Json::Number(self.vectors_len as f64)),
            ("detections", Json::Array(detections)),
        ])
    }

    /// Rejects missing fields and non-integer indices.
    fn from_payload(payload: &Json) -> Result<SimCheckpoint, CkptError> {
        let field = |name, what| {
            payload
                .get(name)
                .and_then(Json::as_uint)
                .ok_or(CkptError::Malformed { what })
        };
        let rows =
            payload
                .get("detections")
                .and_then(Json::as_array)
                .ok_or(CkptError::Malformed {
                    what: "missing detections array",
                })?;
        let detections = rows
            .iter()
            .map(|row| {
                row.as_array()
                    .and_then(|r| r.iter().map(Json::as_uint).collect())
                    .ok_or(CkptError::Malformed {
                        what: "detection row is not an array of non-negative integers",
                    })
            })
            .collect::<Result<_, _>>()?;
        Ok(SimCheckpoint {
            n_cap: field("n_cap", "missing or non-integer n_cap")?,
            next_block: field("next_block", "missing or non-integer next_block")?,
            vectors_len: field("vectors_len", "missing or non-integer vectors_len")?,
            detections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;

    fn sample() -> SimCheckpoint {
        SimCheckpoint {
            n_cap: 3,
            next_block: 2,
            vectors_len: 100,
            detections: vec![vec![0, 5, 70], vec![], vec![64]],
        }
    }

    #[test]
    fn payload_round_trips() {
        let ckpt = sample();
        let restored = SimCheckpoint::from_payload(&ckpt.to_payload()).expect("round-trips");
        assert_eq!(restored, ckpt);
    }

    #[test]
    fn payload_rejects_malformed_shapes() {
        use dlp_core::obs::Json;

        for bad in [
            "{}",
            "{\"n_cap\":1.0,\"next_block\":0.0,\"vectors_len\":8.0}",
            "{\"n_cap\":1.5,\"next_block\":0.0,\"vectors_len\":8.0,\"detections\":[]}",
            "{\"n_cap\":1.0,\"next_block\":0.0,\"vectors_len\":8.0,\"detections\":3.0}",
            "{\"n_cap\":1.0,\"next_block\":0.0,\"vectors_len\":8.0,\"detections\":[[-1.0]]}",
            "{\"n_cap\":1.0,\"next_block\":0.0,\"vectors_len\":8.0,\"detections\":[[\"x\"]]}",
        ] {
            let payload = Json::parse(bad).expect("test fixture parses");
            assert!(
                matches!(
                    SimCheckpoint::from_payload(&payload),
                    Err(CkptError::Malformed { .. })
                ),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn key_distinguishes_every_input_dimension() {
        let c17 = generators::c17();
        let faults = crate::stuck_at::enumerate(&c17);
        let faults = faults.faults();
        let vectors = crate::detection::random_vectors(5, 16, 1);
        let base = SimCheckpoint::key(&c17, faults, &vectors, 2);
        // Different cap.
        assert_ne!(base, SimCheckpoint::key(&c17, faults, &vectors, 3));
        // Different vectors (one bit flipped).
        let mut flipped = vectors.clone();
        flipped[7][2] = !flipped[7][2];
        assert_ne!(base, SimCheckpoint::key(&c17, faults, &flipped, 2));
        // Different fault list (one fault dropped).
        assert_ne!(base, SimCheckpoint::key(&c17, &faults[1..], &vectors, 2));
        // Different netlist.
        let other = generators::c432_class();
        let wide = crate::detection::random_vectors(other.inputs().len(), 16, 1);
        assert_ne!(
            SimCheckpoint::key(&other, faults, &wide, 2),
            SimCheckpoint::key(&c17, faults, &vectors, 2)
        );
        // Deterministic.
        assert_eq!(base, SimCheckpoint::key(&c17, faults, &vectors, 2));
    }
}
