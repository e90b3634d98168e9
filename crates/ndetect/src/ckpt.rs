//! Checkpoint state for interruptible n-detect schedule construction.
//!
//! The builder satisfies targets `1..=max_n` in order and only ever
//! appends vectors, so the state at a target boundary is exactly the
//! builder's working set: the chosen vectors, the per-target prefix
//! lengths so far, the bookkeeping counts, and the pool/hopeless masks.
//! [`NDetectCheckpoint`] captures that state; resuming reproduces the
//! uninterrupted schedule bit-identically (the builder is serial and
//! deterministic, so this holds at every `DLP_THREADS`).
//!
//! On disk a checkpoint is a sealed [`dlp_core::ckpt`] envelope of kind
//! `ndetect.schedule` ([`Checkpoint::KIND`]) whose key digests the
//! netlist, the fault list, the maximum target, and every
//! [`crate::NDetectConfig`] knob.

use dlp_circuit::Netlist;
use dlp_core::ckpt::{Checkpoint, CkptError, KeyHasher};
use dlp_core::obs::Json;
use dlp_sim::ckpt::{hash_faults, hash_netlist};
use dlp_sim::stuck_at::StuckAtFault;

use crate::NDetectConfig;

/// Resume state of an interrupted schedule build at a target boundary.
#[derive(Clone, PartialEq, Eq)]
pub struct NDetectCheckpoint {
    /// The first target `n` that has *not* been satisfied.
    pub next_target: usize,
    /// The vectors chosen for targets `1..next_target`.
    pub vectors: Vec<Vec<bool>>,
    /// Prefix lengths for the completed targets (`next_target - 1` of them).
    pub len_at: Vec<usize>,
    /// The builder's per-fault bookkeeping counts (deliberate undercount:
    /// pool credits plus top-up simulation credits).
    pub counts: Vec<usize>,
    /// Which pool vectors have been selected.
    pub selected: Vec<bool>,
    /// How many of `vectors` came from the pool phase.
    pub pool_selected: usize,
    /// Faults proven redundant, aborted, or unconfirmed so far.
    pub hopeless: Vec<bool>,
}

impl std::fmt::Debug for NDetectCheckpoint {
    // The vector set and per-fault masks scale with the workload; a
    // derived Debug would dump them all into any error message that
    // embeds the checkpoint, so only aggregate sizes are shown.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NDetectCheckpoint")
            .field("next_target", &self.next_target)
            .field("vectors", &self.vectors.len())
            .field("len_at", &self.len_at)
            .field("faults", &self.counts.len())
            .field("pool_selected", &self.pool_selected)
            .field("hopeless", &self.hopeless.iter().filter(|&&h| h).count())
            .finish()
    }
}

fn bits_to_string(bits: &[bool]) -> Json {
    Json::String(bits.iter().map(|&b| if b { '1' } else { '0' }).collect())
}

fn string_to_bits(v: &Json, what: &'static str) -> Result<Vec<bool>, CkptError> {
    let s = v.as_str().ok_or(CkptError::Malformed { what })?;
    s.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            _ => Err(CkptError::Malformed { what }),
        })
        .collect()
}

impl NDetectCheckpoint {
    /// The checkpoint key binding the build's inputs: netlist, fault
    /// list, maximum target, and every configuration knob.
    pub fn key(
        netlist: &Netlist,
        faults: &[StuckAtFault],
        max_n: usize,
        config: &NDetectConfig,
    ) -> u64 {
        let mut h = KeyHasher::new();
        hash_netlist(&mut h, netlist);
        hash_faults(&mut h, faults);
        h.write_usize(max_n);
        h.write_usize(config.pool_size);
        h.write_u64(config.pool_seed);
        h.write_usize(config.backtrack_limit);
        h.write_u64(config.fill_seed);
        h.finish()
    }
}

impl Checkpoint for NDetectCheckpoint {
    const KIND: &'static str = "ndetect.schedule";

    /// Vectors and masks are encoded as `0`/`1` bitstrings to keep
    /// multi-thousand-bit state compact.
    fn to_payload(&self) -> Json {
        let uints =
            |xs: &[usize]| Json::Array(xs.iter().map(|&x| Json::Number(x as f64)).collect());
        Json::object([
            ("next_target", Json::Number(self.next_target as f64)),
            (
                "vectors",
                Json::Array(self.vectors.iter().map(|v| bits_to_string(v)).collect()),
            ),
            ("len_at", uints(&self.len_at)),
            ("counts", uints(&self.counts)),
            ("selected", bits_to_string(&self.selected)),
            ("pool_selected", Json::Number(self.pool_selected as f64)),
            ("hopeless", bits_to_string(&self.hopeless)),
        ])
    }

    fn from_payload(payload: &Json) -> Result<NDetectCheckpoint, CkptError> {
        let uint = |name, what| {
            payload
                .get(name)
                .and_then(Json::as_uint)
                .ok_or(CkptError::Malformed { what })
        };
        let uints = |name, what| {
            payload
                .get(name)
                .and_then(Json::as_array)
                .and_then(|a| a.iter().map(Json::as_uint).collect())
                .ok_or(CkptError::Malformed { what })
        };
        let next_target = uint("next_target", "missing or non-integer next_target")?;
        let pool_selected = uint("pool_selected", "missing or non-integer pool_selected")?;
        let vectors = payload
            .get("vectors")
            .and_then(Json::as_array)
            .ok_or(CkptError::Malformed {
                what: "missing vectors array",
            })?
            .iter()
            .map(|v| string_to_bits(v, "vector is not a 0/1 bitstring"))
            .collect::<Result<Vec<_>, _>>()?;
        let len_at = uints("len_at", "missing or malformed len_at")?;
        let counts = uints("counts", "missing or malformed counts")?;
        let selected = string_to_bits(
            payload.get("selected").ok_or(CkptError::Malformed {
                what: "missing selected mask",
            })?,
            "selected mask is not a 0/1 bitstring",
        )?;
        let hopeless = string_to_bits(
            payload.get("hopeless").ok_or(CkptError::Malformed {
                what: "missing hopeless mask",
            })?,
            "hopeless mask is not a 0/1 bitstring",
        )?;
        Ok(NDetectCheckpoint {
            next_target,
            vectors,
            len_at,
            counts,
            selected,
            pool_selected,
            hopeless,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;
    use dlp_sim::stuck_at;

    fn sample() -> NDetectCheckpoint {
        NDetectCheckpoint {
            next_target: 2,
            vectors: vec![vec![true, false, true], vec![false, false, true]],
            len_at: vec![2],
            counts: vec![1, 0, 2],
            selected: vec![true, false, false, true],
            pool_selected: 2,
            hopeless: vec![false, true, false],
        }
    }

    #[test]
    fn payload_round_trips() {
        let ckpt = sample();
        let restored = NDetectCheckpoint::from_payload(&ckpt.to_payload()).expect("round-trips");
        assert_eq!(restored, ckpt);
    }

    #[test]
    fn payload_rejects_malformed_shapes() {
        for bad in [
            "{}",
            "{\"next_target\":1.0,\"vectors\":[],\"len_at\":[],\"counts\":[],\
             \"selected\":\"\",\"pool_selected\":0.0}",
            "{\"next_target\":1.0,\"vectors\":[\"012\"],\"len_at\":[],\"counts\":[],\
             \"selected\":\"\",\"pool_selected\":0.0,\"hopeless\":\"\"}",
            "{\"next_target\":1.0,\"vectors\":[],\"len_at\":[1.5],\"counts\":[],\
             \"selected\":\"\",\"pool_selected\":0.0,\"hopeless\":\"\"}",
            "{\"next_target\":1.0,\"vectors\":[],\"len_at\":[],\"counts\":[],\
             \"selected\":\"yes\",\"pool_selected\":0.0,\"hopeless\":\"\"}",
        ] {
            let payload = Json::parse(bad).expect("test fixture parses");
            assert!(
                matches!(
                    NDetectCheckpoint::from_payload(&payload),
                    Err(CkptError::Malformed { .. })
                ),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn key_binds_config_and_target() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17);
        let faults = faults.faults();
        let cfg = NDetectConfig::default();
        let base = NDetectCheckpoint::key(&c17, faults, 3, &cfg);
        assert_eq!(base, NDetectCheckpoint::key(&c17, faults, 3, &cfg));
        assert_ne!(base, NDetectCheckpoint::key(&c17, faults, 4, &cfg));
        let other = NDetectConfig {
            pool_seed: 2,
            ..cfg.clone()
        };
        assert_ne!(base, NDetectCheckpoint::key(&c17, faults, 3, &other));
        let smaller = NDetectConfig {
            pool_size: 7,
            ..cfg
        };
        assert_ne!(base, NDetectCheckpoint::key(&c17, faults, 3, &smaller));
    }
}
