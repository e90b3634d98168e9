//! Seeded random combinational logic, for scaling and robustness tests.

use crate::{GateKind, Netlist, NetlistError};

/// Shape parameters for [`random_logic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomLogicConfig {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of gates to generate.
    pub gates: usize,
    /// Number of primary outputs (drawn from the last gates).
    pub outputs: usize,
    /// RNG seed; identical seeds give identical netlists.
    pub seed: u64,
}

impl Default for RandomLogicConfig {
    fn default() -> Self {
        RandomLogicConfig {
            inputs: 16,
            gates: 100,
            outputs: 8,
            seed: 42,
        }
    }
}

/// Generates a random combinational netlist.
///
/// Non-inverter gates draw an arity uniformly from 2–4 — independently of
/// the gate kind — and take their fanins from a sliding recency window
/// (biasing toward recent signals keeps depth and fanout realistic instead
/// of degenerating into a flat OR of inputs). Every gate gets exactly its
/// drawn arity in distinct signals; when the recency window cannot supply
/// them the whole signal pool is searched, and a pool that is *still* too
/// small is a typed error rather than a silently narrower gate. The
/// generator is deterministic in the seed.
///
/// # Errors
///
/// [`NetlistError::BadShape`] if `inputs == 0`, `gates == 0`, or `outputs`
/// exceeds `gates`; also when the signal pool cannot supply a drawn arity
/// in distinct signals (possible only for `inputs < 4`, where the first
/// gates may draw a wider fanin than the pool holds — such shapes build or
/// fail deterministically per seed).
///
/// # Example
///
/// ```
/// use dlp_circuit::generators::{random_logic, RandomLogicConfig};
///
/// # fn main() -> Result<(), dlp_circuit::NetlistError> {
/// let a = random_logic(&RandomLogicConfig::default())?;
/// let b = random_logic(&RandomLogicConfig::default())?;
/// assert_eq!(dlp_circuit::bench::write(&a), dlp_circuit::bench::write(&b));
/// # Ok(())
/// # }
/// ```
pub fn random_logic(config: &RandomLogicConfig) -> Result<Netlist, NetlistError> {
    if config.inputs == 0 {
        return Err(NetlistError::BadShape("need at least one input"));
    }
    if config.gates == 0 {
        return Err(NetlistError::BadShape("need at least one gate"));
    }
    if config.outputs > config.gates {
        return Err(NetlistError::BadShape("more outputs than gates"));
    }

    let mut state = config.seed | 1;
    let mut next = move || {
        // xorshift64*; deterministic and dependency-free.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };

    let mut nl = Netlist::new(format!("rand_{}_{}", config.gates, config.seed));
    let mut pool = Vec::with_capacity(config.inputs);
    for i in 0..config.inputs {
        pool.push(nl.add_input(format!("i{i}"))?);
    }

    const KINDS: [GateKind; 8] = [
        GateKind::Nand,
        GateKind::Nor,
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Nand,
    ];
    for g in 0..config.gates {
        let r = next();
        let kind = KINDS[(r % 8) as usize];
        // Arity from bits 8.. of the draw — independent of the kind bits
        // 0..3. (A shift-precedence typo, `r >> (8 % 3)`, once sourced the
        // arity from bits 2..4 of the same word, correlating it with kind.)
        let arity = if matches!(kind, GateKind::Not) {
            1
        } else {
            2 + ((r >> 8) % 3) as usize
        };
        // Recency window: last 3*inputs signals.
        let window = pool.len().min(3 * config.inputs);
        let base = pool.len() - window;
        let mut fanin = Vec::with_capacity(arity);
        let mut attempts = 0;
        while fanin.len() < arity && attempts < 64 {
            let pick = pool[base + (next() as usize % window)];
            attempts += 1;
            if !fanin.contains(&pick) {
                fanin.push(pick);
            }
        }
        // Window exhausted of distinct signals (tiny configs): walk the
        // whole pool, newest first, for signals not drawn yet.
        for &pick in pool.iter().rev() {
            if fanin.len() == arity {
                break;
            }
            if !fanin.contains(&pick) {
                fanin.push(pick);
            }
        }
        if fanin.len() < arity {
            // The pool itself has fewer distinct signals than the drawn
            // arity — shrinking the gate here would silently violate the
            // declared-arity contract the property tests enforce.
            return Err(NetlistError::BadShape(
                "signal pool cannot supply the drawn gate arity",
            ));
        }
        let id = nl.add_gate(format!("g{g}"), kind, fanin)?;
        pool.push(id);
    }
    for k in 0..config.outputs {
        nl.mark_output(pool[pool.len() - 1 - k]);
    }
    nl.freeze();
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = RandomLogicConfig {
            inputs: 8,
            gates: 50,
            outputs: 4,
            seed: 7,
        };
        let a = crate::bench::write(&random_logic(&cfg).unwrap());
        let b = crate::bench::write(&random_logic(&cfg).unwrap());
        assert_eq!(a, b);
        let c = crate::bench::write(&random_logic(&RandomLogicConfig { seed: 8, ..cfg }).unwrap());
        assert_ne!(a, c);
    }

    #[test]
    fn respects_shape() {
        let cfg = RandomLogicConfig {
            inputs: 12,
            gates: 200,
            outputs: 6,
            seed: 99,
        };
        let nl = random_logic(&cfg).unwrap();
        assert_eq!(nl.inputs().len(), 12);
        assert_eq!(nl.gate_count(), 200);
        assert_eq!(nl.outputs().len(), 6);
        assert!(nl.depth() > 3, "recency window should create depth");
    }

    #[test]
    fn tiny_configs_work() {
        // Four inputs supply any drawn arity from the first gate onward,
        // so this shape builds for every seed.
        let nl = random_logic(&RandomLogicConfig {
            inputs: 4,
            gates: 3,
            outputs: 1,
            seed: 1,
        })
        .unwrap();
        assert_eq!(nl.gate_count(), 3);
    }

    #[test]
    fn starved_pool_is_a_typed_error_not_a_narrow_gate() {
        // One input cannot supply a 2..4-fanin gate; some seed in a short
        // sweep must hit a non-inverter first draw and surface the typed
        // error (never a gate with fewer fanins than drawn).
        let mut starved = 0;
        for seed in 0..16u64 {
            match random_logic(&RandomLogicConfig {
                inputs: 1,
                gates: 3,
                outputs: 1,
                seed,
            }) {
                Ok(nl) => {
                    for id in nl.node_ids() {
                        assert!(nl.fanin(id).len() <= 1, "1-input pool grew a wide gate");
                    }
                }
                Err(NetlistError::BadShape(msg)) => {
                    assert!(msg.contains("arity"), "{msg}");
                    starved += 1;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(starved > 0, "sweep never exercised the starved-pool error");
    }

    #[test]
    fn never_panics_and_validates_across_shapes() {
        // Deterministic sweep over the shape space the old property test
        // sampled: every config with >= 4 inputs must build, validate, and
        // evaluate; narrower ones either build or fail with the typed
        // starved-pool error — never panic.
        for seed in 0..40u64 {
            let inputs = 1 + (seed as usize * 7) % 19;
            let gates = 1 + (seed as usize * 13) % 119;
            let outputs = gates.min(4);
            let nl = match random_logic(&RandomLogicConfig {
                inputs,
                gates,
                outputs,
                seed,
            }) {
                Ok(nl) => nl,
                Err(NetlistError::BadShape(_)) if inputs < 4 => continue,
                Err(other) => panic!("unexpected error {other:?}"),
            };
            assert!(nl.validate().is_ok());
            assert_eq!(nl.gate_count(), gates);
            // Evaluation must not panic.
            let words = vec![0u64; inputs];
            let out = nl.eval_words(&words);
            assert_eq!(out.len(), outputs);
        }
    }

    #[test]
    fn degenerate_shapes_are_typed_errors() {
        let base = RandomLogicConfig::default();
        for bad in [
            RandomLogicConfig {
                inputs: 0,
                ..base.clone()
            },
            RandomLogicConfig {
                gates: 0,
                ..base.clone()
            },
            RandomLogicConfig {
                outputs: base.gates + 1,
                ..base.clone()
            },
        ] {
            assert!(matches!(random_logic(&bad), Err(NetlistError::BadShape(_))));
        }
    }
}
