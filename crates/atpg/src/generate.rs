//! The full test-generation pipeline: random phase, then deterministic
//! top-up — the vector recipe of the paper's experimental setup ("the
//! first vectors are random vectors, being the last vectors
//! deterministically generated").

use dlp_circuit::Netlist;
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::rng::Xorshift64Star;
use dlp_core::RunBudget;
use dlp_sim::ppsfp;
use dlp_sim::stuck_at::StuckAtFault;

use crate::podem::{Podem, PodemOutcome};
use crate::AtpgError;

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgConfig {
    /// Maximum random vectors to apply.
    pub random_budget: usize,
    /// Stop the random phase after this many consecutive vectors detect
    /// nothing new.
    pub random_stall: usize,
    /// PODEM backtrack limit per fault.
    pub backtrack_limit: usize,
    /// RNG seed for random vectors and don't-care fill.
    pub seed: u64,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            random_budget: 2048,
            random_stall: 256,
            backtrack_limit: 20_000,
            seed: 1,
        }
    }
}

/// Outcome of the pipeline.
#[derive(Debug, Clone)]
pub struct AtpgResult {
    /// The generated vector sequence (random prefix + deterministic tail).
    pub vectors: Vec<Vec<bool>>,
    /// How many of the vectors are from the random phase.
    pub random_prefix_len: usize,
    /// Faults no test was found for, with their PODEM verdicts.
    pub undetected: Vec<(StuckAtFault, PodemVerdict)>,
    /// Final stuck-at fault coverage over the given fault list.
    pub coverage: f64,
}

/// Why a fault ended the pipeline undetected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodemVerdict {
    /// Proven untestable.
    Redundant,
    /// Backtrack limit hit.
    Aborted,
    /// PODEM produced a cube but simulation did not confirm detection
    /// (should not happen; kept as a tripwire).
    Unconfirmed,
}

/// Runs the random-then-deterministic pipeline for `faults`.
///
/// The random phase applies vectors in blocks, dropping detected faults,
/// and stops at the budget or after [`AtpgConfig::random_stall`] barren
/// vectors. PODEM then targets each surviving fault; every generated cube
/// is appended (don't-cares randomly filled) and fault-simulated so one
/// deterministic vector can retire several faults.
///
/// # Errors
///
/// [`AtpgError::ForeignFault`] if a fault references a node outside
/// `netlist`; [`AtpgError::Sim`] if fault simulation rejects its inputs.
///
/// # Example
///
/// ```
/// use dlp_atpg::generate::{generate_tests, AtpgConfig};
/// use dlp_circuit::generators;
/// use dlp_sim::stuck_at;
///
/// let adder = generators::ripple_adder(4);
/// let faults = stuck_at::enumerate(&adder).collapse();
/// let result = generate_tests(&adder, faults.faults(), &AtpgConfig::default())?;
/// assert!(result.coverage > 0.99);
/// # Ok::<(), dlp_atpg::AtpgError>(())
/// ```
pub fn generate_tests(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    config: &AtpgConfig,
) -> Result<AtpgResult, AtpgError> {
    for (index, f) in faults.iter().enumerate() {
        let node = match f.site {
            dlp_sim::stuck_at::FaultSite::Stem(n) => n,
            dlp_sim::stuck_at::FaultSite::Branch { gate, .. } => gate,
        };
        if node.index() >= netlist.node_count() {
            return Err(AtpgError::ForeignFault { index });
        }
    }
    let mut rng = Xorshift64Star::new(config.seed);
    let n_in = netlist.inputs().len();
    // Detection records do not depend on the worker count, so the fault
    // simulation behind both phases uses every available core.
    let (threads, obs, budget) = (ThreadCount::Auto, Recorder::noop(), &RunBudget::unlimited());
    let simulate = |faults: &[StuckAtFault], vectors: &[Vec<bool>]| {
        ppsfp::simulate_resumable(netlist, faults, vectors, threads, obs, budget, None)
    };

    // Random phase, chunked so stalling can cut it short.
    let mut vectors: Vec<Vec<bool>> = Vec::new();
    let mut detected = vec![false; faults.len()];
    let chunk = 64usize;
    let mut barren = 0usize;
    while vectors.len() < config.random_budget && barren < config.random_stall {
        let block: Vec<Vec<bool>> = (0..chunk)
            .map(|_| (0..n_in).map(|_| rng.next_bool()).collect())
            .collect();
        // Simulate only the still-live faults against this block.
        let live: Vec<usize> = (0..faults.len()).filter(|&i| !detected[i]).collect();
        let live_faults: Vec<StuckAtFault> = live.iter().map(|&i| faults[i]).collect();
        let record = simulate(&live_faults, &block)?;
        let mut newly = 0;
        for (j, d) in record.first_detect().iter().enumerate() {
            if d.is_some() {
                detected[live[j]] = true;
                newly += 1;
            }
        }
        vectors.extend(block);
        if newly == 0 {
            barren += chunk;
        } else {
            barren = 0;
        }
    }
    let random_prefix_len = vectors.len();

    // Deterministic top-up.
    let engine = Podem::new(netlist, config.backtrack_limit);
    let mut undetected = Vec::new();
    let mut extra: Vec<Vec<bool>> = Vec::new();
    for i in 0..faults.len() {
        if detected[i] {
            continue;
        }
        match engine.generate(&faults[i]) {
            PodemOutcome::Test(cube) => {
                let vector: Vec<bool> = cube
                    .iter()
                    .map(|c| c.unwrap_or_else(|| rng.next_bool()))
                    .collect();
                // Fault-simulate the new vector against all live faults.
                let live: Vec<usize> = (0..faults.len()).filter(|&j| !detected[j]).collect();
                let live_faults: Vec<StuckAtFault> = live.iter().map(|&j| faults[j]).collect();
                let record = simulate(&live_faults, std::slice::from_ref(&vector))?;
                let mut confirmed = false;
                for (j, d) in record.first_detect().iter().enumerate() {
                    if d.is_some() {
                        detected[live[j]] = true;
                        if live[j] == i {
                            confirmed = true;
                        }
                    }
                }
                extra.push(vector);
                if !confirmed {
                    // The random fill must not mask the cube: the cube
                    // itself guarantees detection on the filled values
                    // only if don't-cares are truly don't-care, which
                    // PODEM's composite simulation ensures. Tripwire:
                    undetected.push((faults[i], PodemVerdict::Unconfirmed));
                }
            }
            PodemOutcome::Redundant => {
                undetected.push((faults[i], PodemVerdict::Redundant));
            }
            PodemOutcome::Aborted => {
                undetected.push((faults[i], PodemVerdict::Aborted));
            }
        }
    }
    vectors.extend(extra);

    let covered = detected.iter().filter(|&&d| d).count();
    Ok(AtpgResult {
        vectors,
        random_prefix_len,
        undetected,
        coverage: covered as f64 / faults.len().max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;
    use dlp_sim::stuck_at;

    #[test]
    fn c17_reaches_full_coverage() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let result = generate_tests(&c17, faults.faults(), &AtpgConfig::default()).unwrap();
        assert_eq!(result.coverage, 1.0);
        assert!(result.undetected.is_empty());
        assert!(result.random_prefix_len > 0);
    }

    #[test]
    fn c432_class_reaches_high_coverage() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let config = AtpgConfig {
            random_budget: 1024,
            random_stall: 192,
            ..Default::default()
        };
        let result = generate_tests(&nl, faults.faults(), &config).unwrap();
        assert!(result.coverage > 0.94, "coverage {}", result.coverage);
        // Anything left must be proven redundant or an explicit abort —
        // never an unconfirmed cube.
        for (f, verdict) in &result.undetected {
            assert_ne!(
                *verdict,
                PodemVerdict::Unconfirmed,
                "unconfirmed cube for {}",
                f.describe(&nl)
            );
        }
    }

    #[test]
    fn deterministic_tail_appends_after_random_prefix() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let config = AtpgConfig {
            random_budget: 256,
            random_stall: 64,
            ..Default::default()
        };
        let result = generate_tests(&nl, faults.faults(), &config).unwrap();
        assert!(result.vectors.len() >= result.random_prefix_len);
        assert!(
            result.vectors.len() > result.random_prefix_len,
            "a 256-vector random phase cannot cover everything"
        );
    }

    #[test]
    fn pipeline_is_deterministic_in_seed() {
        let nl = generators::ripple_adder(3);
        let faults = stuck_at::enumerate(&nl).collapse();
        let cfg = AtpgConfig {
            seed: 99,
            ..Default::default()
        };
        let a = generate_tests(&nl, faults.faults(), &cfg).unwrap();
        let b = generate_tests(&nl, faults.faults(), &cfg).unwrap();
        assert_eq!(a.vectors, b.vectors);
        assert_eq!(a.coverage, b.coverage);
    }

    #[test]
    fn redundant_faults_are_reported_not_hidden() {
        use dlp_circuit::{GateKind, Netlist};
        let mut n = Netlist::new("red");
        let a = n.add_input("a").unwrap();
        let na = n.add_gate("na", GateKind::Not, vec![a]).unwrap();
        let z = n.add_gate("z", GateKind::Or, vec![a, na]).unwrap();
        n.mark_output(z);
        n.freeze();
        let faults = stuck_at::enumerate(&n);
        let result = generate_tests(&n, faults.faults(), &AtpgConfig::default()).unwrap();
        assert!(result
            .undetected
            .iter()
            .any(|(_, v)| *v == PodemVerdict::Redundant));
        assert!(result.coverage < 1.0);
    }
}
