//! Monte-Carlo fallout under a chosen [`FalloutDistribution`] — thin,
//! fully-typed wrappers over the core mixed engine
//! ([`dlp_core::montecarlo::simulate_fallout_mixed_resumable`]) that
//! bind the distribution into both the simulation and the checkpoint
//! key, so a resume checkpoint written under one distribution can never
//! be replayed under another.

use dlp_core::budget::RunBudget;
use dlp_core::montecarlo::{
    simulate_fallout_mixed_resumable, FalloutEstimate, McCheckpoint, MonteCarloConfig,
};
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_core::ModelError;

use crate::dist::FalloutDistribution;

/// [`simulate_fallout_dist_resumable`] with environment-selected
/// workers, no tracing, and no budget.
///
/// # Errors
///
/// See [`simulate_fallout_dist_resumable`].
pub fn simulate_fallout_dist(
    weights: &FaultWeights,
    detected: &[bool],
    config: &MonteCarloConfig,
    dist: &dyn FalloutDistribution,
) -> Result<FalloutEstimate, ModelError> {
    simulate_fallout_dist_resumable(
        weights,
        detected,
        config,
        dist,
        ThreadCount::from_env()?,
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )
}

/// Simulates production fallout with `dist` supplying each die's weight
/// multiplier. With [`crate::dist::Poisson`] this is bit-identical to
/// [`dlp_core::montecarlo::simulate_fallout_resumable`]; the clustered
/// models keep every engine guarantee (thread-count invariance,
/// shard-boundary budget checks, bit-identical resume).
///
/// # Errors
///
/// As [`dlp_core::montecarlo::simulate_fallout_resumable`].
#[allow(clippy::too_many_arguments)] // the resumable engine's full surface
pub fn simulate_fallout_dist_resumable(
    weights: &FaultWeights,
    detected: &[bool],
    config: &MonteCarloConfig,
    dist: &dyn FalloutDistribution,
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
    resume: Option<&McCheckpoint>,
) -> Result<FalloutEstimate, ModelError> {
    simulate_fallout_mixed_resumable(weights, detected, config, dist, threads, obs, budget, resume)
}

/// The checkpoint key binding a fallout run to its inputs *and* its
/// distribution ([`McCheckpoint::key_mixed`]).
pub fn checkpoint_key(
    weights: &FaultWeights,
    detected: &[bool],
    config: &MonteCarloConfig,
    dist: &dyn FalloutDistribution,
) -> u64 {
    McCheckpoint::key_mixed(weights, detected, config, dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Fallout, Poisson};
    use dlp_core::montecarlo::simulate_fallout;

    fn weights(n: usize, y: f64) -> FaultWeights {
        FaultWeights::new(vec![1.0; n])
            .unwrap()
            .scaled_to_yield(y)
            .unwrap()
    }

    #[test]
    fn poisson_instance_is_bit_identical_to_legacy_engine() {
        let w = weights(12, 0.75);
        let detected: Vec<bool> = (0..12).map(|j| j % 4 != 0).collect();
        let cfg = MonteCarloConfig {
            dies: 30_000,
            seed: 0xFEED,
        };
        let legacy = simulate_fallout(&w, &detected, &cfg).unwrap();
        let dist = simulate_fallout_dist(&w, &detected, &cfg, &Poisson).unwrap();
        assert_eq!(legacy, dist);
        assert_eq!(
            McCheckpoint::key(&w, &detected, &cfg),
            checkpoint_key(&w, &detected, &cfg, &Poisson),
        );
    }

    #[test]
    fn only_poisson_takes_the_lane_kernel() {
        // The gamma mixes draw per die, so they must stay on the serial loop.
        assert!(Fallout::poisson().dist().is_unit());
        assert!(!Fallout::negative_binomial(2.0).unwrap().dist().is_unit());
        assert!(!Fallout::hierarchical(2.0, 8.0, 20.0, 400, 25)
            .unwrap()
            .dist()
            .is_unit());
    }

    #[test]
    fn checkpoint_keys_bind_the_distribution() {
        let w = weights(4, 0.8);
        let d = vec![true; 4];
        let cfg = MonteCarloConfig::default();
        let nb = Fallout::negative_binomial(2.0).unwrap();
        let hier = Fallout::hierarchical(2.0, 8.0, 20.0, 400, 25).unwrap();
        let kp = checkpoint_key(&w, &d, &cfg, Fallout::poisson().dist());
        let kn = checkpoint_key(&w, &d, &cfg, nb.dist());
        let kh = checkpoint_key(&w, &d, &cfg, hier.dist());
        assert_ne!(kp, kn);
        assert_ne!(kp, kh);
        assert_ne!(kn, kh);
    }
}
