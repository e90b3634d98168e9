//! Clustered-defect yield statistics for defect-level projection.
//!
//! The core pipeline assumes independent Poisson defects: `Y = e^(−Σw)`
//! and every Monte-Carlo die rolls its faults independently. Real
//! fabrication defects *cluster* — within a die, across a wafer, across
//! a lot — and clustering changes both the yield a given defect density
//! produces and the defect level a test program ships. This crate makes
//! the fallout distribution a first-class, swappable axis:
//!
//! * [`dist::FalloutDistribution`] — the trait: a
//!   [`dlp_core::montecarlo::DieMix`] multiplier law for the simulation
//!   engine plus the matching analytic yield `Y(λ) = E[e^(−λG)]`,
//!   defect level `DL = 1 − Y(λ)/Y(θλ)`, and fixed-yield calibration
//!   `λ(Y)`;
//! * [`dist::Poisson`] — the historical pipeline, bit-identical
//!   (regression-tested) to the unit-mix
//!   `dlp_core::montecarlo::simulate_fallout_resumable`;
//! * [`dist::NegativeBinomial`] — Stapper's gamma-mixed model with
//!   cluster parameter α (`Y = (1 + λ/α)^(−α)`; α → ∞ converges to
//!   Poisson, pinned by a property test);
//! * [`dist::Hierarchical`] — the compound die × wafer × lot model
//!   (Bogdanov et al.), with wafer/lot multipliers drawn from salted
//!   per-group RNG streams so results stay bit-identical at any
//!   `DLP_THREADS` and across checkpoint/resume;
//! * [`gamma`] — the deterministic Marsaglia–Tsang gamma sampler
//!   underneath it all.
//!
//! A distribution is a [`dlp_core::montecarlo::DieMix`], so the core
//! engine simulates its fallout directly: pass it to
//! [`dlp_core::montecarlo::simulate_fallout_mixed_resumable`]. The one
//! Monte-Carlo checkpoint key, [`dlp_core::montecarlo::McCheckpoint::key`],
//! takes the distribution as its last input, so a checkpoint written
//! under one distribution can never be replayed under another; the
//! Poisson instance writes no key bytes, as the unit mix does.
//!
//! # Example: how much does clustering move DL?
//!
//! ```
//! use dlp_yield::dist::{FalloutDistribution, NegativeBinomial, Poisson};
//!
//! // Same 75 % yield, same 90 %-of-weight test program.
//! let p = Poisson;
//! let dl_p = p.defect_level(p.lambda_for_yield(0.75)?, 0.9)?;
//! let nb = NegativeBinomial::new(1.0)?; // heavy clustering
//! let dl_nb = nb.defect_level(nb.lambda_for_yield(0.75)?, 0.9)?;
//! // Clustered defects concentrate on fewer dies, so the same test
//! // ships fewer escapes.
//! assert!(dl_nb < dl_p);
//! # Ok::<(), dlp_core::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod gamma;

pub use dist::{Fallout, FalloutDistribution, Hierarchical, NegativeBinomial, Poisson};
