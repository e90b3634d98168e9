//! Defect-level models for digital ICs.
//!
//! This crate implements the mathematical contribution of *Sousa,
//! Gonçalves, Teixeira, Williams — "Fault Modeling and Defect Level
//! Projections in Digital ICs", DATE 1994*, together with the prior models
//! it is compared against:
//!
//! * [`williams_brown`] — the classical `DL = 1 − Y^(1−T)` (eq. 1),
//! * [`agrawal`] — the Poisson multiple-fault model (eq. 2),
//! * [`weighted`] — yield and coverage over *non-equally-probable* faults
//!   weighted by `w = A·D` (eqs. 3–6),
//! * [`coverage`] — random-test coverage growth laws `T(k)`, `θ(k)` and the
//!   susceptibility ratio `R` (eqs. 7–10),
//! * [`sousa`] — the paper's new model `DL(T; Y, R, θ_max)` (eq. 11) with
//!   its residual defect level and inverse (required-coverage) solver,
//! * [`fit`] — Nelder–Mead least-squares fitting of `(R, θ_max)`, of
//!   Agrawal's `n`, and of susceptibilities `τ` from measured curves,
//! * [`montecarlo`] — direct production-line simulation validating eq. 3
//!   statistically,
//! * [`ndetect`] — the DL(n) layer for n-detection test sets: the
//!   saturating `θ(n)` growth law and its least-squares fit,
//! * [`par`] — the dependency-free scoped thread pool behind the
//!   simulation and Monte-Carlo hot paths (`DLP_THREADS` override,
//!   deterministic chunked work distribution),
//! * [`obs`] — the observability layer: stage spans, counters, gauges,
//!   and the JSON `RunReport` behind the `DLP_TRACE` contract,
//! * [`budget`] — cooperative run budgets (wall-clock deadline, memory
//!   estimate, check-count fuse) checked at chunk boundaries,
//! * [`ckpt`] — versioned, checksummed checkpoint envelopes and the
//!   atomic write-temp-then-rename helper every artifact writer uses.
//!
//! Yield enters as an input. The yield laws that turn defect exposure
//! into `Y` (eq. 5's Poisson form and the clustered models) live in
//! `dlp-yield`'s fallout-distribution family.
//!
//! All quantities are dimensionless: yields, coverages and defect levels in
//! `[0, 1]` (use [`Ppm`] for parts-per-million display), susceptibilities
//! `τ > 1`.
//!
//! # Example: the paper's Example 1
//!
//! How much stuck-at coverage does a `Y = 0.75` chip need for a 100 ppm
//! defect level, when realistic faults are easier to detect (`R = 2.1`)?
//!
//! ```
//! use dlp_core::sousa::SousaModel;
//!
//! let model = SousaModel::new(0.75, 2.1, 1.0)?;
//! let t = model.required_coverage(100e-6)?;
//! assert!((t - 0.977).abs() < 5e-4); // paper: T = 97.7 %
//! # Ok::<(), dlp_core::ModelError>(())
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod agrawal;
pub mod budget;
pub mod ckpt;
pub mod coverage;
mod error;
pub mod fit;
pub mod montecarlo;
pub mod ndetect;
pub mod obs;
pub mod par;
mod pipeline;
mod ppm;
pub mod rng;
pub mod sousa;
pub mod weighted;
pub mod williams_brown;

pub use budget::{BudgetExceeded, BudgetReason, RunBudget};
pub use ckpt::CkptError;
pub use error::ModelError;
pub use pipeline::{Diagnostic, Diagnostics, PipelineError, Stage};
pub use ppm::Ppm;
