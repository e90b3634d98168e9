//! Fault simulation: gate-level stuck-at (parallel-pattern) and
//! switch-level realistic faults.
//!
//! This crate is the toolkit's stand-in for the paper's internal `swift`
//! simulator plus a conventional gate-level fault simulator:
//!
//! * [`stuck_at`] — the single-stuck-at fault universe (stem and branch
//!   faults) with equivalence collapsing,
//! * [`ppsfp`] — 64-way parallel-pattern single-fault-propagation stuck-at
//!   simulation producing `T(k)` curves; its fanout-cone cache is bounded
//!   to one window of faults, so the same engine runs million-fault lists
//!   (the scale path),
//! * [`switchlevel`] — a strength-based switch-level simulator with charge
//!   retention and an I_DDQ observation mode, simulating bridging faults,
//!   transistor stuck-opens/ons and floating (open-interconnect) inputs —
//!   producing `θ(k)` and `Γ(k)`,
//! * [`detection`] — shared bookkeeping: first-detection records and
//!   coverage curves,
//! * [`ckpt`] — sealed resume checkpoints for the interruptible
//!   (budgeted) PPSFP entry points.
//!
//! # Example
//!
//! ```
//! use dlp_circuit::generators;
//! use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
//! use dlp_sim::{ppsfp, stuck_at};
//!
//! let c17 = generators::c17();
//! let faults = stuck_at::enumerate(&c17).collapse();
//! let vectors = dlp_sim::detection::random_vectors(c17.inputs().len(), 64, 7);
//! let result = ppsfp::simulate_resumable(
//!     &c17,
//!     faults.faults(),
//!     &vectors,
//!     ThreadCount::from_env()?,
//!     Recorder::noop(),
//!     &RunBudget::unlimited(),
//!     None,
//! )?;
//! // c17 is fully testable: 64 random vectors cover everything.
//! assert_eq!(result.detected_count(), faults.faults().len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ckpt;
pub mod detection;
mod error;
pub mod ppsfp;
pub mod stuck_at;
pub mod switchlevel;

pub use error::SimError;
