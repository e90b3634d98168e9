//! Automatic test pattern generation for single stuck-at faults.
//!
//! The paper's experiment applies "random vectors first, with the last
//! vectors deterministically generated using the FAN algorithm". This crate
//! reproduces that flow:
//!
//! * [`scoap`] — SCOAP controllability measures used as backtrace guidance
//!   (the heuristic heart of FAN-style search),
//! * [`logic3`] — three-valued good/faulty composite simulation,
//! * [`podem`] — a PODEM path-sensitisation engine with
//!   controllability-guided multiple backtrace and a backtrack limit,
//! * [`generate`] — the full pipeline: random phase until stall, then
//!   deterministic top-up, with fault dropping throughout.
//!
//! # Example
//!
//! ```
//! use dlp_circuit::generators;
//! use dlp_atpg::generate::{generate_tests, AtpgConfig};
//! use dlp_sim::stuck_at;
//!
//! let c17 = generators::c17();
//! let faults = stuck_at::enumerate(&c17).collapse();
//! let result = generate_tests(&c17, faults.faults(), &AtpgConfig::default())?;
//! assert_eq!(result.undetected.len(), 0); // c17 is fully testable
//! # Ok::<(), dlp_atpg::AtpgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod generate;
pub mod logic3;
pub mod podem;
pub mod scoap;

pub use error::AtpgError;
