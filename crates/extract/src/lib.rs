//! Layout fault extraction — the reproduction's stand-in for the paper's
//! `lift` tool.
//!
//! Given a tagged [`ChipLayout`](dlp_layout::chip::ChipLayout) and a
//! process [`DefectStatistics`](defects::DefectStatistics), the extractor
//! produces a **weighted realistic fault list**: every fault is caused by a
//! likely physical defect, and its weight `w = Σ_x A_crit(x)·D(x)` is the
//! expected number of defects inducing it (critical area × defect density,
//! eq. 4 of the paper).
//!
//! * [`defects`] — defect classes, densities and the `1/x³` size law,
//! * [`critical_area`] — geometric critical-area computations,
//! * [`faults`] — the realistic fault taxonomy (bridges, breaks,
//!   transistor stuck-opens/ons) and mapping onto simulator faults,
//! * [`extractor`] — the end-to-end extraction pass,
//! * [`report`] — weight breakdowns per family and layer,
//! * [`sharded`] — critical-area weight distribution onto stuck-at
//!   universes and tiled template replication (the million-fault scale
//!   path; see `DESIGN.md` §13).
//!
//! The crate's unit tests also carry a Monte Carlo defect sampler that
//! throws defects at the layout and checks the extractor's bridge list
//! against it: complete, and conservative per pair.
//!
//! # Example
//!
//! ```
//! use dlp_circuit::generators;
//! use dlp_core::{obs::Recorder, par::ThreadCount};
//! use dlp_extract::{defects::DefectStatistics, extractor};
//! use dlp_layout::chip::ChipLayout;
//!
//! let c17 = generators::c17();
//! let chip = ChipLayout::generate(&c17, &Default::default())?;
//! let faults = extractor::extract_obs(
//!     &chip,
//!     &DefectStatistics::maly_cmos(),
//!     &extractor::ExtractionConfig::default(),
//!     ThreadCount::from_env()?,
//!     Recorder::noop(),
//! )?;
//! assert!(faults.len() > 50);
//! assert!(faults.weights().iter().all(|&w| w > 0.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical_area;
pub mod defects;
mod error;
pub mod extractor;
pub mod faults;
pub mod report;
#[cfg(test)]
mod sampling;
pub mod sharded;

pub use error::ExtractError;
