//! Lambda-rule 2-metal CMOS standard-cell layout generation.
//!
//! This crate is the "commercial standard-cell design system" substitute of
//! the reproduction (see `DESIGN.md`): it turns a gate-level
//! [`Netlist`](dlp_circuit::Netlist) into real polygon geometry that the
//! fault extractor can analyse:
//!
//! * [`tech`] — the λ design rules of a generic 2-metal CMOS process,
//! * [`cell`] — standard-cell polygon generation from the shared
//!   [`CellTemplate`](dlp_circuit::cells::CellTemplate)s (poly columns over
//!   diffusion strips, m1 straps, labelled pin pads),
//! * [`place`] — row placement (snake order over logic levels),
//! * [`chip`] — full-chip assembly: every rectangle tagged with its
//!   electrical role ([`chip::ElecRole`]), the contract the extractor
//!   builds fault lists from. Nets are routed on a two-layer grid (m1
//!   horizontal in channels, m2 vertical everywhere) by a
//!   negotiated-congestion router: one A* search per terminal, drained
//!   through a monotone bucket queue on reusable scratch; grid
//!   exclusivity makes routed geometry short-free by construction,
//! * [`svg`] — layout rendering for visual inspection.
//!
//! # Example
//!
//! ```
//! use dlp_circuit::generators;
//! use dlp_layout::chip::ChipLayout;
//!
//! let c17 = generators::c17();
//! let chip = ChipLayout::generate(&c17, &Default::default())?;
//! assert!(chip.bbox().area() > 0);
//! // Every net got routed.
//! assert_eq!(chip.unrouted(), 0);
//! # Ok::<(), dlp_layout::LayoutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod chip;
mod error;
mod grid;
pub mod place;
pub mod svg;
pub mod tech;

pub use error::LayoutError;
