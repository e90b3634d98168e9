//! Manhattan geometry substrate for IC layout processing.
//!
//! This crate provides the low-level geometric machinery used by the layout
//! generator ([`dlp-layout`]) and the layout fault extractor ([`dlp-extract`]):
//!
//! * [`Point`] and [`Rect`] — integer-coordinate primitives in database
//!   units (a technology decides how many database units make one λ),
//! * [`Layer`] — the mask layers of a generic 2-metal CMOS process,
//! * [`sweep`] — a scanline for the exact union area of rectangle sets.
//!
//! All coordinates are `i64` database units; areas are returned as `i64`
//! (square database units) or `f64` where integration demands it. Integer
//! coordinates keep the geometry exactly representable and hashable, which
//! the extractor relies on for deterministic fault identities.
//!
//! # Example
//!
//! ```
//! use dlp_geometry::{sweep, Rect};
//!
//! let m1 = [
//!     Rect::new(0, 0, 100, 4),   // a horizontal wire, 4 units wide
//!     Rect::new(0, 10, 100, 14), // a parallel wire 6 units away
//! ];
//! assert_eq!(sweep::union_area(&m1), 2 * 100 * 4);
//! ```
//!
//! [`dlp-layout`]: https://example.invalid/dlp
//! [`dlp-extract`]: https://example.invalid/dlp

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layer;
mod point;
mod rect;
pub mod sweep;
#[cfg(test)]
pub(crate) mod test_rng;

pub use layer::{Layer, LayerClass};
pub use point::Point;
pub use rect::Rect;

/// Coordinate type used throughout the geometry crate: database units.
///
/// A [`Technology`](https://example.invalid) in `dlp-layout` maps database
/// units to λ (typically 2 database units per λ so half-λ rules stay
/// integral).
pub type Coord = i64;
