use std::error::Error;
use std::fmt;

use dlp_circuit::NetlistError;
use dlp_core::{PipelineError, Stage};

/// Errors raised during layout generation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// A gate has no realisable standard cell.
    Cell(NetlistError),
    /// The router could not connect a net within the available grid.
    Unroutable {
        /// The net's signal name.
        net: String,
    },
    /// The requested floorplan cannot hold the design.
    FloorplanTooSmall {
        /// Cells that did not fit.
        overflow: usize,
    },
    /// The technology's design rules are mutually inconsistent
    /// (see [`crate::tech::Technology::validate`]).
    BadTechnology,
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Cell(e) => write!(f, "cell mapping failed: {e}"),
            LayoutError::Unroutable { net } => write!(f, "net `{net}` could not be routed"),
            LayoutError::FloorplanTooSmall { overflow } => {
                write!(f, "floorplan too small: {overflow} cells left over")
            }
            LayoutError::BadTechnology => write!(f, "inconsistent technology design rules"),
        }
    }
}

impl Error for LayoutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LayoutError::Cell(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LayoutError> for PipelineError {
    fn from(e: LayoutError) -> Self {
        PipelineError::with_source(Stage::Layout, e)
    }
}

impl From<NetlistError> for LayoutError {
    fn from(e: NetlistError) -> Self {
        LayoutError::Cell(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = LayoutError::Unroutable { net: "n42".into() };
        assert!(e.to_string().contains("n42"));
        let e = LayoutError::Cell(NetlistError::DuplicateName("x".into()));
        assert!(e.source().is_some());
    }
}
