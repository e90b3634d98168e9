use std::error::Error;
use std::fmt;

use dlp_core::{PipelineError, Stage};
use dlp_geometry::Layer;

/// Errors raised during fault extraction and lowering.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExtractError {
    /// A defect class carries an unusable density or size range
    /// (NaN/infinite/non-positive density, `x_min < 1`, `x_max < x_min`).
    BadDefectStatistics {
        /// The offending class's layer.
        layer: Layer,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The extraction config asked for zero size-integration samples.
    NoSizeSamples,
    /// An output-pad shape references a net that is not a primary output.
    MissingOutputNet(String),
    /// A stage-internal net has no node in the switch netlist (the switch
    /// netlist does not correspond to the chip's gate-level netlist).
    MissingStageNode(String),
    /// A transistor fault references a device the switch netlist does not
    /// have.
    UnknownTransistor {
        /// The owning gate's name.
        owner: String,
        /// The device ordinal within the owner.
        ordinal: usize,
    },
    /// A rail bridge carries no rail level.
    RailBridgeWithoutLevel(String),
    /// A stuck-at site references a node or input pin outside the
    /// netlist handed to the weight distribution.
    StuckAtSiteOutOfRange {
        /// Index of the out-of-range node/gate.
        gate: usize,
    },
    /// Tiled weight replication needs a non-empty template site list.
    EmptyTemplate,
    /// The `DLP_THREADS` override is not a positive thread count.
    BadThreadCount(dlp_core::par::ParError),
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::BadDefectStatistics { layer, reason } => {
                write!(f, "defect class on layer {layer}: {reason}")
            }
            ExtractError::NoSizeSamples => {
                write!(f, "extraction config requests zero size samples")
            }
            ExtractError::MissingOutputNet(n) => {
                write!(f, "output pad net `{n}` is not a primary output")
            }
            ExtractError::MissingStageNode(n) => {
                write!(f, "switch netlist has no node for stage net `{n}`")
            }
            ExtractError::UnknownTransistor { owner, ordinal } => {
                write!(
                    f,
                    "switch netlist has no transistor {ordinal} of gate `{owner}`"
                )
            }
            ExtractError::RailBridgeWithoutLevel(label) => {
                write!(f, "rail bridge `{label}` carries no rail level")
            }
            ExtractError::StuckAtSiteOutOfRange { gate } => {
                write!(
                    f,
                    "stuck-at site references node {gate} outside the netlist"
                )
            }
            ExtractError::EmptyTemplate => {
                write!(f, "tiled weights need a non-empty template stuck-at list")
            }
            ExtractError::BadThreadCount(e) => e.fmt(f),
        }
    }
}

impl Error for ExtractError {}

impl From<dlp_core::par::ParError> for ExtractError {
    fn from(e: dlp_core::par::ParError) -> Self {
        ExtractError::BadThreadCount(e)
    }
}

impl From<ExtractError> for PipelineError {
    fn from(e: ExtractError) -> Self {
        PipelineError::with_source(Stage::Extraction, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        let e = ExtractError::BadDefectStatistics {
            layer: Layer::Metal1,
            reason: "density is NaN",
        };
        assert!(e.to_string().contains("m1"));
        assert!(e.to_string().contains("NaN"));
    }

    #[test]
    fn converts_into_pipeline_error_with_stage() {
        let e = PipelineError::from(ExtractError::NoSizeSamples);
        assert_eq!(e.stage(), Stage::Extraction);
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<ExtractError>();
    }
}
