use std::error::Error;
use std::fmt;

use dlp_core::{PipelineError, Stage};
use dlp_sim::SimError;

/// Errors raised by test generation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AtpgError {
    /// A target fault references a node outside the netlist.
    ForeignFault {
        /// Index of the offending fault in the supplied list.
        index: usize,
    },
    /// Fault simulation rejected its inputs.
    Sim(SimError),
}

impl fmt::Display for AtpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtpgError::ForeignFault { index } => {
                write!(f, "fault {index} references a node outside the netlist")
            }
            AtpgError::Sim(e) => write!(f, "fault simulation: {e}"),
        }
    }
}

impl Error for AtpgError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AtpgError::Sim(e) => Some(e),
            AtpgError::ForeignFault { .. } => None,
        }
    }
}

impl From<SimError> for AtpgError {
    fn from(e: SimError) -> Self {
        AtpgError::Sim(e)
    }
}

impl From<AtpgError> for PipelineError {
    fn from(e: AtpgError) -> Self {
        PipelineError::with_source(Stage::Atpg, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_stage() {
        let e = AtpgError::ForeignFault { index: 4 };
        assert!(e.to_string().contains("fault 4"));
        assert_eq!(PipelineError::from(e).stage(), Stage::Atpg);
        let wrapped = AtpgError::from(SimError::WeightCountMismatch {
            weights: 1,
            faults: 2,
        });
        assert!(wrapped.to_string().contains("fault simulation"));
        assert!(wrapped.source().is_some());
    }
}
