use std::error::Error;
use std::fmt;

use dlp_core::{PipelineError, Stage};

/// Errors raised by the fault simulators' input validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A test vector's width differs from the circuit's input count.
    VectorWidthMismatch {
        /// Index of the offending vector in the sequence.
        index: usize,
        /// The circuit's primary-input count.
        expected: usize,
        /// The vector's actual width.
        got: usize,
    },
    /// A weight vector's length differs from the tracked fault count.
    WeightCountMismatch {
        /// Number of weights supplied.
        weights: usize,
        /// Number of faults in the detection record.
        faults: usize,
    },
    /// A weight vector carries a NaN or infinite entry; any non-finite
    /// weight would silently poison every coverage value computed from it.
    NonFiniteWeight {
        /// Index of the offending weight.
        index: usize,
    },
    /// A fault references a node, gate pin, transistor, or output the
    /// netlist does not have.
    FaultOutOfRange {
        /// Index of the fault in the supplied list.
        fault: usize,
        /// Which reference is out of range.
        what: &'static str,
    },
    /// A counted simulation's detection cap is unusable: zero (nothing to
    /// count) or beyond [`crate::ppsfp::MAX_DETECTION_CAP`] (the per-fault
    /// index storage would be unbounded).
    BadDetectionCap {
        /// The requested cap.
        cap: usize,
    },
    /// The run budget tripped before any block could be simulated (e.g.
    /// the memory estimate already exceeds the limit).
    Budget(dlp_core::BudgetExceeded),
    /// The run budget tripped at a block boundary; `checkpoint` captures
    /// the completed prefix, and resuming from it reproduces the
    /// uninterrupted run bit-identically.
    Interrupted {
        /// What tripped, with block-level progress attached.
        budget: dlp_core::BudgetExceeded,
        /// Resume state for the `*_resumable` simulation entry points.
        checkpoint: Box<crate::ckpt::SimCheckpoint>,
    },
    /// A supplied resume checkpoint is inconsistent with this run's
    /// inputs (wrong shape, wrong cap, or impossible progress).
    BadCheckpoint {
        /// What is inconsistent.
        what: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::VectorWidthMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "vector {index} has width {got}, circuit has {expected} inputs"
            ),
            SimError::WeightCountMismatch { weights, faults } => {
                write!(f, "{weights} weights for {faults} faults")
            }
            SimError::NonFiniteWeight { index } => {
                write!(f, "weight {index} is NaN or infinite")
            }
            SimError::FaultOutOfRange { fault, what } => {
                write!(f, "fault {fault} references a {what} outside the netlist")
            }
            SimError::BadDetectionCap { cap } => write!(
                f,
                "detection cap {cap} is outside 1..={}",
                crate::ppsfp::MAX_DETECTION_CAP
            ),
            SimError::Budget(b) => b.fmt(f),
            SimError::Interrupted { budget, .. } => {
                write!(f, "{budget}; a resume checkpoint was captured")
            }
            SimError::BadCheckpoint { what } => {
                write!(f, "resume checkpoint is unusable: {what}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Budget(b) => Some(b),
            SimError::Interrupted { budget, .. } => Some(budget),
            _ => None,
        }
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::with_source(Stage::Simulation, e)
    }
}

/// Validates that every vector in `vectors` has width `expected`.
pub(crate) fn check_widths(vectors: &[Vec<bool>], expected: usize) -> Result<(), SimError> {
    for (index, v) in vectors.iter().enumerate() {
        if v.len() != expected {
            return Err(SimError::VectorWidthMismatch {
                index,
                expected,
                got: v.len(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = SimError::VectorWidthMismatch {
            index: 3,
            expected: 5,
            got: 4,
        };
        assert!(e.to_string().contains("vector 3"));
        assert_eq!(PipelineError::from(e).stage(), Stage::Simulation);
    }

    #[test]
    fn check_widths_finds_first_bad_vector() {
        let vs = vec![vec![true; 2], vec![false; 3]];
        assert_eq!(
            check_widths(&vs, 2),
            Err(SimError::VectorWidthMismatch {
                index: 1,
                expected: 2,
                got: 3,
            })
        );
        assert!(check_widths(&vs[..1], 2).is_ok());
    }
}
