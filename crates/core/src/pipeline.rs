//! The unified error and diagnostics layer of the pipeline.
//!
//! Every crate in the workspace exposes a typed per-stage error
//! (`NetlistError`, `LayoutError`, `ExtractError`, `SimError`,
//! `AtpgError`, `ModelError`) and converts it into [`PipelineError`] via
//! `From`, so the bench harness and the fig/ablation binaries can
//! propagate a single error type through the whole
//! layout → extraction → ATPG → simulation → model flow with the failing
//! [`Stage`] attached.
//!
//! Recoverable anomalies — a layout with connectivity violations, a fault
//! list pruned to nothing — do not error at all: they degrade gracefully
//! into [`Diagnostics`] warnings carried alongside partial results.

use std::error::Error;
use std::fmt;

use crate::ModelError;

/// The stage of the pipeline an error or warning originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Stage {
    /// Gate-level netlist construction and parsing (`dlp-circuit`).
    Netlist,
    /// Placement, routing, and chip assembly (`dlp-layout`).
    Layout,
    /// Defect statistics and critical-area fault extraction
    /// (`dlp-extract`).
    Extraction,
    /// Test generation (`dlp-atpg`).
    Atpg,
    /// Gate- or switch-level fault simulation (`dlp-sim`).
    Simulation,
    /// Defect-level model evaluation and fitting (`dlp-core`).
    Model,
    /// Harness orchestration itself (`dlp-bench`).
    Bench,
    /// Durable artifacts: checkpoints, reports, baselines (`dlp-core`'s
    /// [`crate::ckpt`] layer).
    Artifact,
    /// The projection service: HTTP handling and the response cache
    /// (`dlp-serve`).
    Serve,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Netlist => "netlist",
            Stage::Layout => "layout",
            Stage::Extraction => "extraction",
            Stage::Atpg => "atpg",
            Stage::Simulation => "simulation",
            Stage::Model => "model",
            Stage::Bench => "bench",
            Stage::Artifact => "artifact",
            Stage::Serve => "serve",
        })
    }
}

/// A typed, stage-tagged pipeline error.
///
/// Constructed directly by harness code, or via `From` from any
/// per-crate error. The original error is retained as
/// [`Error::source`], so callers can downcast for programmatic
/// handling while `Display` gives a one-line `stage: message` rendering.
///
/// # Example
///
/// ```
/// use dlp_core::{ModelError, PipelineError, Stage};
///
/// let inner = ModelError::BadFitData("empty fault list");
/// let err = PipelineError::from(inner);
/// assert_eq!(err.stage(), Stage::Model);
/// assert!(err.to_string().contains("empty fault list"));
/// ```
#[derive(Debug)]
pub struct PipelineError {
    stage: Stage,
    message: String,
    source: Option<Box<dyn Error + Send + Sync + 'static>>,
}

impl PipelineError {
    /// A new error with no underlying source.
    pub fn new(stage: Stage, message: impl Into<String>) -> Self {
        PipelineError {
            stage,
            message: message.into(),
            source: None,
        }
    }

    /// Wraps a per-crate error, keeping it as [`Error::source`].
    pub fn with_source(stage: Stage, source: impl Error + Send + Sync + 'static) -> Self {
        PipelineError {
            stage,
            message: source.to_string(),
            source: Some(Box::new(source)),
        }
    }

    /// Prefixes the message with context, preserving stage and source.
    #[must_use]
    pub fn context(mut self, what: impl fmt::Display) -> Self {
        self.message = format!("{what}: {}", self.message);
        self
    }

    /// The pipeline stage the error arose in.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The human-readable message (without the stage prefix).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The [`crate::budget::BudgetExceeded`] behind this error, if the
    /// run was interrupted by its budget rather than genuinely failing.
    /// Walks the source chain, so per-stage wrappers (`SimError`,
    /// `NDetectError`, `ModelError`) are looked through.
    pub fn budget(&self) -> Option<&crate::budget::BudgetExceeded> {
        let mut cursor: Option<&(dyn Error + 'static)> = self.source();
        while let Some(err) = cursor {
            if let Some(b) = err.downcast_ref::<crate::budget::BudgetExceeded>() {
                return Some(b);
            }
            cursor = err.source();
        }
        None
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} stage: {}", self.stage, self.message)
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        self.source.as_deref().map(|e| e as &(dyn Error + 'static))
    }
}

impl From<ModelError> for PipelineError {
    fn from(e: ModelError) -> Self {
        PipelineError::with_source(Stage::Model, e)
    }
}

impl From<crate::ckpt::CkptError> for PipelineError {
    fn from(e: crate::ckpt::CkptError) -> Self {
        PipelineError::with_source(Stage::Artifact, e)
    }
}

impl From<crate::budget::BudgetConfigError> for PipelineError {
    fn from(e: crate::budget::BudgetConfigError) -> Self {
        PipelineError::with_source(Stage::Bench, e)
    }
}

/// One collected warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stage that degraded.
    pub stage: Stage,
    /// What happened and what the partial result means.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.message)
    }
}

/// Warnings accumulated while a pipeline run degrades gracefully.
///
/// A stage that hits a recoverable anomaly records a warning here and
/// carries on with a partial result instead of aborting. Callers decide
/// whether warnings are acceptable for their use case.
///
/// # Example
///
/// ```
/// use dlp_core::{Diagnostics, Stage};
///
/// let mut diags = Diagnostics::new();
/// assert!(diags.is_empty());
/// diags.warn(Stage::Layout, "3 connectivity violations; critical areas may be off");
/// assert_eq!(diags.len(), 1);
/// assert!(diags.to_string().contains("[layout]"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    warnings: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a warning.
    pub fn warn(&mut self, stage: Stage, message: impl Into<String>) {
        self.warnings.push(Diagnostic {
            stage,
            message: message.into(),
        });
    }

    /// True if no warnings were recorded.
    pub fn is_empty(&self) -> bool {
        self.warnings.is_empty()
    }

    /// Number of warnings.
    pub fn len(&self) -> usize {
        self.warnings.len()
    }

    /// The recorded warnings, in order.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.warnings.iter()
    }

    /// Appends every warning of `other`.
    pub fn merge(&mut self, other: Diagnostics) {
        self.warnings.extend(other.warnings);
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{w}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_stage_and_message() {
        let e = PipelineError::new(Stage::Extraction, "no defect classes");
        assert_eq!(e.to_string(), "extraction stage: no defect classes");
        assert!(e.source().is_none());
    }

    #[test]
    fn from_model_error_keeps_source() {
        let e = PipelineError::from(ModelError::FitDiverged { iterations: 7 });
        assert_eq!(e.stage(), Stage::Model);
        let src = e.source().expect("source retained");
        assert!(src.downcast_ref::<ModelError>().is_some());
    }

    #[test]
    fn context_prefixes_message() {
        let e = PipelineError::new(Stage::Bench, "boom").context("extracting c17");
        assert_eq!(e.message(), "extracting c17: boom");
        assert_eq!(e.stage(), Stage::Bench);
    }

    #[test]
    fn diagnostics_accumulate_and_merge() {
        let mut a = Diagnostics::new();
        a.warn(Stage::Layout, "one");
        let mut b = Diagnostics::new();
        b.warn(Stage::Extraction, "two");
        a.merge(b);
        assert_eq!(a.len(), 2);
        let text = a.to_string();
        assert!(text.contains("[layout] one"));
        assert!(text.contains("[extraction] two"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<PipelineError>();
    }
}
