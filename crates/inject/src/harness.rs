//! Runs corpus cases under `catch_unwind` and classifies the outcomes.

use std::fmt;
use std::panic;

use dlp_core::PipelineError;

use crate::corpus::Case;

/// What actually happened when a case ran.
#[derive(Debug)]
pub enum Outcome {
    /// The stage returned a typed error tagged with the expected stage —
    /// the only passing outcome.
    TypedError(PipelineError),
    /// The stage accepted the corrupted input.
    AcceptedCorruptInput,
    /// The stage returned an error, but tagged with the wrong stage.
    WrongStage(PipelineError),
    /// The stage panicked instead of returning.
    Panicked(String),
}

impl Outcome {
    /// Whether this outcome satisfies the robustness contract.
    fn is_pass(&self) -> bool {
        matches!(self, Outcome::TypedError(_))
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::TypedError(e) => write!(f, "typed error: {e}"),
            Outcome::AcceptedCorruptInput => {
                f.write_str("ACCEPTED the corrupted input (expected an error)")
            }
            Outcome::WrongStage(e) => {
                write!(f, "error tagged with the wrong stage [{}]: {e}", e.stage())
            }
            Outcome::Panicked(msg) => write!(f, "PANICKED: {msg}"),
        }
    }
}

/// Runs one case under `catch_unwind` and classifies the result.
///
/// Note the default panic hook still prints a backtrace for panicking
/// cases; [`verify_all`] silences it for the duration of a sweep.
pub fn verify(case: &Case) -> Outcome {
    match panic::catch_unwind(case.run) {
        Ok(Ok(())) => Outcome::AcceptedCorruptInput,
        Ok(Err(e)) if e.stage() == case.stage => Outcome::TypedError(e),
        Ok(Err(e)) => Outcome::WrongStage(e),
        Err(payload) => Outcome::Panicked(panic_message(payload)),
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Per-case results of a full corpus sweep.
pub struct Report {
    results: Vec<(&'static str, Outcome)>,
}

impl Report {
    /// All `(case name, outcome)` pairs, in corpus order.
    pub fn results(&self) -> &[(&'static str, Outcome)] {
        &self.results
    }

    /// The cases that violated the contract.
    pub fn failures(&self) -> impl Iterator<Item = &(&'static str, Outcome)> {
        self.results.iter().filter(|(_, o)| !o.is_pass())
    }

    /// Number of cases run.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the sweep ran zero cases.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, outcome) in &self.results {
            let mark = if outcome.is_pass() { "ok " } else { "FAIL" };
            writeln!(f, "{mark} {name}: {outcome}")?;
        }
        Ok(())
    }
}

/// Runs every case, suppressing the default panic hook for the sweep so a
/// contract violation is reported once (in the [`Report`]) rather than as
/// a raw backtrace.
pub fn verify_all(cases: &[Case]) -> Report {
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let results = cases.iter().map(|c| (c.name, verify(c))).collect();
    panic::set_hook(hook);
    Report { results }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_core::Stage;

    fn passing() -> Result<(), PipelineError> {
        Err(PipelineError::new(Stage::Model, "bad input"))
    }

    fn accepting() -> Result<(), PipelineError> {
        Ok(())
    }

    fn panicking() -> Result<(), PipelineError> {
        panic!("boom");
    }

    fn case(run: fn() -> Result<(), PipelineError>) -> Case {
        Case {
            name: "synthetic",
            stage: Stage::Model,
            corruption: "n/a",
            run,
        }
    }

    #[test]
    fn classification() {
        assert!(verify(&case(passing)).is_pass());
        assert!(matches!(
            verify(&case(accepting)),
            Outcome::AcceptedCorruptInput
        ));
        let report = verify_all(&[case(passing), case(panicking)]);
        assert_eq!(report.len(), 2);
        assert_eq!(report.failures().count(), 1);
        assert!(report.to_string().contains("PANICKED: boom"));
    }

    #[test]
    fn wrong_stage_is_a_failure() {
        fn mislabelled() -> Result<(), PipelineError> {
            Err(PipelineError::new(Stage::Layout, "bad input"))
        }
        let outcome = verify(&case(mislabelled));
        assert!(!outcome.is_pass());
        assert!(outcome.to_string().contains("wrong stage"));
    }
}
