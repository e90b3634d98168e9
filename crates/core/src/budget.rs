//! Run budgets and cooperative cancellation.
//!
//! Long stages — PPSFP blocks, Monte-Carlo shards, n-detect targets —
//! check a [`RunBudget`] at their chunk boundaries. A budget can carry a
//! wall-clock deadline, a maximum *estimated* memory footprint, and (for
//! deterministic chaos testing) a check-count fuse. When a check trips,
//! the stage stops at the next chunk boundary and surfaces a typed
//! [`BudgetExceeded`] carrying its partial progress — together with a
//! checkpoint (see [`crate::ckpt`]) from which the run resumes
//! bit-identically.
//!
//! The checks are cooperative: nothing is preempted, so a budget can
//! only ever be exceeded *at* a boundary, never mid-chunk. This is what
//! makes the interrupted state a clean prefix that a checkpoint can
//! capture exactly.
//!
//! Environment knobs (read by [`RunBudget::from_env`], used by the bench
//! binaries): `DLP_BUDGET_MS` (wall-clock deadline in milliseconds),
//! `DLP_BUDGET_MB` (maximum estimated memory in MiB), and
//! `DLP_CANCEL_AFTER` (trip after that many cooperative checks — the
//! deterministic kill switch the chaos harness uses).

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variable: wall-clock deadline in milliseconds.
pub const BUDGET_MS_ENV: &str = "DLP_BUDGET_MS";
/// Environment variable: maximum estimated memory in MiB.
pub const BUDGET_MB_ENV: &str = "DLP_BUDGET_MB";
/// Environment variable: trip after this many cooperative checks.
pub const CANCEL_AFTER_ENV: &str = "DLP_CANCEL_AFTER";

/// Why a [`RunBudget`] check tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BudgetReason {
    /// The check-count fuse ran out.
    Cancelled,
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline in milliseconds.
        limit_ms: u64,
        /// Wall-clock milliseconds elapsed when the check tripped.
        elapsed_ms: u64,
    },
    /// A stage's up-front memory estimate exceeds the budget.
    Memory {
        /// The stage's estimated footprint in bytes.
        estimated_bytes: u64,
        /// The configured limit in bytes.
        limit_bytes: u64,
    },
}

impl fmt::Display for BudgetReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetReason::Cancelled => f.write_str("cancelled"),
            BudgetReason::Deadline {
                limit_ms,
                elapsed_ms,
            } => write!(f, "deadline {limit_ms} ms passed ({elapsed_ms} ms elapsed)"),
            BudgetReason::Memory {
                estimated_bytes,
                limit_bytes,
            } => write!(
                f,
                "estimated footprint {estimated_bytes} B exceeds the {limit_bytes} B budget"
            ),
        }
    }
}

/// A budget check tripped: the typed error every interrupted stage
/// surfaces (wrapped in its own error enum, e.g.
/// `SimError::Interrupted`), carrying the partial progress made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// What tripped.
    pub reason: BudgetReason,
    /// Work units completed before the trip (the stage defines the
    /// unit: PPSFP blocks, Monte-Carlo shards, n-detect targets, or raw
    /// chunks at the [`crate::par`] layer).
    pub completed: u64,
    /// Total work units the run would have performed.
    pub total: u64,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "run budget exceeded after {}/{} units: {}",
            self.completed, self.total, self.reason
        )
    }
}

impl Error for BudgetExceeded {}

/// An unusable budget environment setting (`DLP_BUDGET_MS=soon`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetConfigError {
    /// The offending environment variable.
    pub var: &'static str,
    /// The rejected setting, verbatim.
    pub value: String,
}

impl fmt::Display for BudgetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}=\"{}\" is not a positive integer",
            self.var, self.value
        )
    }
}

impl Error for BudgetConfigError {}

/// A cooperative run budget: deadline, memory ceiling, check-count fuse.
///
/// Cheap to clone (clones share the fuse); the default is unlimited, so
/// `&RunBudget::default()` is the "no budget" argument.
///
/// # Example
///
/// ```
/// use dlp_core::budget::{BudgetReason, RunBudget};
///
/// let budget = RunBudget::unlimited().cancel_after_checks(1);
/// assert!(budget.check().is_ok());
/// assert_eq!(budget.check(), Err(BudgetReason::Cancelled));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    deadline: Option<(Instant, u64)>,
    limit_bytes: Option<u64>,
    fuse: Option<Arc<AtomicU64>>,
}

impl RunBudget {
    /// A budget that never trips.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Adds a wall-clock deadline, measured from now.
    #[must_use]
    pub fn with_deadline(mut self, limit: Duration) -> RunBudget {
        let limit_ms = u64::try_from(limit.as_millis()).unwrap_or(u64::MAX);
        self.deadline = Some((Instant::now() + limit, limit_ms));
        self
    }

    /// Adds a maximum *estimated* memory footprint in bytes. This is a
    /// cooperative estimate checked by [`RunBudget::check_memory`]
    /// before a stage's dominant allocation — not an RSS probe.
    #[must_use]
    pub fn with_memory_limit(mut self, bytes: u64) -> RunBudget {
        self.limit_bytes = Some(bytes);
        self
    }

    /// Trips after exactly `n` successful [`RunBudget::check`] calls —
    /// the deterministic kill switch used by the chaos harness to stop
    /// a run at a reproducible chunk boundary.
    #[must_use]
    pub fn cancel_after_checks(mut self, n: u64) -> RunBudget {
        self.fuse = Some(Arc::new(AtomicU64::new(n)));
        self
    }

    /// Whether no constraint is configured (checks can never trip).
    #[cfg(test)]
    fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.limit_bytes.is_none() && self.fuse.is_none()
    }

    /// One cooperative check, called at chunk boundaries.
    ///
    /// # Errors
    ///
    /// The [`BudgetReason`] that tripped: the check-count fuse is
    /// inspected first (it is exact), then the wall-clock deadline.
    pub fn check(&self) -> Result<(), BudgetReason> {
        if let Some(fuse) = &self.fuse {
            // Saturating decrement: once the fuse hits zero every later
            // check trips, so exactly `n` checks ever succeed.
            let exhausted = fuse
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| c.checked_sub(1))
                .is_err();
            if exhausted {
                return Err(BudgetReason::Cancelled);
            }
        }
        if let Some((deadline, limit_ms)) = self.deadline {
            let now = Instant::now();
            if now > deadline {
                let over = now.duration_since(deadline).as_millis();
                let elapsed_ms = limit_ms.saturating_add(u64::try_from(over).unwrap_or(u64::MAX));
                return Err(BudgetReason::Deadline {
                    limit_ms,
                    elapsed_ms,
                });
            }
        }
        Ok(())
    }

    /// Checks a stage's up-front memory estimate against the limit.
    ///
    /// # Errors
    ///
    /// [`BudgetReason::Memory`] if `estimated_bytes` exceeds the
    /// configured limit. Always `Ok` without a limit.
    pub fn check_memory(&self, estimated_bytes: u64) -> Result<(), BudgetReason> {
        match self.limit_bytes {
            Some(limit_bytes) if estimated_bytes > limit_bytes => Err(BudgetReason::Memory {
                estimated_bytes,
                limit_bytes,
            }),
            _ => Ok(()),
        }
    }

    /// Builds a budget from the `DLP_BUDGET_MS` / `DLP_BUDGET_MB` /
    /// `DLP_CANCEL_AFTER` environment variables (unset or empty = no
    /// constraint).
    ///
    /// # Errors
    ///
    /// [`BudgetConfigError`] naming the variable if a set value is not
    /// a positive integer.
    pub fn from_env() -> Result<RunBudget, BudgetConfigError> {
        let get = |var: &'static str| std::env::var(var).ok();
        RunBudget::from_settings(
            get(BUDGET_MS_ENV).as_deref(),
            get(BUDGET_MB_ENV).as_deref(),
            get(CANCEL_AFTER_ENV).as_deref(),
        )
    }

    /// Parses explicit `DLP_BUDGET_MS` / `DLP_BUDGET_MB` /
    /// `DLP_CANCEL_AFTER`-style settings (`None` or `""` = unset).
    ///
    /// # Errors
    ///
    /// [`BudgetConfigError`] for a value that is not a positive integer.
    ///
    /// # Example
    ///
    /// ```
    /// use dlp_core::budget::RunBudget;
    ///
    /// let b = RunBudget::from_settings(None, Some("64"), None)?;
    /// assert!(b.check_memory(64 * 1024 * 1024 + 1).is_err());
    /// assert!(RunBudget::from_settings(Some("soon"), None, None).is_err());
    /// # Ok::<(), dlp_core::budget::BudgetConfigError>(())
    /// ```
    pub fn from_settings(
        ms: Option<&str>,
        mb: Option<&str>,
        cancel_after: Option<&str>,
    ) -> Result<RunBudget, BudgetConfigError> {
        let parse =
            |var: &'static str, setting: Option<&str>| -> Result<Option<u64>, BudgetConfigError> {
                match setting.map(str::trim) {
                    None | Some("") => Ok(None),
                    Some(s) => s
                        .parse::<u64>()
                        .ok()
                        .filter(|&v| v > 0)
                        .map(Some)
                        .ok_or_else(|| BudgetConfigError {
                            var,
                            value: s.to_string(),
                        }),
                }
            };
        let mut budget = RunBudget::unlimited();
        if let Some(ms) = parse(BUDGET_MS_ENV, ms)? {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        if let Some(mb) = parse(BUDGET_MB_ENV, mb)? {
            budget = budget.with_memory_limit(mb.saturating_mul(1024 * 1024));
        }
        if let Some(n) = parse(CANCEL_AFTER_ENV, cancel_after)? {
            budget = budget.cancel_after_checks(n);
        }
        Ok(budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = RunBudget::unlimited();
        assert!(b.is_unlimited());
        for _ in 0..1000 {
            assert!(b.check().is_ok());
        }
        assert!(b.check_memory(u64::MAX).is_ok());
    }

    #[test]
    fn fuse_allows_exactly_n_checks() {
        let b = RunBudget::unlimited().cancel_after_checks(3);
        assert!(!b.is_unlimited());
        for _ in 0..3 {
            assert!(b.check().is_ok());
        }
        // Every check after the fuse runs out trips.
        for _ in 0..5 {
            assert_eq!(b.check(), Err(BudgetReason::Cancelled));
        }
    }

    #[test]
    fn fuse_is_shared_across_clones() {
        let b = RunBudget::unlimited().cancel_after_checks(2);
        let clone = b.clone();
        assert!(b.check().is_ok());
        assert!(clone.check().is_ok());
        assert!(b.check().is_err());
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let b = RunBudget::unlimited().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        match b.check() {
            Err(BudgetReason::Deadline {
                limit_ms,
                elapsed_ms,
            }) => {
                assert_eq!(limit_ms, 0);
                assert!(elapsed_ms >= 1);
            }
            other => panic!("expected a deadline trip, got {other:?}"),
        }
        // A generous deadline does not trip.
        let b = RunBudget::unlimited().with_deadline(Duration::from_secs(3600));
        assert!(b.check().is_ok());
    }

    #[test]
    fn memory_limit_is_an_upfront_estimate_check() {
        let b = RunBudget::unlimited().with_memory_limit(1024);
        assert!(b.check_memory(1024).is_ok());
        assert_eq!(
            b.check_memory(1025),
            Err(BudgetReason::Memory {
                estimated_bytes: 1025,
                limit_bytes: 1024
            })
        );
        // The per-chunk check ignores memory — it is an up-front gate.
        assert!(b.check().is_ok());
    }

    #[test]
    fn settings_parse_and_reject_garbage() {
        assert!(RunBudget::from_settings(None, None, None)
            .map(|b| b.is_unlimited())
            .unwrap());
        assert!(RunBudget::from_settings(Some(""), Some(" "), None)
            .map(|b| b.is_unlimited())
            .unwrap());
        let b = RunBudget::from_settings(Some("60000"), Some("64"), Some("5")).unwrap();
        assert!(!b.is_unlimited());
        assert!(b.check_memory(64 * 1024 * 1024).is_ok());
        assert!(b.check_memory(64 * 1024 * 1024 + 1).is_err());
        for (ms, mb, after, var) in [
            (Some("soon"), None, None, BUDGET_MS_ENV),
            (Some("0"), None, None, BUDGET_MS_ENV),
            (None, Some("-3"), None, BUDGET_MB_ENV),
            (None, None, Some("1.5"), CANCEL_AFTER_ENV),
        ] {
            let err = RunBudget::from_settings(ms, mb, after).unwrap_err();
            assert_eq!(err.var, var);
            assert!(err.to_string().contains(var), "{err}");
        }
    }

    #[test]
    fn display_carries_progress_and_reason() {
        let e = BudgetExceeded {
            reason: BudgetReason::Cancelled,
            completed: 3,
            total: 10,
        };
        assert_eq!(
            e.to_string(),
            "run budget exceeded after 3/10 units: cancelled"
        );
        let e = BudgetExceeded {
            reason: BudgetReason::Memory {
                estimated_bytes: 2048,
                limit_bytes: 1024,
            },
            completed: 0,
            total: 7,
        };
        assert!(e.to_string().contains("2048 B"), "{e}");
    }
}
