//! Cross-run performance comparison for the `perf_regress` gate.
//!
//! Raw ns/iter numbers are not comparable across machines, so every
//! [`BenchReport`] fed to this module must carry a **calibration** entry
//! — a fixed CPU-bound workload measured in the same process as the real
//! workloads. Comparing *calibration-normalized* costs
//! (`workload / calibration`) cancels the machine-speed factor; what
//! remains is the algorithmic cost, which is what a regression gate
//! should track.
//!
//! Noise handling: when an entry carries raw samples, the **minimum**
//! sample is used instead of the median — the best observed time is the
//! least contaminated estimate of a workload's true cost (interference
//! only ever adds time). A timed entry with *no* samples has no noise
//! floor at all, so any comparison touching one is flagged as
//! low-confidence ([`Comparison::low_confidence`]) rather than silently
//! trusted. On top of that the thresholds are deliberately loose: drift
//! below [`WARN_RATIO`] passes silently, drift in
//! `[WARN_RATIO, FAIL_RATIO)` is reported but non-fatal, and only a
//! normalized slowdown of [`FAIL_RATIO`] or worse fails the gate.

use std::time::Instant;

use dlp_core::obs::{BenchEntry, BenchReport};
use dlp_core::{PipelineError, Stage};

/// Normalized slowdown at which a finding is reported (non-fatal).
pub const WARN_RATIO: f64 = 1.5;

/// Normalized slowdown at which the gate fails.
pub const FAIL_RATIO: f64 = 2.0;

/// The entry label every comparable report must carry.
pub const CALIBRATION_LABEL: &str = "calibration/spin";

/// The unit of timed entries; only these are compared.
pub const TIMED_UNIT: &str = "ns/iter";

/// Timed batches per workload; the gate compares the best one.
const BATCHES: usize = 5;

/// Wall time of `iters` calls of `f`, in ns per call.
fn time_batch(iters: usize, f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    (0..iters).for_each(|_| f());
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Times each of `workloads` over `BATCHES` (5) rounds, one batch of each
/// per round, and returns each one's ns/iter per batch. A batch is grown
/// 4× at a time until it takes ≥ 5 ms (the warm-up), so the numbers sit
/// above timer noise without making the gate slow. Round-robin sampling
/// spreads a slow phase of the host over one sample of every workload
/// instead of every sample of one.
pub fn sample_rounds(workloads: &mut [impl FnMut()]) -> Vec<Vec<f64>> {
    let iters: Vec<usize> = workloads
        .iter_mut()
        .map(|f| {
            let mut iters = 1;
            while time_batch(iters, f) * (iters as f64) < 5e6 && iters < 1 << 20 {
                iters *= 4;
            }
            iters
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(BATCHES); workloads.len()];
    for _ in 0..BATCHES {
        for ((f, &n), s) in workloads.iter_mut().zip(&iters).zip(&mut samples) {
            s.push(time_batch(n, f));
        }
    }
    samples
}

/// [`sample_rounds`] of one workload: its five batches in a row.
pub fn sample_ns<R>(mut f: impl FnMut() -> R) -> Vec<f64> {
    let run = move || {
        std::hint::black_box(f());
    };
    sample_rounds(&mut [run]).swap_remove(0)
}

/// The fixed CPU-bound calibration loop: integer xorshift, no memory
/// traffic, so it tracks raw core speed and nothing else.
pub fn calibration_spin() -> u64 {
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut acc = 0u64;
    for _ in 0..4096 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    acc
}

/// A failure of the gate itself (a report that cannot be read or
/// compared, a sweep that is not deterministic), as a bench-stage error.
pub fn gate_error(msg: impl std::fmt::Display) -> PipelineError {
    PipelineError::new(Stage::Bench, msg.to_string())
}

/// Why two reports could not be compared at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegressError {
    /// A report is missing its calibration entry.
    MissingCalibration {
        /// `"baseline"` or `"current"`.
        which: &'static str,
    },
    /// A calibration value was zero, negative, or non-finite.
    BadCalibration {
        /// `"baseline"` or `"current"`.
        which: &'static str,
    },
}

impl std::fmt::Display for RegressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegressError::MissingCalibration { which } => write!(
                f,
                "{which} report has no {CALIBRATION_LABEL:?} entry; \
                 reports without calibration cannot be compared across machines"
            ),
            RegressError::BadCalibration { which } => {
                write!(
                    f,
                    "{which} report's calibration value is not a positive number"
                )
            }
        }
    }
}

impl std::error::Error for RegressError {}

/// Per-workload comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Normalized drift below [`WARN_RATIO`].
    Pass,
    /// Normalized slowdown in `[WARN_RATIO, FAIL_RATIO)` — reported,
    /// non-fatal.
    Warn,
    /// Normalized slowdown of [`FAIL_RATIO`] or worse.
    Fail,
}

/// One compared workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The workload label.
    pub label: String,
    /// Baseline cost in ns/iter (best sample).
    pub baseline_ns: f64,
    /// Current cost in ns/iter (best sample).
    pub current_ns: f64,
    /// Calibration-normalized slowdown: `> 1` is slower than baseline.
    pub ratio: f64,
    /// The verdict the thresholds assign to `ratio`.
    pub verdict: Verdict,
}

/// The outcome of comparing a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Compared workloads, in the current report's order.
    pub findings: Vec<Finding>,
    /// Timed workloads present now but absent from the baseline
    /// (non-fatal: the baseline predates them).
    pub missing_in_baseline: Vec<String>,
    /// Timed workloads in the baseline that were not measured now
    /// (non-fatal, but reported — silent coverage loss hides regressions).
    pub missing_in_current: Vec<String>,
    /// `(baseline, current)` CPU counts when they differ (non-fatal).
    ///
    /// Calibration cancels core *speed*, not core *count*: a baseline
    /// recorded on a single-CPU container makes any multi-threaded
    /// "speedup" (or slowdown) on real hardware an artifact of the
    /// environment, not the code — the committed 0.6x parallel
    /// "speedup" was exactly this.
    pub cpu_mismatch: Option<(usize, usize)>,
    /// Compared workloads where at least one side carried no raw
    /// samples (non-fatal, but reported): a single-shot wall time has
    /// no noise floor, so its verdict is low-confidence and a flap
    /// should be read as measurement noise before code drift.
    pub low_confidence: Vec<String>,
}

impl Comparison {
    /// Whether the gate passes (warnings allowed, failures not).
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|f| f.verdict != Verdict::Fail)
    }

    /// Findings at or above the warn threshold, worst first.
    pub fn flagged(&self) -> Vec<&Finding> {
        let mut out: Vec<&Finding> = self
            .findings
            .iter()
            .filter(|f| f.verdict != Verdict::Pass)
            .collect();
        out.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
        out
    }
}

/// The least-noise cost estimate of an entry: the minimum sample when
/// samples exist, the headline value otherwise.
fn best_ns(entry: &BenchEntry) -> f64 {
    entry
        .samples
        .iter()
        .copied()
        .reduce(f64::min)
        .unwrap_or(entry.value)
}

fn calibration_of(report: &BenchReport, which: &'static str) -> Result<f64, RegressError> {
    let entry = report
        .entry(CALIBRATION_LABEL)
        .ok_or(RegressError::MissingCalibration { which })?;
    let value = best_ns(entry);
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(RegressError::BadCalibration { which })
    }
}

fn verdict_for(ratio: f64) -> Verdict {
    if !ratio.is_finite() || ratio >= FAIL_RATIO {
        Verdict::Fail
    } else if ratio >= WARN_RATIO {
        Verdict::Warn
    } else {
        Verdict::Pass
    }
}

/// Compares the timed (`ns/iter`) entries of `current` against
/// `baseline`, normalizing both sides by their own calibration entry.
///
/// # Errors
///
/// [`RegressError`] when either report lacks a usable calibration entry
/// — without it the numbers are not comparable across machines and any
/// verdict would be noise.
pub fn compare(baseline: &BenchReport, current: &BenchReport) -> Result<Comparison, RegressError> {
    let base_cal = calibration_of(baseline, "baseline")?;
    let cur_cal = calibration_of(current, "current")?;
    let timed = |e: &&BenchEntry| e.unit == TIMED_UNIT && e.label != CALIBRATION_LABEL;
    let mut findings = Vec::new();
    let mut missing_in_baseline = Vec::new();
    let mut low_confidence = Vec::new();
    for entry in current.entries.iter().filter(timed) {
        let Some(base) = baseline
            .entry(&entry.label)
            .filter(|e| e.unit == TIMED_UNIT)
        else {
            missing_in_baseline.push(entry.label.clone());
            continue;
        };
        if base.samples.is_empty() || entry.samples.is_empty() {
            low_confidence.push(entry.label.clone());
        }
        let baseline_ns = best_ns(base);
        let current_ns = best_ns(entry);
        let ratio = if baseline_ns > 0.0 {
            (current_ns / cur_cal) / (baseline_ns / base_cal)
        } else {
            f64::INFINITY
        };
        findings.push(Finding {
            label: entry.label.clone(),
            baseline_ns,
            current_ns,
            ratio,
            verdict: verdict_for(ratio),
        });
    }
    let missing_in_current = baseline
        .entries
        .iter()
        .filter(timed)
        .filter(|e| current.entry(&e.label).is_none())
        .map(|e| e.label.clone())
        .collect();
    let cpu_mismatch =
        (baseline.env.cpus != current.env.cpus).then_some((baseline.env.cpus, current.env.cpus));
    Ok(Comparison {
        findings,
        missing_in_baseline,
        missing_in_current,
        cpu_mismatch,
        low_confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, f64)]) -> BenchReport {
        let mut r = BenchReport::new("t");
        for &(label, ns) in entries {
            r.record_samples(label, TIMED_UNIT, &[ns, ns * 1.1]);
        }
        r
    }

    #[test]
    fn identical_reports_pass_with_unit_ratios() {
        let base = report(&[(CALIBRATION_LABEL, 100.0), ("w/a", 1000.0), ("w/b", 5000.0)]);
        let cmp = compare(&base, &base).expect("comparable");
        assert_eq!(cmp.findings.len(), 2, "calibration itself is not a finding");
        for f in &cmp.findings {
            assert!((f.ratio - 1.0).abs() < 1e-12, "{f:?}");
            assert_eq!(f.verdict, Verdict::Pass);
        }
        assert!(cmp.passed());
        assert!(cmp.flagged().is_empty());
    }

    #[test]
    fn calibration_cancels_machine_speed() {
        // The "new machine" is uniformly 3x slower — every workload AND
        // the calibration loop. Normalized drift is 1.0: no regression.
        let base = report(&[(CALIBRATION_LABEL, 100.0), ("w/a", 1000.0)]);
        let cur = report(&[(CALIBRATION_LABEL, 300.0), ("w/a", 3000.0)]);
        let cmp = compare(&base, &cur).expect("comparable");
        assert!((cmp.findings[0].ratio - 1.0).abs() < 1e-12);
        assert!(cmp.passed());
    }

    #[test]
    fn a_2x_slowdown_fails_and_1_6x_warns() {
        let base = report(&[
            (CALIBRATION_LABEL, 100.0),
            ("w/slow", 1000.0),
            ("w/meh", 1000.0),
        ]);
        let cur = report(&[
            (CALIBRATION_LABEL, 100.0),
            ("w/slow", 2000.0),
            ("w/meh", 1600.0),
        ]);
        let cmp = compare(&base, &cur).expect("comparable");
        assert!(!cmp.passed());
        let flagged = cmp.flagged();
        assert_eq!(flagged.len(), 2);
        assert_eq!(flagged[0].label, "w/slow", "worst first");
        assert_eq!(flagged[0].verdict, Verdict::Fail);
        assert_eq!(flagged[1].verdict, Verdict::Warn);
    }

    #[test]
    fn best_sample_not_median_is_compared() {
        // One contaminated sample (10x) must not fail the gate: the
        // minimum sample is the cost estimate.
        let mut base = BenchReport::new("t");
        base.record_samples(CALIBRATION_LABEL, TIMED_UNIT, &[100.0]);
        base.record_samples("w/a", TIMED_UNIT, &[1000.0, 1010.0, 990.0]);
        let mut cur = BenchReport::new("t");
        cur.record_samples(CALIBRATION_LABEL, TIMED_UNIT, &[100.0]);
        cur.record_samples("w/a", TIMED_UNIT, &[10_000.0, 1005.0, 9900.0]);
        let cmp = compare(&base, &cur).expect("comparable");
        assert_eq!(
            cmp.findings[0].verdict,
            Verdict::Pass,
            "{:?}",
            cmp.findings[0]
        );
    }

    #[test]
    fn coverage_drift_is_reported_not_fatal() {
        let base = report(&[(CALIBRATION_LABEL, 100.0), ("w/old", 1000.0)]);
        let cur = report(&[(CALIBRATION_LABEL, 100.0), ("w/new", 1000.0)]);
        let cmp = compare(&base, &cur).expect("comparable");
        assert!(cmp.findings.is_empty());
        assert_eq!(cmp.missing_in_baseline, vec!["w/new".to_string()]);
        assert_eq!(cmp.missing_in_current, vec!["w/old".to_string()]);
        assert!(cmp.passed());
    }

    #[test]
    fn differing_cpu_counts_are_flagged_not_fatal() {
        let base = report(&[(CALIBRATION_LABEL, 100.0), ("w/a", 1000.0)]);
        let mut cur = base.clone();
        cur.env.cpus = base.env.cpus + 7;
        let cmp = compare(&base, &cur).expect("comparable");
        assert_eq!(cmp.cpu_mismatch, Some((base.env.cpus, base.env.cpus + 7)));
        assert!(cmp.passed(), "a cpus mismatch warns, it does not fail");
        let same = compare(&base, &base).expect("comparable");
        assert_eq!(same.cpu_mismatch, None);
    }

    #[test]
    fn non_timed_entries_are_ignored() {
        let mut base = report(&[(CALIBRATION_LABEL, 100.0)]);
        base.record("speedup", "ratio", 2.0);
        let mut cur = report(&[(CALIBRATION_LABEL, 100.0)]);
        cur.record("speedup", "ratio", 0.5);
        let cmp = compare(&base, &cur).expect("comparable");
        assert!(cmp.findings.is_empty(), "ratios are not timed workloads");
        assert!(cmp.missing_in_baseline.is_empty());
    }

    #[test]
    fn missing_calibration_is_a_typed_error() {
        let base = report(&[("w/a", 1000.0)]);
        let cur = report(&[(CALIBRATION_LABEL, 100.0), ("w/a", 1000.0)]);
        assert_eq!(
            compare(&base, &cur),
            Err(RegressError::MissingCalibration { which: "baseline" })
        );
        assert_eq!(
            compare(&cur, &base),
            Err(RegressError::MissingCalibration { which: "current" })
        );
        let mut zero = report(&[("w/a", 1000.0)]);
        zero.record_samples(CALIBRATION_LABEL, TIMED_UNIT, &[0.0]);
        assert_eq!(
            compare(&zero, &cur),
            Err(RegressError::BadCalibration { which: "baseline" })
        );
        let err = RegressError::MissingCalibration { which: "baseline" };
        assert!(err.to_string().contains("calibration"));
    }

    #[test]
    fn empty_samples_entries_are_flagged_low_confidence() {
        // A single-shot wall time (record(), no samples) on either side
        // must be named as low-confidence, not silently compared as if
        // it had a noise floor.
        let mut base = report(&[(CALIBRATION_LABEL, 100.0)]);
        base.record("w/oneshot", TIMED_UNIT, 1000.0);
        let mut cur = report(&[(CALIBRATION_LABEL, 100.0)]);
        cur.record_samples("w/oneshot", TIMED_UNIT, &[1000.0, 1010.0]);
        let cmp = compare(&base, &cur).expect("comparable");
        assert_eq!(cmp.low_confidence, vec!["w/oneshot".to_string()]);
        // The entry is still compared (its headline value is the best
        // available estimate), just not trusted silently.
        assert_eq!(cmp.findings.len(), 1);
        // Empty samples on the current side flag too.
        let cmp = compare(&cur, &base).expect("comparable");
        assert_eq!(cmp.low_confidence, vec!["w/oneshot".to_string()]);
        // Sampled entries on both sides do not.
        let cmp = compare(&cur, &cur).expect("comparable");
        assert!(cmp.low_confidence.is_empty());
    }

    #[test]
    fn vanished_baseline_cost_fails_instead_of_dividing_by_zero() {
        let mut base = report(&[(CALIBRATION_LABEL, 100.0)]);
        base.record_samples("w/a", TIMED_UNIT, &[0.0]);
        let cur = report(&[(CALIBRATION_LABEL, 100.0), ("w/a", 1000.0)]);
        let cmp = compare(&base, &cur).expect("comparable");
        assert_eq!(cmp.findings[0].verdict, Verdict::Fail);
        assert!(cmp.findings[0].ratio.is_infinite());
    }
}
