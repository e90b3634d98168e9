//! Yield, coverage and defect level over *weighted realistic faults*
//! (eqs. 3–6 of the paper).
//!
//! Each layout-extracted fault `j` carries a weight
//! `w_j = −ln(1 − p_j) = A_j · D_j` — the expected number of defects
//! inducing it (critical area × defect density). Then
//!
//! * `Y = exp(−Σ w_j)` (eq. 5),
//! * `θ = Σ_detected w_j / Σ_all w_j` (eq. 6) — the weighted realistic
//!   fault coverage,
//! * `DL = 1 − Y^(1−θ)` (eq. 3).
//!
//! [`FaultWeights`] owns the weight vector and answers all three, plus the
//! unweighted coverage `Γ` used in the paper's Fig. 6 contrast and the
//! log-histogram of Fig. 3.

use crate::error::check_unit;
use crate::ModelError;

/// The weight vector of an extracted realistic fault set.
///
/// # Example
///
/// ```
/// use dlp_core::weighted::FaultWeights;
///
/// let w = FaultWeights::new(vec![1e-3, 2e-3, 4e-3])?;
/// assert!((w.yield_value() - (-7e-3f64).exp()).abs() < 1e-12);
/// // Detecting the heaviest fault alone gives θ = 4/7.
/// let theta = w.theta(&[false, false, true])?;
/// assert!((theta - 4.0 / 7.0).abs() < 1e-12);
/// # Ok::<(), dlp_core::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultWeights {
    weights: Vec<f64>,
    total: f64,
}

impl FaultWeights {
    /// Wraps a weight vector. Weights must be non-negative and finite, and
    /// at least one must be positive.
    ///
    /// # Errors
    ///
    /// [`ModelError::BadFitData`] for an empty vector,
    /// [`ModelError::OutOfDomain`] for a negative/NaN weight or an all-zero
    /// vector.
    pub fn new(weights: Vec<f64>) -> Result<Self, ModelError> {
        if weights.is_empty() {
            return Err(ModelError::BadFitData("empty fault set"));
        }
        let mut total = 0.0;
        for &w in &weights {
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // rejects NaN too
            if !(w >= 0.0) || !w.is_finite() {
                return Err(ModelError::OutOfDomain {
                    parameter: "fault weight",
                    value: w,
                    range: "[0, ∞)",
                });
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(ModelError::OutOfDomain {
                parameter: "total fault weight",
                value: total,
                range: "(0, ∞)",
            });
        }
        Ok(FaultWeights { weights, total })
    }

    /// Number of faults.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True if the fault set is empty (unreachable through the
    /// constructors, but kept for `len`/`is_empty` pairing).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The raw weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `Σ w_j`, the expected number of fault-inducing defects per die.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Yield predicted from the weights: `Y = exp(−Σ w_j)` (eq. 5).
    pub fn yield_value(&self) -> f64 {
        (-self.total).exp()
    }

    /// Occurrence probability of fault `j`: `p_j = 1 − e^(−w_j)` (inverse
    /// of eq. 4).
    pub fn probability(&self, j: usize) -> f64 {
        1.0 - (-self.weights[j]).exp()
    }

    /// Returns a copy scaled so that `yield_value()` equals `target_yield`
    /// — the paper's device for comparing a small benchmark layout against
    /// a realistic chip-scale yield ("scaling the yield value can be
    /// interpreted as if the circuit has a different size but maintains the
    /// same testability features").
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] unless `target_yield ∈ (0, 1)`.
    pub fn scaled_to_yield(&self, target_yield: f64) -> Result<FaultWeights, ModelError> {
        if !(target_yield > 0.0 && target_yield < 1.0) {
            return Err(ModelError::OutOfDomain {
                parameter: "target yield",
                value: target_yield,
                range: "(0, 1)",
            });
        }
        let factor = -target_yield.ln() / self.total;
        let weights = self.weights.iter().map(|w| w * factor).collect();
        FaultWeights::new(weights)
    }

    /// Weighted realistic fault coverage `θ` (eq. 6) for a detection mask
    /// (`detected[j]` true if fault `j` is detected).
    ///
    /// # Errors
    ///
    /// [`ModelError::BadFitData`] if the mask length mismatches.
    pub fn theta(&self, detected: &[bool]) -> Result<f64, ModelError> {
        if detected.len() != self.weights.len() {
            return Err(ModelError::BadFitData("detection mask length mismatch"));
        }
        let covered: f64 = self
            .weights
            .iter()
            .zip(detected)
            .filter(|(_, &d)| d)
            .map(|(w, _)| w)
            .sum();
        Ok(covered / self.total)
    }

    /// Unweighted realistic fault coverage `Γ`: detected count over total
    /// count, treating all faults as equally likely (the paper's Fig. 6
    /// foil).
    ///
    /// # Errors
    ///
    /// [`ModelError::BadFitData`] if the mask length mismatches.
    pub fn gamma(&self, detected: &[bool]) -> Result<f64, ModelError> {
        if detected.len() != self.weights.len() {
            return Err(ModelError::BadFitData("detection mask length mismatch"));
        }
        Ok(detected.iter().filter(|&&d| d).count() as f64 / self.weights.len() as f64)
    }

    /// Defect level for a weighted coverage `θ` (eq. 3): `1 − Y^(1−θ)`
    /// with `Y` from the weights themselves.
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] unless `theta ∈ [0, 1]`.
    pub fn defect_level(&self, theta: f64) -> Result<f64, ModelError> {
        let theta = check_unit("weighted coverage", theta)?;
        Ok(1.0 - self.yield_value().powf(1.0 - theta))
    }

    /// Histogram of `log10(w_j)` over `bins` equal-width bins spanning the
    /// weight range — the paper's Fig. 3. Returns `(bin_edges, counts)`
    /// where `bin_edges.len() == counts.len() + 1`. Zero weights are
    /// skipped (they cannot occur on a log axis).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn log_weight_histogram(&self, bins: usize) -> (Vec<f64>, Vec<usize>) {
        assert!(bins > 0, "histogram needs at least one bin");
        let logs: Vec<f64> = self
            .weights
            .iter()
            .filter(|&&w| w > 0.0)
            .map(|w| w.log10())
            .collect();
        let (min, max) = logs
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let span = (max - min).max(1e-9);
        let mut counts = vec![0usize; bins];
        for &x in &logs {
            let mut b = ((x - min) / span * bins as f64) as usize;
            if b >= bins {
                b = bins - 1;
            }
            counts[b] += 1;
        }
        let edges: Vec<f64> = (0..=bins)
            .map(|i| min + span * i as f64 / bins as f64)
            .collect();
        (edges, counts)
    }

    /// The dispersion of the weights in decades:
    /// `log10(max_w / min_positive_w)`. The paper's Fig. 3 shows ≈ 3
    /// decades for the c432 layout, which is what invalidates the
    /// equal-probability assumption.
    pub fn weight_dispersion_decades(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for &w in &self.weights {
            if w > 0.0 {
                min = min.min(w);
                max = max.max(w);
            }
        }
        if max <= 0.0 || !min.is_finite() {
            0.0
        } else {
            (max / min).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FaultWeights {
        FaultWeights::new(vec![0.01, 0.02, 0.03, 0.04]).unwrap()
    }

    #[test]
    fn yield_from_weights() {
        let w = sample();
        assert!((w.total_weight() - 0.1).abs() < 1e-12);
        assert!((w.yield_value() - (-0.1f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn theta_and_gamma_differ_under_skew() {
        let w = sample();
        // Detect only the heaviest fault: Γ = 1/4, θ = 0.4.
        let mask = [false, false, false, true];
        assert!((w.gamma(&mask).unwrap() - 0.25).abs() < 1e-12);
        assert!((w.theta(&mask).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn full_detection_gives_unity_coverage_and_zero_dl() {
        let w = sample();
        let mask = [true; 4];
        assert!((w.theta(&mask).unwrap() - 1.0).abs() < 1e-12);
        assert!(w.defect_level(1.0).unwrap().abs() < 1e-12);
    }

    #[test]
    fn defect_level_matches_williams_brown_form() {
        let w = sample();
        let dl = w.defect_level(0.5).unwrap();
        let wb = crate::williams_brown::defect_level(w.yield_value(), 0.5).unwrap();
        assert!((dl - wb).abs() < 1e-12);
    }

    #[test]
    fn probability_weight_round_trip() {
        let probs = [0.1f64, 0.001, 0.25];
        let w = FaultWeights::new(probs.iter().map(|p| -(1.0 - p).ln()).collect()).unwrap();
        for (j, &p) in probs.iter().enumerate() {
            assert!((w.probability(j) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn yield_scaling_preserves_relative_weights() {
        let w = sample();
        let s = w.scaled_to_yield(0.75).unwrap();
        assert!((s.yield_value() - 0.75).abs() < 1e-12);
        let r0 = w.weights()[1] / w.weights()[0];
        let r1 = s.weights()[1] / s.weights()[0];
        assert!((r0 - r1).abs() < 1e-12);
        // θ of any mask is invariant under scaling.
        let mask = [true, false, true, false];
        assert!((w.theta(&mask).unwrap() - s.theta(&mask).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn histogram_covers_all_positive_weights() {
        let w = FaultWeights::new(vec![1e-9, 1e-8, 1e-7, 1e-7, 1e-6, 0.0]).unwrap();
        let (edges, counts) = w.log_weight_histogram(6);
        assert_eq!(edges.len(), 7);
        assert_eq!(counts.iter().sum::<usize>(), 5); // the zero weight is skipped
        assert!((w.weight_dispersion_decades() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(FaultWeights::new(vec![]).is_err());
        assert!(FaultWeights::new(vec![0.0, 0.0]).is_err());
        assert!(FaultWeights::new(vec![-1.0]).is_err());
        assert!(sample().theta(&[true]).is_err());
        assert!(sample().scaled_to_yield(1.5).is_err());
        // The open-unit boundary and NaN: Y = 0 diverges the log, Y = 1
        // leaves nothing to weight, NaN is never in domain.
        assert!(sample().scaled_to_yield(0.0).is_err());
        assert!(sample().scaled_to_yield(1.0).is_err());
        assert!(sample().scaled_to_yield(f64::NAN).is_err());
        assert!(sample().defect_level(f64::NAN).is_err());
    }

    #[test]
    fn defect_level_monotone_nonincreasing_in_theta() {
        let w = sample().scaled_to_yield(0.75).unwrap();
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let theta = i as f64 / 100.0;
            let dl = w.defect_level(theta).unwrap();
            assert!(dl.is_finite() && (0.0..=1.0).contains(&dl));
            assert!(dl <= prev + 1e-12, "DL must not rise with theta = {theta}");
            prev = dl;
        }
        assert!(w.defect_level(1.0).unwrap().abs() < 1e-12);
    }

    #[test]
    fn theta_gamma_bounds() {
        let mut rng = crate::rng::Xorshift64Star::new(17);
        for _ in 0..100 {
            let n = 1 + rng.next_below(49);
            let weights: Vec<f64> = (0..n).map(|_| 1e-9 + rng.next_f64() * 1e-3).collect();
            let mask_seed = rng.next_u64();
            let w = FaultWeights::new(weights).unwrap();
            let mask: Vec<bool> = (0..n).map(|i| mask_seed >> (i % 64) & 1 == 1).collect();
            let theta = w.theta(&mask).unwrap();
            let gamma = w.gamma(&mask).unwrap();
            assert!((0.0..=1.0 + 1e-12).contains(&theta));
            assert!((0.0..=1.0).contains(&gamma));
            // Adding detections never lowers θ.
            let all = w.theta(&vec![true; n]).unwrap();
            assert!(theta <= all + 1e-12);
        }
    }
}
