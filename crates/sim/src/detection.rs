//! Shared detection bookkeeping: vector generation, first-detection
//! records, and coverage curves.

use dlp_core::rng::Xorshift64Star;

use crate::SimError;

/// Generates `count` uniformly random input vectors of width `width`,
/// deterministically from `seed` (self-contained xorshift64* stream).
///
/// # Example
///
/// ```
/// let v = dlp_sim::detection::random_vectors(5, 10, 42);
/// assert_eq!(v.len(), 10);
/// assert_eq!(v[0].len(), 5);
/// assert_eq!(v, dlp_sim::detection::random_vectors(5, 10, 42));
/// ```
pub fn random_vectors(width: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Xorshift64Star::new(seed);
    (0..count)
        .map(|_| (0..width).map(|_| rng.next_bool()).collect())
        .collect()
}

/// First-detection records for a fault list simulated against a vector
/// sequence: `first_detect[j]` is the (0-based) index of the first vector
/// that detects fault `j`, or `None` if the sequence never detects it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionRecord {
    first_detect: Vec<Option<usize>>,
    vector_count: usize,
}

impl DetectionRecord {
    /// Wraps raw first-detection data.
    pub fn new(first_detect: Vec<Option<usize>>, vector_count: usize) -> Self {
        DetectionRecord {
            first_detect,
            vector_count,
        }
    }

    /// Per-fault first detection indices.
    pub fn first_detect(&self) -> &[Option<usize>] {
        &self.first_detect
    }

    /// Number of faults tracked.
    pub fn fault_count(&self) -> usize {
        self.first_detect.len()
    }

    /// Number of vectors that were simulated.
    pub fn vector_count(&self) -> usize {
        self.vector_count
    }

    /// Number of faults detected by the full sequence.
    pub fn detected_count(&self) -> usize {
        self.first_detect.iter().filter(|d| d.is_some()).count()
    }

    /// Detection mask after the first `k` vectors: `mask[j]` is true iff
    /// fault `j` is detected by some vector with index `< k`.
    pub fn detected_after(&self, k: usize) -> Vec<bool> {
        self.first_detect
            .iter()
            .map(|d| matches!(d, Some(i) if *i < k))
            .collect()
    }

    /// Unweighted coverage after `k` vectors.
    pub fn coverage_after(&self, k: usize) -> f64 {
        if self.first_detect.is_empty() {
            return 0.0;
        }
        self.detected_after(k).iter().filter(|&&b| b).count() as f64
            / self.first_detect.len() as f64
    }

    /// The full unweighted coverage curve, sampled at every vector count
    /// `k = 0..=vector_count`.
    #[cfg(test)]
    pub(crate) fn coverage_curve(&self) -> Vec<f64> {
        let mut per_k = vec![0usize; self.vector_count + 1];
        for d in self.first_detect.iter().flatten() {
            per_k[d + 1] += 1;
        }
        let n = self.first_detect.len().max(1) as f64;
        let mut acc = 0usize;
        per_k
            .iter()
            .map(|&c| {
                acc += c;
                acc as f64 / n
            })
            .collect()
    }

    /// Weighted coverage after `k` vectors, given per-fault weights
    /// (the `θ(k)` of the paper when weights are fault weights).
    ///
    /// A non-positive total weight yields `Ok(0.0)` — by convention the
    /// coverage of nothing is zero, never NaN.
    ///
    /// # Errors
    ///
    /// [`SimError::WeightCountMismatch`] if `weights.len()` differs from
    /// the fault count; [`SimError::NonFiniteWeight`] if any weight is NaN
    /// or infinite (either would silently poison the coverage value).
    pub fn weighted_coverage_after(&self, k: usize, weights: &[f64]) -> Result<f64, SimError> {
        if weights.len() != self.first_detect.len() {
            return Err(SimError::WeightCountMismatch {
                weights: weights.len(),
                faults: self.first_detect.len(),
            });
        }
        if let Some(index) = weights.iter().position(|w| !w.is_finite()) {
            return Err(SimError::NonFiniteWeight { index });
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Ok(0.0);
        }
        let covered: f64 = self
            .first_detect
            .iter()
            .zip(weights)
            .filter(|(d, _)| matches!(d, Some(i) if *i < k))
            .map(|(_, w)| w)
            .sum();
        Ok(covered / total)
    }
}

/// Count-capped detection records for a fault list: for each fault, the
/// (0-based, strictly increasing) indices of the vectors that scored its
/// 1st..n-th detection, where `n` is the cap the simulation ran with.
///
/// Produced by [`crate::ppsfp::simulate_counted_resumable`]; a fault whose list is
/// shorter than the cap was detected exactly that many times by the whole
/// sequence, while a list of length `n_cap` means *at least* `n_cap`
/// detections (the simulator stops counting there).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionProfile {
    detections: Vec<Vec<usize>>,
    n_cap: usize,
    vector_count: usize,
}

impl DetectionProfile {
    /// Wraps raw rank-indexed detection data.
    pub fn new(detections: Vec<Vec<usize>>, n_cap: usize, vector_count: usize) -> Self {
        DetectionProfile {
            detections,
            n_cap,
            vector_count,
        }
    }

    /// The detection cap the simulation ran with.
    pub fn n_cap(&self) -> usize {
        self.n_cap
    }

    /// Number of faults tracked.
    pub fn fault_count(&self) -> usize {
        self.detections.len()
    }

    /// Number of vectors that were simulated.
    pub fn vector_count(&self) -> usize {
        self.vector_count
    }

    /// Detecting-vector indices of fault `j`, ascending, capped at
    /// [`Self::n_cap`] entries.
    pub fn detections(&self, j: usize) -> &[usize] {
        &self.detections[j]
    }

    /// Detection count of fault `j`, saturated at the cap.
    pub fn count(&self, j: usize) -> usize {
        self.detections[j].len()
    }

    /// Per-fault detection counts, each saturated at the cap.
    pub fn counts(&self) -> Vec<usize> {
        self.detections.iter().map(Vec::len).collect()
    }

    /// Projects the profile onto its rank-1 detections. With `n_cap = 1`
    /// this is exactly the [`DetectionRecord`] of
    /// [`crate::ppsfp::simulate_resumable`].
    #[cfg(test)]
    pub(crate) fn first_detect_record(&self) -> DetectionRecord {
        DetectionRecord::new(
            self.detections.iter().map(|d| d.first().copied()).collect(),
            self.vector_count,
        )
    }

    /// Fraction of faults detected at least `n` times.
    pub fn coverage_at_least(&self, n: usize) -> f64 {
        if self.detections.is_empty() {
            return 0.0;
        }
        self.detections.iter().filter(|d| d.len() >= n).count() as f64
            / self.detections.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> DetectionRecord {
        DetectionRecord::new(vec![Some(0), Some(2), None, Some(2)], 4)
    }

    #[test]
    fn counting() {
        let r = record();
        assert_eq!(r.fault_count(), 4);
        assert_eq!(r.vector_count(), 4);
        assert_eq!(r.detected_count(), 3);
    }

    #[test]
    fn masks_and_coverage() {
        let r = record();
        assert_eq!(r.detected_after(0), vec![false; 4]);
        assert_eq!(r.detected_after(1), vec![true, false, false, false]);
        assert_eq!(r.detected_after(3), vec![true, true, false, true]);
        assert!((r.coverage_after(3) - 0.75).abs() < 1e-12);
        assert_eq!(r.coverage_curve(), vec![0.0, 0.25, 0.25, 0.75, 0.75]);
    }

    #[test]
    fn weighted_coverage() {
        let r = record();
        let w = [1.0, 2.0, 3.0, 4.0];
        // After 3 vectors faults 0, 1, 3 are detected: (1+2+4)/10.
        assert!((r.weighted_coverage_after(3, &w).unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(r.weighted_coverage_after(0, &w).unwrap(), 0.0);
        assert!(matches!(
            r.weighted_coverage_after(3, &[1.0]),
            Err(SimError::WeightCountMismatch { .. })
        ));
        assert_eq!(r.weighted_coverage_after(3, &[0.0; 4]).unwrap(), 0.0);
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        // Regression: NaN and ±∞ weights used to propagate silently into
        // the coverage value (NaN total, or ∞/∞). They are contract
        // violations now.
        let r = record();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let w = [1.0, bad, 3.0, 4.0];
            assert_eq!(
                r.weighted_coverage_after(3, &w),
                Err(SimError::NonFiniteWeight { index: 1 }),
                "weight {bad} must be rejected"
            );
        }
        // The reported index is the first offender.
        let w = [f64::NAN, f64::INFINITY, 0.0, 0.0];
        assert_eq!(
            r.weighted_coverage_after(3, &w),
            Err(SimError::NonFiniteWeight { index: 0 })
        );
    }

    fn profile() -> DetectionProfile {
        DetectionProfile::new(vec![vec![0, 2, 5], vec![1], vec![]], 3, 8)
    }

    #[test]
    fn profile_counts_and_ranks() {
        let p = profile();
        assert_eq!(p.n_cap(), 3);
        assert_eq!(p.fault_count(), 3);
        assert_eq!(p.vector_count(), 8);
        assert_eq!(p.counts(), vec![3, 1, 0]);
        assert_eq!(p.count(0), 3);
        assert_eq!(p.detections(0), &[0, 2, 5]);
        assert_eq!(p.detections(2), &[] as &[usize]);
    }

    #[test]
    fn profile_masks_and_projection() {
        let p = profile();
        assert!((p.coverage_at_least(1) - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.coverage_at_least(3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            p.first_detect_record(),
            DetectionRecord::new(vec![Some(0), Some(1), None], 8)
        );
        let empty = DetectionProfile::new(vec![], 2, 0);
        assert_eq!(empty.coverage_at_least(1), 0.0);
    }

    #[test]
    fn vectors_are_deterministic_and_shaped() {
        let a = random_vectors(7, 3, 1);
        assert_eq!(a.len(), 3);
        assert!(a.iter().all(|v| v.len() == 7));
        assert_ne!(random_vectors(7, 3, 1), random_vectors(7, 3, 2));
    }

    #[test]
    fn empty_record_is_safe() {
        let r = DetectionRecord::new(vec![], 0);
        assert_eq!(r.coverage_after(0), 0.0);
        assert_eq!(r.coverage_curve(), vec![0.0]);
    }
}
