//! Log-bucketed latency/size histograms with deterministic merges.
//!
//! Averages hide the tail: a parallel stage whose *mean* chunk time looks
//! healthy can still be dominated by one straggler worker. [`Histogram`]
//! records a value distribution in logarithmic buckets so p50/p90/p99 and
//! the maximum survive aggregation, at constant memory per histogram.
//!
//! # Bucketing rule
//!
//! Buckets are **log-linear** with [`SUB_BUCKETS`] = 4 sub-buckets per
//! power of two (the HDR-histogram shape, quantization error ≤ 25 %):
//!
//! * bucket `0` holds everything below `1.0`;
//! * bucket `1 + 4·octave + sub` holds `v ∈ [2^octave·(1 + sub/4),
//!   2^octave·(1 + (sub+1)/4))` for `octave = ⌊log2 v⌋`.
//!
//! The index is computed from exact IEEE 754 operations (power-of-two
//! scalings and a Sterbenz subtraction), so the same value always lands
//! in the same bucket on every platform. Values are
//! intended to be non-negative magnitudes (nanoseconds, counts); negative
//! or non-finite observations are tallied in an `invalid` counter and
//! excluded from the distribution.
//!
//! # Determinism
//!
//! Bucket counts are `u64` tallies, so merging histograms — or recording
//! the same multiset of values in any order, from any number of workers —
//! yields identical bucket counts, count, min, max, and therefore
//! identical percentiles. (The `sum` is an `f64` accumulation and is only
//! order-independent when the values sum exactly, e.g. integral values
//! below 2^53.)

use std::collections::BTreeMap;

/// Sub-buckets per power of two (relative quantization error ≤ 1/4).
pub const SUB_BUCKETS: u32 = 4;

/// Computes the bucket index for a non-negative finite value.
fn bucket_index(v: f64) -> u32 {
    if v < 1.0 {
        return 0;
    }
    // Saturating cast: absurdly large values collapse into the top bucket.
    let m = v as u64;
    let octave = 63 - m.leading_zeros();
    // For in-range v, v / 2^octave ∈ [1, 2); the power-of-two division,
    // the subtraction (Sterbenz), and the power-of-two multiplication
    // are all exact in IEEE 754, so the sub-bucket is deterministic on
    // every platform. Saturated values clamp into the top sub-bucket.
    let scaled = v / (1u64 << octave) as f64;
    let sub = (((scaled - 1.0) * f64::from(SUB_BUCKETS)) as u32).min(SUB_BUCKETS - 1);
    1 + octave * SUB_BUCKETS + sub
}

/// The exclusive upper bound of a bucket (`le` boundary in an exposition).
fn bucket_upper_bound(index: u32) -> f64 {
    if index == 0 {
        return 1.0;
    }
    let i = index - 1;
    let octave = i / SUB_BUCKETS;
    let sub = i % SUB_BUCKETS;
    (1u64 << octave) as f64 * (1.0 + f64::from(sub + 1) / f64::from(SUB_BUCKETS))
}

/// A mergeable log-bucketed histogram.
///
/// # Example
///
/// ```
/// use dlp_core::obs::hist::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [1.0, 2.0, 2.0, 40.0, 1000.0] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 5);
/// let snap = h.snapshot("demo");
/// assert_eq!(snap.max, 1000.0);
/// assert!(snap.p50().unwrap() <= snap.p90().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<u32, u64>,
    count: u64,
    invalid: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: BTreeMap::new(),
            count: 0,
            invalid: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value. Negative or non-finite values are tallied as
    /// `invalid` and excluded from the distribution.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.invalid = self.invalid.saturating_add(1);
            return;
        }
        self.count = self.count.saturating_add(1);
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        *self.buckets.entry(bucket_index(v)).or_insert(0) += 1;
    }

    /// Merges another histogram into this one. Bucket counts add as
    /// integers, so the merged percentiles are independent of merge order
    /// and of how observations were partitioned across workers.
    pub fn merge(&mut self, other: &Histogram) {
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += c;
        }
        self.count = self.count.saturating_add(other.count);
        self.invalid = self.invalid.saturating_add(other.invalid);
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of valid observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of rejected (negative / non-finite) observations.
    pub fn invalid(&self) -> u64 {
        self.invalid
    }

    /// An immutable snapshot carrying `name`, for a `RunReport`.
    pub fn snapshot(&self, name: &str) -> HistEntry {
        HistEntry {
            name: name.to_string(),
            count: self.count,
            invalid: self.invalid,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .map(|(&b, &c)| (bucket_upper_bound(b), c))
                .collect(),
        }
    }
}

/// A named histogram snapshot inside a `RunReport`.
///
/// `buckets` holds `(upper_bound, count)` pairs sorted by bound, with
/// *per-bucket* (not cumulative) counts; empty buckets are omitted. When
/// `count == 0`, `min` is `+∞` and `max` is `−∞` (serialised as `null`).
#[derive(Debug, Clone, PartialEq)]
pub struct HistEntry {
    /// The histogram name.
    pub name: String,
    /// Valid observations.
    pub count: u64,
    /// Rejected (negative / non-finite) observations.
    pub invalid: u64,
    /// Sum of valid observations.
    pub sum: f64,
    /// Smallest valid observation (`+∞` when empty).
    pub min: f64,
    /// Largest valid observation (`−∞` when empty).
    pub max: f64,
    /// `(upper_bound, count)` per non-empty bucket, sorted by bound.
    pub buckets: Vec<(f64, u64)>,
}

impl HistEntry {
    /// The `q`-quantile upper-bound estimate, `q ∈ (0, 1]`: the bucket
    /// boundary at or above the ⌈q·count⌉-th observation, clamped to the
    /// exact recorded maximum. `None` when the histogram is empty.
    ///
    /// Depends only on bucket counts and `max`, so it is deterministic
    /// under merging (see the module docs).
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) || q <= 0.0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(bound, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return Some(bound.min(self.max));
            }
        }
        Some(self.max)
    }

    /// The median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// The 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.percentile(0.90)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }

    /// Mean of the valid observations, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_log_linear() {
        // [0,1) -> 0; [1,1.25) -> 1; 2^k lands at the octave start.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.999), 0);
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.24), 1);
        assert_eq!(bucket_index(2.0), 1 + SUB_BUCKETS);
        assert_eq!(bucket_index(4.0), 1 + 2 * SUB_BUCKETS);
        assert_eq!(bucket_index(3.0), 1 + SUB_BUCKETS + 2); // 3 = 2·(1+2/4)
        assert_eq!(bucket_upper_bound(0), 1.0);
        assert_eq!(bucket_upper_bound(1), 1.25);
        assert_eq!(bucket_upper_bound(1 + SUB_BUCKETS), 2.5);
        // Every value sits strictly below its bucket's upper bound and at
        // or above the previous bucket's bound.
        for v in [1.0, 1.3, 2.0, 3.7, 63.0, 64.0, 100.0, 1e6, 1e12] {
            let b = bucket_index(v);
            assert!(v < bucket_upper_bound(b), "{v} < ub({b})");
            if b > 0 {
                assert!(v >= bucket_upper_bound(b - 1), "{v} >= ub({})", b - 1);
            }
        }
        // Huge values saturate into the top bucket without panicking.
        let top = bucket_index(1e300);
        assert_eq!(top, bucket_index(u64::MAX as f64));
        assert!(bucket_upper_bound(top).is_finite());
    }

    #[test]
    fn invalid_observations_are_counted_separately() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(-1.0);
        h.observe(5.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.invalid(), 3);
        let snap = h.snapshot("x");
        assert_eq!(snap.min, 5.0);
        assert_eq!(snap.max, 5.0);
        assert_eq!(snap.p50(), Some(5.0));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let snap = Histogram::new().snapshot("empty");
        assert_eq!(snap.percentile(0.5), None);
        assert_eq!(snap.mean(), None);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn percentiles_are_ordered_and_clamped_to_max() {
        let mut h = Histogram::new();
        for i in 0..1000u64 {
            h.observe(i as f64);
        }
        let s = h.snapshot("p");
        let (p50, p90, p99) = (s.p50().unwrap(), s.p90().unwrap(), s.p99().unwrap());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max);
        // Log-bucket quantization error is bounded by 25 % + the clamp.
        assert!((400.0..=640.0).contains(&p50), "p50 = {p50}");
        assert!((800.0..=1000.0).contains(&p90), "p90 = {p90}");
        // A single-value histogram reports that value everywhere.
        let mut one = Histogram::new();
        one.observe(42.0);
        let s = one.snapshot("one");
        assert_eq!(s.p50(), Some(42.0));
        assert_eq!(s.p99(), Some(42.0));
    }

    /// Deterministic pseudo-random integral values (exact f64 sums).
    fn test_values(n: usize) -> Vec<f64> {
        let mut x = 0x9E3779B97F4A7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1_000_000) as f64
            })
            .collect()
    }

    #[test]
    fn merge_is_partition_and_order_invariant() {
        let values = test_values(1000);
        let mut reference = Histogram::new();
        for &v in &values {
            reference.observe(v);
        }
        // Partition into k parts (round-robin), merge in forward and
        // reverse order: identical snapshots either way.
        for k in [2usize, 3, 7] {
            let mut parts = vec![Histogram::new(); k];
            for (i, &v) in values.iter().enumerate() {
                parts[i % k].observe(v);
            }
            for ordered in [true, false] {
                let mut merged = Histogram::new();
                let order: Vec<usize> = if ordered {
                    (0..k).collect()
                } else {
                    (0..k).rev().collect()
                };
                for i in order {
                    merged.merge(&parts[i]);
                }
                assert_eq!(merged.snapshot("m"), reference.snapshot("m"), "k={k}");
            }
        }
    }

    #[test]
    fn concurrent_observation_is_deterministic() {
        // Four threads each observe a fixed disjoint slice into clones,
        // merged afterwards: the result equals the serial histogram no
        // matter how the scheduler interleaved them.
        let values = test_values(4000);
        let mut serial = Histogram::new();
        for &v in &values {
            serial.observe(v);
        }
        let merged = std::sync::Mutex::new(Histogram::new());
        std::thread::scope(|scope| {
            for chunk in values.chunks(1000) {
                let merged = &merged;
                scope.spawn(move || {
                    let mut local = Histogram::new();
                    for &v in chunk {
                        local.observe(v);
                    }
                    merged.lock().unwrap().merge(&local);
                });
            }
        });
        let merged = merged.into_inner().unwrap();
        assert_eq!(merged.snapshot("t"), serial.snapshot("t"));
    }
}
