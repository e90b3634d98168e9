//! Deterministic gamma sampling on top of [`Xorshift64Star`].
//!
//! The compound fallout models need unit-mean Gamma(α, 1/α) multipliers;
//! this module supplies the standard Gamma(α, 1) sampler they are built
//! from. Marsaglia–Tsang squeeze-and-reject covers α ≥ 1 (over 98 % of
//! draws accept on the first try); the α < 1 range uses the boost
//! identity `G_α = G_{α+1} · U^{1/α}`. Both consume a *variable* number
//! of RNG draws — which is fine: the Monte-Carlo engine's determinism
//! contract only requires that each die's draws come from its shard
//! stream in sequence, not that the count per die is fixed.

use dlp_core::rng::Xorshift64Star;

/// A standard normal deviate via Box–Muller. `u1` is mapped into
/// `(0, 1]` so the logarithm is always finite.
fn standard_normal(rng: &mut Xorshift64Star) -> f64 {
    let u1 = 1.0 - rng.next_f64();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A Gamma(`alpha`, scale 1) deviate. Requires `alpha > 0` and finite;
/// the distribution constructors validate before any sampling happens,
/// so this is a debug assertion rather than a typed error.
fn sample_gamma(alpha: f64, rng: &mut Xorshift64Star) -> f64 {
    debug_assert!(alpha > 0.0 && alpha.is_finite());
    if alpha < 1.0 {
        // Boost: G_alpha = G_{alpha+1} * U^(1/alpha), U in (0, 1].
        let boost = (1.0 - rng.next_f64()).powf(1.0 / alpha);
        return sample_gamma(alpha + 1.0, rng) * boost;
    }
    // Marsaglia & Tsang (2000), "A simple method for generating gamma
    // variables".
    let d = alpha - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let t = 1.0 + c * x;
        if t <= 0.0 {
            continue;
        }
        let v = t * t * t;
        let u = rng.next_f64();
        if u < 1.0 - 0.0331 * (x * x) * (x * x) {
            return d * v;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// A unit-mean Gamma(α, 1/α) deviate — the mixing multiplier of the
/// compound models. Mean 1, variance 1/α: small α means heavy
/// clustering, α → ∞ degenerates to the constant 1.
pub fn sample_unit_gamma(alpha: f64, rng: &mut Xorshift64Star) -> f64 {
    sample_gamma(alpha, rng) / alpha
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(alpha: f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Xorshift64Star::new(seed);
        let samples: Vec<f64> = (0..n).map(|_| sample_unit_gamma(alpha, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn unit_gamma_has_unit_mean_and_inverse_alpha_variance() {
        for &alpha in &[0.3, 0.5, 1.0, 2.0, 8.0] {
            let (mean, var) = moments(alpha, 200_000, 0xA11A);
            assert!((mean - 1.0).abs() < 0.02, "alpha={alpha}: mean {mean}");
            let expected = 1.0 / alpha;
            assert!(
                (var - expected).abs() < 0.08 * expected.max(1.0),
                "alpha={alpha}: var {var}, expected {expected}"
            );
        }
    }

    #[test]
    fn samples_are_positive_and_deterministic() {
        let mut a = Xorshift64Star::new(7);
        let mut b = Xorshift64Star::new(7);
        for _ in 0..10_000 {
            let x = sample_gamma(0.4, &mut a);
            assert!(x > 0.0 && x.is_finite());
            assert_eq!(x, sample_gamma(0.4, &mut b));
        }
    }

    #[test]
    fn large_alpha_concentrates_at_one() {
        let (mean, var) = moments(1e4, 50_000, 3);
        assert!((mean - 1.0).abs() < 1e-2);
        assert!(var < 1e-3);
    }
}
