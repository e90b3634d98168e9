//! Classical IC yield models (Stapper, eq. 5's Poisson form and the
//! negative-binomial generalisation).
//!
//! The paper takes yield as an input (predicted "using some existing
//! methods" — its refs [2,3]); this module supplies those methods so the
//! toolkit can go from defect densities straight to `Y` without external
//! data. The Poisson model is exactly what eq. 5 produces from fault
//! weights (`Y = e^(−Σ AD)`); the negative binomial adds defect clustering.

use crate::error::check_positive;
use crate::ModelError;

/// Poisson yield: `Y = exp(−λ)` for `λ` expected killer defects per die.
///
/// # Errors
///
/// [`ModelError::OutOfDomain`] if `lambda` is negative or non-finite.
///
/// # Example
///
/// ```
/// use dlp_core::yield_model::poisson;
///
/// // 0.29 expected killer defects per die -> ~75 % yield.
/// assert!((poisson(0.2877)? - 0.75).abs() < 1e-3);
/// # Ok::<(), dlp_core::ModelError>(())
/// ```
pub fn poisson(lambda: f64) -> Result<f64, ModelError> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // rejects NaN too
    if !(lambda >= 0.0) || !lambda.is_finite() {
        return Err(ModelError::OutOfDomain {
            parameter: "expected defects",
            value: lambda,
            range: "[0, ∞)",
        });
    }
    Ok((-lambda).exp())
}

/// Negative-binomial (Stapper) yield: `Y = (1 + λ/α)^(−α)` with clustering
/// parameter `α` (α → ∞ recovers Poisson; small α models clustered
/// defects and predicts *higher* yield for the same λ).
///
/// # Errors
///
/// [`ModelError::OutOfDomain`] if `lambda < 0` or `alpha ≤ 0`.
pub fn negative_binomial(lambda: f64, alpha: f64) -> Result<f64, ModelError> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // rejects NaN too
    if !(lambda >= 0.0) || !lambda.is_finite() {
        return Err(ModelError::OutOfDomain {
            parameter: "expected defects",
            value: lambda,
            range: "[0, ∞)",
        });
    }
    let alpha = check_positive("clustering parameter", alpha)?;
    Ok((1.0 + lambda / alpha).powf(-alpha))
}

/// The λ that produces a target Poisson yield: `λ = −ln Y`.
///
/// # Errors
///
/// [`ModelError::OutOfDomain`] unless `y ∈ (0, 1]`.
pub fn lambda_for_yield(y: f64) -> Result<f64, ModelError> {
    if !(y > 0.0 && y <= 1.0) {
        return Err(ModelError::OutOfDomain {
            parameter: "yield",
            value: y,
            range: "(0, 1]",
        });
    }
    Ok(-y.ln())
}

/// The λ that produces a target negative-binomial yield:
/// `λ = α (Y^(−1/α) − 1)`, the closed-form inverse of
/// [`negative_binomial`]. As α → ∞ this converges to `−ln Y`.
///
/// # Errors
///
/// [`ModelError::OutOfDomain`] unless `y ∈ (0, 1]` and `alpha > 0`.
pub fn nb_lambda_for_yield(y: f64, alpha: f64) -> Result<f64, ModelError> {
    if !(y > 0.0 && y <= 1.0) {
        return Err(ModelError::OutOfDomain {
            parameter: "yield",
            value: y,
            range: "(0, 1]",
        });
    }
    let alpha = check_positive("clustering parameter", alpha)?;
    Ok(alpha * (y.powf(-1.0 / alpha) - 1.0))
}

/// Defect level under negative-binomial fallout, generalising the
/// paper's eq. 3. For any mixed-Poisson model the shipped-part defect
/// level is `DL = 1 − Y(λ) / Y(θλ)` — the fraction of dies that pass a
/// test screening the θ-weighted share of the defect exposure but still
/// carry a defect. With Poisson statistics this collapses to eq. 3,
/// `1 − Y^(1−θ)`; with clustering it is strictly smaller, because bad
/// dies concentrate their defects and are easier to catch.
///
/// # Errors
///
/// [`ModelError::OutOfDomain`] if `lambda < 0`, `alpha ≤ 0`, or
/// `theta ∉ [0, 1]`.
pub fn nb_defect_level(lambda: f64, theta: f64, alpha: f64) -> Result<f64, ModelError> {
    if !(0.0..=1.0).contains(&theta) {
        return Err(ModelError::OutOfDomain {
            parameter: "theta",
            value: theta,
            range: "[0, 1]",
        });
    }
    let full = negative_binomial(lambda, alpha)?;
    let tested = negative_binomial(theta * lambda, alpha)?;
    // tested >= full > 0 for finite lambda, so the ratio is in (0, 1].
    Ok(1.0 - full / tested)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_boundaries() {
        assert_eq!(poisson(0.0).unwrap(), 1.0);
        assert!(poisson(-1.0).is_err());
        assert!(poisson(f64::NAN).is_err());
    }

    #[test]
    fn negative_binomial_approaches_poisson_for_large_alpha() {
        let lambda = 0.5;
        let p = poisson(lambda).unwrap();
        let nb = negative_binomial(lambda, 1e6).unwrap();
        assert!((p - nb).abs() < 1e-6);
    }

    #[test]
    fn clustering_raises_yield() {
        let lambda = 1.0;
        let clustered = negative_binomial(lambda, 0.5).unwrap();
        let spread = negative_binomial(lambda, 100.0).unwrap();
        assert!(clustered > spread);
    }

    #[test]
    fn lambda_round_trips_through_yield() {
        let lambda = lambda_for_yield(0.75).unwrap();
        assert!((poisson(lambda).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn nb_lambda_round_trips_and_limits_to_poisson() {
        for alpha in [0.3, 1.0, 4.0, 50.0] {
            let lambda = nb_lambda_for_yield(0.75, alpha).unwrap();
            assert!(
                (negative_binomial(lambda, alpha).unwrap() - 0.75).abs() < 1e-12,
                "alpha={alpha}"
            );
        }
        let poisson_lambda = lambda_for_yield(0.75).unwrap();
        let nb_lambda = nb_lambda_for_yield(0.75, 1e8).unwrap();
        assert!((poisson_lambda - nb_lambda).abs() < 1e-6);
        assert!(nb_lambda_for_yield(0.75, 0.0).is_err());
        assert!(nb_lambda_for_yield(0.0, 1.0).is_err());
    }

    #[test]
    fn nb_defect_level_limits_and_ordering() {
        // alpha -> infinity recovers eq. 3: DL = 1 - Y^(1-theta).
        let y = 0.75;
        let theta = 0.9;
        let lambda = lambda_for_yield(y).unwrap();
        let eq3 = 1.0 - y.powf(1.0 - theta);
        let nb = nb_defect_level(lambda, theta, 1e8).unwrap();
        assert!((nb - eq3).abs() < 1e-6);
        // At a fixed *yield* (lambda recalibrated per alpha), clustering
        // lowers the shipped defect level.
        let mut last = eq3;
        for alpha in [50.0, 4.0, 1.0, 0.3] {
            let lambda = nb_lambda_for_yield(y, alpha).unwrap();
            let dl = nb_defect_level(lambda, theta, alpha).unwrap();
            assert!(dl < last, "alpha={alpha}: {dl} !< {last}");
            last = dl;
        }
        // Boundaries: perfect test -> DL 0; no test -> DL = 1 - Y.
        assert_eq!(nb_defect_level(0.5, 1.0, 2.0).unwrap(), 0.0);
        let dl0 = nb_defect_level(0.5, 0.0, 2.0).unwrap();
        assert!((dl0 - (1.0 - negative_binomial(0.5, 2.0).unwrap())).abs() < 1e-12);
        assert!(nb_defect_level(0.5, 1.5, 2.0).is_err());
        assert!(nb_defect_level(0.5, f64::NAN, 2.0).is_err());
    }

    #[test]
    fn yields_in_unit_interval() {
        let mut rng = crate::rng::Xorshift64Star::new(51);
        for _ in 0..300 {
            let lambda = rng.next_f64() * 20.0;
            let alpha = 0.01 + rng.next_f64() * 99.99;
            let p = poisson(lambda).unwrap();
            let nb = negative_binomial(lambda, alpha).unwrap();
            assert!((0.0..=1.0).contains(&p));
            assert!((0.0..=1.0).contains(&nb));
            assert!(nb >= p - 1e-12, "clustering never hurts yield");
        }
    }
}
