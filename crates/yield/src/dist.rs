//! The fallout-distribution trait and its three implementations.
//!
//! Every model here is *mixed Poisson*: die `d` draws a non-negative
//! weight multiplier `g_d` with `E[g] = 1`, and fault `j` then strikes
//! independently with probability `1 − e^(−w_j · g_d)`. The yield is the
//! mixing distribution's Laplace transform evaluated at the total
//! weight, `Y(λ) = E[e^(−λ G)]`, and the shipped defect level
//! generalises the paper's eq. 3 to
//!
//! ```text
//! DL = 1 − Y(λ) / Y(θ·λ)
//! ```
//!
//! (the fraction of test-passing dies that still carry a defect, where
//! θ is the tested share of the defect exposure). Degenerate mixing
//! (`G ≡ 1`) recovers the independent-Poisson pipeline exactly — eq. 3's
//! `1 − Y^(1−θ)` — and Gamma mixing gives Stapper's negative-binomial
//! yield `(1 + λ/α)^(−α)`.

use dlp_core::ckpt::KeyHasher;
use dlp_core::montecarlo::DieMix;
use dlp_core::rng::Xorshift64Star;
use dlp_core::ModelError;

use crate::gamma::sample_unit_gamma;

/// Salt folded into the master seed when deriving per-wafer multiplier
/// streams, so wafer draws never collide with the engine's per-shard
/// die streams (which split the unsalted seed).
const WAFER_SALT: u64 = 0x57AF_E12A_B5D0_91C3;

/// Salt for per-lot multiplier streams.
const LOT_SALT: u64 = 0x107C_AFE9_4D21_8B67;

/// Fixed seed for the deterministic quadrature inside
/// [`Hierarchical::expected_yield`] — independent of any user seed, so
/// the analytic-layer numbers are a pure function of the parameters.
const QUADRATURE_SEED: u64 = 0xE1D0_57A7;

/// Samples drawn by the hierarchical yield quadrature. 32k outer draws
/// put the Monte-Carlo error near 0.2 % of `Y` — tight enough for the
/// fixed-yield calibration the bench performs.
const QUADRATURE_SAMPLES: usize = 32_768;

/// A defect fallout model: a [`DieMix`] multiplier law for the
/// Monte-Carlo engine plus its analytic yield/DL counterpart.
///
/// Implementors guarantee the two faces agree: simulating fallout with
/// the mix converges on [`expected_yield`](Self::expected_yield) and
/// [`defect_level`](Self::defect_level) as the die count grows (the
/// crate's tests pin this for all three models).
pub trait FalloutDistribution: DieMix {
    /// Stable machine-readable name: `"poisson"`, `"negative-binomial"`,
    /// or `"hierarchical"`.
    fn name(&self) -> &'static str;

    /// The analytic yield `Y(λ) = E[e^(−λ G)]` for `λ` expected defects
    /// per die.
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] if `lambda` is negative or
    /// non-finite.
    fn expected_yield(&self, lambda: f64) -> Result<f64, ModelError>;

    /// The shipped defect level `1 − Y(λ)/Y(θλ)` at tested weight
    /// fraction `theta`.
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] if `lambda < 0` or `theta ∉ [0, 1]`.
    fn defect_level(&self, lambda: f64, theta: f64) -> Result<f64, ModelError> {
        check_theta(theta)?;
        let full = self.expected_yield(lambda)?;
        let tested = self.expected_yield(theta * lambda)?;
        if tested <= 0.0 {
            // Unreachable for finite lambda under every mixing law with
            // P(G < ∞) = 1, but keep the division honest.
            return Ok(0.0);
        }
        Ok((1.0 - full / tested).max(0.0))
    }

    /// The `λ` whose analytic yield is `y` — the fixed-yield calibration
    /// used to compare distributions apples-to-apples. The default
    /// bisects [`expected_yield`](Self::expected_yield), which is
    /// strictly decreasing in `λ`; closed-form models override.
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] unless `y ∈ (0, 1]`;
    /// [`ModelError::FitDiverged`] if the bracket cannot be closed.
    fn lambda_for_yield(&self, y: f64) -> Result<f64, ModelError> {
        check_yield(y)?;
        if y == 1.0 {
            return Ok(0.0);
        }
        let mut hi = 1.0f64;
        let mut grow = 0usize;
        while self.expected_yield(hi)? > y {
            hi *= 2.0;
            grow += 1;
            if grow > 80 {
                return Err(ModelError::FitDiverged { iterations: grow });
            }
        }
        let mut lo = 0.0f64;
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.expected_yield(mid)? > y {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(0.5 * (lo + hi))
    }
}

/// `lambda` as an expected defect count: non-negative and finite.
fn check_lambda(lambda: f64) -> Result<f64, ModelError> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // rejects NaN too
    if !(lambda >= 0.0) || !lambda.is_finite() {
        return Err(ModelError::OutOfDomain {
            parameter: "expected defects",
            value: lambda,
            range: "[0, ∞)",
        });
    }
    Ok(lambda)
}

/// `theta` as a tested weight fraction: in `[0, 1]`.
fn check_theta(theta: f64) -> Result<(), ModelError> {
    if !(0.0..=1.0).contains(&theta) {
        return Err(ModelError::OutOfDomain {
            parameter: "theta",
            value: theta,
            range: "[0, 1]",
        });
    }
    Ok(())
}

/// `y` as a yield a calibration can hit: in `(0, 1]`.
fn check_yield(y: f64) -> Result<f64, ModelError> {
    if !(y > 0.0 && y <= 1.0) {
        return Err(ModelError::OutOfDomain {
            parameter: "yield",
            value: y,
            range: "(0, 1]",
        });
    }
    Ok(y)
}

fn check_alpha(
    distribution: &'static str,
    parameter: &'static str,
    value: f64,
) -> Result<f64, ModelError> {
    if value > 0.0 && value.is_finite() {
        Ok(value)
    } else {
        Err(ModelError::BadDistribution {
            distribution,
            parameter,
            value,
            range: "(0, ∞)",
        })
    }
}

/// Independent-Poisson fallout — the historical pipeline. The
/// multiplier is the constant 1, no RNG is consumed, and no checkpoint
/// key bytes are written, so legacy Monte-Carlo checkpoints remain
/// valid under this instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Poisson;

impl DieMix for Poisson {
    fn write_key(&self, _h: &mut KeyHasher) {}

    fn multiplier(&self, _seed: u64, _die: u64, _rng: &mut Xorshift64Star) -> f64 {
        1.0
    }

    fn is_unit(&self) -> bool {
        true
    }
}

impl FalloutDistribution for Poisson {
    fn name(&self) -> &'static str {
        "poisson"
    }

    /// Eq. 5's Poisson form, `Y = exp(−λ)`.
    fn expected_yield(&self, lambda: f64) -> Result<f64, ModelError> {
        Ok((-check_lambda(lambda)?).exp())
    }

    /// Eq. 3, evaluated exactly as
    /// [`dlp_core::weighted::FaultWeights::defect_level`] evaluates it
    /// (`1 − Y^(1−θ)`), so the service's Poisson projections stay
    /// bit-identical to the historical pipeline — `1 − Y(λ)/Y(θλ)` is
    /// the same number mathematically but rounds differently.
    fn defect_level(&self, lambda: f64, theta: f64) -> Result<f64, ModelError> {
        check_theta(theta)?;
        let y = self.expected_yield(lambda)?;
        Ok(1.0 - y.powf(1.0 - theta))
    }

    /// `λ = −ln Y`.
    fn lambda_for_yield(&self, y: f64) -> Result<f64, ModelError> {
        Ok(-check_yield(y)?.ln())
    }
}

/// Stapper's negative-binomial clustered model: each die's multiplier
/// is unit-mean Gamma(α, 1/α), giving NB defect counts and the yield
/// `Y = (1 + λ/α)^(−α)`. Small `α` is heavy clustering; `α → ∞`
/// converges to [`Poisson`] (pinned by a property test).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeBinomial {
    alpha: f64,
}

impl NegativeBinomial {
    /// Creates the model with clustering parameter `alpha`.
    ///
    /// # Errors
    ///
    /// [`ModelError::BadDistribution`] unless `alpha` is positive and
    /// finite.
    pub fn new(alpha: f64) -> Result<NegativeBinomial, ModelError> {
        Ok(NegativeBinomial {
            alpha: check_alpha("negative-binomial", "alpha", alpha)?,
        })
    }

    /// The clustering parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl DieMix for NegativeBinomial {
    fn write_key(&self, h: &mut KeyHasher) {
        h.write_bytes(b"dist.nb");
        h.write_f64(self.alpha);
    }

    fn multiplier(&self, _seed: u64, _die: u64, rng: &mut Xorshift64Star) -> f64 {
        sample_unit_gamma(self.alpha, rng)
    }
}

impl FalloutDistribution for NegativeBinomial {
    fn name(&self) -> &'static str {
        "negative-binomial"
    }

    /// Stapper's `Y = (1 + λ/α)^(−α)`: small `α` predicts a *higher*
    /// yield for the same `λ`.
    fn expected_yield(&self, lambda: f64) -> Result<f64, ModelError> {
        let lambda = check_lambda(lambda)?;
        Ok((1.0 + lambda / self.alpha).powf(-self.alpha))
    }

    /// `1 − Y(λ)/Y(θλ)` without the default's clamp at 0.
    fn defect_level(&self, lambda: f64, theta: f64) -> Result<f64, ModelError> {
        check_theta(theta)?;
        let full = self.expected_yield(lambda)?;
        let tested = self.expected_yield(theta * lambda)?;
        // tested >= full > 0 for finite lambda, so the ratio is in (0, 1].
        Ok(1.0 - full / tested)
    }

    /// The closed-form inverse `λ = α (Y^(−1/α) − 1)`; as `α → ∞` it
    /// converges to `−ln Y`.
    fn lambda_for_yield(&self, y: f64) -> Result<f64, ModelError> {
        let y = check_yield(y)?;
        Ok(self.alpha * (y.powf(-1.0 / self.alpha) - 1.0))
    }
}

/// The hierarchical compound model (Bogdanov et al.): die-level
/// Gamma mixing compounded with wafer- and lot-level multipliers,
/// `g = G_die · W_wafer · L_lot`, all unit-mean Gamma. Dies on the same
/// wafer share `W`; wafers in the same lot share `L` — defect exposure
/// is correlated exactly the way fabrication excursions correlate it.
///
/// Wafer and lot multipliers are drawn from *salted* split streams keyed
/// by `(master seed, wafer index)` / `(master seed, lot index)`, not
/// from the engine's shard stream: a wafer can straddle shard
/// boundaries, and this construction keeps every die's multiplier a
/// pure function of `(seed, die)` regardless of shard decomposition or
/// thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hierarchical {
    die_alpha: f64,
    wafer_alpha: f64,
    lot_alpha: f64,
    dies_per_wafer: u64,
    wafers_per_lot: u64,
}

impl Hierarchical {
    /// Creates the model. `die_alpha`/`wafer_alpha`/`lot_alpha` are the
    /// clustering parameters of the three levels; `dies_per_wafer` and
    /// `wafers_per_lot` define the grouping.
    ///
    /// # Errors
    ///
    /// [`ModelError::BadDistribution`] if any `α` is non-positive or
    /// non-finite, or either group size is zero.
    pub fn new(
        die_alpha: f64,
        wafer_alpha: f64,
        lot_alpha: f64,
        dies_per_wafer: u64,
        wafers_per_lot: u64,
    ) -> Result<Hierarchical, ModelError> {
        let die_alpha = check_alpha("hierarchical", "die_alpha", die_alpha)?;
        let wafer_alpha = check_alpha("hierarchical", "wafer_alpha", wafer_alpha)?;
        let lot_alpha = check_alpha("hierarchical", "lot_alpha", lot_alpha)?;
        if dies_per_wafer == 0 {
            return Err(ModelError::BadDistribution {
                distribution: "hierarchical",
                parameter: "dies_per_wafer",
                value: 0.0,
                range: "[1, ∞)",
            });
        }
        if wafers_per_lot == 0 {
            return Err(ModelError::BadDistribution {
                distribution: "hierarchical",
                parameter: "wafers_per_lot",
                value: 0.0,
                range: "[1, ∞)",
            });
        }
        Ok(Hierarchical {
            die_alpha,
            wafer_alpha,
            lot_alpha,
            dies_per_wafer,
            wafers_per_lot,
        })
    }

    /// The shared wafer/lot multiplier for a die — a pure function of
    /// `(seed, die)`.
    fn group_multiplier(&self, seed: u64, die: u64) -> f64 {
        let wafer = die / self.dies_per_wafer;
        let lot = wafer / self.wafers_per_lot;
        let mut wafer_rng = Xorshift64Star::split(seed ^ WAFER_SALT, wafer);
        let mut lot_rng = Xorshift64Star::split(seed ^ LOT_SALT, lot);
        sample_unit_gamma(self.wafer_alpha, &mut wafer_rng)
            * sample_unit_gamma(self.lot_alpha, &mut lot_rng)
    }
}

impl DieMix for Hierarchical {
    fn write_key(&self, h: &mut KeyHasher) {
        h.write_bytes(b"dist.hier");
        h.write_f64(self.die_alpha);
        h.write_f64(self.wafer_alpha);
        h.write_f64(self.lot_alpha);
        h.write_u64(self.dies_per_wafer);
        h.write_u64(self.wafers_per_lot);
    }

    fn multiplier(&self, seed: u64, die: u64, rng: &mut Xorshift64Star) -> f64 {
        sample_unit_gamma(self.die_alpha, rng) * self.group_multiplier(seed, die)
    }
}

impl FalloutDistribution for Hierarchical {
    fn name(&self) -> &'static str {
        "hierarchical"
    }

    /// `Y(λ) = E[(1 + λWL/α_die)^(−α_die)]`: the die level integrates in
    /// closed form (Stapper), and the wafer×lot mixture is averaged by a
    /// fixed-seed deterministic quadrature — same parameters, same
    /// answer, on every machine and thread count.
    fn expected_yield(&self, lambda: f64) -> Result<f64, ModelError> {
        let lambda = check_lambda(lambda)?;
        let mut rng = Xorshift64Star::new(QUADRATURE_SEED);
        let mut acc = 0.0f64;
        for _ in 0..QUADRATURE_SAMPLES {
            let w = sample_unit_gamma(self.wafer_alpha, &mut rng);
            let l = sample_unit_gamma(self.lot_alpha, &mut rng);
            acc += (1.0 + lambda * w * l / self.die_alpha).powf(-self.die_alpha);
        }
        Ok(acc / QUADRATURE_SAMPLES as f64)
    }
}

/// A parsed fallout specification — the owning enum that `dlp-serve`
/// and the benches carry around, with a `&dyn` view for the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fallout {
    /// Independent Poisson (the default, the historical pipeline).
    Poisson(Poisson),
    /// Negative-binomial clustering.
    NegativeBinomial(NegativeBinomial),
    /// Hierarchical die/wafer/lot compound.
    Hierarchical(Hierarchical),
}

impl Fallout {
    /// The Poisson instance.
    pub fn poisson() -> Fallout {
        Fallout::Poisson(Poisson)
    }

    /// A negative-binomial instance.
    ///
    /// # Errors
    ///
    /// [`ModelError::BadDistribution`] for a bad `alpha`.
    pub fn negative_binomial(alpha: f64) -> Result<Fallout, ModelError> {
        Ok(Fallout::NegativeBinomial(NegativeBinomial::new(alpha)?))
    }

    /// A hierarchical instance (see [`Hierarchical::new`]).
    ///
    /// # Errors
    ///
    /// [`ModelError::BadDistribution`] for bad parameters.
    pub fn hierarchical(
        die_alpha: f64,
        wafer_alpha: f64,
        lot_alpha: f64,
        dies_per_wafer: u64,
        wafers_per_lot: u64,
    ) -> Result<Fallout, ModelError> {
        Ok(Fallout::Hierarchical(Hierarchical::new(
            die_alpha,
            wafer_alpha,
            lot_alpha,
            dies_per_wafer,
            wafers_per_lot,
        )?))
    }

    /// The trait-object view handed to the engine and analytic layer.
    pub fn dist(&self) -> &dyn FalloutDistribution {
        match self {
            Fallout::Poisson(d) => d,
            Fallout::NegativeBinomial(d) => d,
            Fallout::Hierarchical(d) => d,
        }
    }

    /// A compact human-readable label, e.g. `nb(alpha=2)`, used in bench
    /// entry names and service response bodies.
    pub fn label(&self) -> String {
        match self {
            Fallout::Poisson(_) => "poisson".to_string(),
            Fallout::NegativeBinomial(d) => format!("nb(alpha={})", d.alpha()),
            Fallout::Hierarchical(d) => {
                let (da, wa, la) = (d.die_alpha, d.wafer_alpha, d.lot_alpha);
                let (dw, wl) = (d.dies_per_wafer, d.wafers_per_lot);
                format!("hier(die={da},wafer={wa},lot={la},dpw={dw},wpl={wl})")
            }
        }
    }
}

impl Default for Fallout {
    fn default() -> Fallout {
        Fallout::poisson()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A production-plausible mix: mild die-level clustering (α_die = 2),
    /// moderate wafer excursions (α_wafer = 8), rare lot excursions
    /// (α_lot = 20), 400-die wafers in 25-wafer lots.
    fn production() -> Hierarchical {
        Hierarchical::new(2.0, 8.0, 20.0, 400, 25).unwrap()
    }

    #[test]
    fn constructors_reject_bad_parameters() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                NegativeBinomial::new(bad),
                Err(ModelError::BadDistribution { .. })
            ));
            assert!(matches!(
                Hierarchical::new(bad, 1.0, 1.0, 10, 5),
                Err(ModelError::BadDistribution { .. })
            ));
            assert!(matches!(
                Hierarchical::new(1.0, bad, 1.0, 10, 5),
                Err(ModelError::BadDistribution { .. })
            ));
            assert!(matches!(
                Hierarchical::new(1.0, 1.0, bad, 10, 5),
                Err(ModelError::BadDistribution { .. })
            ));
        }
        assert!(matches!(
            Hierarchical::new(1.0, 1.0, 1.0, 0, 5),
            Err(ModelError::BadDistribution { .. })
        ));
        assert!(matches!(
            Hierarchical::new(1.0, 1.0, 1.0, 10, 0),
            Err(ModelError::BadDistribution { .. })
        ));
    }

    fn nb(alpha: f64) -> NegativeBinomial {
        NegativeBinomial::new(alpha).unwrap()
    }

    #[test]
    fn poisson_boundaries() {
        assert_eq!(Poisson.expected_yield(0.0).unwrap(), 1.0);
        assert!(Poisson.expected_yield(-1.0).is_err());
        assert!(Poisson.expected_yield(f64::NAN).is_err());
    }

    #[test]
    fn negative_binomial_approaches_poisson_for_large_alpha() {
        let lambda = 0.5;
        let p = Poisson.expected_yield(lambda).unwrap();
        let nb = nb(1e6).expected_yield(lambda).unwrap();
        assert!((p - nb).abs() < 1e-6);
    }

    #[test]
    fn clustering_raises_yield() {
        let lambda = 1.0;
        let clustered = nb(0.5).expected_yield(lambda).unwrap();
        let spread = nb(100.0).expected_yield(lambda).unwrap();
        assert!(clustered > spread);
    }

    #[test]
    fn lambda_round_trips_through_yield() {
        let lambda = Poisson.lambda_for_yield(0.75).unwrap();
        assert!((Poisson.expected_yield(lambda).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn nb_lambda_round_trips_and_limits_to_poisson() {
        for alpha in [0.3, 1.0, 4.0, 50.0] {
            let lambda = nb(alpha).lambda_for_yield(0.75).unwrap();
            assert!(
                (nb(alpha).expected_yield(lambda).unwrap() - 0.75).abs() < 1e-12,
                "alpha={alpha}"
            );
        }
        let poisson_lambda = Poisson.lambda_for_yield(0.75).unwrap();
        let nb_lambda = nb(1e8).lambda_for_yield(0.75).unwrap();
        assert!((poisson_lambda - nb_lambda).abs() < 1e-6);
        assert!(nb(1.0).lambda_for_yield(0.0).is_err());
    }

    #[test]
    fn nb_defect_level_limits_and_ordering() {
        // alpha -> infinity recovers eq. 3: DL = 1 - Y^(1-theta).
        let y = 0.75;
        let theta = 0.9;
        let lambda = Poisson.lambda_for_yield(y).unwrap();
        let eq3 = 1.0 - y.powf(1.0 - theta);
        let dl = nb(1e8).defect_level(lambda, theta).unwrap();
        assert!((dl - eq3).abs() < 1e-6);
        // At a fixed *yield* (lambda recalibrated per alpha), clustering
        // lowers the shipped defect level.
        let mut last = eq3;
        for alpha in [50.0, 4.0, 1.0, 0.3] {
            let lambda = nb(alpha).lambda_for_yield(y).unwrap();
            let dl = nb(alpha).defect_level(lambda, theta).unwrap();
            assert!(dl < last, "alpha={alpha}: {dl} !< {last}");
            last = dl;
        }
        // Boundaries: perfect test -> DL 0; no test -> DL = 1 - Y.
        let two = nb(2.0);
        assert_eq!(two.defect_level(0.5, 1.0).unwrap(), 0.0);
        let dl0 = two.defect_level(0.5, 0.0).unwrap();
        assert!((dl0 - (1.0 - two.expected_yield(0.5).unwrap())).abs() < 1e-12);
        assert!(two.defect_level(0.5, 1.5).is_err());
        assert!(two.defect_level(0.5, f64::NAN).is_err());
    }

    #[test]
    fn yields_in_unit_interval() {
        let mut rng = Xorshift64Star::new(51);
        for _ in 0..300 {
            let lambda = rng.next_f64() * 20.0;
            let alpha = 0.01 + rng.next_f64() * 99.99;
            let p = Poisson.expected_yield(lambda).unwrap();
            let nb = nb(alpha).expected_yield(lambda).unwrap();
            assert!((0.0..=1.0).contains(&p));
            assert!((0.0..=1.0).contains(&nb));
            assert!(nb >= p - 1e-12, "clustering never hurts yield");
        }
    }

    #[test]
    fn poisson_matches_eq3() {
        let p = Poisson;
        let lambda = p.lambda_for_yield(0.75).unwrap();
        let y = p.expected_yield(lambda).unwrap();
        assert!((y - 0.75).abs() < 1e-12);
        let dl = p.defect_level(lambda, 0.9).unwrap();
        assert!((dl - (1.0 - 0.75f64.powf(0.1))).abs() < 1e-12);
    }

    #[test]
    fn poisson_dl_is_bit_identical_to_the_weighted_pipeline() {
        // The service swaps `FaultWeights::defect_level` for the trait
        // call; under Poisson the two must agree to the last bit.
        use dlp_core::weighted::FaultWeights;
        let p = Poisson;
        for lambda in [0.05, 0.2876820724517809, 1.5, 4.0] {
            // A single fault carrying all of λ keeps Σw bit-equal to λ.
            let w = FaultWeights::new(vec![lambda]).unwrap();
            for theta in [0.0, 0.1, 0.33, 0.5, 0.875, 0.99, 1.0] {
                assert_eq!(
                    p.defect_level(lambda, theta).unwrap(),
                    w.defect_level(theta).unwrap(),
                    "lambda={lambda} theta={theta}"
                );
            }
        }
    }

    #[test]
    fn default_bisection_matches_nb_closed_form() {
        // Run the default trait bisection against NB's closed form by
        // calling it through a shim that does not override.
        struct Shim(NegativeBinomial);
        impl DieMix for Shim {
            fn write_key(&self, h: &mut KeyHasher) {
                self.0.write_key(h);
            }
            fn multiplier(&self, s: u64, d: u64, r: &mut Xorshift64Star) -> f64 {
                self.0.multiplier(s, d, r)
            }
        }
        impl FalloutDistribution for Shim {
            fn name(&self) -> &'static str {
                "shim"
            }
            fn expected_yield(&self, lambda: f64) -> Result<f64, ModelError> {
                self.0.expected_yield(lambda)
            }
        }
        let shim = Shim(NegativeBinomial::new(0.7).unwrap());
        let bisected = shim.lambda_for_yield(0.6).unwrap();
        let closed = shim.0.lambda_for_yield(0.6).unwrap();
        assert!((bisected - closed).abs() < 1e-9, "{bisected} vs {closed}");
        // And the default DL formula reduces to the closed form too.
        let dl_default = shim.defect_level(closed, 0.8).unwrap();
        let dl_closed = shim.0.defect_level(closed, 0.8).unwrap();
        assert!((dl_default - dl_closed).abs() < 1e-12);
    }

    #[test]
    fn hierarchical_yield_is_deterministic_and_monotone() {
        let h = production();
        let y1 = h.expected_yield(0.3).unwrap();
        assert_eq!(
            y1,
            h.expected_yield(0.3).unwrap(),
            "quadrature must be deterministic"
        );
        assert_eq!(h.expected_yield(0.0).unwrap(), 1.0);
        let mut last = 1.0;
        for lambda in [0.1, 0.3, 1.0, 3.0, 10.0] {
            let y = h.expected_yield(lambda).unwrap();
            assert!(y < last && y > 0.0, "lambda={lambda}");
            last = y;
        }
        let lambda = h.lambda_for_yield(0.75).unwrap();
        assert!((h.expected_yield(lambda).unwrap() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn hierarchical_multiplier_is_shard_independent() {
        // A die's multiplier must depend only on (seed, die) and the
        // die's own stream draws — reproduce it from scratch.
        let h = Hierarchical::new(2.0, 8.0, 20.0, 7, 3).unwrap();
        let mut a = Xorshift64Star::split(99, 5);
        let mut b = Xorshift64Star::split(99, 5);
        for die in [0u64, 6, 7, 20, 21, 1000] {
            assert_eq!(
                h.multiplier(4242, die, &mut a),
                h.multiplier(4242, die, &mut b)
            );
        }
        // Dies on the same wafer share the group multiplier; different
        // wafers (almost surely) do not.
        let g0 = h.group_multiplier(1, 0);
        assert_eq!(g0, h.group_multiplier(1, 6));
        assert_ne!(g0, h.group_multiplier(1, 7));
    }

    #[test]
    fn clustering_lowers_dl_at_fixed_yield() {
        // The paper-level story: at the same yield and test quality,
        // clustered defects concentrate on fewer dies, so the test
        // catches more of them and fewer escapes ship.
        let theta = 0.9;
        let p = Poisson;
        let dl_p = p
            .defect_level(p.lambda_for_yield(0.75).unwrap(), theta)
            .unwrap();
        let nb = NegativeBinomial::new(1.0).unwrap();
        let dl_nb = nb
            .defect_level(nb.lambda_for_yield(0.75).unwrap(), theta)
            .unwrap();
        let h = production();
        let dl_h = h
            .defect_level(h.lambda_for_yield(0.75).unwrap(), theta)
            .unwrap();
        assert!(dl_nb < dl_p, "{dl_nb} !< {dl_p}");
        assert!(dl_h < dl_p, "{dl_h} !< {dl_p}");
    }

    #[test]
    fn labels_and_keys_separate_distributions() {
        let a = Fallout::negative_binomial(2.0).unwrap();
        let b = Fallout::negative_binomial(3.0).unwrap();
        assert_ne!(a.label(), b.label());
        let key = |f: &Fallout| {
            let mut h = KeyHasher::new();
            f.dist().write_key(&mut h);
            h.finish()
        };
        assert_ne!(key(&a), key(&b));
        assert_ne!(key(&a), key(&Fallout::poisson()));
        let h1 = Fallout::hierarchical(2.0, 8.0, 20.0, 400, 25).unwrap();
        let h2 = Fallout::hierarchical(2.0, 8.0, 20.0, 401, 25).unwrap();
        assert_ne!(key(&h1), key(&h2));
    }
}
