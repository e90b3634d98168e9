//! The paper's new defect-level model (eq. 11):
//!
//! ```text
//! DL(T) = 1 − Y^(1 − θ_max · (1 − (1−T)^R))
//! ```
//!
//! Two parameters extend Williams–Brown:
//!
//! * `R` — the susceptibility ratio (eq. 10): `R > 1` when the faults that
//!   dominate yield loss (bridges, in bridge-heavy CMOS lines) are easier
//!   to detect than stuck-at faults;
//! * `θ_max` — the maximum realistic coverage the test set + detection
//!   technique can reach: steady-state voltage testing cannot see some
//!   opens, so `θ_max < 1` and a *residual defect level*
//!   `1 − Y^(1−θ_max)` remains even at `T = 100 %`.
//!
//! With `R = 1, θ_max = 1` the model reduces exactly to Williams–Brown.

use crate::coverage::theta_of_t;
use crate::error::{check_open_unit, check_positive, check_unit};
use crate::ModelError;

/// The Sousa–Gonçalves–Teixeira–Williams defect-level model.
///
/// # Example: the paper's Example 2
///
/// 100 % stuck-at coverage does *not* mean zero defect level when the test
/// set is incomplete for the real fault population:
///
/// ```
/// use dlp_core::sousa::SousaModel;
///
/// let m = SousaModel::new(0.75, 1.0, 0.99)?;
/// let dl = m.defect_level(1.0)?;
/// assert!(dl > 2000e-6); // thousands of ppm despite T = 100 %
/// assert_eq!(dl, m.residual_defect_level());
/// # Ok::<(), dlp_core::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SousaModel {
    y: f64,
    r: f64,
    theta_max: f64,
}

impl SousaModel {
    /// Creates the model for yield `y ∈ (0,1)`, susceptibility ratio
    /// `r > 0` and maximum realistic coverage `theta_max ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] for parameters outside those ranges.
    pub fn new(y: f64, r: f64, theta_max: f64) -> Result<Self, ModelError> {
        let y = check_open_unit("yield", y)?;
        let r = check_positive("susceptibility ratio", r)?;
        let theta_max = check_unit("theta_max", theta_max)?;
        if theta_max == 0.0 {
            return Err(ModelError::OutOfDomain {
                parameter: "theta_max",
                value: theta_max,
                range: "(0, 1]",
            });
        }
        Ok(SousaModel { y, r, theta_max })
    }

    /// The Williams–Brown special case `R = 1, θ_max = 1`.
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] unless `y ∈ (0, 1)`.
    pub fn williams_brown(y: f64) -> Result<Self, ModelError> {
        SousaModel::new(y, 1.0, 1.0)
    }

    /// The yield parameter.
    pub fn yield_value(&self) -> f64 {
        self.y
    }

    /// The susceptibility ratio `R`.
    pub fn susceptibility_ratio(&self) -> f64 {
        self.r
    }

    /// The maximum realistic coverage `θ_max`.
    pub fn theta_max(&self) -> f64 {
        self.theta_max
    }

    /// Defect level at stuck-at coverage `t` (eq. 11).
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] unless `t ∈ [0, 1]`.
    pub fn defect_level(&self, t: f64) -> Result<f64, ModelError> {
        let theta = theta_of_t(t, self.r, self.theta_max)?;
        Ok(1.0 - self.y.powf(1.0 - theta))
    }

    /// The residual defect level `1 − Y^(1−θ_max)`: the floor no amount of
    /// stuck-at coverage can cross with this detection technique
    /// (0 when `θ_max = 1`).
    pub fn residual_defect_level(&self) -> f64 {
        1.0 - self.y.powf(1.0 - self.theta_max)
    }

    /// The stuck-at coverage required to reach defect level `dl` — the
    /// inverse of [`defect_level`](Self::defect_level) (the paper's
    /// Example 1 computation).
    ///
    /// # Guarantee
    ///
    /// The returned coverage is *sufficient*:
    /// `defect_level(required_coverage(dl)?)? <= dl` holds exactly, for
    /// every reachable `dl` — including values barely above
    /// [`residual_defect_level`](Self::residual_defect_level), where
    /// the algebraic inversion alone can come back a few ulps short
    /// (the `powf(1/R)`/`powf(R)` round trip loses precision exactly
    /// where `DL(T)` is flattest, so a tiny coverage deficit used to
    /// turn into a defect-level excess well above f64 noise). A bounded
    /// upward correction absorbs that error; the result overshoots the
    /// minimal coverage by at most a few ulps.
    ///
    /// # Errors
    ///
    /// [`ModelError::OutOfDomain`] unless `dl ∈ [0, 1]`;
    /// [`ModelError::Unreachable`] if `dl` is below the residual defect
    /// level or above the zero-coverage fallout `1 − Y`.
    pub fn required_coverage(&self, dl: f64) -> Result<f64, ModelError> {
        let dl = check_unit("defect level", dl)?;
        let residual = self.residual_defect_level();
        if dl < residual {
            return Err(ModelError::Unreachable {
                target: "defect level",
                requested: dl,
                limit: residual,
            });
        }
        let max_dl = 1.0 - self.y;
        if dl > max_dl {
            return Err(ModelError::Unreachable {
                target: "defect level",
                requested: dl,
                limit: max_dl,
            });
        }
        // Invert eq. 11:
        //   1 - theta = ln(1-DL)/ln(Y)
        //   (1-T)^R = 1 - theta/theta_max
        // `inner` is clamped to the same [0, 1] range the forward
        // direction produces, so rounding in theta cannot leak a
        // negative base into powf.
        let theta = 1.0 - (1.0 - dl).ln() / self.y.ln();
        let inner = (1.0 - theta / self.theta_max).clamp(0.0, 1.0);
        if inner == 0.0 {
            // Exactly at (or numerically below) the residual floor.
            return Ok(1.0);
        }
        let mut t = (1.0 - inner.powf(1.0 / self.r)).clamp(0.0, 1.0);
        // Enforce the sufficiency guarantee: walk the coverage up
        // through the few ulps the powf round trip can leave short.
        let mut step = f64::EPSILON;
        for _ in 0..64 {
            if self.defect_level(t)? <= dl {
                return Ok(t);
            }
            t = (t + step).min(1.0);
            step *= 2.0;
        }
        // T = 1 always satisfies the guarantee (DL(1) = residual <= dl).
        Ok(1.0)
    }

    /// Samples `DL(T)` on `points + 1` evenly spaced coverages in
    /// `[0, 1]`, for plotting (Fig. 2 / Fig. 5 model curves).
    ///
    /// Degenerate inputs degrade instead of panicking: `points == 0`
    /// yields the single sample at `T = 1`.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        (0..=points)
            .map(|i| {
                let t = if points == 0 {
                    1.0
                } else {
                    i as f64 / points as f64
                };
                // t ∈ [0, 1] by construction, so evaluation cannot fail;
                // fall back to the zero-coverage fallout if it ever did.
                let dl = self.defect_level(t).unwrap_or(1.0 - self.y);
                (t, dl)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::williams_brown;

    #[test]
    fn reduces_to_williams_brown() {
        let m = SousaModel::williams_brown(0.75).unwrap();
        for &t in &[0.0, 0.25, 0.5, 0.9, 1.0] {
            let a = m.defect_level(t).unwrap();
            let b = williams_brown::defect_level(0.75, t).unwrap();
            assert!((a - b).abs() < 1e-12, "t={t}");
        }
        assert_eq!(m.residual_defect_level(), 0.0);
    }

    #[test]
    fn paper_example_1() {
        // Y = 0.75, θ_max = 1, R = 2.1, target DL = 100 ppm -> T = 97.7 %.
        let m = SousaModel::new(0.75, 2.1, 1.0).unwrap();
        let t = m.required_coverage(100e-6).unwrap();
        assert!((t - 0.977).abs() < 5e-4, "T = {t}");
        // Round trip.
        let dl = m.defect_level(t).unwrap();
        assert!((dl - 100e-6).abs() < 1e-9);
        // Williams–Brown demands far more coverage for the same DL.
        let wb = williams_brown::required_coverage(0.75, 100e-6).unwrap();
        assert!(wb > 0.9995);
    }

    #[test]
    fn paper_example_2_residual_floor() {
        // Y = 0.75, θ_max = 0.99, R = 1, T = 100 %. Eq. 11 gives
        // 1 − 0.75^0.01 ≈ 2873 ppm (the paper prints 2279 ppm; see
        // EXPERIMENTS.md). Williams–Brown would predict exactly zero.
        let m = SousaModel::new(0.75, 1.0, 0.99).unwrap();
        let dl = m.defect_level(1.0).unwrap();
        assert!((dl - 0.0028727).abs() < 1e-6, "dl = {dl}");
        assert!((dl - m.residual_defect_level()).abs() < 1e-15);
        assert_eq!(williams_brown::defect_level(0.75, 1.0).unwrap(), 0.0);
    }

    #[test]
    fn fig2_shape_concavity() {
        // Fig. 2: with R = 2, θ_max = 0.96 the curve dips below WB at
        // moderate coverage and crosses above it near T = 1.
        let m = SousaModel::new(0.75, 2.0, 0.96).unwrap();
        let wb = SousaModel::williams_brown(0.75).unwrap();
        let mid_m = m.defect_level(0.5).unwrap();
        let mid_wb = wb.defect_level(0.5).unwrap();
        assert!(
            mid_m < mid_wb,
            "faster-detected realistic faults drop DL sooner"
        );
        let hi_m = m.defect_level(1.0).unwrap();
        let hi_wb = wb.defect_level(1.0).unwrap();
        assert!(
            hi_m > hi_wb,
            "residual floor keeps DL above WB at full coverage"
        );
    }

    #[test]
    fn required_coverage_below_residual_is_unreachable() {
        let m = SousaModel::new(0.75, 1.9, 0.96).unwrap();
        let res = m.residual_defect_level();
        assert!(matches!(
            m.required_coverage(res / 2.0),
            Err(ModelError::Unreachable { .. })
        ));
        // At the floor itself, full coverage is the answer.
        let t = m.required_coverage(res).unwrap();
        assert!((t - 1.0).abs() < 1e-6);
    }

    #[test]
    fn round_trip_near_the_residual_floor_never_overshoots() {
        // The regression: for dl barely above the residual floor the
        // powf(1/R)/powf(R) round trip used to return a coverage whose
        // forward defect level *exceeded* dl by far more than f64
        // noise. The guarantee is now DL(required_coverage(dl)) <= dl.
        for (y, r, theta_max) in [
            (0.75, 1.9, 0.96),
            (0.75, 0.37, 0.96),
            (0.31, 3.4, 0.83),
            (0.9, 0.5, 0.999),
        ] {
            let m = SousaModel::new(y, r, theta_max).unwrap();
            let residual = m.residual_defect_level();
            let fallout = 1.0 - y;
            for exp in 1..=15 {
                let dl = residual + (fallout - residual) * 10f64.powi(-exp);
                let t = m.required_coverage(dl).unwrap();
                assert!((0.0..=1.0).contains(&t), "y={y} r={r} exp={exp}");
                let back = m.defect_level(t).unwrap();
                assert!(
                    back <= dl,
                    "y={y} r={r} tm={theta_max} exp={exp}: DL({t}) = {back} > {dl}"
                );
            }
            // The next representable value above the floor itself.
            let dl = f64::from_bits(residual.to_bits() + 1);
            if dl <= fallout {
                let t = m.required_coverage(dl).unwrap();
                assert!(m.defect_level(t).unwrap() <= dl);
            }
        }
    }

    #[test]
    fn curve_sampling() {
        let m = SousaModel::new(0.75, 1.9, 0.96).unwrap();
        let pts = m.curve(100);
        assert_eq!(pts.len(), 101);
        assert_eq!(pts[0].0, 0.0);
        assert_eq!(pts[100].0, 1.0);
        assert!((pts[0].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(SousaModel::new(0.0, 2.0, 0.96).is_err());
        assert!(SousaModel::new(0.75, 0.0, 0.96).is_err());
        assert!(SousaModel::new(0.75, 2.0, 0.0).is_err());
        assert!(SousaModel::new(0.75, 2.0, 1.5).is_err());
    }

    /// Deterministic (y, r, theta_max, t) sample stream for the former
    /// property tests.
    fn param_stream(seed: u64, count: usize) -> Vec<(f64, f64, f64, f64)> {
        let mut rng = crate::rng::Xorshift64Star::new(seed);
        (0..count)
            .map(|_| {
                (
                    0.1 + rng.next_f64() * 0.85,
                    0.3 + rng.next_f64() * 3.7,
                    0.5 + rng.next_f64() * 0.5,
                    rng.next_f64(),
                )
            })
            .collect()
    }

    #[test]
    fn dl_monotone_nonincreasing_in_t() {
        for (y, r, theta_max, _) in param_stream(31, 100) {
            let m = SousaModel::new(y, r, theta_max).unwrap();
            let mut prev = f64::INFINITY;
            for i in 0..=50 {
                let dl = m.defect_level(i as f64 / 50.0).unwrap();
                assert!(dl <= prev + 1e-12, "y={y} r={r} tm={theta_max} i={i}");
                prev = dl;
            }
        }
    }

    #[test]
    fn required_coverage_round_trips() {
        for (y, r, theta_max, t) in param_stream(32, 200) {
            let m = SousaModel::new(y, r, theta_max).unwrap();
            let dl = m.defect_level(t).unwrap();
            let back = m.required_coverage(dl).unwrap();
            let dl_back = m.defect_level(back).unwrap();
            // DL round-trips even where T is numerically flat near the floor.
            assert!(
                (dl_back - dl).abs() < 1e-9,
                "y={y} r={r} tm={theta_max} t={t}"
            );
        }
    }

    #[test]
    fn dl_bracketed_by_residual_and_fallout() {
        for (y, r, theta_max, t) in param_stream(33, 200) {
            let m = SousaModel::new(y, r, theta_max).unwrap();
            let dl = m.defect_level(t).unwrap();
            assert!(dl >= m.residual_defect_level() - 1e-12);
            assert!(dl <= 1.0 - y + 1e-12);
        }
    }
}

#[cfg(test)]
mod shape_property_tests {
    use super::*;

    /// Monotonicity in each parameter: more detectable faults (higher
    /// theta_max) and easier faults (higher R) never increase DL.
    #[test]
    fn dl_monotone_in_parameters() {
        let mut rng = crate::rng::Xorshift64Star::new(34);
        for _ in 0..150 {
            let y = 0.2 + rng.next_f64() * 0.7;
            let t = 0.05 + rng.next_f64() * 0.9;
            let r = 0.5 + rng.next_f64() * 2.5;
            let theta_max = 0.6 + rng.next_f64() * 0.39;
            let base = SousaModel::new(y, r, theta_max)
                .unwrap()
                .defect_level(t)
                .unwrap();
            let more_r = SousaModel::new(y, r + 0.5, theta_max)
                .unwrap()
                .defect_level(t)
                .unwrap();
            let more_tm = SousaModel::new(y, r, (theta_max + 0.01).min(1.0))
                .unwrap()
                .defect_level(t)
                .unwrap();
            assert!(more_r <= base + 1e-12, "y={y} r={r} tm={theta_max} t={t}");
            assert!(more_tm <= base + 1e-12, "y={y} r={r} tm={theta_max} t={t}");
        }
    }

    /// The Williams–Brown special case is an upper bound at T = 0 and
    /// the same fallout there regardless of (R, theta_max).
    #[test]
    fn zero_coverage_is_parameter_free() {
        let mut rng = crate::rng::Xorshift64Star::new(35);
        for _ in 0..150 {
            let y = 0.2 + rng.next_f64() * 0.7;
            let r = 0.5 + rng.next_f64() * 2.5;
            let theta_max = 0.6 + rng.next_f64() * 0.4;
            let m = SousaModel::new(y, r, theta_max).unwrap();
            assert!((m.defect_level(0.0).unwrap() - (1.0 - y)).abs() < 1e-12);
        }
    }
}
