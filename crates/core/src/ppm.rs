/// A defect level expressed in parts per million, for display and
/// threshold specification.
///
/// Internally every model works on fractions in `[0, 1]`; `Ppm` is the
/// human-facing unit the paper (and industry) quotes.
///
/// # Example
///
/// ```
/// use dlp_core::Ppm;
///
/// let dl = Ppm::from_fraction(0.0001);
/// assert_eq!(dl.value(), 100.0);
/// assert_eq!(dl.to_string(), "100 ppm");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Ppm(f64);

impl Ppm {
    /// Wraps a value already in parts per million.
    pub const fn new(ppm: f64) -> Self {
        Ppm(ppm)
    }

    /// Converts a fraction in `[0, 1]` to ppm.
    pub fn from_fraction(fraction: f64) -> Self {
        Ppm(fraction * 1e6)
    }

    /// The raw ppm value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl From<Ppm> for f64 {
    fn from(p: Ppm) -> f64 {
        p.0
    }
}

impl core::fmt::Display for Ppm {
    /// Formats with enough significant digits that a nonzero value
    /// never rounds to a zero string: magnitudes ≥ 10 print as
    /// integers, smaller magnitudes keep three significant digits
    /// (growing the decimal places as the value shrinks), and values
    /// below 0.0001 ppm switch to scientific notation. Only an exact
    /// zero prints `"0 ppm"`; signs are preserved for negative inputs
    /// (e.g. a defect-level *reduction*).
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let magnitude = self.0.abs();
        if magnitude >= 10.0 || self.0 == 0.0 {
            write!(f, "{:.0} ppm", self.0)
        } else if magnitude >= 1e-4 {
            // Three significant digits: 1.23, 0.0456, 0.000789.
            let leading = magnitude.log10().floor() as i32;
            let decimals = (2 - leading).max(2) as usize;
            write!(f, "{:.*} ppm", decimals, self.0)
        } else if magnitude.is_nan() {
            write!(f, "NaN ppm")
        } else {
            write!(f, "{:.2e} ppm", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converts_from_a_fraction() {
        let p = Ppm::from_fraction(0.002279);
        assert!((p.value() - 2279.0).abs() < 1e-9);
    }

    #[test]
    fn display_scales_precision() {
        assert_eq!(Ppm::new(2279.0).to_string(), "2279 ppm");
        assert_eq!(Ppm::new(1.234).to_string(), "1.23 ppm");
        assert_eq!(Ppm::new(0.0).to_string(), "0 ppm");
        assert_eq!(Ppm::new(0.456).to_string(), "0.456 ppm");
        assert_eq!(Ppm::new(0.004).to_string(), "0.00400 ppm");
        assert_eq!(Ppm::new(3.2e-5).to_string(), "3.20e-5 ppm");
    }

    #[test]
    fn nonzero_never_displays_as_zero() {
        // The old sub-10 formatting used {:.2}, so residual defect
        // levels in (0, 0.005) ppm printed as "0.00 ppm".
        for &ppm in &[0.004, 0.0049, 1e-3, 1e-6, 1e-12, 4.9e-9] {
            let shown = Ppm::from_fraction(ppm / 1e6).to_string();
            assert_ne!(shown, "0.00 ppm", "{ppm} ppm hidden");
            assert_ne!(shown, "0 ppm", "{ppm} ppm hidden");
            assert!(
                shown.chars().any(|c| ('1'..='9').contains(&c)),
                "{ppm} ppm shows no significant digit: {shown}"
            );
        }
    }

    #[test]
    fn negative_values_keep_their_sign() {
        assert_eq!(Ppm::new(-2279.0).to_string(), "-2279 ppm");
        assert_eq!(Ppm::new(-1.234).to_string(), "-1.23 ppm");
        assert_eq!(Ppm::new(-0.004).to_string(), "-0.00400 ppm");
        assert_eq!(Ppm::new(-3.2e-5).to_string(), "-3.20e-5 ppm");
    }

    #[test]
    fn non_finite_values_display_without_panicking() {
        assert_eq!(Ppm::new(f64::INFINITY).to_string(), "inf ppm");
        assert_eq!(Ppm::new(f64::NEG_INFINITY).to_string(), "-inf ppm");
        assert_eq!(Ppm::new(f64::NAN).to_string(), "NaN ppm");
    }
}
