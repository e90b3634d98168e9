//! Process defect statistics: mechanisms, densities, and the size law.
//!
//! Spot defects follow the classic `d(x) ∝ 1/x³` size distribution between
//! `x_min` and `x_max` (Stapper; the paper's refs [2, 21, 23]). Densities
//! are per defect class and are deliberately *relative*: the paper scales
//! total weight to a target yield anyway ("scaling the yield value can be
//! interpreted as if the circuit has a different size").

use dlp_geometry::{Coord, Layer};

use crate::ExtractError;

/// The physical mechanism of a defect class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Mechanism {
    /// Extra conducting material: shorts neighbouring shapes on `layer`.
    ExtraMaterial,
    /// Missing conducting material: opens a wire on `layer`.
    MissingMaterial,
    /// A missing contact or via cut.
    MissingCut,
    /// A gate-oxide pinhole (gate-to-channel short).
    OxidePinhole,
}

/// One defect class: a mechanism on a layer with a density and size range.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectClass {
    /// Affected mask layer.
    pub layer: Layer,
    /// Physical mechanism.
    pub mechanism: Mechanism,
    /// Relative density: expected defects of this class per 10⁶ λ² of
    /// chip area (before yield scaling).
    pub density: f64,
    /// Smallest defect diameter (λ). Ignored for pinholes.
    pub x_min: Coord,
    /// Largest defect diameter (λ). Ignored for pinholes.
    pub x_max: Coord,
}

impl DefectClass {
    /// Checks the class is usable: a finite, positive density and a
    /// non-degenerate size range.
    ///
    /// # Errors
    ///
    /// [`ExtractError::BadDefectStatistics`] with the failing reason.
    pub fn validate(&self) -> Result<(), ExtractError> {
        let bad = |reason| ExtractError::BadDefectStatistics {
            layer: self.layer,
            reason,
        };
        if self.density.is_nan() {
            return Err(bad("density is NaN"));
        }
        if !self.density.is_finite() {
            return Err(bad("density is infinite"));
        }
        if self.density <= 0.0 {
            return Err(bad("density must be positive"));
        }
        if self.x_min < 1 {
            return Err(bad("x_min must be at least 1"));
        }
        if self.x_max < self.x_min {
            return Err(bad("x_max must be >= x_min"));
        }
        Ok(())
    }

    /// Discretises the `1/x³` size law into `samples` sizes with their
    /// per-size densities (defects per 10⁶ λ², summing to
    /// [`density`](Self::density)).
    ///
    /// # Errors
    ///
    /// [`ExtractError::NoSizeSamples`] for `samples == 0`;
    /// [`ExtractError::BadDefectStatistics`] if the class itself is
    /// unusable (see [`validate`](Self::validate)).
    pub fn size_samples(&self, samples: usize) -> Result<Vec<(Coord, f64)>, ExtractError> {
        if samples == 0 {
            return Err(ExtractError::NoSizeSamples);
        }
        self.validate()?;
        if self.x_min == self.x_max {
            return Ok(vec![(self.x_min, self.density)]);
        }
        // Integrate 1/x^3 over each bin: ∫ x^-3 dx = -x^-2 / 2.
        let cdf = |x: f64| -> f64 { -1.0 / (2.0 * x * x) };
        let total = cdf(self.x_max as f64) - cdf(self.x_min as f64);
        let mut out = Vec::with_capacity(samples);
        for i in 0..samples {
            let lo =
                self.x_min as f64 + (self.x_max - self.x_min) as f64 * i as f64 / samples as f64;
            let hi = self.x_min as f64
                + (self.x_max - self.x_min) as f64 * (i + 1) as f64 / samples as f64;
            let mass = (cdf(hi) - cdf(lo)) / total;
            let x = ((lo + hi) / 2.0).round() as Coord;
            out.push((x.max(1), self.density * mass));
        }
        Ok(out)
    }
}

/// The full defect menu of a process line.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectStatistics {
    classes: Vec<DefectClass>,
}

impl DefectStatistics {
    /// Builds statistics from explicit classes.
    pub fn new(classes: Vec<DefectClass>) -> Self {
        DefectStatistics { classes }
    }

    /// The defect classes.
    pub fn classes(&self) -> &[DefectClass] {
        &self.classes
    }

    /// Checks every class is usable (finite positive densities, sane size
    /// ranges). The extractor runs this before touching any geometry.
    ///
    /// # Errors
    ///
    /// The first class's [`ExtractError::BadDefectStatistics`].
    pub fn validate(&self) -> Result<(), ExtractError> {
        self.classes.iter().try_for_each(DefectClass::validate)
    }

    /// The largest defect diameter across all classes (bounds the bridge
    /// candidate search).
    pub fn max_defect_size(&self) -> Coord {
        self.classes.iter().map(|c| c.x_max).max().unwrap_or(0)
    }

    /// A bridge-heavy CMOS line in the spirit of Maly's relative-density
    /// estimates for a positive-photoresist process (the paper's refs
    /// [21, 23]): extra-material (short) densities dominate missing
    /// material, metals carry most defects, and contacts/vias contribute
    /// opens. Absolute values are relative weights only.
    pub fn maly_cmos() -> Self {
        use Layer::*;
        use Mechanism::*;
        let c = |layer, mechanism, density, x_min, x_max| DefectClass {
            layer,
            mechanism,
            density,
            x_min,
            x_max,
        };
        DefectStatistics::new(vec![
            // Shorts (extra material) — dominant, especially on metal.
            c(Metal1, ExtraMaterial, 10.0, 2, 24),
            c(Metal2, ExtraMaterial, 8.0, 2, 24),
            c(Poly, ExtraMaterial, 5.0, 2, 16),
            c(Ndiff, ExtraMaterial, 2.0, 2, 12),
            c(Pdiff, ExtraMaterial, 2.0, 2, 12),
            // Opens (missing material) — a few times rarer.
            c(Metal1, MissingMaterial, 2.5, 2, 16),
            c(Metal2, MissingMaterial, 2.0, 2, 16),
            c(Poly, MissingMaterial, 1.2, 2, 12),
            c(Ndiff, MissingMaterial, 0.6, 2, 10),
            c(Pdiff, MissingMaterial, 0.6, 2, 10),
            // Missing cuts.
            c(Contact, MissingCut, 0.8, 2, 6),
            c(Via, MissingCut, 0.8, 2, 6),
            // Oxide pinholes (size-independent).
            c(GateOxide, OxidePinhole, 0.4, 1, 1),
        ])
    }

    /// An open-heavy variant (e.g. a negative-photoresist line) for the
    /// ablation study: the same classes with shorts and opens swapped in
    /// magnitude, which should drive the susceptibility ratio `R` toward
    /// (or below) 1.
    pub fn open_heavy() -> Self {
        let mut classes = Self::maly_cmos().classes.clone();
        for c in &mut classes {
            match c.mechanism {
                Mechanism::ExtraMaterial => c.density /= 5.0,
                Mechanism::MissingMaterial => c.density *= 5.0,
                Mechanism::MissingCut => c.density *= 3.0,
                Mechanism::OxidePinhole => {}
            }
        }
        DefectStatistics::new(classes)
    }
}

impl Default for DefectStatistics {
    fn default() -> Self {
        DefectStatistics::maly_cmos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_samples_conserve_density() {
        let c = DefectClass {
            layer: Layer::Metal1,
            mechanism: Mechanism::ExtraMaterial,
            density: 10.0,
            x_min: 2,
            x_max: 24,
        };
        for samples in [1, 4, 11] {
            let total: f64 = c
                .size_samples(samples)
                .unwrap()
                .iter()
                .map(|&(_, d)| d)
                .sum();
            assert!(
                (total - 10.0).abs() < 1e-9,
                "samples={samples} total={total}"
            );
        }
    }

    #[test]
    fn small_defects_dominate() {
        let c = DefectClass {
            layer: Layer::Metal1,
            mechanism: Mechanism::ExtraMaterial,
            density: 1.0,
            x_min: 2,
            x_max: 20,
        };
        let s = c.size_samples(9).unwrap();
        assert!(s[0].1 > s[1].1);
        assert!(s[1].1 > s.last().unwrap().1);
        // The 1/x³ law concentrates most mass near x_min.
        assert!(s[0].1 > 0.5);
    }

    #[test]
    fn degenerate_range_is_single_sample() {
        let c = DefectClass {
            layer: Layer::GateOxide,
            mechanism: Mechanism::OxidePinhole,
            density: 0.4,
            x_min: 1,
            x_max: 1,
        };
        assert_eq!(c.size_samples(5).unwrap(), vec![(1, 0.4)]);
    }

    #[test]
    fn degenerate_statistics_are_typed_errors() {
        let good = DefectClass {
            layer: Layer::Metal1,
            mechanism: Mechanism::ExtraMaterial,
            density: 1.0,
            x_min: 2,
            x_max: 8,
        };
        assert!(good.validate().is_ok());
        for (bad, reason) in [
            (
                DefectClass {
                    density: f64::NAN,
                    ..good.clone()
                },
                "NaN",
            ),
            (
                DefectClass {
                    density: f64::INFINITY,
                    ..good.clone()
                },
                "infinite",
            ),
            (
                DefectClass {
                    density: 0.0,
                    ..good.clone()
                },
                "positive",
            ),
            (
                DefectClass {
                    density: -2.0,
                    ..good.clone()
                },
                "positive",
            ),
            (
                DefectClass {
                    x_min: 0,
                    ..good.clone()
                },
                "x_min",
            ),
            (
                DefectClass {
                    x_max: 1,
                    ..good.clone()
                },
                "x_max",
            ),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.to_string().contains(reason), "{err}");
            assert!(bad.size_samples(4).is_err());
        }
        assert!(matches!(
            good.size_samples(0),
            Err(crate::ExtractError::NoSizeSamples)
        ));
        let stats = DefectStatistics::new(vec![
            good.clone(),
            DefectClass {
                density: f64::NAN,
                ..good
            },
        ]);
        assert!(stats.validate().is_err());
        assert!(DefectStatistics::maly_cmos().validate().is_ok());
        assert!(DefectStatistics::open_heavy().validate().is_ok());
    }

    #[test]
    fn maly_line_is_bridge_heavy() {
        let s = DefectStatistics::maly_cmos();
        let shorts: f64 = s
            .classes()
            .iter()
            .filter(|c| c.mechanism == Mechanism::ExtraMaterial)
            .map(|c| c.density)
            .sum();
        let opens: f64 = s
            .classes()
            .iter()
            .filter(|c| c.mechanism != Mechanism::ExtraMaterial)
            .map(|c| c.density)
            .sum();
        assert!(shorts > 2.0 * opens, "shorts {shorts} opens {opens}");
        assert_eq!(s.max_defect_size(), 24);
        // The ablation variant flips the balance.
        let o = DefectStatistics::open_heavy();
        let o_shorts: f64 = o
            .classes()
            .iter()
            .filter(|c| c.mechanism == Mechanism::ExtraMaterial)
            .map(|c| c.density)
            .sum();
        let o_opens: f64 = o
            .classes()
            .iter()
            .filter(|c| c.mechanism != Mechanism::ExtraMaterial)
            .map(|c| c.density)
            .sum();
        assert!(o_opens > o_shorts);
    }
}
