//! Extraction reports: weight breakdowns by fault family and by layer —
//! the summary a process engineer reads before trusting the fault list
//! (and the hook the paper suggests for *tuning* assumed defect statistics
//! against measured DL(T) curves).

use std::collections::BTreeMap;
use std::fmt;

use crate::faults::{FaultKind, FaultSet};

/// Aggregated weight statistics of a fault set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionReport {
    /// `(family name, count, total weight)` per fault family.
    pub by_family: Vec<(String, usize, f64)>,
    /// `(layer mnemonic, count, total weight)` per originating layer, as
    /// recorded in the fault labels.
    pub by_layer: Vec<(String, usize, f64)>,
    /// Total weight of the set.
    pub total_weight: f64,
    /// Bridge-family share of the weight, in `[0, 1]`.
    pub bridge_share: f64,
}

impl ExtractionReport {
    /// Builds the report for a fault set.
    pub fn new(faults: &FaultSet) -> Self {
        let mut by_family: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        let mut by_layer: BTreeMap<String, (usize, f64)> = BTreeMap::new();
        let mut total = 0.0;
        for f in faults.faults() {
            let family = match f.kind {
                FaultKind::Bridge { .. } => "bridge",
                FaultKind::Break { .. } => "break",
                FaultKind::StuckOpen { .. } => "stuck-open",
                FaultKind::StuckOn { .. } => "stuck-on",
            };
            let e = by_family.entry(family).or_default();
            e.0 += 1;
            e.1 += f.weight;
            // Labels are "<kind>:<layer-or-site>:..."; the second field is
            // the layer mnemonic for geometric faults.
            let layer = f.label.split(':').nth(1).unwrap_or("?").to_string();
            let e = by_layer.entry(layer).or_default();
            e.0 += 1;
            e.1 += f.weight;
            total += f.weight;
        }
        let bridge_total = faults.bridge_weight();
        ExtractionReport {
            by_family: by_family
                .into_iter()
                .map(|(k, (n, w))| (k.to_string(), n, w))
                .collect(),
            by_layer: by_layer.into_iter().map(|(k, (n, w))| (k, n, w)).collect(),
            total_weight: total,
            bridge_share: if total > 0.0 {
                bridge_total / (faults.bridge_weight() + faults.open_weight())
            } else {
                0.0
            },
        }
    }
}

impl fmt::Display for ExtractionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "extraction report (total weight {:.4e})",
            self.total_weight
        )?;
        writeln!(f, "  by family:")?;
        for (name, n, w) in &self.by_family {
            writeln!(
                f,
                "    {name:11} n={n:6}  w={w:.4e}  ({:5.1} %)",
                100.0 * w / self.total_weight.max(1e-300)
            )?;
        }
        writeln!(f, "  by layer/site:")?;
        for (name, n, w) in &self.by_layer {
            writeln!(
                f,
                "    {name:11} n={n:6}  w={w:.4e}  ({:5.1} %)",
                100.0 * w / self.total_weight.max(1e-300)
            )?;
        }
        write!(
            f,
            "  bridge share of weight: {:.1} %",
            100.0 * self.bridge_share
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defects::DefectStatistics;
    use crate::extractor;
    use dlp_circuit::generators;
    use dlp_layout::chip::ChipLayout;

    #[test]
    fn report_sums_match_fault_set() {
        let chip = ChipLayout::generate(&generators::c17(), &Default::default()).unwrap();
        let faults = extractor::extract_for_test(&chip, &DefectStatistics::maly_cmos()).unwrap();
        let report = ExtractionReport::new(&faults);
        let family_total: f64 = report.by_family.iter().map(|(_, _, w)| w).sum();
        let layer_total: f64 = report.by_layer.iter().map(|(_, _, w)| w).sum();
        let direct: f64 = faults.weights().iter().sum();
        assert!((family_total - direct).abs() < 1e-12);
        assert!((layer_total - direct).abs() < 1e-12);
        let family_count: usize = report.by_family.iter().map(|(_, n, _)| n).sum();
        assert_eq!(family_count, faults.len());
    }

    #[test]
    fn display_is_complete() {
        let chip = ChipLayout::generate(&generators::c17(), &Default::default()).unwrap();
        let faults = extractor::extract_for_test(&chip, &DefectStatistics::maly_cmos()).unwrap();
        let text = ExtractionReport::new(&faults).to_string();
        for needle in ["bridge", "break", "by layer", "bridge share"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn empty_set_is_safe() {
        let report = ExtractionReport::new(&FaultSet::new(Vec::new()));
        assert_eq!(report.total_weight, 0.0);
        assert_eq!(report.bridge_share, 0.0);
        let _ = report.to_string();
    }
}
