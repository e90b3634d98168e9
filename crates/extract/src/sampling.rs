//! Monte Carlo defect injection — a statistical cross-check of the
//! critical-area analysis.
//!
//! The analytic extractor computes each fault's weight as
//! `w = Σ_x A_crit(x)·D(x)`. This module goes the other way: it throws
//! physical defects at the layout (class by density, position uniform over
//! the die, size from the `1/x³` law) and asks the *geometry* which fault
//! each one causes. Empirical fault frequencies must converge to the
//! analytic weights — if they do not, one of the two engines is wrong.
//!
//! Only bridge-class defects are sampled (extra material on conductor
//! layers): they dominate the weight, and their geometry test (a square
//! touching two identities) is exact, making them the sharpest
//! cross-check.
//!
//! What the comparison shows — and the tests assert — is the *relationship*
//! between the two engines, not equality: pairwise critical areas (here as
//! in Stapper's classic formulation and the paper's `lift`) ignore
//! **third-conductor shadowing**, so a pair's analytic weight is an upper
//! bound on its physical bridge rate; a defect wide enough to span two
//! distant nets in reality lands on whatever lies between them first
//! (usually a rail). Sampling therefore (a) never produces a two-net
//! bridge the extractor missed, and (b) concentrates large-defect mass on
//! net-to-rail pairs.
//!
//! The sampler is a test reference: it is compiled only into the crate's
//! unit tests.

use std::collections::HashMap;

use dlp_geometry::{Coord, Layer, Rect};
use dlp_layout::chip::{ChipLayout, ElecNet, ElecRole};

use crate::defects::{DefectStatistics, Mechanism};

/// Aggregate of a sampling run.
#[derive(Debug, Clone)]
struct SamplingReport {
    /// Defects thrown.
    thrown: usize,
    /// Defects that caused any bridge.
    bridging: usize,
    /// Two-net bridge counts keyed by a canonical `a|b` label; rails
    /// count as nets for the comparison key.
    pair_counts: HashMap<String, usize>,
}

fn identity_label(chip: &ChipLayout, role: &ElecRole) -> Option<String> {
    match role {
        ElecRole::Net(ElecNet::Signal(n)) => Some(chip.netlist().node_name(*n).to_string()),
        ElecRole::Net(ElecNet::Stage(g, s)) => {
            Some(format!("{}#s{s}", chip.netlist().node_name(*g)))
        }
        ElecRole::Vdd => Some("vdd".to_string()),
        ElecRole::Gnd => Some("gnd".to_string()),
        ElecRole::StageDiff { .. } => None, // different layers anyway
    }
}

/// Throws `count` extra-material defects on `layer` and classifies each by
/// exact geometry. Deterministic in `seed`. `None` when the statistics
/// have no valid extra-material class for `layer`.
fn throw_defects(
    chip: &ChipLayout,
    stats: &DefectStatistics,
    layer: Layer,
    count: usize,
    seed: u64,
) -> Option<SamplingReport> {
    let class = stats
        .classes()
        .iter()
        .find(|c| c.layer == layer && c.mechanism == Mechanism::ExtraMaterial)?;
    class.validate().ok()?;

    // Inverse-CDF sampling of the 1/x^3 law on [x_min, x_max]:
    // F(x) = (1/x_min^2 - 1/x^2) / (1/x_min^2 - 1/x_max^2).
    let (a, b) = (class.x_min as f64, class.x_max as f64);
    let inv_cdf = |u: f64| -> f64 {
        let ia = 1.0 / (a * a);
        let ib = 1.0 / (b * b);
        let inv = ia - u * (ia - ib);
        (1.0 / inv).sqrt()
    };

    let mut state = seed | 1;
    let mut unit = move || -> f64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };

    let shapes: Vec<(&Rect, String)> = chip
        .shapes()
        .iter()
        .filter(|s| s.layer == layer)
        .filter_map(|s| identity_label(chip, &s.role).map(|l| (&s.rect, l)))
        .collect();
    let bbox = chip.bbox();

    let mut pair_counts: HashMap<String, usize> = HashMap::new();
    let mut bridging = 0usize;
    for _ in 0..count {
        let x = inv_cdf(unit()).round().max(1.0) as Coord;
        let cx = bbox.x0() + (unit() * bbox.width() as f64) as Coord;
        let cy = bbox.y0() + (unit() * bbox.height() as f64) as Coord;
        let defect = Rect::new(cx - x / 2, cy - x / 2, cx + (x - x / 2), cy + (x - x / 2));

        let mut touched: Vec<&str> = Vec::new();
        for (rect, label) in &shapes {
            if rect.touches(&defect) && !touched.contains(&label.as_str()) {
                touched.push(label.as_str());
            }
        }
        match touched.len() {
            0 | 1 => {}
            2 => {
                bridging += 1;
                let (p, q) = if touched[0] <= touched[1] {
                    (touched[0], touched[1])
                } else {
                    (touched[1], touched[0])
                };
                *pair_counts.entry(format!("{p}|{q}")).or_default() += 1;
            }
            // A multi-net short (rare): a bridge, but no pair key.
            _ => bridging += 1,
        }
    }
    Some(SamplingReport {
        thrown: count,
        bridging,
        pair_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor;
    use crate::faults::FaultKind;
    use dlp_circuit::generators;

    #[test]
    fn missing_class_yields_no_report() {
        let chip = ChipLayout::generate(&generators::c17(), &Default::default()).unwrap();
        let report = throw_defects(&chip, &DefectStatistics::new(vec![]), Layer::Metal1, 100, 3);
        assert!(report.is_none());
    }

    #[test]
    fn sampling_is_deterministic() {
        let chip = ChipLayout::generate(&generators::c17(), &Default::default()).unwrap();
        let stats = DefectStatistics::maly_cmos();
        let a = throw_defects(&chip, &stats, Layer::Metal1, 500, 3).unwrap();
        let b = throw_defects(&chip, &stats, Layer::Metal1, 500, 3).unwrap();
        assert_eq!(a.pair_counts, b.pair_counts);
        assert_eq!(a.bridging, b.bridging);
    }

    #[test]
    fn most_defects_are_benign() {
        // Real dies are mostly empty space between nets — the defect
        // subsumption rate must be well below 50 %.
        let chip = ChipLayout::generate(&generators::c17(), &Default::default()).unwrap();
        let report = throw_defects(
            &chip,
            &DefectStatistics::maly_cmos(),
            Layer::Metal1,
            4_000,
            11,
        )
        .unwrap();
        assert!(
            report.bridging * 2 < report.thrown,
            "{} bridge",
            report.bridging
        );
        assert!(report.bridging > 0);
    }

    #[test]
    fn extraction_is_complete_and_conservative() {
        // (a) Completeness: every sampled two-net bridge exists in the
        //     analytic fault list. (b) Conservatism: per pair, the
        //     analytic weight predicts at least as many hits as sampled
        //     (pairwise critical area ignores shadowing, so it can only
        //     overestimate), within Poisson slack.
        let chip = ChipLayout::generate(&generators::c17(), &Default::default()).unwrap();
        let stats = DefectStatistics::maly_cmos();
        let faults = extractor::extract_for_test(&chip, &stats).unwrap();
        let mut analytic: HashMap<String, f64> = HashMap::new();
        for f in faults.faults() {
            if let FaultKind::Bridge { .. } = f.kind {
                if let Some(rest) = f.label.strip_prefix("br:m1:") {
                    let mut parts: Vec<&str> = rest.split(':').collect();
                    if parts.len() == 2 {
                        parts.sort();
                        *analytic
                            .entry(format!("{}|{}", parts[0], parts[1]))
                            .or_default() += f.weight;
                    }
                }
            }
        }
        let thrown = 60_000usize;
        let report = throw_defects(&chip, &stats, Layer::Metal1, thrown, 1994).unwrap();

        // Expected-hit conversion: analytic weight w (defects/die at
        // density D per 1e6 λ²) over the m1 ExtraMaterial density and die
        // area gives the per-throw probability.
        let density = stats
            .classes()
            .iter()
            .find(|c| {
                c.layer == Layer::Metal1 && c.mechanism == crate::defects::Mechanism::ExtraMaterial
            })
            .unwrap()
            .density;
        let area = chip.bbox().area() as f64;
        for (pair, hits) in &report.pair_counts {
            let w = analytic
                .get(pair)
                .copied()
                .unwrap_or_else(|| panic!("sampler found pair {pair} the extractor missed"));
            let expected = w * 1e6 / density * thrown as f64 / area;
            // Conservatism with 5-sigma Poisson slack.
            assert!(
                (*hits as f64) <= expected + 5.0 * expected.sqrt() + 5.0,
                "pair {pair}: sampled {hits} exceeds analytic expectation {expected:.1}"
            );
        }
        assert!(
            report.bridging > 20,
            "need statistics: {} bridges",
            report.bridging
        );
    }
}
