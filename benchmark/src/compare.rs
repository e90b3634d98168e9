//! `compare <parent-dir> <change-dir>`: the verdict on a change, one
//! row per (workload, metric), from repeated `result.json` files.
//!
//! A row is a `gain` when the change wins at least nine tenths of at
//! least ten pairs (the i-th files of each side, by name, ties counting
//! for neither) and the medians differ by more than the parent's
//! quartile distance. Otherwise the change's median may be worse than
//! the parent's by at most the metric's bound; a row whose spread on
//! either side exceeds the bound is `unresolved`, unless every change
//! run beats every parent run.

use std::collections::BTreeMap;

use dlp_core::obs::Json;

use crate::stats::{median, quartiles, spread};

/// Fewest pairs a gain can rest on.
const MIN_PAIRS: usize = 10;

/// Direction and bound of every end-to-end metric: (name, lower is
/// better, bound as a share of the parent's median, absolute floor).
/// The first three are the metrics every workload reports; `BENCHMARK.json`
/// carries the same bounds.
const BOUNDS: &[(&str, bool, f64, f64)] = &[
    ("setup_s", true, 0.25, 0.05),
    ("latency_ms", true, 0.25, 0.0),
    ("peak_rss_mb", true, 0.15, 0.0),
    ("hit_p50_ms.low", true, 0.10, 0.0),
    ("hit_tail_ms.low", true, 0.10, 0.0),
    ("hit_p50_ms.high", true, 0.10, 0.0),
    ("hit_tail_ms.high", true, 0.10, 0.0),
    ("miss_p50_ms.low", true, 0.10, 0.0),
    ("miss_tail_ms.low", true, 0.10, 0.0),
    ("miss_p50_ms.high", true, 0.10, 0.0),
    ("miss_tail_ms.high", true, 0.10, 0.0),
    ("capacity_rps", false, 0.10, 0.0),
    // Any rise in the failure share is a regression.
    ("error_rate", true, 0.0, 0.0),
];

/// The verdict on one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Better by the pairs rule.
    Gain,
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The spread between runs is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges the change's samples against the parent's, pairing them in
/// order.
fn judge(parent: &[f64], change: &[f64], lower_better: bool, bound: f64, floor: f64) -> Verdict {
    let better = |c: f64, p: f64| if lower_better { c < p } else { c > p };
    let (pm, cm) = (median(parent), median(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let iqr = quartiles(parent).map_or(0.0, |(q1, q3)| q3 - q1);
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > iqr {
        return Verdict::Gain;
    }
    let worse_by = if lower_better { cm - pm } else { pm - cm };
    let allowed = (bound * pm.abs()).max(floor);
    let beats_all = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if bound > 0.0 && (spread(parent) > bound || spread(change) > bound) && !beats_all {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `workload → metric → samples` from every `*.json` result in `dir`,
/// in file-name order.
fn load_dir(dir: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(workloads) = doc.get("workloads").and_then(Json::as_object) else {
            continue;
        };
        for (w, run) in workloads {
            for section in ["metrics", "details"] {
                for (m, v) in run.get(section).and_then(Json::as_object).unwrap_or(&[]) {
                    if let Some(x) = v.get("value").and_then(Json::as_f64) {
                        out.entry((w.clone(), m.clone())).or_default().push(x);
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Compares two directories of results; returns the report and whether
/// any row regressed.
pub fn compare(parent_dir: &str, change_dir: &str) -> Result<(String, bool), String> {
    let parent = load_dir(parent_dir)?;
    let change = load_dir(change_dir)?;
    let mut report = String::new();
    let mut regressed = false;
    report.push_str(
        "workload metric verdict parent_median change_median parent_spread change_spread pairs\n",
    );
    for ((w, m), p) in &parent {
        let Some(&(_, lower, bound, floor)) = BOUNDS.iter().find(|b| b.0 == m) else {
            continue;
        };
        let Some(c) = change.get(&(w.clone(), m.clone())) else {
            continue;
        };
        let v = judge(p, c, lower, bound, floor);
        regressed |= v == Verdict::Regressed;
        report.push_str(&format!(
            "{w} {m} {} {} {} {:.4} {:.4} {}\n",
            v.label(),
            median(p),
            median(c),
            spread(p),
            spread(c),
            p.len().min(c.len())
        ));
    }
    Ok((report, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(base: f64) -> Vec<f64> {
        (0..12)
            .map(|i| base * (1.0 + 0.01 * f64::from(i % 4)))
            .collect()
    }

    #[test]
    fn a_two_fold_slowdown_regresses() {
        let parent = noisy(10.0);
        let slower: Vec<f64> = parent.iter().map(|x| 2.0 * x).collect();
        assert_eq!(judge(&parent, &slower, true, 0.08, 0.0), Verdict::Regressed);
        // Halving a higher-is-better metric is the same regression.
        let halved: Vec<f64> = parent.iter().map(|x| x / 2.0).collect();
        assert_eq!(
            judge(&parent, &halved, false, 0.10, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn identical_samples_pass() {
        let parent = noisy(10.0);
        assert_eq!(judge(&parent, &parent, true, 0.08, 0.0), Verdict::Ok);
    }

    #[test]
    fn a_two_fold_speedup_is_a_gain_only_with_ten_pairs() {
        let parent = noisy(10.0);
        let faster: Vec<f64> = parent.iter().map(|x| x / 2.0).collect();
        assert_eq!(judge(&parent, &faster, true, 0.08, 0.0), Verdict::Gain);
        assert_eq!(
            judge(&parent[..5], &faster[..5], true, 0.08, 0.0),
            Verdict::Ok
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        let wide: Vec<f64> = (0..12)
            .map(|i| 10.0 * (1.0 + 0.5 * f64::from(i % 3)))
            .collect();
        let change: Vec<f64> = wide.iter().rev().map(|x| x * 1.02).collect();
        assert_eq!(judge(&wide, &change, true, 0.08, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn setup_time_has_an_absolute_floor() {
        let parent = vec![0.010; 10];
        let change = vec![0.020; 10];
        assert_eq!(judge(&parent, &change, true, 0.25, 0.05), Verdict::Ok);
    }

    #[test]
    fn any_new_failure_regresses() {
        assert_eq!(
            judge(&[0.0; 10], &[0.001; 10], true, 0.0, 0.0),
            Verdict::Regressed
        );
        assert_eq!(judge(&[0.0; 10], &[0.0; 10], true, 0.0, 0.0), Verdict::Ok);
    }

    #[test]
    fn bounds_agree_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .expect("end_to_end list");
        assert_eq!(listed.len(), 3);
        for (entry, &(name, lower, bound, _)) in listed.iter().zip(BOUNDS) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(name));
            let better = if lower { "lower" } else { "higher" };
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(better));
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(bound));
        }
    }
}
