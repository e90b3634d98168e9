//! The shared experimental pipeline behind Figs. 3–6: layout → extraction
//! → ATPG → gate- and switch-level fault simulation, with the paper's
//! yield scaling. The `c432_study` binary runs it once for every figure
//! and ablation of the c432-class chip; the other binaries run the
//! stages they need.

use dlp_atpg::generate::{generate_tests, AtpgConfig, PodemVerdict};
use dlp_circuit::{switch, Netlist};
use dlp_core::obs::{BenchReport, Recorder, RunReport, TraceSetting};
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_core::{Diagnostics, PipelineError, RunBudget, Stage};
use dlp_extract::defects::DefectStatistics;
use dlp_extract::extractor;
use dlp_extract::faults::{FaultSet, OpenLevelModel};
use dlp_extract::ExtractError;
use dlp_layout::chip::ChipLayout;
use dlp_sim::detection::DetectionRecord;
use dlp_sim::switchlevel::{DetectionMode, SwitchConfig, SwitchFault, SwitchSimulator};
use dlp_sim::{ppsfp, stuck_at};

/// The paper's yield operating point.
pub const PAPER_YIELD: f64 = 0.75;

/// Stage 1 output: the physical design and its extracted fault list.
pub struct Extraction {
    /// The benchmark netlist.
    pub netlist: Netlist,
    /// Its standard-cell layout.
    pub chip: ChipLayout,
    /// The weighted realistic fault list (pruned of negligible weights).
    pub faults: FaultSet,
    /// The weights scaled so that `Y = 0.75` (eq. 5 / §3 of the paper).
    pub weights: FaultWeights,
    /// Warnings from stages that degraded gracefully (connectivity
    /// violations, pruning anomalies). Empty on a clean run.
    pub diagnostics: Diagnostics,
}

/// Lays out `netlist` and extracts its weighted realistic faults under
/// the given defect statistics, scaled to the paper's yield.
///
/// Recoverable anomalies degrade gracefully instead of aborting: layout
/// connectivity violations and a prune that would drop every fault are
/// recorded as [`Diagnostics`] warnings on the returned [`Extraction`],
/// which still carries usable partial results.
///
/// Extraction runs on the worker count resolved from `DLP_THREADS`
/// (default: available parallelism). The recorder adds `layout` and
/// `extract` spans, layout shape / pruning counters, and the
/// extraction-stage counters and gauges recorded by
/// [`extractor::extract_obs`]. Tracing never changes the extraction.
///
/// # Errors
///
/// A stage-tagged [`PipelineError`] when a stage cannot produce a result
/// at all: layout generation fails, `DLP_THREADS` is set to `0` or
/// garbage, the defect statistics are unusable, or extraction finds no
/// faults (so no weights exist to scale).
///
/// # Example
///
/// ```
/// use dlp_bench::pipeline;
/// use dlp_circuit::generators;
/// use dlp_core::obs::Recorder;
/// use dlp_extract::defects::DefectStatistics;
///
/// let stats = DefectStatistics::maly_cmos();
/// let ex = pipeline::extract_netlist_obs(generators::c17(), &stats, Recorder::noop())?;
/// assert!(ex.faults.len() > 50);
/// # Ok::<(), dlp_core::PipelineError>(())
/// ```
pub fn extract_netlist_obs(
    netlist: Netlist,
    stats: &DefectStatistics,
    obs: &Recorder,
) -> Result<Extraction, PipelineError> {
    let chip = {
        let _span = obs.span("layout");
        ChipLayout::generate(&netlist, &Default::default())
            .map_err(|e| PipelineError::from(e).context(netlist.name().to_string()))?
    };
    extract_chip_obs(netlist, chip, stats, obs)
}

/// The post-layout half of [`extract_netlist_obs`]: extracts the
/// weighted realistic faults of `chip`, the layout of `netlist`, under
/// `stats`. The layout does not depend on the defect statistics, so one
/// layout serves extractions under several of them.
///
/// # Errors
///
/// As for [`extract_netlist_obs`], less the layout failure.
pub fn extract_chip_obs(
    netlist: Netlist,
    chip: ChipLayout,
    stats: &DefectStatistics,
    obs: &Recorder,
) -> Result<Extraction, PipelineError> {
    let mut diagnostics = Diagnostics::new();
    let route = chip.route_stats();
    obs.add("layout.route.waves", route.waves);
    obs.add("layout.route.expanded", route.expanded);
    obs.add("layout.route.reroutes", route.reroutes);
    obs.add("layout.route.unrouted", route.unrouted as u64);
    let violations = chip.verify_connectivity();
    obs.add("layout.violations", violations.len() as u64);
    if !violations.is_empty() {
        diagnostics.warn(
            Stage::Layout,
            format!(
                "{} connectivity violations (first: {:?}); \
                 critical areas may be distorted",
                violations.len(),
                violations[0]
            ),
        );
    }
    let threads = ThreadCount::from_env().map_err(ExtractError::from)?;
    let config = dlp_extract::extractor::ExtractionConfig::default();
    let mut faults = extractor::extract_obs(&chip, stats, &config, threads, obs)?;
    prune_negligible(&mut faults, &mut diagnostics, obs);
    let weights = FaultWeights::new(faults.weights())
        .map_err(|e| PipelineError::from(e).context("building fault weights"))?
        .scaled_to_yield(PAPER_YIELD)
        .map_err(|e| PipelineError::from(e).context("scaling weights to the paper yield"))?;
    obs.gauge("weights.yield", PAPER_YIELD);
    if obs.is_enabled() {
        // Distribution of post-prune fault weights: the tail (a few
        // heavy bridges dominating DL) is visible as p99/max ≫ p50.
        for &w in &faults.weights() {
            obs.observe("pipeline.fault_weight", w);
        }
    }
    Ok(Extraction {
        netlist,
        chip,
        faults,
        weights,
        diagnostics,
    })
}

/// Drops faults below `1e-5` of the total weight, unless that would drop
/// every one: the decision is made from the weights before pruning, so
/// the list is kept without extracting it again. A prune that drops more
/// than a quarter of the list, or that is skipped, is a warning.
fn prune_negligible(faults: &mut FaultSet, diagnostics: &mut Diagnostics, obs: &Recorder) {
    const THRESHOLD: f64 = 1e-5;
    let before = faults.len();
    let weights = faults.weights();
    // The cut `prune_below` applies: the same sum in the same order.
    let cut = weights.iter().sum::<f64>() * THRESHOLD;
    if before > 0 && weights.iter().all(|&w| w < cut) {
        obs.add("extract.pruned", 0);
        diagnostics.warn(
            Stage::Extraction,
            format!("pruning would drop all {before} faults; keeping the unpruned list"),
        );
        return;
    }
    let dropped = faults.prune_below(THRESHOLD);
    obs.add("extract.pruned", dropped as u64);
    if dropped > 0 && dropped * 4 > before {
        diagnostics.warn(
            Stage::Extraction,
            format!("pruning dropped {dropped} of {before} faults"),
        );
    }
}

/// Stage 2 output: vectors and both fault-simulation records.
pub struct SimulationRun {
    /// The applied vector sequence (random prefix + deterministic tail).
    pub vectors: Vec<Vec<bool>>,
    /// Length of the random prefix.
    pub random_prefix: usize,
    /// Gate-level stuck-at record over *testable* faults (`T(k)`).
    pub record_t: DetectionRecord,
    /// Switch-level record over the realistic faults (`θ(k)`, `Γ(k)`).
    pub record_theta: DetectionRecord,
    /// Number of stuck-at faults proven redundant (excluded from `T`).
    pub redundant: usize,
}

/// Runs ATPG and both simulators for an extraction, on `threads`
/// workers under `budget`.
///
/// Adds an `atpg` span and vector/redundancy counters, then runs the
/// gate-level simulator via [`ppsfp::simulate_resumable`] (scope
/// `sim.gate`) and the switch-level simulator via
/// [`SwitchSimulator::detect_obs`] (scope `sim.switch`). Tracing never
/// changes either record. The budget guards the gate-level pass: a
/// tripped budget surfaces as a stage-tagged interruption carrying a
/// resume checkpoint rather than a partial result. Binaries build the
/// budget from the `DLP_BUDGET_*` knobs with [`RunBudget::from_env`];
/// the projection service manages one per request.
///
/// # Errors
///
/// A stage-tagged [`PipelineError`] when the netlist cannot be expanded
/// to switch level, the fault list cannot be lowered onto it, or the run
/// budget trips.
pub fn simulate_budgeted(
    extraction: &Extraction,
    seed: u64,
    threads: ThreadCount,
    budget: &RunBudget,
    obs: &Recorder,
) -> Result<SimulationRun, PipelineError> {
    let netlist = &extraction.netlist;
    let sa = stuck_at::enumerate(netlist).collapse();
    let atpg = {
        let _span = obs.span("atpg");
        generate_tests(
            netlist,
            sa.faults(),
            &AtpgConfig {
                random_budget: 1024,
                random_stall: 192,
                seed,
                ..Default::default()
            },
        )?
    };
    let redundant: Vec<_> = atpg
        .undetected
        .iter()
        .filter(|(_, v)| *v == PodemVerdict::Redundant)
        .map(|(f, _)| *f)
        .collect();
    let testable: Vec<_> = sa
        .faults()
        .iter()
        .copied()
        .filter(|f| !redundant.contains(f))
        .collect();
    obs.add("atpg.vectors", atpg.vectors.len() as u64);
    obs.add("atpg.random_prefix", atpg.random_prefix_len as u64);
    obs.add("atpg.redundant", redundant.len() as u64);

    let record_t = ppsfp::simulate_resumable(
        netlist,
        &testable,
        &atpg.vectors,
        threads,
        obs,
        budget,
        None,
    )?;

    let (sim, lowered) = switch_stage(extraction)?;
    let record_theta = sim.detect_obs(
        &lowered,
        &atpg.vectors,
        DetectionMode::Voltage,
        threads,
        obs,
    )?;

    Ok(SimulationRun {
        vectors: atpg.vectors,
        random_prefix: atpg.random_prefix_len,
        record_t,
        record_theta,
        redundant: redundant.len(),
    })
}

/// The switch-level stage of an extraction: its netlist expanded to
/// transistors under the default [`SwitchConfig`], and its realistic
/// faults lowered onto that netlist under the default
/// [`OpenLevelModel`]. Every switch-level measurement of an extraction
/// starts here.
///
/// # Errors
///
/// A stage-tagged [`PipelineError`] when the netlist cannot be expanded
/// to switch level or a fault cannot be lowered onto it.
pub fn switch_stage(
    extraction: &Extraction,
) -> Result<(SwitchSimulator, Vec<SwitchFault>), PipelineError> {
    let netlist = &extraction.netlist;
    let sw = switch::expand(netlist)
        .map_err(|e| PipelineError::from(e).context("expanding to switch level"))?;
    let sim = SwitchSimulator::new(sw, SwitchConfig::default());
    let lowered =
        extraction
            .faults
            .to_switch_faults(netlist, sim.netlist(), &OpenLevelModel::default())?;
    Ok((sim, lowered))
}

/// A failed report write: an [`Stage::Artifact`] error with the
/// `io::Error` as its source and the path as context.
fn write_error(path: &str, e: std::io::Error) -> PipelineError {
    PipelineError::with_source(Stage::Artifact, e).context(format!("cannot write {path}"))
}

/// Writes `report` to `path` (see [`BenchReport::write_to`]).
///
/// # Errors
///
/// A [`Stage::Artifact`] [`PipelineError`] whose source is the
/// `io::Error` and whose message names `path`.
pub fn write_bench_report(report: &BenchReport, path: &str) -> Result<(), PipelineError> {
    report.write_to(path).map_err(|e| write_error(path, e))
}

/// Builds a [`Recorder`] from the `DLP_TRACE` environment variable:
/// enabled when tracing is requested (`DLP_TRACE=1` or an explicit
/// path), a no-op recorder otherwise.
pub fn recorder_from_env() -> Recorder {
    Recorder::from_setting(&TraceSetting::from_env())
}

/// Writes the recorder's [`RunReport`] to the path requested by
/// `DLP_TRACE`, next to the `BENCH_*.json` files at the workspace root.
///
/// `DLP_TRACE=1` selects the default path `TRACE_<name>.json`; any other
/// non-empty, non-`"0"` value is used as the path verbatim. Returns the
/// written path, or `None` when tracing is off (including a disabled
/// recorder, so callers can pass the recorder straight through).
///
/// # Errors
///
/// A [`Stage::Artifact`] [`PipelineError`], as for
/// [`write_bench_report`], if the report file cannot be written.
pub fn write_run_report(obs: &Recorder, name: &str) -> Result<Option<String>, PipelineError> {
    let setting = TraceSetting::from_env();
    if !obs.is_enabled() || !setting.is_on() {
        return Ok(None);
    }
    let default = format!("{}/../../TRACE_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let Some(path) = setting.resolve(&default) else {
        return Ok(None);
    };
    let report: RunReport = obs.report(name);
    report.write_to(&path).map_err(|e| write_error(&path, e))?;
    Ok(Some(path))
}

/// One curve sample: `(k, T(k), θ(k), Γ(k), DL(θ(k)))`.
pub type CurveSample = (usize, f64, f64, f64, f64);

/// The `(T(k), θ(k), Γ(k), DL(θ(k)))` samples at logarithmic test lengths.
///
/// # Errors
///
/// [`PipelineError`] (model stage) if a coverage sample falls outside
/// `[0, 1]` — a simulator-record inconsistency, not an input condition.
pub fn curve_samples(
    extraction: &Extraction,
    run: &SimulationRun,
) -> Result<Vec<CurveSample>, PipelineError> {
    let w = extraction.faults.weights();
    crate::log_lengths(run.vectors.len())
        .into_iter()
        .map(|k| {
            let t = run.record_t.coverage_after(k);
            let theta = run.record_theta.weighted_coverage_after(k, &w)?;
            let gamma = run.record_theta.coverage_after(k);
            let dl = extraction
                .weights
                .defect_level(theta)
                .map_err(|e| PipelineError::from(e).context(format!("DL at k = {k}")))?;
            Ok((k, t, theta, gamma, dl))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::NodeId;
    use dlp_extract::faults::{Detached, FaultKind, RealisticFault};
    use dlp_layout::chip::ElecNet;

    fn uniform(count: usize) -> FaultSet {
        let kind = FaultKind::Break {
            net: ElecNet::Signal(NodeId::from_index(0)),
            detached: Detached::All,
        };
        FaultSet::new(
            (0..count)
                .map(|i| RealisticFault {
                    kind: kind.clone(),
                    weight: 1e-3,
                    label: format!("f{i}"),
                })
                .collect(),
        )
    }

    #[test]
    fn a_prune_that_would_empty_the_list_keeps_it_and_warns() {
        // 120,000 equal weights: each is 1/120,000 < 1e-5 of the total.
        let mut faults = uniform(120_000);
        let (mut diagnostics, obs) = (Diagnostics::new(), Recorder::enabled());
        prune_negligible(&mut faults, &mut diagnostics, &obs);
        assert_eq!(faults.len(), 120_000);
        assert_eq!(diagnostics.len(), 1);
        assert!(diagnostics
            .to_string()
            .contains("keeping the unpruned list"));
        assert_eq!(obs.counter_value("extract.pruned"), Some(0));
    }

    #[test]
    fn an_ordinary_prune_drops_only_negligible_faults() {
        let mut faults = uniform(10);
        let mut diagnostics = Diagnostics::new();
        prune_negligible(&mut faults, &mut diagnostics, Recorder::noop());
        assert_eq!(faults.len(), 10);
        assert!(diagnostics.is_empty());
    }

    #[test]
    fn curve_samples_are_monotone_and_end_at_the_full_test() {
        use dlp_circuit::generators;
        for netlist in [generators::c17(), generators::ripple_adder(8)] {
            let name = netlist.name().to_string();
            let stats = DefectStatistics::maly_cmos();
            let ex = extract_netlist_obs(netlist, &stats, Recorder::noop()).expect("extraction");
            let budget = RunBudget::unlimited();
            let run = simulate_budgeted(&ex, 1994, ThreadCount::Auto, &budget, Recorder::noop())
                .expect("simulation");
            let samples = curve_samples(&ex, &run).expect("samples");
            assert!(
                samples.windows(2).all(|p| p[1].0 > p[0].0),
                "{name}: k increases"
            );
            assert_eq!(
                samples.last().map(|s| s.0),
                Some(run.vectors.len()),
                "{name}"
            );
            for p in samples.windows(2) {
                let ((_, t0, th0, g0, dl0), (_, t1, th1, g1, dl1)) = (p[0], p[1]);
                assert!(
                    t1 >= t0 && th1 >= th0 && g1 >= g0,
                    "{name}: coverages never fall"
                );
                assert!(dl1 <= dl0, "{name}: DL never rises");
            }
            for &(k, t, theta, gamma, dl) in &samples {
                for c in [t, theta, gamma] {
                    assert!((0.0..=1.0).contains(&c), "{name}: coverage {c} at k = {k}");
                }
                let expected = ex.weights.defect_level(theta).expect("DL");
                assert_eq!(dl.to_bits(), expected.to_bits(), "{name}: DL at k = {k}");
            }
        }
    }

    #[test]
    fn a_failed_report_write_is_a_typed_artifact_error() {
        let dir = std::env::temp_dir().join(format!("dlp_no_such_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("BENCH_x.json").to_string_lossy().into_owned();
        let err = write_bench_report(&BenchReport::new("x"), &path).expect_err("no directory");
        assert_eq!(err.stage(), Stage::Artifact);
        assert!(err.message().contains(&path), "{err}");
        let source = std::error::Error::source(&err).expect("a source");
        assert!(
            source.downcast_ref::<std::io::Error>().is_some(),
            "{source:?}"
        );
    }
}
