//! Every call the benchmark makes into the library, in one file.
//!
//! The flow composes the layers the way `dlp_bench::pipeline` does
//! (layout → extraction → ATPG → gate-level → switch-level), then adds
//! the Monte-Carlo cross-check and the eq. 11 fit. Each call is wrapped
//! in a benchmark span named after the library module that does the
//! work; no span is added inside the library. When the library renames
//! an entry point, this is the only benchmark file that changes.

use dlp_atpg::generate::{generate_tests, AtpgConfig, PodemVerdict};
use dlp_circuit::{switch, Netlist};
use dlp_core::ckpt::KeyHasher;
use dlp_core::fit;
use dlp_core::montecarlo::{simulate_fallout_resumable, MonteCarloConfig};
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_core::RunBudget;
use dlp_extract::defects::DefectStatistics;
use dlp_extract::extractor::{self, ExtractionConfig};
use dlp_extract::faults::OpenLevelModel;
use dlp_layout::chip::ChipLayout;
use dlp_serve::server::{serve, ServerConfig, ServerHandle};
use dlp_serve::service::ServiceConfig;
use dlp_serve::AccessLogConfig;
use dlp_sim::detection::DetectionRecord;
use dlp_sim::switchlevel::{DetectionMode, SwitchConfig, SwitchSimulator};
use dlp_sim::{ppsfp, stuck_at};

use crate::spans::Spans;

/// The paper's yield operating point; sampled fault weights are
/// rescaled to it.
pub const PAPER_YIELD: f64 = 0.75;

/// Dies fabricated by the Monte-Carlo cross-check of every flow.
pub const MC_DIES: usize = 50_000;

/// Worker count of the flow workloads' layers. On a shared 2-vCPU
/// virtual machine, pass times with two workers varied 10–19 % between
/// runs, with one worker 2–10 %; results are bit-identical at every
/// worker count.
pub const FLOW_THREADS: usize = 1;

/// Worker count of the service's simulation stages; the server runs at
/// least two HTTP workers whatever this is.
pub const SERVE_THREADS: usize = 2;

/// The worker count of the flow workloads' layers.
pub fn flow_threads() -> ThreadCount {
    ThreadCount::fixed(FLOW_THREADS).expect("FLOW_THREADS is non-zero")
}

/// Which of the lowered realistic faults the switch-level simulator
/// sees: every `stride`-th, starting at `offset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Keep one fault in this many (1 keeps all).
    pub stride: usize,
    /// Index of the first kept fault (`< stride`).
    pub offset: usize,
}

impl Sample {
    /// Every fault.
    pub const ALL: Sample = Sample {
        stride: 1,
        offset: 0,
    };

    fn keeps(self, index: usize) -> bool {
        index % self.stride == self.offset
    }
}

/// One cold flow's inputs. The benchmark derives them from its seed;
/// the library sees only these values.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// The circuit.
    pub netlist: Netlist,
    /// Seed of the ATPG random phase and don't-care fill.
    pub atpg_seed: u64,
    /// Seed of the Monte-Carlo production line.
    pub mc_seed: u64,
    /// What the tester observes at switch level.
    pub mode: DetectionMode,
    /// Which lowered faults are simulated at switch level.
    pub sample: Sample,
}

/// Work counts of one flow that no library counter records.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Layout shapes generated.
    pub shapes: usize,
    /// Σ over switch-level faults of the vectors applied until
    /// detection (all vectors for an undetected fault).
    pub fault_vectors: usize,
    /// Dies fabricated by the Monte-Carlo cross-check.
    pub dies: usize,
}

/// One cold flow's results.
#[derive(Debug, Clone)]
pub struct FlowOutput {
    /// The simulated faults' weights, scaled to [`PAPER_YIELD`].
    pub weights: FaultWeights,
    /// Gate-level stuck-at record over the testable faults (`T(k)`).
    pub record_t: DetectionRecord,
    /// Switch-level record over the simulated realistic faults (`θ(k)`).
    pub record_theta: DetectionRecord,
    /// The fitted eq. 11 susceptibility ratio `R`.
    pub r: f64,
    /// The fitted eq. 11 `θ_max`.
    pub theta_max: f64,
    /// Monte-Carlo escapes: shipped dies carrying an undetected fault.
    pub escapes: usize,
    /// Work counts.
    pub work: Work,
}

impl FlowOutput {
    /// The output digest: FNV-1a over both records' first-detect
    /// indices, the weight bits, the fitted `R` and `θ_max` bits, and
    /// the Monte-Carlo escape count.
    pub fn digest(&self) -> u64 {
        let mut h = KeyHasher::new();
        for record in [&self.record_t, &self.record_theta] {
            h.write_usize(record.vector_count());
            h.write_usize(record.fault_count());
            for d in record.first_detect() {
                h.write_u64(d.map_or(u64::MAX, |k| k as u64));
            }
        }
        for &w in self.weights.weights() {
            h.write_f64(w);
        }
        h.write_f64(self.r);
        h.write_f64(self.theta_max);
        h.write_usize(self.escapes);
        h.finish()
    }
}

/// Runs one cold flow: layout, extraction, ATPG, gate-level and
/// switch-level fault simulation, Monte-Carlo and the eq. 11 fit.
/// Records one span per layer call under a `flow` span carrying `op`.
///
/// # Errors
///
/// The failing layer's error, rendered with the layer's name.
pub fn run_flow(
    spec: &FlowSpec,
    threads: ThreadCount,
    obs: &Recorder,
    spans: &Spans,
    op: u64,
) -> Result<FlowOutput, String> {
    let root = spans.open("flow", op, None);
    let parent = root.id();
    let netlist = &spec.netlist;
    let fail = |layer: &str, e: &dyn std::fmt::Display| format!("{layer}: {e}");

    let chip = {
        let _s = spans.open("layout", op, parent);
        ChipLayout::generate(netlist, &Default::default()).map_err(|e| fail("layout", &e))?
    };

    let faults = {
        let _s = spans.open("extract", op, parent);
        let mut faults = extractor::extract_obs(
            &chip,
            &DefectStatistics::maly_cmos(),
            &ExtractionConfig::default(),
            threads,
            obs,
        )
        .map_err(|e| fail("extract", &e))?;
        faults.prune_below(1e-5);
        faults
    };

    let sa = stuck_at::enumerate(netlist).collapse();
    let atpg = {
        let _s = spans.open("atpg", op, parent);
        generate_tests(
            netlist,
            sa.faults(),
            &AtpgConfig {
                random_budget: 1024,
                random_stall: 192,
                seed: spec.atpg_seed,
                ..Default::default()
            },
        )
        .map_err(|e| fail("atpg", &e))?
    };
    obs.add("atpg.vectors", atpg.vectors.len() as u64);
    let testable: Vec<_> = sa
        .faults()
        .iter()
        .copied()
        .filter(|f| {
            !atpg
                .undetected
                .iter()
                .any(|(u, v)| u == f && *v == PodemVerdict::Redundant)
        })
        .collect();

    let record_t = {
        let _s = spans.open("sim.gate", op, parent);
        ppsfp::simulate_resumable(
            netlist,
            &testable,
            &atpg.vectors,
            threads,
            obs,
            &RunBudget::unlimited(),
            None,
        )
        .map_err(|e| fail("sim.gate", &e))?
    };

    let (sim, lowered, weights) = {
        let _s = spans.open("sim.switch.prep", op, parent);
        let sw = switch::expand(netlist).map_err(|e| fail("sim.switch.prep", &e))?;
        let sim = SwitchSimulator::new(sw, SwitchConfig::default());
        let all = faults.weights();
        let lowered: Vec<_> = faults
            .to_switch_faults(netlist, sim.netlist(), &OpenLevelModel::default())
            .map_err(|e| fail("sim.switch.prep", &e))?
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| spec.sample.keeps(i))
            .map(|(_, f)| f)
            .collect();
        let weights: Vec<f64> = all
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| spec.sample.keeps(i))
            .map(|(_, w)| w)
            .collect();
        (sim, lowered, weights)
    };
    let record_theta = {
        let _s = spans.open("sim.switch", op, parent);
        sim.detect_obs(&lowered, &atpg.vectors, spec.mode, threads, obs)
            .map_err(|e| fail("sim.switch", &e))?
    };
    drop(sim);

    let scaled = FaultWeights::new(weights.clone())
        .and_then(|w| w.scaled_to_yield(PAPER_YIELD))
        .map_err(|e| fail("weights", &e))?;

    let detected: Vec<bool> = record_theta
        .first_detect()
        .iter()
        .map(Option::is_some)
        .collect();
    let mc = {
        let _s = spans.open("montecarlo", op, parent);
        simulate_fallout_resumable(
            &scaled,
            &detected,
            &MonteCarloConfig {
                dies: MC_DIES,
                seed: spec.mc_seed,
            },
            threads,
            obs,
            &RunBudget::unlimited(),
            None,
        )
        .map_err(|e| fail("montecarlo", &e))?
    };

    let fitted = {
        let _s = spans.open("fit", op, parent);
        let mut points = Vec::new();
        for k in fit_lengths(atpg.vectors.len()) {
            let theta = record_theta
                .weighted_coverage_after(k, &weights)
                .map_err(|e| fail("fit", &e))?;
            let dl = scaled.defect_level(theta).map_err(|e| fail("fit", &e))?;
            points.push((record_t.coverage_after(k), dl));
        }
        fit::fit_sousa(PAPER_YIELD, &points).map_err(|e| fail("fit", &e))?
    };

    let fault_vectors = record_theta
        .first_detect()
        .iter()
        .map(|d| d.map_or(record_theta.vector_count(), |k| k + 1))
        .sum();
    let work = Work {
        shapes: chip.shapes().len(),
        fault_vectors,
        dies: mc.fabricated,
    };
    Ok(FlowOutput {
        weights: scaled,
        record_t,
        record_theta,
        r: fitted.susceptibility_ratio(),
        theta_max: fitted.theta_max(),
        escapes: mc.escapes,
        work,
    })
}

/// Test lengths of the fit points: powers of two below the vector
/// count, then the full length.
fn fit_lengths(vectors: usize) -> Vec<usize> {
    let mut out: Vec<usize> = (0..)
        .map(|p| 1usize << p)
        .take_while(|&k| k < vectors)
        .collect();
    out.push(vectors);
    out
}

/// Starts the projection service on an ephemeral loopback port with a
/// fresh cache directory. `traced` keeps the flight recorder behind
/// `/v1/traces`; the access log stays off either way.
///
/// # Errors
///
/// The service's error when the port or the cache directory is
/// unavailable.
pub fn start_server(cache_dir: &str, traced: bool) -> Result<ServerHandle, String> {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        service: ServiceConfig {
            cache_dir: cache_dir.to_string(),
            threads: ThreadCount::fixed(SERVE_THREADS).expect("SERVE_THREADS is non-zero"),
            miss_budget_ms: None,
            flight_capacity: if traced {
                dlp_serve::service::DEFAULT_FLIGHT_CAPACITY
            } else {
                0
            },
            access_log: AccessLogConfig::Off,
        },
    })
    .map_err(|e| format!("serve: {e}"))
}
