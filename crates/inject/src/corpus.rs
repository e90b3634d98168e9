//! The adversarial input corpus: one [`Case`] per corruption mode.
//!
//! Every case is deterministic (fixed seeds, literal inputs) and drives a
//! *public entry point* of one pipeline stage with an input that violates
//! that stage's contract. The expected outcome is always the same: a typed
//! error tagged with the case's [`Stage`] — see [`crate::harness`].

use dlp_atpg::generate::{generate_tests, AtpgConfig};
use dlp_bench::pipeline;
use dlp_circuit::switch::SwitchNodeId;
use dlp_circuit::{bench, generators, switch, NetlistError, NodeId};
use dlp_core::ckpt::Checkpoint;
use dlp_core::montecarlo::{simulate_fallout_resumable, McCheckpoint, MonteCarloConfig};
use dlp_core::obs::{Json, Recorder};
use dlp_core::par::ThreadCount;
use dlp_core::weighted::FaultWeights;
use dlp_core::{ckpt, fit, PipelineError, RunBudget, Stage};
use dlp_extract::defects::{DefectClass, DefectStatistics, Mechanism};
use dlp_extract::extractor::{self, ExtractionConfig};
use dlp_extract::faults::{FaultKind, FaultSet, OpenLevelModel, RealisticFault};
use dlp_extract::ExtractError;
use dlp_geometry::Layer;
use dlp_layout::chip::{ChipLayout, ElecNet};
use dlp_layout::tech::Technology;
use dlp_ndetect::ckpt::NDetectCheckpoint;
use dlp_serve::accesslog::{AccessLog, AccessLogConfig};
use dlp_serve::cache::ArtifactCache;
use dlp_serve::http::parse_request;
use dlp_serve::service::{
    fallout_param, netlist_for, query_params, route, traces_limit_param, Service, ServiceConfig,
};
use dlp_serve::ServeError;
use dlp_sim::ckpt::SimCheckpoint;
use dlp_sim::detection::DetectionRecord;
use dlp_sim::switchlevel::{DetectionMode, SwitchConfig, SwitchFault, SwitchSimulator};
use dlp_sim::{ppsfp, stuck_at};
use dlp_yield::Fallout;

/// One adversarial input and the stage whose typed error it must produce.
pub struct Case {
    /// Unique, kebab-case identifier.
    pub name: &'static str,
    /// The pipeline stage whose contract the input violates.
    pub stage: Stage,
    /// What is wrong with the input.
    pub corruption: &'static str,
    /// Drives the stage; must return `Err` with a `stage()` matching
    /// [`Case::stage`], and must not panic.
    pub run: fn() -> Result<(), PipelineError>,
}

/// The full corpus, spanning every pipeline stage.
pub fn corpus() -> Vec<Case> {
    macro_rules! case {
        ($name:literal, $stage:ident, $corruption:literal, $f:ident) => {
            Case {
                name: $name,
                stage: Stage::$stage,
                corruption: $corruption,
                run: $f,
            }
        };
    }
    vec![
        // -- netlist ----------------------------------------------------
        case!(
            "netlist-dangling-net",
            Netlist,
            "gate fanin references a signal that is never declared",
            netlist_dangling_net
        ),
        case!(
            "netlist-combinational-loop",
            Netlist,
            "two gates feed each other, forming a combinational cycle",
            netlist_combinational_loop
        ),
        case!(
            "netlist-duplicate-gate-id",
            Netlist,
            "the same signal name is defined twice",
            netlist_duplicate_gate_id
        ),
        case!(
            "netlist-undriven-output",
            Netlist,
            "an OUTPUT declaration names a signal nothing drives",
            netlist_undriven_output
        ),
        case!(
            "netlist-bad-arity",
            Netlist,
            "an inverter is given two fanins",
            netlist_bad_arity
        ),
        case!(
            "netlist-garbage-line",
            Netlist,
            "a line that is not .bench syntax at all",
            netlist_garbage_line
        ),
        // -- layout -----------------------------------------------------
        case!(
            "layout-inconsistent-technology",
            Layout,
            "routing grid pitch smaller than wire width + spacing",
            layout_inconsistent_technology
        ),
        case!(
            "layout-zero-height-cells",
            Layout,
            "cell height too small to hold diffusions and rails",
            layout_zero_height_cells
        ),
        case!(
            "layout-over-arity-gate",
            Layout,
            "a .bench NAND with 9 inputs, beyond the 8-input cell library",
            layout_over_arity_gate
        ),
        // -- defect statistics / extraction ------------------------------
        case!(
            "defect-density-nan",
            Extraction,
            "a defect class with density = NaN",
            defect_density_nan
        ),
        case!(
            "defect-density-infinite",
            Extraction,
            "a defect class with density = +inf",
            defect_density_infinite
        ),
        case!(
            "defect-density-nonpositive",
            Extraction,
            "a defect class with density = 0",
            defect_density_nonpositive
        ),
        case!(
            "defect-density-negative",
            Extraction,
            "a defect class with density < 0",
            defect_density_negative
        ),
        case!(
            "defect-size-range-inverted",
            Extraction,
            "a defect class with x_max < x_min",
            defect_size_range_inverted
        ),
        case!(
            "defect-size-zero-minimum",
            Extraction,
            "a defect class with x_min = 0",
            defect_size_zero_minimum
        ),
        case!(
            "extract-zero-size-samples",
            Extraction,
            "extraction config requesting zero defect-size samples",
            extract_zero_size_samples
        ),
        case!(
            "extract-threads-zero",
            Extraction,
            "a DLP_THREADS-style setting of 0 worker threads",
            extract_threads_zero
        ),
        case!(
            "extract-threads-garbage",
            Extraction,
            "a non-numeric DLP_THREADS-style setting",
            extract_threads_garbage
        ),
        case!(
            "faultset-mismatched-lowering",
            Extraction,
            "a fault naming a transistor ordinal its owner gate lacks",
            faultset_mismatched_lowering
        ),
        case!(
            "faultset-rail-bridge-without-level",
            Extraction,
            "a rail bridge with neither a partner net nor a rail level",
            faultset_rail_bridge_without_level
        ),
        // -- simulation ---------------------------------------------------
        case!(
            "sim-vector-width-mismatch",
            Simulation,
            "test vectors narrower than the circuit's input count",
            sim_vector_width_mismatch
        ),
        case!(
            "sim-transistor-out-of-range",
            Simulation,
            "a stuck-open fault naming a transistor the netlist lacks",
            sim_transistor_out_of_range
        ),
        case!(
            "sim-bridge-node-out-of-range",
            Simulation,
            "a bridge fault naming switch nodes beyond the netlist",
            sim_bridge_node_out_of_range
        ),
        case!(
            "sim-weight-count-mismatch",
            Simulation,
            "a weight vector shorter than the tracked fault list",
            sim_weight_count_mismatch
        ),
        case!(
            "sim-stuckat-node-out-of-range",
            Simulation,
            "a stuck-at fault sited on a node the netlist lacks",
            sim_stuckat_node_out_of_range
        ),
        case!(
            "sim-stuckat-pin-out-of-range",
            Simulation,
            "a branch stuck-at fault naming a pin past its gate's fanin",
            sim_stuckat_pin_out_of_range
        ),
        case!(
            "sim-ndetect-cap-zero",
            Simulation,
            "a count-capped simulation with detection cap 0",
            sim_ndetect_cap_zero
        ),
        case!(
            "sim-ndetect-cap-absurd",
            Simulation,
            "a count-capped simulation with detection cap usize::MAX",
            sim_ndetect_cap_absurd
        ),
        case!(
            "sim-counted-fault-out-of-range",
            Simulation,
            "a count-capped simulation of a fault site the netlist lacks",
            sim_counted_fault_out_of_range
        ),
        case!(
            "sim-nonfinite-weight",
            Simulation,
            "a weighted coverage query with a NaN fault weight",
            sim_nonfinite_weight
        ),
        case!(
            "sim-resume-foreign-checkpoint",
            Simulation,
            "a resume checkpoint shaped for a different fault list",
            sim_resume_foreign_checkpoint
        ),
        // -- atpg ---------------------------------------------------------
        case!(
            "atpg-foreign-fault",
            Atpg,
            "a target fault sited on a node outside the netlist",
            atpg_foreign_fault
        ),
        case!(
            "atpg-ndetect-zero-target",
            Atpg,
            "an n-detect schedule requested for target n = 0",
            atpg_ndetect_zero_target
        ),
        case!(
            "ndetect-resume-impossible-progress",
            Atpg,
            "a resume checkpoint claiming progress past the final target",
            ndetect_resume_impossible_progress
        ),
        // -- model --------------------------------------------------------
        case!(
            "model-empty-fault-set",
            Model,
            "fault weights built from an empty fault list",
            model_empty_fault_set
        ),
        case!(
            "model-negative-weight",
            Model,
            "a fault list containing a negative weight",
            model_negative_weight
        ),
        case!(
            "model-yield-nan",
            Model,
            "weights rescaled to a NaN target yield",
            model_yield_nan
        ),
        case!(
            "model-yield-zero",
            Model,
            "weights rescaled to target yield 0 (log-divergent)",
            model_yield_zero
        ),
        case!(
            "model-yield-one",
            Model,
            "weights rescaled to target yield 1 (no defects to weight)",
            model_yield_one
        ),
        case!(
            "model-montecarlo-zero-dies",
            Model,
            "a Monte Carlo run over zero fabricated dies",
            model_montecarlo_zero_dies
        ),
        case!(
            "model-montecarlo-mask-mismatch",
            Model,
            "a detection mask shorter than the fault list",
            model_montecarlo_mask_mismatch
        ),
        case!(
            "model-fit-insufficient-points",
            Model,
            "a Sousa-model fit on fewer than three (T, DL) points",
            model_fit_insufficient_points
        ),
        case!(
            "model-fit-nan-point",
            Model,
            "a Sousa-model fit on a (NaN, NaN) data point",
            model_fit_nan_point
        ),
        case!(
            "model-resume-excess-shards",
            Model,
            "a resume checkpoint recording more shards than the run has",
            model_resume_excess_shards
        ),
        case!(
            "model-distribution-alpha-zero",
            Model,
            "a negative-binomial fallout model with cluster parameter 0",
            model_distribution_alpha_zero
        ),
        case!(
            "model-distribution-alpha-nan",
            Model,
            "a negative-binomial fallout model with cluster parameter NaN",
            model_distribution_alpha_nan
        ),
        case!(
            "model-distribution-empty-wafer",
            Model,
            "a hierarchical fallout model with zero dies per wafer",
            model_distribution_empty_wafer
        ),
        case!(
            "model-distribution-lot-alpha-infinite",
            Model,
            "a hierarchical fallout model with an infinite lot alpha",
            model_distribution_lot_alpha_infinite
        ),
        // -- artifacts ----------------------------------------------------
        case!(
            "artifact-ckpt-truncated",
            Artifact,
            "a checkpoint file cut off mid-envelope",
            artifact_ckpt_truncated
        ),
        case!(
            "artifact-ckpt-bit-flipped",
            Artifact,
            "a payload byte flipped after sealing",
            artifact_ckpt_bit_flipped
        ),
        case!(
            "artifact-ckpt-checksum-garbage",
            Artifact,
            "a recorded checksum that matches no payload",
            artifact_ckpt_checksum_garbage
        ),
        case!(
            "artifact-ckpt-version-from-the-future",
            Artifact,
            "an envelope stamped with a newer format version",
            artifact_ckpt_version_from_the_future
        ),
        case!(
            "artifact-ckpt-wrong-stage",
            Artifact,
            "a checkpoint resumed into a stage that did not write it",
            artifact_ckpt_wrong_stage
        ),
        case!(
            "artifact-ckpt-foreign-inputs",
            Artifact,
            "a checkpoint keyed to different run inputs",
            artifact_ckpt_foreign_inputs
        ),
        case!(
            "artifact-ckpt-payload-malformed",
            Artifact,
            "an intact envelope whose payload has another shape",
            artifact_ckpt_payload_malformed
        ),
        case!(
            "artifact-ckpt-missing-file",
            Artifact,
            "a resume path that does not exist",
            artifact_ckpt_missing_file
        ),
        // -- budgets ------------------------------------------------------
        case!(
            "budget-ms-garbage",
            Bench,
            "a non-numeric DLP_BUDGET_MS-style setting",
            budget_ms_garbage
        ),
        case!(
            "budget-cancel-after-zero",
            Bench,
            "a DLP_CANCEL_AFTER-style setting of 0 checks",
            budget_cancel_after_zero
        ),
        // -- serving ------------------------------------------------------
        case!(
            "serve-malformed-request-line",
            Serve,
            "a request line with no target or version",
            serve_malformed_request_line
        ),
        case!(
            "serve-unsupported-method",
            Serve,
            "a POST against the read-only API",
            serve_unsupported_method
        ),
        case!(
            "serve-request-line-too-long",
            Serve,
            "a request line past the 8 KiB limit",
            serve_request_line_too_long
        ),
        case!(
            "serve-oversized-header-block",
            Serve,
            "a header block past the 16 KiB limit",
            serve_oversized_header_block
        ),
        case!(
            "serve-truncated-body",
            Serve,
            "a Content-Length promising more bytes than arrive",
            serve_truncated_body
        ),
        case!(
            "serve-bad-content-length",
            Serve,
            "a Content-Length that is not a base-10 integer",
            serve_bad_content_length
        ),
        case!(
            "serve-unknown-endpoint",
            Serve,
            "a path outside the service's routing table",
            serve_unknown_endpoint
        ),
        case!(
            "serve-unknown-circuit",
            Serve,
            "a circuit name outside the served catalogue",
            serve_unknown_circuit
        ),
        case!(
            "serve-unknown-distribution",
            Serve,
            "a dist= query value naming no fallout family",
            serve_unknown_distribution
        ),
        case!(
            "serve-negative-cluster-parameter",
            Serve,
            "a dist=nb request with a negative alpha",
            serve_negative_cluster_parameter
        ),
        case!(
            "serve-corrupted-cache-envelope",
            Serve,
            "a sealed response artifact defaced on disk",
            serve_corrupted_cache_envelope
        ),
        case!(
            "serve-traces-limit-garbage",
            Serve,
            "a /v1/traces limit that is not an integer",
            serve_traces_limit_garbage
        ),
        case!(
            "serve-traces-limit-oversized",
            Serve,
            "a /v1/traces limit far past the supported range",
            serve_traces_limit_oversized
        ),
        case!(
            "serve-traces-recorder-disabled",
            Serve,
            "a trace dump against a zero-capacity flight recorder",
            serve_traces_recorder_disabled
        ),
        case!(
            "serve-access-log-unwritable",
            Serve,
            "an access-log path in a directory that does not exist",
            serve_access_log_unwritable
        ),
    ]
}

// -- netlist --------------------------------------------------------------

fn netlist_dangling_net() -> Result<(), PipelineError> {
    bench::parse("dangling", "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n")?;
    Ok(())
}

fn netlist_combinational_loop() -> Result<(), PipelineError> {
    bench::parse("loop", "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n")?;
    Ok(())
}

fn netlist_duplicate_gate_id() -> Result<(), PipelineError> {
    bench::parse(
        "duplicate",
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\ny = OR(a, b)\n",
    )?;
    Ok(())
}

fn netlist_undriven_output() -> Result<(), PipelineError> {
    bench::parse("undriven", "INPUT(a)\nOUTPUT(y)\n")?;
    Ok(())
}

fn netlist_bad_arity() -> Result<(), PipelineError> {
    bench::parse("arity", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n")?;
    Ok(())
}

fn netlist_garbage_line() -> Result<(), PipelineError> {
    bench::parse("garbage", "INPUT(a)\nOUTPUT(y)\ny == AND(\n")?;
    Ok(())
}

// -- layout ---------------------------------------------------------------

fn layout_inconsistent_technology() -> Result<(), PipelineError> {
    let tech = Technology {
        grid_pitch: 1,
        ..Technology::default()
    };
    ChipLayout::generate(&generators::c17(), &tech)?;
    Ok(())
}

fn layout_zero_height_cells() -> Result<(), PipelineError> {
    let tech = Technology {
        cell_height: 8,
        ..Technology::default()
    };
    ChipLayout::generate(&generators::c17(), &tech)?;
    Ok(())
}

/// A 9-input NAND parses, since `.bench` puts no bound on fanin, but no
/// library cell realises it. The switch expander must reject it with
/// [`NetlistError::BadArity`], and the flow must stop at layout with a
/// typed error.
fn layout_over_arity_gate() -> Result<(), PipelineError> {
    let pins: Vec<String> = (1..=9).map(|i| format!("a{i}")).collect();
    let text = format!(
        "{}OUTPUT(y)\ny = NAND({})\n",
        pins.iter()
            .map(|p| format!("INPUT({p})\n"))
            .collect::<String>(),
        pins.join(", ")
    );
    let netlist = bench::parse("nand9", &text)?;
    match switch::expand(&netlist) {
        Err(NetlistError::BadArity { .. }) => {}
        other => {
            // Any other outcome breaks the contract: surface it under a
            // stage the case does not expect, so the harness fails it.
            let got = other.map(|_| "a switch netlist".to_string());
            return Err(PipelineError::new(
                Stage::Netlist,
                format!("switch::expand gave {got:?}, not BadArity"),
            ));
        }
    }
    pipeline::extract_netlist_obs(netlist, &DefectStatistics::maly_cmos(), Recorder::noop())?;
    Ok(())
}

// -- defect statistics / extraction ---------------------------------------

fn c17_chip() -> Result<ChipLayout, PipelineError> {
    Ok(ChipLayout::generate(
        &generators::c17(),
        &Technology::default(),
    )?)
}

fn bad_density_class(density: f64) -> DefectStatistics {
    DefectStatistics::new(vec![DefectClass {
        layer: Layer::Metal1,
        mechanism: Mechanism::ExtraMaterial,
        density,
        x_min: 2,
        x_max: 20,
    }])
}

fn extract_with_stats(stats: &DefectStatistics) -> Result<(), PipelineError> {
    let (config, threads) = (ExtractionConfig::default(), ThreadCount::Auto);
    extractor::extract_obs(&c17_chip()?, stats, &config, threads, Recorder::noop())?;
    Ok(())
}

fn defect_density_nan() -> Result<(), PipelineError> {
    extract_with_stats(&bad_density_class(f64::NAN))
}

fn defect_density_infinite() -> Result<(), PipelineError> {
    extract_with_stats(&bad_density_class(f64::INFINITY))
}

fn defect_density_nonpositive() -> Result<(), PipelineError> {
    extract_with_stats(&bad_density_class(0.0))
}

fn defect_density_negative() -> Result<(), PipelineError> {
    extract_with_stats(&bad_density_class(-2.5))
}

fn defect_size_range_inverted() -> Result<(), PipelineError> {
    extract_with_stats(&DefectStatistics::new(vec![DefectClass {
        layer: Layer::Metal1,
        mechanism: Mechanism::ExtraMaterial,
        density: 1.0,
        x_min: 20,
        x_max: 2,
    }]))
}

fn defect_size_zero_minimum() -> Result<(), PipelineError> {
    extract_with_stats(&DefectStatistics::new(vec![DefectClass {
        layer: Layer::Metal1,
        mechanism: Mechanism::ExtraMaterial,
        density: 1.0,
        x_min: 0,
        x_max: 20,
    }]))
}

fn extract_zero_size_samples() -> Result<(), PipelineError> {
    extractor::extract_obs(
        &c17_chip()?,
        &DefectStatistics::maly_cmos(),
        &ExtractionConfig { size_samples: 0 },
        ThreadCount::Auto,
        Recorder::noop(),
    )?;
    Ok(())
}

/// Stages a `DLP_THREADS`-style setting exactly as
/// `dlp_bench::pipeline::extract_netlist_obs` does — without mutating the
/// process environment, because the adversarial tests run concurrently in
/// one process.
fn extract_with_thread_setting(setting: &'static str) -> Result<(), PipelineError> {
    let threads = ThreadCount::from_setting(Some(setting)).map_err(ExtractError::from)?;
    let (stats, config) = (DefectStatistics::maly_cmos(), ExtractionConfig::default());
    extractor::extract_obs(&c17_chip()?, &stats, &config, threads, Recorder::noop())?;
    Ok(())
}

fn extract_threads_zero() -> Result<(), PipelineError> {
    extract_with_thread_setting("0")
}

fn extract_threads_garbage() -> Result<(), PipelineError> {
    extract_with_thread_setting("lots")
}

fn first_gate(netlist: &dlp_circuit::Netlist) -> NodeId {
    netlist
        .node_ids()
        .find(|&id| !netlist.inputs().contains(&id))
        .unwrap_or_else(|| NodeId::from_index(0))
}

fn lower_single(kind: FaultKind) -> Result<(), PipelineError> {
    let nl = generators::c17();
    let sw = switch::expand(&nl)?;
    let set = FaultSet::new(vec![RealisticFault {
        kind,
        weight: 1e-6,
        label: "injected".into(),
    }]);
    set.to_switch_faults(&nl, &sw, &OpenLevelModel::default())?;
    Ok(())
}

fn faultset_mismatched_lowering() -> Result<(), PipelineError> {
    let owner = first_gate(&generators::c17());
    lower_single(FaultKind::StuckOpen {
        owner,
        ordinal: 999,
    })
}

fn faultset_rail_bridge_without_level() -> Result<(), PipelineError> {
    let net = first_gate(&generators::c17());
    lower_single(FaultKind::Bridge {
        a: ElecNet::Signal(net),
        b: None,
        rail: None,
    })
}

// -- simulation -----------------------------------------------------------

fn sim_vector_width_mismatch() -> Result<(), PipelineError> {
    let c17 = generators::c17();
    let faults = stuck_at::enumerate(&c17).collapse();
    // c17 has 5 inputs; these vectors have 3 bits.
    c17_first_detect(faults.faults(), &[vec![true; 3]])?;
    Ok(())
}

/// Untraced, unbudgeted first-detect PPSFP on c17.
fn c17_first_detect(
    faults: &[stuck_at::StuckAtFault],
    vectors: &[Vec<bool>],
) -> Result<DetectionRecord, PipelineError> {
    let (c17, threads, budget) = (generators::c17(), ThreadCount::Auto, RunBudget::unlimited());
    let obs = Recorder::noop();
    Ok(ppsfp::simulate_resumable(
        &c17, faults, vectors, threads, obs, &budget, None,
    )?)
}

/// Untraced, unbudgeted count-capped PPSFP on c17.
fn c17_counted(faults: &[stuck_at::StuckAtFault], n_cap: usize) -> Result<(), PipelineError> {
    let (c17, obs, budget) = (generators::c17(), Recorder::noop(), RunBudget::unlimited());
    let (vectors, threads) = ([vec![false; 5]], ThreadCount::Auto);
    ppsfp::simulate_counted_resumable(&c17, faults, &vectors, n_cap, threads, obs, &budget, None)?;
    Ok(())
}

fn c17_switch_sim() -> Result<SwitchSimulator, PipelineError> {
    let sw = switch::expand(&generators::c17())?;
    Ok(SwitchSimulator::new(sw, SwitchConfig::default()))
}

fn sim_transistor_out_of_range() -> Result<(), PipelineError> {
    let sim = c17_switch_sim()?;
    let width = sim.netlist().input_nodes().len();
    sim.detect_obs(
        &[SwitchFault::StuckOpen { transistor: 10_000 }],
        &[vec![false; width]],
        DetectionMode::Voltage,
        ThreadCount::Auto,
        Recorder::noop(),
    )?;
    Ok(())
}

fn sim_bridge_node_out_of_range() -> Result<(), PipelineError> {
    let sim = c17_switch_sim()?;
    let width = sim.netlist().input_nodes().len();
    sim.detect_obs(
        &[SwitchFault::Bridge {
            a: SwitchNodeId::from_index(40_000),
            b: SwitchNodeId::from_index(40_001),
        }],
        &[vec![true; width]],
        DetectionMode::Voltage,
        ThreadCount::Auto,
        Recorder::noop(),
    )?;
    Ok(())
}

fn sim_weight_count_mismatch() -> Result<(), PipelineError> {
    let c17 = generators::c17();
    let faults = stuck_at::enumerate(&c17).collapse();
    let vectors = vec![vec![false; 5], vec![true; 5]];
    let record = c17_first_detect(faults.faults(), &vectors)?;
    // One weight for a multi-fault record.
    record.weighted_coverage_after(2, &[1.0])?;
    Ok(())
}

fn sim_stuckat_node_out_of_range() -> Result<(), PipelineError> {
    let fault = stuck_at::StuckAtFault {
        site: stuck_at::FaultSite::Stem(NodeId::from_index(9_999)),
        stuck_at_one: false,
    };
    c17_first_detect(&[fault], &[vec![false; 5]])?;
    Ok(())
}

fn sim_stuckat_pin_out_of_range() -> Result<(), PipelineError> {
    let c17 = generators::c17();
    let fault = stuck_at::StuckAtFault {
        site: stuck_at::FaultSite::Branch {
            gate: first_gate(&c17),
            pin: 99,
        },
        stuck_at_one: true,
    };
    c17_first_detect(&[fault], &[vec![true; 5]])?;
    Ok(())
}

fn counted_with_cap(n_cap: usize) -> Result<(), PipelineError> {
    let faults = stuck_at::enumerate(&generators::c17()).collapse();
    c17_counted(faults.faults(), n_cap)
}

fn sim_ndetect_cap_zero() -> Result<(), PipelineError> {
    counted_with_cap(0)
}

fn sim_ndetect_cap_absurd() -> Result<(), PipelineError> {
    counted_with_cap(usize::MAX)
}

fn sim_counted_fault_out_of_range() -> Result<(), PipelineError> {
    let fault = stuck_at::StuckAtFault {
        site: stuck_at::FaultSite::Stem(NodeId::from_index(9_999)),
        stuck_at_one: false,
    };
    c17_counted(&[fault], 2)
}

fn sim_nonfinite_weight() -> Result<(), PipelineError> {
    let c17 = generators::c17();
    let faults = stuck_at::enumerate(&c17).collapse();
    let record = c17_first_detect(faults.faults(), &[vec![true; 5]])?;
    let mut weights = vec![1.0; faults.len()];
    weights[0] = f64::NAN;
    record.weighted_coverage_after(1, &weights)?;
    Ok(())
}

fn sim_resume_foreign_checkpoint() -> Result<(), PipelineError> {
    let c17 = generators::c17();
    let faults = stuck_at::enumerate(&c17).collapse();
    // Shaped for a single tracked fault; this run tracks the full
    // collapsed list.
    let foreign = SimCheckpoint {
        n_cap: 1,
        next_block: 0,
        vectors_len: 1,
        detections: vec![Vec::new()],
    };
    ppsfp::simulate_resumable(
        &c17,
        faults.faults(),
        &[vec![false; 5]],
        ThreadCount::Auto,
        Recorder::noop(),
        &RunBudget::unlimited(),
        Some(&foreign),
    )?;
    Ok(())
}

// -- atpg -----------------------------------------------------------------

fn atpg_foreign_fault() -> Result<(), PipelineError> {
    let c17 = generators::c17();
    let foreign = stuck_at::StuckAtFault {
        site: stuck_at::FaultSite::Stem(NodeId::from_index(9_999)),
        stuck_at_one: true,
    };
    generate_tests(&c17, &[foreign], &AtpgConfig::default())?;
    Ok(())
}

fn atpg_ndetect_zero_target() -> Result<(), PipelineError> {
    let c17 = generators::c17();
    let faults = stuck_at::enumerate(&c17).collapse();
    dlp_ndetect::build_schedule(
        &c17,
        faults.faults(),
        0,
        &dlp_ndetect::NDetectConfig::default(),
    )?;
    Ok(())
}

fn ndetect_resume_impossible_progress() -> Result<(), PipelineError> {
    let c17 = generators::c17();
    let faults = stuck_at::enumerate(&c17).collapse();
    let bogus = NDetectCheckpoint {
        next_target: 99,
        vectors: Vec::new(),
        len_at: Vec::new(),
        counts: vec![0; faults.len()],
        selected: Vec::new(),
        pool_selected: 0,
        hopeless: vec![false; faults.len()],
    };
    dlp_ndetect::build_schedule_resumable(
        &c17,
        faults.faults(),
        3,
        &dlp_ndetect::NDetectConfig::default(),
        &RunBudget::unlimited(),
        Some(&bogus),
    )?;
    Ok(())
}

// -- model ----------------------------------------------------------------

fn model_empty_fault_set() -> Result<(), PipelineError> {
    FaultWeights::new(Vec::new())?;
    Ok(())
}

fn model_negative_weight() -> Result<(), PipelineError> {
    FaultWeights::new(vec![0.2, -0.1, 0.3])?;
    Ok(())
}

fn scaled_to(target: f64) -> Result<(), PipelineError> {
    FaultWeights::new(vec![0.1, 0.4])?.scaled_to_yield(target)?;
    Ok(())
}

fn model_yield_nan() -> Result<(), PipelineError> {
    scaled_to(f64::NAN)
}

fn model_yield_zero() -> Result<(), PipelineError> {
    scaled_to(0.0)
}

fn model_yield_one() -> Result<(), PipelineError> {
    scaled_to(1.0)
}

fn model_montecarlo_zero_dies() -> Result<(), PipelineError> {
    let w = FaultWeights::new(vec![0.05; 4])?;
    simulate_fallout_resumable(
        &w,
        &[true; 4],
        &MonteCarloConfig {
            dies: 0,
            ..MonteCarloConfig::default()
        },
        ThreadCount::Auto,
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )?;
    Ok(())
}

fn model_montecarlo_mask_mismatch() -> Result<(), PipelineError> {
    let w = FaultWeights::new(vec![0.05; 4])?;
    simulate_fallout_resumable(
        &w,
        &[true; 3],
        &MonteCarloConfig::default(),
        ThreadCount::Auto,
        Recorder::noop(),
        &RunBudget::unlimited(),
        None,
    )?;
    Ok(())
}

fn model_fit_insufficient_points() -> Result<(), PipelineError> {
    fit::fit_sousa(0.75, &[(0.5, 0.1), (0.9, 0.02)])?;
    Ok(())
}

fn model_fit_nan_point() -> Result<(), PipelineError> {
    fit::fit_sousa(0.75, &[(0.1, 0.2), (f64::NAN, f64::NAN), (0.9, 0.02)])?;
    Ok(())
}

fn model_resume_excess_shards() -> Result<(), PipelineError> {
    let w = FaultWeights::new(vec![0.05; 4])?;
    // 100 dies fit in at most 100 shards; 101 completed shards is
    // impossible progress.
    let excess = McCheckpoint {
        tallies: vec![(0, 0, 0); 101],
    };
    simulate_fallout_resumable(
        &w,
        &[true; 4],
        &MonteCarloConfig {
            dies: 100,
            ..MonteCarloConfig::default()
        },
        ThreadCount::Auto,
        Recorder::noop(),
        &RunBudget::unlimited(),
        Some(&excess),
    )?;
    Ok(())
}

fn model_distribution_alpha_zero() -> Result<(), PipelineError> {
    Fallout::negative_binomial(0.0)?;
    Ok(())
}

fn model_distribution_alpha_nan() -> Result<(), PipelineError> {
    Fallout::negative_binomial(f64::NAN)?;
    Ok(())
}

fn model_distribution_empty_wafer() -> Result<(), PipelineError> {
    Fallout::hierarchical(2.0, 8.0, 20.0, 0, 25)?;
    Ok(())
}

fn model_distribution_lot_alpha_infinite() -> Result<(), PipelineError> {
    Fallout::hierarchical(2.0, 8.0, f64::INFINITY, 400, 25)?;
    Ok(())
}

// -- artifacts ------------------------------------------------------------

/// A well-formed sealed envelope for the corruption cases to deface.
fn sealed_sample() -> String {
    ckpt::seal(
        "inject.sample",
        0xD1CE,
        &Json::Object(vec![("progress".to_string(), Json::Number(7.0))]),
    )
}

fn artifact_ckpt_truncated() -> Result<(), PipelineError> {
    let sealed = sealed_sample();
    ckpt::open(&sealed[..sealed.len() / 2], "inject.sample", 0xD1CE)?;
    Ok(())
}

fn artifact_ckpt_bit_flipped() -> Result<(), PipelineError> {
    // 7 -> 6 is a single-bit flip in the payload's digit byte.
    let flipped = sealed_sample().replace("\"progress\":7.0", "\"progress\":6.0");
    ckpt::open(&flipped, "inject.sample", 0xD1CE)?;
    Ok(())
}

fn artifact_ckpt_checksum_garbage() -> Result<(), PipelineError> {
    let payload = Json::Object(vec![("progress".to_string(), Json::Number(7.0))]);
    let real = format!("{:016x}", ckpt::fnv64(ckpt::render(&payload).as_bytes()));
    let garbled = ckpt::seal("inject.sample", 0xD1CE, &payload).replace(&real, "deadbeefdeadbeef");
    ckpt::open(&garbled, "inject.sample", 0xD1CE)?;
    Ok(())
}

fn artifact_ckpt_version_from_the_future() -> Result<(), PipelineError> {
    let newer = sealed_sample().replace("\"ckpt_version\":1,", "\"ckpt_version\":999,");
    ckpt::open(&newer, "inject.sample", 0xD1CE)?;
    Ok(())
}

fn artifact_ckpt_wrong_stage() -> Result<(), PipelineError> {
    ckpt::open(&sealed_sample(), SimCheckpoint::KIND, 0xD1CE)?;
    Ok(())
}

fn artifact_ckpt_foreign_inputs() -> Result<(), PipelineError> {
    ckpt::open(&sealed_sample(), "inject.sample", 0xD1CE ^ 1)?;
    Ok(())
}

fn artifact_ckpt_payload_malformed() -> Result<(), PipelineError> {
    // The envelope itself is intact — version, kind, key, and checksum
    // all verify — but the payload belongs to no Monte-Carlo run.
    let payload = Json::Object(vec![(
        "tallies".to_string(),
        Json::String("nope".to_string()),
    )]);
    let sealed = ckpt::seal(McCheckpoint::KIND, 0xD1CE, &payload);
    McCheckpoint::from_payload(&ckpt::open(&sealed, McCheckpoint::KIND, 0xD1CE)?)?;
    Ok(())
}

fn artifact_ckpt_missing_file() -> Result<(), PipelineError> {
    // Inside the workspace target/ tree; nothing ever creates it.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/tmp/dlp-inject-no-such-checkpoint.json"
    );
    ckpt::load(path, "inject.sample", 0xD1CE)?;
    Ok(())
}

// -- budgets --------------------------------------------------------------

fn budget_ms_garbage() -> Result<(), PipelineError> {
    RunBudget::from_settings(Some("soon"), None, None)?;
    Ok(())
}

fn budget_cancel_after_zero() -> Result<(), PipelineError> {
    RunBudget::from_settings(None, None, Some("0"))?;
    Ok(())
}

// -- serving --------------------------------------------------------------

/// Drives the service's HTTP parser with raw wire bytes; any rejection
/// must surface as a [`Stage::Serve`]-tagged error.
fn serve_parse(raw: &[u8]) -> Result<(), PipelineError> {
    parse_request(raw).map_err(ServeError::from)?;
    Ok(())
}

fn serve_malformed_request_line() -> Result<(), PipelineError> {
    serve_parse(b"GET\r\n\r\n")
}

fn serve_unsupported_method() -> Result<(), PipelineError> {
    serve_parse(b"POST /v1/dl HTTP/1.1\r\n\r\n")
}

fn serve_request_line_too_long() -> Result<(), PipelineError> {
    let raw = format!(
        "GET /{} HTTP/1.1\r\n\r\n",
        "a".repeat(dlp_serve::http::MAX_REQUEST_LINE)
    );
    serve_parse(raw.as_bytes())
}

fn serve_oversized_header_block() -> Result<(), PipelineError> {
    let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..64 {
        raw.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "v".repeat(512)).as_bytes());
    }
    raw.extend_from_slice(b"\r\n");
    serve_parse(&raw)
}

fn serve_truncated_body() -> Result<(), PipelineError> {
    serve_parse(b"GET /healthz HTTP/1.1\r\nContent-Length: 64\r\n\r\nshort")
}

fn serve_bad_content_length() -> Result<(), PipelineError> {
    serve_parse(b"GET /healthz HTTP/1.1\r\nContent-Length: many\r\n\r\n")
}

fn serve_unknown_endpoint() -> Result<(), PipelineError> {
    route("/v1/defects")?;
    Ok(())
}

fn serve_unknown_circuit() -> Result<(), PipelineError> {
    // c9999 must stay out of the catalogue for good — c6288 was used
    // here until the scale class made it a served circuit.
    netlist_for("c9999")?;
    Ok(())
}

fn serve_unknown_distribution() -> Result<(), PipelineError> {
    fallout_param(&query_params(Some("circuit=c17&dist=weibull")))?;
    Ok(())
}

fn serve_negative_cluster_parameter() -> Result<(), PipelineError> {
    fallout_param(&query_params(Some("circuit=c17&dist=nb&alpha=-3")))?;
    Ok(())
}

fn serve_corrupted_cache_envelope() -> Result<(), PipelineError> {
    let dir = std::env::temp_dir().join(format!("dlp_inject_serve_cache_{}", std::process::id()));
    let result = (|| {
        let cache = ArtifactCache::new(&dir).map_err(ServeError::from)?;
        let key = 0xC0FFEE;
        let body = Json::Object(vec![("dl".to_string(), Json::Number(0.25))]);
        cache.store(key, &body)?;
        // Flip a payload byte after sealing: the checksum no longer
        // matches, so the strict probe must reject the artifact.
        let path = cache.path_for(key);
        let sealed = std::fs::read_to_string(&path).map_err(ServeError::from)?;
        std::fs::write(&path, sealed.replace("\"dl\"", "\"dL\"")).map_err(ServeError::from)?;
        cache.open_strict(key).map_err(ServeError::from)?;
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve_traces_limit_garbage() -> Result<(), PipelineError> {
    traces_limit_param(&query_params(Some("limit=banana")))?;
    Ok(())
}

fn serve_traces_limit_oversized() -> Result<(), PipelineError> {
    traces_limit_param(&query_params(Some("limit=999999999")))?;
    Ok(())
}

fn serve_traces_recorder_disabled() -> Result<(), PipelineError> {
    let dir = std::env::temp_dir().join(format!("dlp_inject_serve_traces_{}", std::process::id()));
    let result = (|| {
        let service = Service::new(&ServiceConfig {
            cache_dir: dir.to_string_lossy().into_owned(),
            threads: ThreadCount::fixed(1)
                .map_err(|e| PipelineError::new(Stage::Serve, format!("thread count: {e}")))?,
            miss_budget_ms: None,
            flight_capacity: 0,
            access_log: AccessLogConfig::Off,
        })
        .map_err(PipelineError::from)?;
        service.dump_traces(None).map_err(PipelineError::from)?;
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn serve_access_log_unwritable() -> Result<(), PipelineError> {
    let path = std::env::temp_dir()
        .join(format!("dlp_inject_no_such_dir_{}", std::process::id()))
        .join("sub")
        .join("access.log");
    AccessLog::open(&AccessLogConfig::Path(path.to_string_lossy().into_owned()))?;
    Ok(())
}
