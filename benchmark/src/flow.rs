//! The flow workloads: repeated passes of cold flows over a fixed set of
//! circuits, each flow from layout to the eq. 11 fit.

use std::time::{Duration, Instant};

use dlp_circuit::{generators, Netlist};
use dlp_core::ckpt::KeyHasher;
use dlp_core::obs::{Json, Recorder};
use dlp_sim::switchlevel::DetectionMode;

use crate::layers::{self, FlowSpec, Sample, Work};
use crate::spans::{layer_times, Spans};
use crate::stats::{median, peak_rss_mb};
use crate::{Metric, Outcome, SETUPS};

/// Passes measured even when they overrun `--seconds`.
const MIN_PASSES: usize = 2;

/// A flow workload: which circuits, how the switch-level stage observes
/// them, which share of the realistic faults it simulates, and how many
/// flows each circuit gets per pass.
#[derive(Debug, Clone, Copy)]
pub struct FlowWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The circuits, by name.
    pub circuits: &'static [Circuit],
    /// Switch-level observation.
    pub mode: DetectionMode,
    /// The switch-level stage simulates one realistic fault in this many.
    pub stride: usize,
    /// Flows per circuit and pass. Flow `k` runs ATPG seed `seed + k` and
    /// simulates the faults at offset `(seed + k) % stride`, so with
    /// `variants == stride` a pass simulates every fault once and the
    /// pass's work hardly depends on the seed.
    pub variants: u64,
}

/// A circuit's name and generator.
pub type Circuit = (&'static str, fn() -> Netlist);

/// Small circuits whose cold flow is mostly switch-level simulation.
const SWITCH_CIRCUITS: &[Circuit] = &[
    ("c17", generators::c17),
    ("alu_slice", generators::alu_slice),
    ("parity_tree(16)", || generators::parity_tree(16)),
    ("decoder(4)", || generators::decoder(4)),
    ("mux_tree(3)", || generators::mux_tree(3)),
];

/// The flow workloads.
pub const FLOWS: &[FlowWorkload] = &[
    // Circuits large enough for the router to dominate their flow; the
    // switch-level stage sees a thin sample so that it stays a minority.
    FlowWorkload {
        name: "flow-layout",
        circuits: &[
            ("parity_tree(48)", || generators::parity_tree(48)),
            ("ripple_adder(24)", || generators::ripple_adder(24)),
            ("mux_tree(5)", || generators::mux_tree(5)),
        ],
        mode: DetectionMode::Voltage,
        stride: 192,
        variants: 1,
    },
    FlowWorkload {
        name: "flow-switch",
        circuits: SWITCH_CIRCUITS,
        mode: DetectionMode::Voltage,
        stride: 4,
        variants: 4,
    },
    FlowWorkload {
        name: "flow-iddq",
        circuits: SWITCH_CIRCUITS,
        mode: DetectionMode::VoltageAndIddq,
        stride: 4,
        variants: 4,
    },
];

/// The `--smoke` flows: c17 and `ripple_adder(8)`, one fault in four.
pub const SMOKE: FlowWorkload = FlowWorkload {
    name: "flow-smoke",
    circuits: &[
        ("c17", generators::c17),
        ("ripple_adder(8)", || generators::ripple_adder(8)),
    ],
    mode: DetectionMode::Voltage,
    stride: 4,
    variants: 1,
};

/// The flows of one pass, derived from the seed alone.
pub fn specs(w: &FlowWorkload, seed: u64) -> Vec<(String, FlowSpec)> {
    let mut out = Vec::new();
    for &(name, generate) in w.circuits {
        let netlist = generate();
        for k in 0..w.variants {
            let atpg_seed = seed.wrapping_add(k);
            out.push((
                format!("{name}@{atpg_seed}"),
                FlowSpec {
                    netlist: netlist.clone(),
                    atpg_seed,
                    mc_seed: seed,
                    mode: w.mode,
                    sample: Sample {
                        stride: w.stride,
                        offset: (atpg_seed % w.stride as u64) as usize,
                    },
                },
            ));
        }
    }
    out
}

/// One pass's outcome: each flow's wall time, digest and work.
struct Pass {
    secs: Vec<f64>,
    digests: Vec<Option<u64>>,
    work: Vec<Work>,
}

fn pass(specs: &[(String, FlowSpec)], obs: &Recorder, spans: &Spans, first_op: u64) -> Pass {
    let mut p = Pass {
        secs: Vec::with_capacity(specs.len()),
        digests: Vec::with_capacity(specs.len()),
        work: Vec::with_capacity(specs.len()),
    };
    for (i, (label, spec)) in specs.iter().enumerate() {
        let started = Instant::now();
        let out = layers::run_flow(
            spec,
            layers::flow_threads(),
            obs,
            spans,
            first_op + i as u64,
        );
        p.secs.push(started.elapsed().as_secs_f64());
        match out {
            Ok(out) => {
                p.digests.push(Some(out.digest()));
                p.work.push(out.work);
            }
            Err(e) => {
                eprintln!("{label}: {e}");
                p.digests.push(None);
            }
        }
    }
    p
}

/// Set-up: resolve the netlists and derive the inputs, then one warm-up
/// c17 flow so lazy initialisation is paid before timing.
fn setup(w: &FlowWorkload, seed: u64) -> Result<(f64, Vec<(String, FlowSpec)>), String> {
    let started = Instant::now();
    let specs = specs(w, seed);
    let warm = FlowSpec {
        netlist: generators::c17(),
        atpg_seed: seed,
        mc_seed: seed,
        mode: w.mode,
        sample: Sample::ALL,
    };
    layers::run_flow(
        &warm,
        layers::flow_threads(),
        Recorder::noop(),
        &Spans::off(),
        0,
    )?;
    Ok((started.elapsed().as_secs_f64(), specs))
}

/// Runs a flow workload for about `seconds`: repeated passes over the
/// same inputs. Every pass must reproduce the first pass's digests.
/// Traced runs alternate traced and untraced passes, so the tracing
/// overhead is measured on the same inputs.
pub fn run(w: &FlowWorkload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut specs = Vec::new();
    for _ in 0..SETUPS {
        match setup(w, seed) {
            Ok((secs, s)) => {
                setups.push(secs);
                specs = s;
            }
            Err(e) => return Outcome::failed(&format!("{}: set-up: {e}", w.name)),
        }
    }

    let obs = if trace {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let spans = if trace { Spans::on() } else { Spans::off() };
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    loop {
        let n = plain.len() + traced.len();
        let traced_pass = trace && n % 2 == 1;
        let p = if traced_pass {
            pass(&specs, &obs, &spans, (n * specs.len()) as u64)
        } else {
            pass(&specs, Recorder::noop(), &Spans::off(), 0)
        };
        if traced_pass {
            traced.push(p);
        } else {
            plain.push(p);
        }
        let n = plain.len() + traced.len();
        let mean = started.elapsed().as_secs_f64() / n as f64;
        let enough = n >= MIN_PASSES && (!trace || !traced.is_empty());
        if enough && started.elapsed().as_secs_f64() + mean > budget.as_secs_f64() {
            break;
        }
    }

    let reference = plain[0].digests.clone();
    let all: Vec<&Pass> = plain.iter().chain(traced.iter()).collect();
    let attempted = all.iter().map(|p| p.digests.len() as u64).sum();
    let mut failed = 0u64;
    for p in &all {
        for (d, r) in p.digests.iter().zip(&reference) {
            if d.is_none() || d != r {
                failed += 1;
            }
        }
    }
    // The workload digest: FNV-1a over every flow's digest, in pass order.
    let digest = reference.iter().try_fold(KeyHasher::new(), |mut h, d| {
        h.write_u64((*d)?);
        Some(h)
    });
    let digest = digest.map(|h| h.finish());
    let pinned = crate::pinned(w.name, seed);
    if digest.is_none_or(|d| pinned.is_some_and(|p| p != d)) {
        eprintln!(
            "{}: digest {} does not match the pinned {:016x}",
            w.name,
            digest.map_or("missing".to_string(), |d| format!("{d:016x}")),
            pinned.unwrap_or(0)
        );
        failed += 1;
    }

    let pass_secs =
        |passes: &[Pass]| -> Vec<f64> { passes.iter().map(|p| p.secs.iter().sum()).collect() };
    let pass_s = median(&pass_secs(&plain));
    let mut out = Outcome {
        correct: failed == 0,
        attempted,
        failed,
        digest,
        metrics: vec![
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("latency_ms", 1e3 * pass_s, "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"),
        ],
        details: vec![
            Metric::new("passes", plain.len() as f64, "count"),
            Metric::new("flows_per_pass", specs.len() as f64, "count"),
        ],
        layers: Vec::new(),
        layer_details: Vec::new(),
        trace: None,
    };
    if trace {
        let overhead = median(&pass_secs(&traced)) / pass_s;
        let (layers, layer_details, json) = flow_layers(w, &spans, &obs, &traced, overhead);
        out.layers = layers;
        out.layer_details = layer_details;
        out.trace = Some(json);
    }
    out
}

/// The per-layer metrics of a traced run, per pass: the common ones,
/// the flow-specific ones, and the trace document.
fn flow_layers(
    w: &FlowWorkload,
    spans: &Spans,
    obs: &Recorder,
    traced: &[Pass],
    overhead: f64,
) -> (Vec<Metric>, Vec<Metric>, Json) {
    let recs = spans.snapshot();
    let times = layer_times(&recs);
    let passes = traced.len() as f64;
    let per_pass = |name: &str| times.get(name).map_or(0.0, |t| t.0 as f64 / 1e9 / passes);
    let self_s = |name: &str| times.get(name).map_or(0.0, |t| t.1 as f64 / 1e9 / passes);
    let counter = |name: &str| obs.counter_value(name).unwrap_or(0) as f64 / passes;
    let work_sum = |f: fn(&Work) -> usize| {
        traced
            .iter()
            .flat_map(|p| p.work.iter())
            .map(f)
            .sum::<usize>() as f64
            / passes
    };
    let fault_vectors = work_sum(|w| w.fault_vectors);
    let common = common_layers(&per_pass, &counter);
    let details = vec![
        Metric::new("layout.shapes", work_sum(|w| w.shapes), "count"),
        Metric::new("sim.switch.prep_s", per_pass("sim.switch.prep"), "s"),
        Metric::new("sim.switch.fault_vectors", fault_vectors, "count"),
        Metric::new(
            "sim.switch.ns_per_fault_vector",
            1e9 * per_pass("sim.switch") / fault_vectors,
            "ns",
        ),
        Metric::new("montecarlo.busy_s", per_pass("montecarlo"), "s"),
        Metric::new("montecarlo.dies", work_sum(|w| w.dies), "count"),
        Metric::new("fit.busy_s", per_pass("fit"), "s"),
        Metric::new("flow.busy_s", per_pass("flow"), "s"),
        Metric::new("obs.overhead_ratio", overhead, "ratio"),
    ];
    let self_times = [
        "flow",
        "layout",
        "extract",
        "atpg",
        "sim.gate",
        "sim.switch.prep",
        "sim.switch",
        "montecarlo",
        "fit",
    ]
    .iter()
    .map(|&n| Metric::new(&format!("{n}.self_s"), self_s(n), "s"))
    .collect::<Vec<_>>();
    let json = crate::trace_document(w.name, &common, &details, &self_times, &recs);
    (common, details, json)
}

/// The per-layer metrics every workload reports, per unit of cold work
/// (a flow pass, or a service miss): `span` gives a layer's busy seconds
/// per unit, `counter` a library counter per unit.
pub fn common_layers(span: &dyn Fn(&str) -> f64, counter: &dyn Fn(&str) -> f64) -> Vec<Metric> {
    vec![
        Metric::new("layout.busy_s", span("layout"), "s"),
        Metric::new("extract.busy_s", span("extract"), "s"),
        Metric::new(
            "extract.bridge_pairs",
            counter("extract.bridge_pairs"),
            "count",
        ),
        Metric::new("extract.faults", counter("extract.faults"), "count"),
        Metric::new("atpg.busy_s", span("atpg"), "s"),
        Metric::new("atpg.vectors", counter("atpg.vectors"), "count"),
        Metric::new("sim.gate.busy_s", span("sim.gate"), "s"),
        Metric::new("sim.gate.faults", counter("sim.gate.faults"), "count"),
        Metric::new("sim.switch.busy_s", span("sim.switch"), "s"),
        Metric::new("sim.switch.faults", counter("sim.switch.faults"), "count"),
        Metric::new(
            "sim.switch.detect_ratio",
            counter("sim.switch.detected") / counter("sim.switch.faults"),
            "ratio",
        ),
    ]
}
