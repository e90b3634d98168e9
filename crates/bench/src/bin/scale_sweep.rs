//! Scale sweep: layout → extraction → PPSFP → DL(T) across the
//! million-fault circuit family, recording faults/sec per member.
//!
//! Monolithic place-and-route stops being viable a few hundred gates in
//! (the negotiated-congestion router spends minutes on the 424-gate
//! c1355 class and still strands nets), so critical-area weights come
//! from the tiled template path of DESIGN.md §13: one small template is
//! laid out and extracted once, its per-node weight profile is
//! distributed onto stuck-at sites (each site takes its net's weight,
//! split evenly among the sites on that net), and
//! [`TiledWeights::expand`] replicates that profile onto
//! every family member. For tiled members the node map is exact — each
//! tile is emitted by the very routine that built the template, so tile
//! gate `j` *is* template gate `j`. For the ISCAS-85-class analogues
//! each gate maps to a template gate of the same
//! [`GateKind`](dlp_circuit::GateKind) ([`kind_map`], the kind proxy),
//! which preserves per-cell-kind critical-area ratios; unmapped sites
//! (primary inputs, kinds absent from the template) take the template's
//! average per-fault weight.
//!
//! The collapsed stuck-at universe of each member is then simulated
//! with the PPSFP engine (whose cone cache is bounded to one window of
//! faults) under the `DLP_BUDGET_*` knobs
//! (one untimed warm-up, then timed repeats until [`MIN_SAMPLES`]
//! samples and [`MIN_SAMPLE_SECONDS`] in total, at most [`MAX_SAMPLES`],
//! so the perf gate sees raw samples rather than a single-shot wall
//! time, even for millisecond members), and `faults/sec = collapsed
//! faults / best PPSFP wall-clock` is recorded per member in
//! `BENCH_scale_sweep.json` (BenchReport schema v1), together with
//! θ(T) and `DL(T) = 1 − Y^(1−θ)` at the paper's `Y = 0.75`.
//!
//! `--smoke` restricts the sweep to the smallest member over the
//! c432-class template (the scripts/check.sh wiring); the full sweep
//! lays out the 8×8 multiplier tile itself and ends on a
//! `tiled_multiplier` member whose collapsed universe exceeds 10^6
//! faults (enforced, not assumed).

use std::time::Instant;

use dlp_bench::pipeline::{self, PAPER_YIELD};
use dlp_circuit::generators::{self, TILE_INPUTS};
use dlp_circuit::{Netlist, NodeId};
use dlp_core::obs::BenchReport;
use dlp_core::par::ThreadCount;
use dlp_core::{PipelineError, Ppm, RunBudget, Stage};
use dlp_extract::defects::DefectStatistics;
use dlp_extract::sharded::{kind_map, TiledWeights};
use dlp_sim::detection::random_vectors;
use dlp_sim::{ppsfp, stuck_at};

/// Applied test length `T`: enough for the random-pattern-easy family
/// members to saturate while keeping the million-fault run bounded.
const VECTORS: usize = 256;

/// Seed for the applied random vectors (shared by every member so the
/// sweep is reproducible run to run).
const SEED: u64 = 0x5CA1_E5EE;

/// Tile count of the largest member: ~1.5k collapsed faults per tile
/// puts 672 tiles safely past 10^6.
const BIG_TILES: usize = 672;

/// Fewest timed repeats per member (smoke included): `regress::best_ns`
/// compares the minimum sample, so single-shot wall times would give
/// the perf gate no noise floor and let it flap on scheduler jitter.
const MIN_SAMPLES: usize = 3;

/// Members keep repeating until their samples add up to this many
/// seconds: three millisecond-scale samples are too few for a stable
/// minimum.
const MIN_SAMPLE_SECONDS: f64 = 0.2;

/// Most timed repeats per member.
const MAX_SAMPLES: usize = 30;

/// One family member: a netlist plus its site → template-node map.
struct Member {
    name: &'static str,
    netlist: Netlist,
    map: Box<dyn Fn(NodeId) -> Option<NodeId>>,
}

/// Exact structural map for `tiled_multiplier(tiles)`: pool inputs and
/// fold gates fall outside every tile (default weight); tile gate `j`
/// maps to template gate `j`.
fn tiled_map(template: &Netlist, tiles: usize) -> Box<dyn Fn(NodeId) -> Option<NodeId>> {
    let tpl_inputs = template.inputs().len();
    let tpl_gates = template.gate_count();
    Box::new(move |n: NodeId| {
        let i = n.index();
        if i < TILE_INPUTS || i >= TILE_INPUTS + tiles * tpl_gates {
            return None;
        }
        Some(NodeId::from_index(
            tpl_inputs + (i - TILE_INPUTS) % tpl_gates,
        ))
    })
}

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

fn run() -> Result<(), PipelineError> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let obs = pipeline::recorder_from_env();
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let budget = RunBudget::from_env()?;

    // One template layout + extraction feeds every member's weights.
    let (template_name, template_netlist) = if smoke {
        ("c432_class", generators::c432_class())
    } else {
        ("multiplier_tile", generators::multiplier_tile())
    };
    println!(
        "scale sweep ({}): template {template_name}, {} gates",
        if smoke { "smoke" } else { "full" },
        template_netlist.gate_count()
    );
    let extraction =
        pipeline::extract_netlist_obs(template_netlist, &DefectStatistics::maly_cmos(), &obs)?;
    dlp_bench::report_diagnostics(&extraction.diagnostics);
    let template = &extraction.netlist;
    let template_sites = stuck_at::enumerate(template).collapse();
    let tiled = TiledWeights::new(template, &extraction.faults, template_sites.faults())?;

    let members: Vec<Member> = if smoke {
        let nl = generators::c1355_class();
        let map = kind_map(template, &nl);
        vec![Member {
            name: "c1355_class",
            netlist: nl,
            map,
        }]
    } else {
        let mut out = Vec::new();
        for (name, nl) in [
            ("c1355_class", generators::c1355_class()),
            ("c2670_class", generators::c2670_class()),
            ("c5315_class", generators::c5315_class()),
            ("c6288_class", generators::c6288_class()),
            ("c7552_class", generators::c7552_class()),
        ] {
            let map = kind_map(template, &nl);
            out.push(Member {
                name,
                netlist: nl,
                map,
            });
        }
        for (name, tiles) in [("tiledmul16", 16usize), ("tiledmul672", BIG_TILES)] {
            let map = tiled_map(template, tiles);
            out.push(Member {
                name,
                netlist: generators::tiled_multiplier(tiles),
                map,
            });
        }
        out
    };

    let mut report = BenchReport::new("scale_sweep");
    report.record(
        "scale/template/gates",
        "gates",
        extraction.netlist.gate_count() as f64,
    );
    report.record(
        "scale/template/realistic_faults",
        "faults",
        extraction.faults.len() as f64,
    );
    report.record("scale/yield", "fraction", PAPER_YIELD);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut max_faults = 0usize;
    for m in &members {
        let sites = stuck_at::enumerate(&m.netlist).collapse();
        let w = tiled.expand(&m.netlist, sites.faults(), &m.map)?;
        let weights = dlp_core::weighted::FaultWeights::new(w.clone())
            .map_err(|e| PipelineError::from(e).context(format!("{} weights", m.name)))?
            .scaled_to_yield(PAPER_YIELD)
            .map_err(|e| PipelineError::from(e).context(format!("{} yield scaling", m.name)))?;
        let vectors = random_vectors(m.netlist.inputs().len(), VECTORS, SEED);

        // Every run produces the same record bit for bit (determinism
        // contract), so the untimed warm-up feeds θ/DL and the repeats
        // only time.
        let simulate = || {
            ppsfp::simulate_resumable(
                &m.netlist,
                sites.faults(),
                &vectors,
                threads,
                &obs,
                &budget,
                None,
            )
            .map_err(|e| PipelineError::from(e).context(format!("simulating {}", m.name)))
        };
        let record = simulate()?;
        let mut sim_samples: Vec<f64> = Vec::new();
        while sim_samples.len() < MAX_SAMPLES
            && (sim_samples.len() < MIN_SAMPLES
                || sim_samples.iter().sum::<f64>() < MIN_SAMPLE_SECONDS)
        {
            let t0 = Instant::now();
            simulate()?;
            sim_samples.push(t0.elapsed().as_secs_f64());
        }
        let sim_s = sim_samples.iter().copied().fold(f64::INFINITY, f64::min);
        let faults_per_sec = sites.len() as f64 / sim_s.max(1e-9);
        max_faults = max_faults.max(sites.len());

        let theta = record
            .weighted_coverage_after(VECTORS, &w)
            .map_err(|e| PipelineError::from(e).context(format!("θ of {}", m.name)))?;
        let dl = weights
            .defect_level(theta)
            .map_err(|e| PipelineError::from(e).context(format!("DL of {}", m.name)))?;

        rows.push(vec![
            m.name.to_string(),
            m.netlist.gate_count().to_string(),
            sites.len().to_string(),
            format!("{sim_s:.2}"),
            format!("{faults_per_sec:.0}"),
            format!("{theta:.4}"),
            format!("{:.1}", Ppm::from_fraction(dl).value()),
        ]);
        let base = format!("scale/{}", m.name);
        report.record(
            &format!("{base}/gates"),
            "gates",
            m.netlist.gate_count() as f64,
        );
        report.record(
            &format!("{base}/collapsed_faults"),
            "faults",
            sites.len() as f64,
        );
        report.record(&format!("{base}/vectors"), "vectors", VECTORS as f64);
        report.record_samples(&format!("{base}/sim_seconds"), "s", &sim_samples);
        let rate_samples: Vec<f64> = sim_samples
            .iter()
            .map(|s| sites.len() as f64 / s.max(1e-9))
            .collect();
        report.record_samples(&format!("{base}/faults_per_sec"), "faults/s", &rate_samples);
        report.record(&format!("{base}/theta"), "fraction", theta);
        report.record(
            &format!("{base}/defect_level_ppm"),
            "ppm",
            Ppm::from_fraction(dl).value(),
        );
        println!(
            "  {}: {} faults in {sim_s:.2}s ({faults_per_sec:.0} faults/s)",
            m.name,
            sites.len()
        );
    }

    // The whole point of the sweep: the family must actually reach
    // million-fault scale (smoke mode exempt by design).
    if !smoke && max_faults < 1_000_000 {
        return Err(PipelineError::with_source(
            Stage::Model,
            dlp_core::ModelError::BadFitData("scale sweep invariant failed"),
        )
        .context(format!(
            "largest member has {max_faults} collapsed faults, need >= 10^6"
        )));
    }

    dlp_bench::print_table(
        &[
            "member", "gates", "faults", "sim s", "faults/s", "theta", "DL ppm",
        ],
        &rows,
    );

    // Smoke runs (CI) write next to the full report, not over it: the
    // committed BENCH_scale_sweep.json always describes the full family.
    let file = if smoke {
        "BENCH_scale_sweep_smoke.json"
    } else {
        "BENCH_scale_sweep.json"
    };
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    pipeline::write_bench_report(&report, &path)?;
    println!("wrote {path}");
    if let Some(trace) = pipeline::write_run_report(&obs, "scale_sweep")? {
        println!("wrote {trace}");
    }
    Ok(())
}
