//! DL versus n-detection target: the defect-level payoff of requiring
//! every stuck-at fault to be detected `n` times instead of once.
//!
//! For the c432-class chip at the paper's `Y = 0.75` operating point, an
//! incremental n-detect schedule is built for targets `n = 1..=8`
//! (greedy pool selection + per-rank PODEM top-ups). Because the test
//! set for target `n` is a *prefix* of the set for `n + 1`, one
//! switch-level realistic-fault simulation over the full sequence yields
//! every θ(n) = weighted realistic coverage at prefix `len_at[n]`, and
//! `DL(n) = 1 − Y^(1−θ(n))` (eq. 3) is monotone non-increasing in `n` by
//! construction. The measured `(n, θ(n))` points are then fitted with the
//! saturating growth law `θ(n) = θ_max·(1 − ρ^n)` from
//! `dlp_core::ndetect`.
//!
//! Writes `BENCH_ndetect.json` at the workspace root in the versioned
//! [`BenchReport`] schema, one entry per measured quantity (see
//! EXPERIMENTS.md, "DL vs n").

use dlp_bench::pipeline::{self, PAPER_YIELD};
use dlp_circuit::generators;
use dlp_core::ndetect::fit_ndetect_growth;
use dlp_core::obs::BenchReport;
use dlp_core::par::ThreadCount;
use dlp_core::{PipelineError, Ppm, RunBudget, Stage};
use dlp_extract::defects::DefectStatistics;
use dlp_ndetect::{build_schedule_resumable, NDetectConfig};
use dlp_sim::stuck_at;
use dlp_sim::switchlevel::DetectionMode;

const MAX_N: usize = 8;

fn main() -> std::process::ExitCode {
    dlp_bench::run_main(run)
}

fn run() -> Result<(), PipelineError> {
    let obs = pipeline::recorder_from_env();
    let stats = DefectStatistics::maly_cmos();
    let extraction = pipeline::extract_netlist_obs(generators::c432_class(), &stats, &obs)?;
    dlp_bench::report_diagnostics(&extraction.diagnostics);
    let netlist = &extraction.netlist;
    let sa = stuck_at::enumerate(netlist).collapse();

    // Build the incremental n-detect schedule for the largest target;
    // every smaller target's test set is one of its prefixes. The build
    // honours the DLP_BUDGET_* knobs: a tripped budget is a stage-tagged
    // error carrying a resume checkpoint.
    let budget = RunBudget::from_env()?;
    let schedule = {
        let _span = obs.span("ndetect.build");
        build_schedule_resumable(
            netlist,
            sa.faults(),
            MAX_N,
            &NDetectConfig::default(),
            &budget,
            None,
        )?
    };
    obs.add("ndetect.vectors", schedule.vectors.len() as u64);
    obs.add("ndetect.pool_selected", schedule.pool_selected as u64);
    obs.add("ndetect.below_target", schedule.below_target.len() as u64);

    // One switch-level realistic-fault simulation over the full sequence
    // covers every prefix measurement.
    let threads = ThreadCount::from_env().map_err(dlp_core::ModelError::from)?;
    let (sim, lowered) = pipeline::switch_stage(&extraction)?;
    let record_theta = sim.detect_obs(
        &lowered,
        &schedule.vectors,
        DetectionMode::Voltage,
        threads,
        &obs,
    )?;
    let w = extraction.faults.weights();

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut samples: Vec<(usize, usize, f64, f64, f64)> = Vec::new(); // (n, k, θ, Γ, DL)
    let mut theta_points: Vec<(u32, f64)> = Vec::new();
    for n in 1..=MAX_N {
        let k = schedule.len_at[n - 1];
        let theta = record_theta.weighted_coverage_after(k, &w)?;
        let gamma = record_theta.coverage_after(k);
        let dl = extraction
            .weights
            .defect_level(theta)
            .map_err(|e| PipelineError::from(e).context(format!("DL at n = {n}")))?;
        theta_points.push((n as u32, theta));
        rows.push(vec![
            n.to_string(),
            k.to_string(),
            format!("{theta:.4}"),
            format!("{gamma:.4}"),
            format!("{:.1}", Ppm::from_fraction(dl).value()),
        ]);
        samples.push((n, k, theta, gamma, dl));
    }

    // The measured-DL monotonicity contract: prefixes only grow, so a
    // violation here is a schedule or record inconsistency, not noise.
    for pair in samples.windows(2) {
        let (n0, _, _, _, dl0) = pair[0];
        let (n1, _, _, _, dl1) = pair[1];
        if dl1 > dl0 {
            return Err(PipelineError::with_source(
                Stage::Model,
                dlp_core::ModelError::BadFitData(
                    "measured DL(n) increased with n on a prefix schedule",
                ),
            )
            .context(format!("DL({n0}) = {dl0:.6e} < DL({n1}) = {dl1:.6e}")));
        }
    }

    let growth = fit_ndetect_growth(&theta_points)
        .map_err(|e| PipelineError::from(e).context("fitting the θ(n) growth law"))?;

    println!(
        "DL vs n-detection target — c432-class, Y = {PAPER_YIELD}, \
         {} realistic faults, {} stuck-at faults",
        lowered.len(),
        sa.len()
    );
    println!(
        "schedule: {} vectors ({} from the pool), {} fault(s) below target {MAX_N}",
        schedule.vectors.len(),
        schedule.pool_selected,
        schedule.below_target.len()
    );
    dlp_bench::print_table(&["n", "|T(n)|", "theta(n)", "gamma(n)", "DL ppm"], &rows);
    println!(
        "fitted growth law: theta_max = {:.4}, theta_1 = {:.4}, miss ratio rho = {:.4}",
        growth.theta_max(),
        growth.theta1(),
        growth.miss_ratio()
    );

    let mut report = BenchReport::new("ndetect");
    let base = format!("ndetect/c432_class/max_n{MAX_N}");
    report.record(&format!("{base}/yield"), "fraction", PAPER_YIELD);
    report.record(
        &format!("{base}/total_vectors"),
        "vectors",
        schedule.vectors.len() as f64,
    );
    report.record(
        &format!("{base}/pool_selected"),
        "vectors",
        schedule.pool_selected as f64,
    );
    report.record(
        &format!("{base}/below_target"),
        "faults",
        schedule.below_target.len() as f64,
    );
    report.record(
        &format!("{base}/fit_theta_max"),
        "fraction",
        growth.theta_max(),
    );
    report.record(&format!("{base}/fit_theta_1"), "fraction", growth.theta1());
    report.record(
        &format!("{base}/fit_miss_ratio"),
        "fraction",
        growth.miss_ratio(),
    );
    for &(n, k, theta, gamma, dl) in &samples {
        report.record(&format!("{base}/n{n}/vectors"), "vectors", k as f64);
        report.record(&format!("{base}/n{n}/theta"), "fraction", theta);
        report.record(&format!("{base}/n{n}/gamma"), "fraction", gamma);
        report.record(&format!("{base}/n{n}/defect_level"), "fraction", dl);
    }
    let path = format!("{}/../../BENCH_ndetect.json", env!("CARGO_MANIFEST_DIR"));
    pipeline::write_bench_report(&report, &path)?;
    println!("wrote {path}");
    if let Some(trace) = pipeline::write_run_report(&obs, "ndetect")? {
        println!("wrote {trace}");
    }
    Ok(())
}
