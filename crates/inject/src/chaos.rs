//! The chaos sweep: randomized kills at chunk boundaries and randomized
//! artifact corruption, applied to real runs of the three checkpointed
//! long stages.
//!
//! Two families of checks, both driven by one seeded RNG so a red run is
//! reproducible from its seed:
//!
//! * **Kill/resume** — each long stage (count-capped PPSFP simulation,
//!   n-detect schedule construction, Monte-Carlo fallout) is run under a
//!   [`RunBudget`] fuse that cancels after a randomized number of chunk
//!   boundaries. The interruption must surface as the stage's typed
//!   `Interrupted` error carrying a checkpoint; the checkpoint must
//!   survive a save/load round trip through its sealed envelope; and
//!   resuming from it must reproduce the uninterrupted reference run
//!   bit-identically at worker counts 1, 2, and 4.
//! * **Corruption** — the checkpoint files written by the kill sweeps are
//!   truncated at randomized offsets and bit-flipped at randomized
//!   payload positions. Every corrupted load must return a typed
//!   [`CkptError`] under `catch_unwind` — never a panic, never an
//!   accepted artifact. (Flips are confined to the payload region
//!   because a flip of the envelope's version digit can legitimately
//!   produce an *older*, still-valid version; those header corruptions
//!   are covered deterministically by [`crate::corpus`].)
//!
//! The `chaos` binary drives [`run_chaos`] as a release gate; see
//! `scripts/check.sh`.

use std::panic::{self, AssertUnwindSafe};

use dlp_circuit::generators;
use dlp_core::ckpt::{Checkpoint, CkptError};
use dlp_core::montecarlo::{simulate_fallout_resumable, McCheckpoint, MonteCarloConfig, UnitMix};
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::rng::Xorshift64Star;
use dlp_core::weighted::FaultWeights;
use dlp_core::{ModelError, RunBudget};
use dlp_ndetect::ckpt::NDetectCheckpoint;
use dlp_ndetect::{build_schedule_resumable, NDetectConfig, NDetectError};
use dlp_sim::ckpt::SimCheckpoint;
use dlp_sim::detection::random_vectors;
use dlp_sim::{ppsfp, stuck_at, SimError};

/// Worker counts every resume must reproduce the reference under.
const CHAOS_THREADS: [&str; 3] = ["1", "2", "4"];

/// Randomized corruptions applied to each checkpoint artifact.
const CORRUPTIONS_PER_ARTIFACT: usize = 12;

fn threads(setting: &str) -> ThreadCount {
    ThreadCount::from_setting(Some(setting)).unwrap_or(ThreadCount::Auto)
}

/// One violated chaos check.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// Which sweep and randomized point failed (seed-reproducible).
    pub scenario: String,
    /// What went wrong.
    pub detail: String,
}

/// The outcome of a chaos sweep: how many checks ran and which failed.
#[derive(Debug, Default)]
pub struct ChaosReport {
    /// Total checks performed (passes and failures).
    pub checks: usize,
    /// The violations; empty on a green run.
    pub failures: Vec<ChaosFailure>,
}

impl ChaosReport {
    fn pass(&mut self) {
        self.checks += 1;
    }

    fn fail(&mut self, scenario: &str, detail: String) {
        self.checks += 1;
        self.failures.push(ChaosFailure {
            scenario: scenario.to_string(),
            detail,
        });
    }

    fn check(&mut self, scenario: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(scenario, detail());
        }
    }

    /// Whether every check held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} checks, {} violations",
            self.checks,
            self.failures.len()
        )?;
        for failure in &self.failures {
            writeln!(f, "  FAIL {}: {}", failure.scenario, failure.detail)?;
        }
        Ok(())
    }
}

/// Loads and decodes one stage's checkpoint file against its inputs.
type Loader = Box<dyn Fn(&str) -> Result<(), CkptError>>;

/// A checkpoint artifact for the corruption sweep: its label (the
/// envelope kind), its path, and the loader that must reject corruption.
type Target = (&'static str, String, Loader);

/// Runs the full chaos sweep: kill/resume for each long stage, then
/// corruption of the checkpoint artifacts those kills produced.
/// Deterministic in `seed`; scratch files go under `dir` (the caller
/// picks a path inside the workspace `target/` tree).
pub fn run_chaos(seed: u64, dir: &str) -> ChaosReport {
    let mut report = ChaosReport::default();
    if let Err(e) = std::fs::create_dir_all(dir) {
        report.fail("chaos/setup", format!("cannot create {dir}: {e}"));
        return report;
    }
    let mut rng = Xorshift64Star::new(seed);
    let mut targets: Vec<Target> = Vec::new();
    targets.extend(sim_sweep(&mut rng, dir, &mut report));
    targets.extend(ndetect_sweep(&mut rng, dir, &mut report));
    targets.extend(mc_sweep(&mut rng, dir, &mut report));
    report.check("chaos/targets", targets.len() == 3, || {
        format!(
            "only {} of 3 stages produced a checkpoint artifact",
            targets.len()
        )
    });
    for (label, path, loader) in &targets {
        corruption_sweep(&mut rng, &mut report, label, path, loader);
    }
    report
}

/// How a stage run under a fuse stopped short of a result.
enum Stop<C> {
    /// The stage's typed interruption, carrying its resume checkpoint.
    Interrupted(Box<C>),
    /// Any other error, rendered.
    Failed(String),
}

impl<C> std::fmt::Display for Stop<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stop::Interrupted(_) => f.write_str("interrupted"),
            Stop::Failed(e) => f.write_str(e),
        }
    }
}

/// One long stage as the kill/resume sweep drives it.
struct Stage {
    /// The scenario prefix.
    name: &'static str,
    /// The pinned first kill point, so at least one checkpoint lands on
    /// disk for the corruption sweep.
    first_kill: u64,
    /// How many further kill points are drawn, each in `0..=kill_bound`.
    random_kills: usize,
    /// The stage's chunk count: a fuse at it outlives the work.
    kill_bound: u64,
    /// Whether the stage spreads over workers: it then runs each kill at
    /// a drawn worker leg and resumes at every count in
    /// [`CHAOS_THREADS`]; a serial stage resumes once.
    parallel: bool,
}

/// The generic kill/resume sweep. `run` executes the stage at a worker
/// count under a budget, optionally resuming; `key` binds its checkpoint
/// to the stage's inputs. Each kill interrupts a fresh run; its
/// checkpoint is saved to and loaded back from `dir`, and every resume
/// must reproduce the uninterrupted reference bit-identically. Returns
/// the artifact for the corruption sweep if any kill wrote one.
fn kill_resume_sweep<C, R>(
    rng: &mut Xorshift64Star,
    dir: &str,
    report: &mut ChaosReport,
    stage: &Stage,
    key: u64,
    run: impl Fn(ThreadCount, &RunBudget, Option<&C>) -> Result<R, Stop<C>>,
) -> Option<Target>
where
    C: Checkpoint + 'static,
    R: PartialEq,
{
    let name = stage.name;
    let reference = match run(ThreadCount::Auto, &RunBudget::unlimited(), None) {
        Ok(r) => r,
        Err(e) => {
            report.fail(
                &format!("{name}/reference"),
                format!("uninterrupted run failed: {e}"),
            );
            return None;
        }
    };
    let path = format!("{dir}/{}.ckpt.json", C::KIND);
    let mut wrote = false;
    let kills: Vec<u64> = std::iter::once(stage.first_kill)
        .chain((0..stage.random_kills).map(|_| rng.next_u64() % (stage.kill_bound + 1)))
        .collect();
    for kill in kills {
        let (scenario, leg) = if stage.parallel {
            let leg = CHAOS_THREADS[(rng.next_u64() % 3) as usize];
            (format!("{name}/kill@{kill}/threads={leg}"), threads(leg))
        } else {
            (format!("{name}/kill@{kill}"), ThreadCount::Auto)
        };
        let budget = RunBudget::unlimited().cancel_after_checks(kill);
        let checkpoint = match run(leg, &budget, None) {
            Ok(r) => {
                // The fuse outlived the work: a completed run must still
                // match the reference exactly.
                report.check(&scenario, r == reference, || {
                    "run completed under the fuse but diverged from the reference".to_string()
                });
                continue;
            }
            Err(Stop::Interrupted(checkpoint)) => checkpoint,
            Err(Stop::Failed(e)) => {
                report.fail(&scenario, format!("expected Interrupted, got: {e}"));
                continue;
            }
        };
        if let Err(e) = checkpoint.save(&path, key) {
            report.fail(&scenario, format!("checkpoint save failed: {e}"));
            continue;
        }
        wrote = true;
        let restored = match C::load(&path, key) {
            Ok(c) => c,
            Err(e) => {
                report.fail(&scenario, format!("own checkpoint did not verify: {e}"));
                continue;
            }
        };
        let resumes: Vec<(String, ThreadCount)> = if stage.parallel {
            CHAOS_THREADS
                .iter()
                .map(|t| (format!("{scenario}/resume@{t}"), threads(t)))
                .collect()
        } else {
            vec![(format!("{scenario}/resume"), ThreadCount::Auto)]
        };
        for (label, workers) in resumes {
            let resumed = run(workers, &RunBudget::unlimited(), Some(&restored));
            let ok = matches!(&resumed, Ok(r) if *r == reference);
            report.check(&label, ok, || match resumed {
                Ok(_) => "resume diverged from the reference".to_string(),
                Err(e) => format!("resume failed: {e}"),
            });
        }
    }
    wrote.then(|| {
        let loader: Loader = Box::new(move |p: &str| C::load(p, key).map(|_| ()));
        (C::KIND, path, loader)
    })
}

/// Kill/resume sweep over count-capped PPSFP simulation. The fuse
/// cancels after a randomized number of 64-pattern blocks.
fn sim_sweep(rng: &mut Xorshift64Star, dir: &str, report: &mut ChaosReport) -> Option<Target> {
    let netlist = generators::c432_class();
    let faults = stuck_at::enumerate(&netlist).collapse();
    let vectors = random_vectors(netlist.inputs().len(), 256, 0xC0FFEE);
    let n_cap = 2;
    let stage = Stage {
        name: "sim",
        first_kill: 1,
        random_kills: 3,
        kill_bound: vectors.len().div_ceil(64) as u64,
        parallel: true,
    };
    let key = SimCheckpoint::key(&netlist, faults.faults(), &vectors, n_cap);
    kill_resume_sweep(rng, dir, report, &stage, key, |workers, budget, resume| {
        ppsfp::simulate_counted_resumable(
            &netlist,
            faults.faults(),
            &vectors,
            n_cap,
            workers,
            Recorder::noop(),
            budget,
            resume,
        )
        .map_err(|e| match e {
            SimError::Interrupted { checkpoint, .. } => Stop::Interrupted(checkpoint),
            other => Stop::Failed(other.to_string()),
        })
    })
}

/// Kill/resume sweep over n-detect schedule construction. The builder
/// is serial and checks its budget once per target, so kill points are
/// target indices.
fn ndetect_sweep(rng: &mut Xorshift64Star, dir: &str, report: &mut ChaosReport) -> Option<Target> {
    let netlist = generators::ripple_adder(3);
    let faults = stuck_at::enumerate(&netlist).collapse();
    let config = NDetectConfig {
        pool_size: 128,
        ..NDetectConfig::default()
    };
    let max_n = 4usize;
    let stage = Stage {
        name: "ndetect",
        first_kill: 1,
        random_kills: 2,
        kill_bound: max_n as u64,
        parallel: false,
    };
    let key = NDetectCheckpoint::key(&netlist, faults.faults(), max_n, &config);
    kill_resume_sweep(rng, dir, report, &stage, key, |_, budget, resume| {
        build_schedule_resumable(&netlist, faults.faults(), max_n, &config, budget, resume).map_err(
            |e| match e {
                NDetectError::Interrupted { checkpoint, .. } => Stop::Interrupted(checkpoint),
                other => Stop::Failed(other.to_string()),
            },
        )
    })
}

/// Kill/resume sweep over Monte-Carlo fallout. Shards are the chunk
/// unit; 20 603 dies make six shards (the last one partial).
fn mc_sweep(rng: &mut Xorshift64Star, dir: &str, report: &mut ChaosReport) -> Option<Target> {
    let weights = match FaultWeights::new((0..24).map(|j| 0.01 + 0.005 * j as f64).collect()) {
        Ok(w) => w,
        Err(e) => {
            report.fail("mc/setup", format!("weights rejected: {e}"));
            return None;
        }
    };
    let detected: Vec<bool> = (0..24).map(|j| j % 3 != 0).collect();
    let config = MonteCarloConfig {
        dies: 20_603,
        seed: 0xFEED,
    };
    let stage = Stage {
        name: "mc",
        first_kill: 2,
        random_kills: 2,
        kill_bound: 6,
        parallel: true,
    };
    let key = McCheckpoint::key(&weights, &detected, &config, &UnitMix);
    kill_resume_sweep(rng, dir, report, &stage, key, |workers, budget, resume| {
        simulate_fallout_resumable(
            &weights,
            &detected,
            &config,
            workers,
            Recorder::noop(),
            budget,
            resume,
        )
        .map_err(|e| match e {
            ModelError::Interrupted { checkpoint, .. } => Stop::Interrupted(checkpoint),
            other => Stop::Failed(other.to_string()),
        })
    })
}

fn find_marker(bytes: &[u8], marker: &[u8]) -> Option<usize> {
    bytes.windows(marker.len()).position(|w| w == marker)
}

/// Corrupts one checkpoint artifact `CORRUPTIONS_PER_ARTIFACT` times
/// (alternating randomized truncations and payload bit flips) and
/// demands a typed error from every load, under `catch_unwind`.
fn corruption_sweep(
    rng: &mut Xorshift64Star,
    report: &mut ChaosReport,
    label: &str,
    path: &str,
    loader: &Loader,
) {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            report.fail(
                &format!("{label}/read"),
                format!("cannot read artifact: {e}"),
            );
            return;
        }
    };
    let pristine = panic::catch_unwind(AssertUnwindSafe(|| loader(path)));
    report.check(
        &format!("{label}/pristine"),
        matches!(pristine, Ok(Ok(()))),
        || "the uncorrupted artifact itself does not load".to_string(),
    );
    let payload_at = match find_marker(&bytes, b"\"payload\":") {
        Some(i) => i + b"\"payload\":".len(),
        None => {
            report.fail(
                &format!("{label}/shape"),
                "artifact has no payload member".to_string(),
            );
            return;
        }
    };
    let corrupt_path = format!("{path}.corrupt");
    for i in 0..CORRUPTIONS_PER_ARTIFACT {
        let mut mutated = bytes.clone();
        let desc = if i % 2 == 0 {
            let cut = 1 + (rng.next_u64() as usize) % (bytes.len() - 1);
            mutated.truncate(cut);
            format!("truncate@{cut}")
        } else {
            let pos = payload_at + (rng.next_u64() as usize) % (bytes.len() - payload_at);
            let bit = (rng.next_u64() % 8) as u8;
            mutated[pos] ^= 1 << bit;
            format!("bitflip@{pos}.{bit}")
        };
        let scenario = format!("{label}/{desc}");
        if let Err(e) = std::fs::write(&corrupt_path, &mutated) {
            report.fail(&scenario, format!("cannot write corrupted copy: {e}"));
            continue;
        }
        match panic::catch_unwind(AssertUnwindSafe(|| loader(&corrupt_path))) {
            Ok(Err(_)) => report.pass(),
            Ok(Ok(())) => report.fail(
                &scenario,
                "corrupted artifact was accepted as valid".to_string(),
            ),
            Err(_) => report.fail(&scenario, "loader panicked".to_string()),
        }
    }
    let _ = std::fs::remove_file(&corrupt_path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_core::ckpt;
    use dlp_core::obs::Json;

    fn scratch_dir(name: &str) -> String {
        format!(
            "{}/../../target/tmp/{name}_{}",
            env!("CARGO_MANIFEST_DIR"),
            std::process::id()
        )
    }

    #[test]
    fn report_bookkeeping() {
        let mut report = ChaosReport::default();
        report.check("a", true, || unreachable!("detail not built on pass"));
        report.check("b", false, || "broke".to_string());
        assert_eq!(report.checks, 2);
        assert!(!report.passed());
        let text = report.to_string();
        assert!(text.contains("2 checks, 1 violations"));
        assert!(text.contains("FAIL b: broke"));
    }

    /// The corruption machinery itself, exercised on a tiny sealed
    /// envelope with a trivial loader — no heavy simulation.
    #[test]
    fn corruption_sweep_flags_panics_and_acceptance() {
        let dir = scratch_dir("dlp_chaos_unit");
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let path = format!("{dir}/tiny.ckpt.json");
        let payload = Json::Object(vec![("x".to_string(), Json::Number(5.0))]);
        ckpt::save(&path, "chaos.tiny", 0xBEEF, &payload).expect("seed artifact");

        // A well-behaved loader: every corruption must be a typed error.
        let strict: Loader = Box::new(|p: &str| ckpt::load(p, "chaos.tiny", 0xBEEF).map(|_| ()));
        let mut rng = Xorshift64Star::new(7);
        let mut report = ChaosReport::default();
        corruption_sweep(&mut rng, &mut report, "tiny", &path, &strict);
        assert_eq!(report.checks, 1 + CORRUPTIONS_PER_ARTIFACT);
        assert!(report.passed(), "{report}");

        // A loader that swallows corruption must be flagged, and one
        // that panics must be caught and flagged — not propagated.
        let accepting: Loader = Box::new(|_| Ok(()));
        let mut report = ChaosReport::default();
        corruption_sweep(&mut rng, &mut report, "accepting", &path, &accepting);
        assert_eq!(report.failures.len(), CORRUPTIONS_PER_ARTIFACT);
        let panicking: Loader = Box::new(|_| panic!("boom"));
        let mut report = ChaosReport::default();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        corruption_sweep(&mut rng, &mut report, "panicking", &path, &panicking);
        std::panic::set_hook(hook);
        assert!(report
            .failures
            .iter()
            .any(|f| f.detail.contains("panicked")));

        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
