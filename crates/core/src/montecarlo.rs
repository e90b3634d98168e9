//! Monte Carlo fallout simulation — a statistical cross-check of the
//! weighted defect-level formula (eq. 3).
//!
//! The paper's eq. 3 (`DL = 1 − Y^(1−θ)`) is derived from independent
//! Poisson fault occurrences. This module *simulates the production line
//! directly*: dice are rolled per die and per fault, dies failing any
//! detected fault are scrapped, and the shipped-defective ratio is
//! counted. The estimate must converge to eq. 3 — a strong end-to-end
//! validation of the model implementation that needs no external data.
//!
//! ## Compound (mixed-Poisson) fallout
//!
//! Real fabrication defects cluster: the per-die defect count is not
//! Poisson but a *mixed* Poisson, where each die's expected count is
//! scaled by a random multiplier (gamma mixing gives Stapper's
//! negative-binomial yield). The engine supports this through the
//! [`DieMix`] hook: before a die's per-fault dice are rolled, the hook
//! supplies a weight multiplier `g`, and fault `j` then strikes with
//! probability `1 − e^(−w_j · g)`. The independent-Poisson model is the
//! [`UnitMix`] instance (`g ≡ 1`, consuming no randomness), which makes
//! [`simulate_fallout_resumable`] *bit-identical* to the historical engine. The
//! clustered and hierarchical mixes live in the `dlp-yield` crate.
//!
//! ## Kernels and the jump-ahead invariant
//!
//! Every die rolls every fault's dice, detected or not, even after a
//! detected fault has already scrapped it. So under a unit mix (one that
//! consumes no draws, [`DieMix::is_unit`]) die `d` of a shard starts at
//! draw `d · F` of the shard's stream, `F` being the fault count. The
//! unit-mix kernel relies on this: it splits a shard into `L` lanes of
//! `4096/L` dies and starts lane `l` at `J^l · s0`, where `s0` is the
//! shard stream's state and `J = T^(4096/L · F)` is the xorshift state
//! update raised to one lane's draws (`rng::Jump`); a short last shard of
//! `n` dies splits into lanes of `⌈n/L⌉` dies under its own jump, so the
//! lanes draw for at most `L − 1` dies they do not count. `L` is 32 on a
//! CPU with AVX-512F and AVX-512DQ, detected once per run, and 4
//! elsewhere; either way die `d` uses draws `[d·F, (d+1)·F)`. The lanes
//! advance in lock-step, so independent shift/xor chains overlap, and each
//! draw is compared against an integer threshold
//! (`rng::unit_threshold`) that is exact. Every tally is
//! therefore the one the serial loop counts. Mixes that draw a variable
//! number of numbers per die (the gamma-based ones) break the invariant
//! and run the serial loop, which is also the lane kernel's differential
//! oracle.

use crate::budget::{BudgetExceeded, RunBudget};
use crate::ckpt::{Checkpoint, CkptError, KeyHasher};
use crate::obs::{Json, Recorder};
use crate::par::{self, ThreadCount};
use crate::rng::{unit_threshold, Jump, Xorshift64Star};
use crate::weighted::FaultWeights;
use crate::ModelError;

/// Dies per RNG shard. Shard `s` always covers dies
/// `[s · SHARD_DIES, (s+1) · SHARD_DIES)` and draws from the stream
/// `Xorshift64Star::split(seed, s)`, so the decomposition — and the
/// counted outcome — is a function of `(dies, seed)` alone, never of the
/// worker count.
const SHARD_DIES: usize = 4096;

/// Monte Carlo settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of dies to fabricate.
    pub dies: usize,
    /// RNG seed (xorshift64*; self-contained, no external dependency).
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            dies: 100_000,
            seed: 0x5EED,
        }
    }
}

/// Per-die weight-multiplier hook for compound (mixed-Poisson) fallout.
///
/// The engine calls [`DieMix::multiplier`] once per die, *before* the
/// per-fault dice are rolled, handing it the run's master seed, the
/// global die index, and the die's shard RNG stream. The returned `g`
/// scales every fault weight: fault `j` strikes with probability
/// `1 − e^(−w_j · g)`.
///
/// Implementations must be deterministic functions of
/// `(seed, die, rng state)` — the engine's thread-count invariance and
/// checkpoint/resume guarantees only hold if the multiplier depends on
/// nothing else. Die-level mixing should draw from `rng` (the shard
/// stream); wafer- or lot-level mixing shared across dies must instead
/// derive its own sub-stream from `seed` and the die index, since a
/// wafer can straddle shard boundaries.
pub trait DieMix: Sync {
    /// Folds the mix's identity and parameters into a checkpoint key, so
    /// a resume checkpoint written under one distribution can never be
    /// replayed under another. [`UnitMix`] writes nothing — legacy
    /// Poisson checkpoint keys stay valid.
    fn write_key(&self, h: &mut KeyHasher);

    /// The weight multiplier for the die with global index `die`.
    /// `rng` is positioned at the die's first draw; whatever the hook
    /// consumes shifts the die's subsequent per-fault draws (still
    /// deterministic — the stream is a pure function of `(seed, shard)`).
    fn multiplier(&self, seed: u64, die: u64, rng: &mut Xorshift64Star) -> f64;

    /// Whether [`DieMix::multiplier`] returns exactly `1` and consumes no
    /// draws, for every die. The engine then never calls the hook and runs
    /// its lane-interleaved kernel, which relies on every die consuming
    /// exactly one draw per fault. Defaults to `false`: the serial loop,
    /// correct for any mix.
    fn is_unit(&self) -> bool {
        false
    }
}

/// The independent-Poisson mix: every die's multiplier is exactly `1`,
/// no randomness is consumed, and no key bytes are written — the
/// historical engine, bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitMix;

impl DieMix for UnitMix {
    fn write_key(&self, _h: &mut KeyHasher) {}

    fn multiplier(&self, _seed: u64, _die: u64, _rng: &mut Xorshift64Star) -> f64 {
        1.0
    }

    fn is_unit(&self) -> bool {
        true
    }
}

/// Counted production outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FalloutEstimate {
    /// Dies fabricated.
    pub fabricated: usize,
    /// Dies with no fault at all (true yield numerator).
    pub good: usize,
    /// Dies passing the test (shipped).
    pub shipped: usize,
    /// Shipped dies that carry at least one (undetected) fault.
    pub escapes: usize,
}

impl FalloutEstimate {
    /// The measured yield `good / fabricated`.
    pub fn yield_estimate(&self) -> f64 {
        self.good as f64 / self.fabricated.max(1) as f64
    }

    /// The measured defect level `escapes / shipped`.
    pub fn defect_level(&self) -> f64 {
        if self.shipped == 0 {
            0.0
        } else {
            self.escapes as f64 / self.shipped as f64
        }
    }
}

/// Resume state of an interrupted Monte-Carlo fallout run.
///
/// One entry per completed RNG shard, in shard order: because shard `s`
/// always draws from the split stream `s`, "RNG stream position" is
/// simply the number of completed shards — no generator state needs to
/// be serialised. Produced by [`simulate_fallout_resumable`] inside
/// [`ModelError::Interrupted`]; feed it back via the `resume` parameter
/// to continue bit-identically.
#[derive(Clone, PartialEq, Eq)]
pub struct McCheckpoint {
    /// `(good, shipped, escapes)` for each completed leading shard.
    pub tallies: Vec<(usize, usize, usize)>,
}

impl std::fmt::Debug for McCheckpoint {
    // One tally per completed shard — thousands for large die counts —
    // so a derived Debug would flood any error message that embeds the
    // checkpoint; only the aggregate is shown.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (good, shipped, escapes) = self
            .tallies
            .iter()
            .fold((0usize, 0usize, 0usize), |(g, s, e), &(tg, ts, te)| {
                (g + tg, s + ts, e + te)
            });
        f.debug_struct("McCheckpoint")
            .field("completed_shards", &self.tallies.len())
            .field("good", &good)
            .field("shipped", &shipped)
            .field("escapes", &escapes)
            .finish()
    }
}

impl McCheckpoint {
    /// The checkpoint key binding this run's inputs: per-fault strike
    /// probabilities, detection mask, die count, seed, and — folded in
    /// last — the [`DieMix`]'s identity and parameters, so a clustered
    /// checkpoint never resumes a Poisson run (or vice versa).
    /// [`UnitMix`] writes no key bytes.
    pub fn key(
        weights: &FaultWeights,
        detected: &[bool],
        config: &MonteCarloConfig,
        mix: &dyn DieMix,
    ) -> u64 {
        let mut h = KeyHasher::new();
        h.write_usize(weights.len());
        for j in 0..weights.len() {
            h.write_f64(weights.probability(j));
        }
        h.write_usize(detected.len());
        for &d in detected {
            h.write_bool(d);
        }
        h.write_usize(config.dies);
        h.write_u64(config.seed);
        mix.write_key(&mut h);
        h.finish()
    }
}

impl Checkpoint for McCheckpoint {
    const KIND: &'static str = "mc.fallout";

    /// `{"tallies": [[good, shipped, escapes], ...]}`.
    fn to_payload(&self) -> Json {
        let tallies = self
            .tallies
            .iter()
            .map(|&(g, s, e)| {
                Json::Array(vec![
                    Json::Number(g as f64),
                    Json::Number(s as f64),
                    Json::Number(e as f64),
                ])
            })
            .collect();
        Json::object([("tallies", Json::Array(tallies))])
    }

    /// Rejects non-array tallies and non-integer counts.
    fn from_payload(payload: &Json) -> Result<McCheckpoint, CkptError> {
        let tallies =
            payload
                .get("tallies")
                .and_then(Json::as_array)
                .ok_or(CkptError::Malformed {
                    what: "missing tallies array",
                })?;
        let mut out = Vec::with_capacity(tallies.len());
        for row in tallies {
            let counts: Option<Vec<usize>> = row
                .as_array()
                .and_then(|r| r.iter().map(Json::as_uint).collect());
            let Some(&[good, shipped, escapes]) = counts.as_deref() else {
                return Err(CkptError::Malformed {
                    what: "tally row is not 3 non-negative integers",
                });
            };
            out.push((good, shipped, escapes));
        }
        Ok(McCheckpoint { tallies: out })
    }
}

/// Simulates fabrication and test of `config.dies` dies, with
/// cooperative budget checks at shard boundaries and checkpoint/resume.
///
/// Fault `j` strikes a die with probability `p_j = 1 − e^(−w_j)`
/// independently; the tester scraps the die iff some struck fault is in
/// the detected set.
///
/// Dies are processed in fixed-size shards with per-shard RNG streams
/// split deterministically from `config.seed`, spread over `threads`
/// workers. The counted outcome is bit-identical for every thread count.
///
/// The run records the `montecarlo` span, shard/die counters, fallout
/// tallies (`mc.good` / `mc.shipped` / `mc.escapes`), the per-shard
/// escape histogram (`mc.shard_escapes` — deterministic percentiles at
/// any thread count, since shards fold in chunk order), and per-worker
/// timeline telemetry (`mc.worker<i>.*`) into `obs`. Recording is
/// observation-only: the counted [`FalloutEstimate`] is bit-identical
/// with tracing on or off.
///
/// With `resume = Some(checkpoint)`, the tallies of the checkpoint's
/// completed leading shards are replayed (the `mc.shard_escapes`
/// histogram included) and only the remaining shards are simulated, so
/// the result — estimate *and* deterministic trace content — is
/// bit-identical to an uninterrupted run at any thread count.
///
/// # Errors
///
/// - [`ModelError::BadFitData`] if `detected.len()` mismatches the
///   fault count or `config.dies == 0`;
/// - [`ModelError::BadCheckpoint`] if `resume` records more shards than
///   this run has;
/// - [`ModelError::Budget`] if the up-front memory estimate already
///   exceeds the budget (nothing was simulated);
/// - [`ModelError::Interrupted`] if the budget tripped at a shard
///   boundary — the embedded [`McCheckpoint`] resumes the run.
///
/// # Example
///
/// ```
/// use dlp_core::montecarlo::{simulate_fallout_resumable, MonteCarloConfig};
/// use dlp_core::{obs::Recorder, par::ThreadCount, weighted::FaultWeights, RunBudget};
///
/// let w = FaultWeights::new(vec![0.05; 10])?.scaled_to_yield(0.75)?;
/// // Detect the first 7 of 10 equal faults: theta = 0.7.
/// let detected: Vec<bool> = (0..10).map(|j| j < 7).collect();
/// let est = simulate_fallout_resumable(
///     &w,
///     &detected,
///     &MonteCarloConfig::default(),
///     ThreadCount::from_env()?,
///     Recorder::noop(),
///     &RunBudget::unlimited(),
///     None,
/// )?;
/// let formula = w.defect_level(w.theta(&detected)?)?;
/// assert!((est.defect_level() - formula).abs() < 0.01);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_fallout_resumable(
    weights: &FaultWeights,
    detected: &[bool],
    config: &MonteCarloConfig,
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
    resume: Option<&McCheckpoint>,
) -> Result<FalloutEstimate, ModelError> {
    simulate_fallout_mixed_resumable(
        weights, detected, config, &UnitMix, threads, obs, budget, resume,
    )
}

/// [`simulate_fallout_resumable`] with a [`DieMix`] hook — the compound
/// (mixed-Poisson) production line. Each die's fault weights are scaled
/// by `mix.multiplier(...)` before its per-fault dice are rolled.
///
/// All engine guarantees carry over unchanged: the counted outcome (and
/// the deterministic trace content) is bit-identical at every thread
/// count, budget checks run at shard boundaries, and an interrupted run
/// resumes bit-identically from the embedded [`McCheckpoint`] — provided
/// the same `mix` is supplied (bind checkpoints to it via
/// [`McCheckpoint::key`]). With [`UnitMix`] this *is*
/// [`simulate_fallout_resumable`], bit for bit.
///
/// # Errors
///
/// See [`simulate_fallout_resumable`].
#[allow(clippy::too_many_arguments)] // the resumable engine's full surface
pub fn simulate_fallout_mixed_resumable(
    weights: &FaultWeights,
    detected: &[bool],
    config: &MonteCarloConfig,
    mix: &dyn DieMix,
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
    resume: Option<&McCheckpoint>,
) -> Result<FalloutEstimate, ModelError> {
    let width = Width::detect();
    simulate(
        weights, detected, config, mix, width, threads, obs, budget, resume,
    )
}

/// [`simulate_fallout_mixed_resumable`] with the lane kernel's width
/// given, so tests can run both widths on one CPU.
#[allow(clippy::too_many_arguments)]
fn simulate(
    weights: &FaultWeights,
    detected: &[bool],
    config: &MonteCarloConfig,
    mix: &dyn DieMix,
    width: Width,
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
    resume: Option<&McCheckpoint>,
) -> Result<FalloutEstimate, ModelError> {
    let _span = obs.span("montecarlo");
    if detected.len() != weights.len() {
        return Err(ModelError::BadFitData("detection mask length mismatch"));
    }
    if config.dies == 0 {
        return Err(ModelError::BadFitData("zero dies requested"));
    }
    let shard_count = config.dies.div_ceil(SHARD_DIES);
    // The stage's dominant allocations: per-fault probabilities, the
    // shard descriptors (the per-chunk result slots are the same size)
    // and, for the lane kernel, the per-fault thresholds and the jump.
    let lane_bytes = if mix.is_unit() {
        weights.len() * std::mem::size_of::<(u64, u64)>() + std::mem::size_of::<Jump>()
    } else {
        0
    };
    let estimated_bytes = (weights.len() * std::mem::size_of::<f64>()
        + shard_count * (std::mem::size_of::<(u64, usize)>() + std::mem::size_of::<Tally>())
        + lane_bytes) as u64;
    if let Err(reason) = budget.check_memory(estimated_bytes) {
        return Err(ModelError::Budget(BudgetExceeded {
            reason,
            completed: 0,
            total: shard_count as u64,
        }));
    }
    let done = resume.map_or(&[][..], |c| c.tallies.as_slice());
    if done.len() > shard_count {
        return Err(ModelError::BadCheckpoint {
            what: "checkpoint records more shards than this run has",
        });
    }
    let kernel = Kernel::new(weights, detected, config.seed, mix, width);
    // The lanes the kernel interleaves (1: the serial loop), so a timing
    // can name the kernel it timed (DESIGN.md §18).
    let lanes = kernel.lanes.as_ref().map_or(1, |l| l.width.lanes());
    obs.gauge("mc.lanes", lanes as f64);

    // Shard descriptors: (stream index, dies in shard). The last shard
    // takes the remainder.
    let shards: Vec<(u64, usize)> = (0..shard_count)
        .map(|s| (s as u64, SHARD_DIES.min(config.dies - s * SHARD_DIES)))
        .collect();
    obs.add("mc.shards", shards.len() as u64);
    obs.add("mc.dies", config.dies as u64);
    obs.add("mc.faults", weights.len() as u64);
    let simulated = par::map_chunks_budgeted(
        threads.get(),
        &shards[done.len()..],
        shards.len() - done.len(),
        obs,
        "mc",
        budget,
        |_, shard| {
            shard.iter().fold((0, 0, 0), |(g, s, e), &(stream, dies)| {
                let (sg, ss, se) = kernel.shard(stream, dies);
                (g + sg, s + ss, e + se)
            })
        },
    );
    let (parts, interrupted) = match simulated {
        Ok(parts) => (parts, None),
        Err(par::Interrupted { prefix, budget }) => (prefix, Some(budget)),
    };
    let mut good = 0usize;
    let mut shipped = 0usize;
    let mut escapes = 0usize;
    // Replayed checkpoint tallies first, then freshly simulated shards:
    // together a contiguous leading run in shard order, so the
    // per-shard escape histogram is deterministic for every thread
    // count and identical whether or not the run was ever interrupted.
    for &(g, s, e) in done.iter().chain(&parts) {
        good += g;
        shipped += s;
        escapes += e;
        obs.observe("mc.shard_escapes", e as f64);
    }
    if let Some(mut budget) = interrupted {
        budget.completed += done.len() as u64;
        budget.total = shards.len() as u64;
        let tallies = done.iter().copied().chain(parts).collect();
        return Err(ModelError::Interrupted {
            budget,
            checkpoint: Box::new(McCheckpoint { tallies }),
        });
    }
    obs.add("mc.good", good as u64);
    obs.add("mc.shipped", shipped as u64);
    obs.add("mc.escapes", escapes as u64);
    Ok(FalloutEstimate {
        fabricated: config.dies,
        good,
        shipped,
        escapes,
    })
}

/// Lane-word bits of [`shard_lanes`]: some fault struck the die, and
/// some detected fault struck it.
const STRUCK: u64 = 1 << 63;
const DETECTED: u64 = 1 << 62;

/// `(good, shipped, escapes)` of a run of dies.
type Tally = (usize, usize, usize);

/// One run's per-shard simulation: the inputs every shard shares, and
/// the lane kernel's tables when the mix is a unit mix.
struct Kernel<'a> {
    seed: u64,
    mix: &'a dyn DieMix,
    weights: &'a [f64],
    detected: &'a [bool],
    probabilities: Vec<f64>,
    /// `None` runs the serial loop.
    lanes: Option<Lanes>,
}

/// The lane kernel's tables.
struct Lanes {
    /// Per-fault `(unit_threshold(p_j), mask_j)`: the mask keeps bit 63,
    /// and bit 62 too for a detected fault ([`shard_lanes`]).
    faults: Vec<(u64, u64)>,
    width: Width,
    /// The jump from one lane's first die to the next in a full shard.
    jump: Jump,
}

impl<'a> Kernel<'a> {
    fn new(
        weights: &'a FaultWeights,
        detected: &'a [bool],
        seed: u64,
        mix: &'a dyn DieMix,
        width: Width,
    ) -> Self {
        let probabilities: Vec<f64> = (0..weights.len()).map(|j| weights.probability(j)).collect();
        let lanes = mix.is_unit().then(|| {
            let faults = probabilities
                .iter()
                .zip(detected)
                .map(|(&p, &d)| {
                    let mask = if d { STRUCK | DETECTED } else { STRUCK };
                    (unit_threshold(p), mask)
                })
                .collect();
            let lane_dies = SHARD_DIES / width.lanes();
            Lanes {
                faults,
                width,
                jump: Jump::steps((lane_dies * weights.len()) as u64),
            }
        });
        Kernel {
            seed,
            mix,
            weights: weights.weights(),
            detected,
            probabilities,
            lanes,
        }
    }

    /// The tally of shard `stream`, which holds `dies` dies.
    fn shard(&self, stream: u64, dies: usize) -> Tally {
        let rng = Xorshift64Star::split(self.seed, stream);
        match &self.lanes {
            Some(lanes) => lanes.shard(rng, dies),
            None => self.shard_serial(rng, stream * SHARD_DIES as u64, dies),
        }
    }

    /// The serial loop: one die after another, any [`DieMix`].
    fn shard_serial(&self, mut rng: Xorshift64Star, first_die: u64, dies: usize) -> Tally {
        let mut tally = (0, 0, 0);
        for i in 0..dies {
            let g = self
                .mix
                .multiplier(self.seed, first_die + i as u64, &mut rng);
            let mut any_fault = false;
            let mut any_detected = false;
            for (j, &p) in self.probabilities.iter().enumerate() {
                // `g == 1.0` takes the precomputed probability — the
                // exact float the historical Poisson engine compared
                // against, so a multiplier of 1 stays bit-identical.
                let p = if g == 1.0 {
                    p
                } else {
                    1.0 - (-self.weights[j] * g).exp()
                };
                if rng.next_f64() < p {
                    any_fault = true;
                    any_detected |= self.detected[j];
                }
            }
            if !any_fault {
                tally.0 += 1;
            }
            if !any_detected {
                tally.1 += 1;
                if any_fault {
                    tally.2 += 1;
                }
            }
        }
        tally
    }
}

impl Lanes {
    /// The tally of a shard of `dies` dies whose stream starts at `rng`.
    fn shard(&self, rng: Xorshift64Star, dies: usize) -> Tally {
        // A short (last) shard splits evenly over the lanes, with a jump
        // of its own lane length.
        let lane_dies = dies.div_ceil(self.width.lanes());
        let short;
        let jump = if dies == SHARD_DIES {
            &self.jump
        } else {
            short = Jump::steps((lane_dies * self.faults.len()) as u64);
            &short
        };
        match self.width {
            Width::Four => shard_lanes::<4>(rng, jump, lane_dies, &self.faults, dies),
            #[cfg(target_arch = "x86_64")]
            Width::Wide(cpu) => cpu.shard_lanes(rng, jump, lane_dies, &self.faults, dies),
        }
    }
}

/// How many lanes the unit-mix kernel interleaves (DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    /// Four lanes in general registers: any CPU.
    Four,
    /// [`wide::LANES`] lanes in 512-bit registers, which only a CPU with
    /// AVX-512F and AVX-512DQ runs; the variant holds the proof.
    #[cfg(target_arch = "x86_64")]
    Wide(wide::Avx512),
}

impl Width {
    /// The widest kernel this CPU runs.
    fn detect() -> Width {
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = wide::Avx512::detect() {
            return Width::Wide(cpu);
        }
        Width::Four
    }

    fn lanes(self) -> usize {
        match self {
            Width::Four => 4,
            #[cfg(target_arch = "x86_64")]
            Width::Wide(_) => wide::LANES,
        }
    }
}

/// The 32-lane kernel, compiled for AVX-512: the crate's only `unsafe`.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{shard_lanes, Jump, Tally, Xorshift64Star};

    /// Lanes of the wide kernel: the states and lane words fill four
    /// 8-word registers each, so the shift/xor chains and `vpmullq`
    /// multiplies of four registers overlap. 16 lanes leave the loop
    /// latency-bound, 24 nearly so; 64 are no faster (DESIGN.md §18).
    pub(super) const LANES: usize = 32;

    // A full shard splits into whole lanes.
    const _: () = assert!(super::SHARD_DIES.is_multiple_of(LANES));

    /// Proof that the running CPU has AVX-512F and AVX-512DQ. The field
    /// is private to this module, so [`Avx512::detect`] is the only way
    /// to make one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Avx512(());

    impl Avx512 {
        pub(super) fn detect() -> Option<Avx512> {
            let found = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
            found.then_some(Avx512(()))
        }

        /// [`shard_lanes`] at [`LANES`] lanes.
        #[allow(unsafe_code)]
        pub(super) fn shard_lanes(
            self,
            rng: Xorshift64Star,
            jump: &Jump,
            lane_dies: usize,
            faults: &[(u64, u64)],
            dies: usize,
        ) -> Tally {
            // SAFETY: `self` exists only if `is_x86_feature_detected!`
            // found AVX-512F and AVX-512DQ on this CPU (`detect`), the
            // features `shard_lanes_avx512` is compiled for.
            unsafe { shard_lanes_avx512(rng, jump, lane_dies, faults, dies) }
        }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    fn shard_lanes_avx512(
        rng: Xorshift64Star,
        jump: &Jump,
        lane_dies: usize,
        faults: &[(u64, u64)],
        dies: usize,
    ) -> Tally {
        shard_lanes::<LANES>(rng, jump, lane_dies, faults, dies)
    }
}

/// The unit-mix kernel: `L` dies advanced in lock-step over the fault
/// list, lane `l` covering dies `[l · lane_dies, (l+1) · lane_dies)` of
/// the shard and drawing from `jump^l · rng` — the stream position of its
/// first die, so `jump` must advance `lane_dies` dies (see the module
/// docs). When `dies` is not a multiple of `L`, the last lanes also draw
/// for the `L · lane_dies − dies` dies past the shard's end, which are
/// not counted.
///
/// `faults` holds `(threshold, mask)` per fault ([`Kernel::new`]). For a
/// draw `k < 2^53` and a threshold `t ≤ 2^53`, `k − t` wraps to a word
/// with its top bits set exactly when the fault strikes, so OR-ing
/// `(k − t) & mask` into one word per lane collects bit 63 ("some fault
/// struck") and bit 62 ("some detected fault struck") without a branch.
///
/// Always inlined, so the wide instance is compiled with its caller's
/// target features.
#[inline(always)]
fn shard_lanes<const L: usize>(
    rng: Xorshift64Star,
    jump: &Jump,
    lane_dies: usize,
    faults: &[(u64, u64)],
    dies: usize,
) -> Tally {
    let mut next = rng;
    let mut lanes: [Xorshift64Star; L] = std::array::from_fn(|l| {
        if l > 0 {
            next.jump(jump);
        }
        next.clone()
    });
    let live: [usize; L] =
        std::array::from_fn(|l| dies.saturating_sub(l * lane_dies).min(lane_dies));
    let mut tally = (0, 0, 0);
    for i in 0..live[0] {
        let mut struck = [0u64; L];
        for &(threshold, mask) in faults {
            for l in 0..L {
                let k = lanes[l].next_u64() >> 11;
                struck[l] |= k.wrapping_sub(threshold) & mask;
            }
        }
        for l in 0..L {
            // Branch-free: whether a die is good or scrapped is a coin
            // flip the predictor cannot learn.
            let counted = usize::from(i < live[l]);
            let fault = usize::from(struck[l] & STRUCK != 0);
            let clean = usize::from(struck[l] & DETECTED == 0);
            tally.0 += counted & (fault ^ 1);
            tally.1 += counted & clean;
            tally.2 += counted & fault & clean;
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unbudgeted, untraced, non-resumed run.
    fn fallout(
        w: &FaultWeights,
        detected: &[bool],
        config: &MonteCarloConfig,
        threads: ThreadCount,
    ) -> Result<FalloutEstimate, ModelError> {
        let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
        simulate_fallout_resumable(w, detected, config, threads, obs, budget, None)
    }

    fn env_threads() -> ThreadCount {
        ThreadCount::from_env().unwrap()
    }

    fn weights(n: usize, y: f64) -> FaultWeights {
        FaultWeights::new(vec![1.0; n])
            .unwrap()
            .scaled_to_yield(y)
            .unwrap()
    }

    #[test]
    fn yield_estimate_matches_formula() {
        let w = weights(20, 0.75);
        let detected = vec![false; 20];
        let est = fallout(
            &w,
            &detected,
            &MonteCarloConfig {
                dies: 200_000,
                seed: 1,
            },
            env_threads(),
        )
        .unwrap();
        assert!(
            (est.yield_estimate() - 0.75).abs() < 0.005,
            "{}",
            est.yield_estimate()
        );
        // Nothing detected: everything ships, DL = 1 - Y.
        assert_eq!(est.shipped, est.fabricated);
        assert!((est.defect_level() - 0.25).abs() < 0.005);
    }

    #[test]
    fn full_detection_ships_no_escapes() {
        let w = weights(10, 0.8);
        let est = fallout(&w, &[true; 10], &MonteCarloConfig::default(), env_threads()).unwrap();
        assert_eq!(est.escapes, 0);
        assert!(est.shipped < est.fabricated, "some dies must be scrapped");
        assert_eq!(est.defect_level(), 0.0);
    }

    #[test]
    fn estimate_converges_to_eq3_with_skewed_weights() {
        // Heavily skewed weights — the regime where eq. 3 differs most
        // from the unweighted intuition.
        let raw: Vec<f64> = (0..30).map(|j| 1.5f64.powi(j)).collect();
        let w = FaultWeights::new(raw)
            .unwrap()
            .scaled_to_yield(0.7)
            .unwrap();
        let detected: Vec<bool> = (0..30).map(|j| j % 3 != 0).collect();
        let theta = w.theta(&detected).unwrap();
        let formula = w.defect_level(theta).unwrap();
        let est = fallout(
            &w,
            &detected,
            &MonteCarloConfig {
                dies: 300_000,
                seed: 9,
            },
            env_threads(),
        )
        .unwrap();
        assert!(
            (est.defect_level() - formula).abs() < 0.004,
            "MC {} vs eq.3 {}",
            est.defect_level(),
            formula
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let w = weights(5, 0.9);
        let d = vec![true, false, true, false, true];
        let cfg = MonteCarloConfig {
            dies: 10_000,
            seed: 42,
        };
        assert_eq!(
            fallout(&w, &d, &cfg, env_threads()).unwrap(),
            fallout(&w, &d, &cfg, env_threads()).unwrap()
        );
    }

    #[test]
    fn identical_across_thread_counts() {
        let w = weights(8, 0.7);
        let d = vec![true, true, false, true, false, false, true, true];
        // Straddle a shard boundary (dies not a multiple of SHARD_DIES).
        let cfg = MonteCarloConfig {
            dies: 3 * SHARD_DIES + 57,
            seed: 0xFEED,
        };
        let reference = fallout(&w, &d, &cfg, ThreadCount::fixed(1).unwrap()).unwrap();
        for t in [2usize, 4] {
            assert_eq!(
                fallout(&w, &d, &cfg, ThreadCount::fixed(t).unwrap()).unwrap(),
                reference,
                "threads={t}"
            );
        }
    }

    #[test]
    fn tracing_does_not_perturb_the_estimate() {
        let w = weights(8, 0.7);
        let d = vec![true, true, false, true, false, false, true, true];
        let cfg = MonteCarloConfig {
            dies: 2 * SHARD_DIES + 19,
            seed: 0xACE,
        };
        let plain = fallout(&w, &d, &cfg, ThreadCount::fixed(1).unwrap()).unwrap();
        for t in [1usize, 4] {
            let obs = Recorder::enabled();
            let traced = simulate_fallout_resumable(
                &w,
                &d,
                &cfg,
                ThreadCount::fixed(t).unwrap(),
                &obs,
                &RunBudget::unlimited(),
                None,
            )
            .unwrap();
            assert_eq!(traced, plain, "threads={t}");
            let report = obs.report("mc");
            assert_eq!(report.counter("mc.dies"), Some(cfg.dies as u64));
            assert_eq!(report.counter("mc.shards"), Some(3));
            assert_eq!(report.counter("mc.good"), Some(plain.good as u64));
            assert_eq!(report.counter("mc.shipped"), Some(plain.shipped as u64));
            assert_eq!(report.counter("mc.escapes"), Some(plain.escapes as u64));
            let lanes = Width::detect().lanes() as f64;
            assert_eq!(report.gauge("mc.lanes"), Some(lanes));
            assert!(report.span_nanos("montecarlo").is_some());
            let worker_total: u64 = report
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("mc.worker") && n.ends_with(".items"))
                .map(|&(_, v)| v)
                .sum();
            assert_eq!(worker_total, 3, "every shard attributed to a worker");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let w = weights(3, 0.9);
        assert!(fallout(&w, &[true], &MonteCarloConfig::default(), env_threads()).is_err());
        let no_dies = MonteCarloConfig { dies: 0, seed: 1 };
        assert!(fallout(&w, &[true; 3], &no_dies, env_threads()).is_err());
    }

    /// A deterministic non-unit mix for engine tests: doubles every
    /// odd-indexed die's weights and burns one shard-stream draw per die.
    struct DoubleOddDies;

    impl DieMix for DoubleOddDies {
        fn write_key(&self, h: &mut KeyHasher) {
            h.write_bytes(b"test.double-odd");
        }

        fn multiplier(&self, _seed: u64, die: u64, rng: &mut Xorshift64Star) -> f64 {
            let _ = rng.next_f64(); // variable stream consumption is allowed
            if die % 2 == 1 {
                2.0
            } else {
                1.0
            }
        }
    }

    #[test]
    fn unit_mix_keys_and_results_match_the_legacy_engine() {
        let w = weights(6, 0.8);
        let d = vec![true, false, true, true, false, true];
        let cfg = MonteCarloConfig {
            dies: 2 * SHARD_DIES + 77,
            seed: 0xD1E5,
        };
        // The Poisson key is pinned: UnitMix writes no key bytes, so
        // checkpoints written before the key bound its mix still load.
        assert_eq!(
            McCheckpoint::key(&w, &d, &cfg, &UnitMix),
            0x18da_8b46_6ccc_f37a,
            "UnitMix must not perturb Poisson checkpoint keys"
        );
        assert_ne!(
            McCheckpoint::key(&w, &d, &cfg, &UnitMix),
            McCheckpoint::key(&w, &d, &cfg, &DoubleOddDies),
            "a non-unit mix must move the key"
        );
        let legacy = fallout(&w, &d, &cfg, ThreadCount::fixed(1).unwrap()).unwrap();
        let mixed = simulate_fallout_mixed_resumable(
            &w,
            &d,
            &cfg,
            &UnitMix,
            ThreadCount::fixed(1).unwrap(),
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )
        .unwrap();
        assert_eq!(mixed, legacy);
    }

    #[test]
    fn mixed_engine_is_deterministic_across_thread_counts_and_resume() {
        let w = weights(7, 0.7);
        let d = vec![true, true, false, true, false, true, true];
        let cfg = MonteCarloConfig {
            dies: 3 * SHARD_DIES + 11, // 4 shards
            seed: 0xC1C1,
        };
        let reference = simulate_fallout_mixed_resumable(
            &w,
            &d,
            &cfg,
            &DoubleOddDies,
            ThreadCount::fixed(1).unwrap(),
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )
        .unwrap();
        let unit = fallout(&w, &d, &cfg, ThreadCount::fixed(1).unwrap()).unwrap();
        assert_ne!(reference, unit, "doubling weights must change the outcome");
        for t in [2usize, 4] {
            let got = simulate_fallout_mixed_resumable(
                &w,
                &d,
                &cfg,
                &DoubleOddDies,
                ThreadCount::fixed(t).unwrap(),
                Recorder::noop(),
                &RunBudget::unlimited(),
                None,
            )
            .unwrap();
            assert_eq!(got, reference, "threads={t}");
        }
        // Kill at every shard boundary, resume, and demand bit-identity.
        for kill in [1u64, 2, 3] {
            let err = simulate_fallout_mixed_resumable(
                &w,
                &d,
                &cfg,
                &DoubleOddDies,
                ThreadCount::fixed(2).unwrap(),
                Recorder::noop(),
                &RunBudget::unlimited().cancel_after_checks(kill),
                None,
            )
            .expect_err("fuse below shard count must interrupt");
            let checkpoint = match err {
                ModelError::Interrupted { checkpoint, .. } => checkpoint,
                other => panic!("kill={kill}: expected Interrupted, got {other:?}"),
            };
            let resumed = simulate_fallout_mixed_resumable(
                &w,
                &d,
                &cfg,
                &DoubleOddDies,
                ThreadCount::fixed(4).unwrap(),
                Recorder::noop(),
                &RunBudget::unlimited(),
                Some(&checkpoint),
            )
            .unwrap();
            assert_eq!(resumed, reference, "kill={kill}");
        }
    }

    /// Returns 1 for every die without being flagged unit, so it forces
    /// the serial loop on exactly the independent-Poisson model: the lane
    /// kernel's differential oracle.
    struct SerialUnit;

    impl DieMix for SerialUnit {
        fn write_key(&self, _h: &mut KeyHasher) {}

        fn multiplier(&self, _seed: u64, _die: u64, _rng: &mut Xorshift64Star) -> f64 {
            1.0
        }
    }

    /// Die counts around lane and shard boundaries, plus a flow-sized run.
    /// 129 dies leave 31 drawn-but-uncounted dies at 32 lanes.
    const ORACLE_DIES: [usize; 10] = [
        1,
        129,
        1023,
        1024,
        1025,
        4095,
        4096,
        4097,
        3 * 4096 + 57,
        50_000,
    ];

    /// Every lane-kernel width this CPU runs: four lanes always, and 32
    /// when it has AVX-512F and AVX-512DQ.
    fn widths() -> Vec<Width> {
        let mut widths = vec![Width::Four, Width::detect()];
        widths.dedup();
        widths
    }

    /// A CPU with AVX-512F and AVX-512DQ must get the 32-lane kernel: a
    /// broken detection would otherwise fall back to four lanes unseen.
    #[test]
    fn avx512_cpus_get_the_wide_kernel() {
        #[cfg(target_arch = "x86_64")]
        let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        assert_eq!(Width::detect().lanes(), if avx512 { 32 } else { 4 });
        assert_eq!(widths().len(), if avx512 { 2 } else { 1 });
    }

    /// Seeded weights with zero-weight faults and faults with `p ≥ 0.5`,
    /// and a seeded detection mask.
    fn oracle_inputs(faults: usize, seed: u64) -> (FaultWeights, Vec<bool>) {
        let mut r = Xorshift64Star::new(seed);
        let mut raw: Vec<f64> = (0..faults)
            .map(|_| match r.next_below(10) {
                0 | 1 => 0.0,
                2 => 0.7 + r.next_f64(),
                _ => r.next_f64() * 0.05,
            })
            .collect();
        raw[0] = raw[0].max(0.01);
        let detected = (0..faults).map(|_| r.next_f64() < 0.8).collect();
        (FaultWeights::new(raw).unwrap(), detected)
    }

    #[test]
    fn lane_kernel_matches_the_serial_oracle() {
        let t1 = ThreadCount::fixed(1).unwrap();
        let t2 = ThreadCount::fixed(2).unwrap();
        let t4 = ThreadCount::fixed(4).unwrap();
        let unlimited = RunBudget::unlimited();
        for faults in [1usize, 7, 150] {
            let (w, d) = oracle_inputs(faults, 0x0AC1E + faults as u64);
            for dies in ORACLE_DIES {
                let cfg = MonteCarloConfig {
                    dies,
                    seed: dies as u64 ^ 0x5EED,
                };
                // The estimate together with the run's deterministic trace.
                let run = |mix: &dyn DieMix,
                           width,
                           threads,
                           budget: &RunBudget,
                           resume: Option<&McCheckpoint>| {
                    let obs = Recorder::enabled();
                    simulate(&w, &d, &cfg, mix, width, threads, &obs, budget, resume)
                        .map(|estimate| (estimate, trace_fingerprint(&obs)))
                };
                let oracle = run(&SerialUnit, Width::Four, t1, &unlimited, None).unwrap();
                for width in widths() {
                    let case = format!("F={faults} dies={dies} lanes={}", width.lanes());
                    for threads in [t1, t2, t4] {
                        let lanes = run(&UnitMix, width, threads, &unlimited, None).unwrap();
                        assert_eq!(lanes, oracle, "{case} {threads:?}");
                    }
                    // Kill at every shard boundary: the lane kernel's
                    // checkpoint equals the oracle's, and resuming it at
                    // the other thread count finishes bit-identically.
                    for kill in 1..dies.div_ceil(SHARD_DIES) as u64 {
                        let interrupt = |mix: &dyn DieMix, threads| {
                            let fuse = RunBudget::unlimited().cancel_after_checks(kill);
                            match run(mix, width, threads, &fuse, None) {
                                Err(ModelError::Interrupted { checkpoint, .. }) => checkpoint,
                                other => panic!("{case} kill={kill}: {other:?}"),
                            }
                        };
                        let checkpoint = interrupt(&UnitMix, t2);
                        assert_eq!(checkpoint, interrupt(&SerialUnit, t1), "{case} kill={kill}");
                        let resumed =
                            run(&UnitMix, width, t1, &unlimited, Some(&checkpoint)).unwrap();
                        assert_eq!(resumed, oracle, "{case} kill={kill}");
                    }
                }
            }
        }
    }

    /// Every short last shard, 1–4095 dies, splits evenly over the lanes
    /// with its own jump and still tallies exactly the serial loop.
    #[test]
    fn lane_kernel_matches_the_serial_oracle_on_every_short_shard() {
        for faults in [1usize, 3] {
            let (w, d) = oracle_inputs(faults, 0x5407 + faults as u64);
            let serial = Kernel::new(&w, &d, 0x5EED, &SerialUnit, Width::Four);
            assert!(serial.lanes.is_none());
            for width in widths() {
                let lanes = Kernel::new(&w, &d, 0x5EED, &UnitMix, width);
                assert!(lanes.lanes.is_some());
                for dies in 1..SHARD_DIES {
                    let stream = dies as u64 % 5;
                    assert_eq!(
                        lanes.shard(stream, dies),
                        serial.shard(stream, dies),
                        "F={faults} dies={dies} lanes={}",
                        width.lanes()
                    );
                }
            }
        }
    }

    #[test]
    fn lane_kernel_matches_the_serial_loop_without_faults() {
        // `FaultWeights` rejects an empty fault set, so the zero-fault
        // case drives the kernels directly.
        let lanes = widths().into_iter().map(|width| {
            Some(Lanes {
                faults: vec![],
                width,
                jump: Jump::steps(0),
            })
        });
        for lanes in std::iter::once(None).chain(lanes) {
            let kernel = Kernel {
                seed: 3,
                mix: &UnitMix,
                weights: &[],
                detected: &[],
                probabilities: vec![],
                lanes,
            };
            for dies in ORACLE_DIES {
                let mut tally = (0, 0, 0);
                for shard in 0..dies.div_ceil(SHARD_DIES) {
                    let (g, s, e) =
                        kernel.shard(shard as u64, SHARD_DIES.min(dies - shard * SHARD_DIES));
                    tally = (tally.0 + g, tally.1 + s, tally.2 + e);
                }
                assert_eq!(tally, (dies, dies, 0), "dies={dies}");
            }
        }
    }

    /// Deterministic trace content of a run: everything except timing.
    #[allow(clippy::type_complexity)]
    fn trace_fingerprint(obs: &Recorder) -> (Vec<(String, u64)>, Option<(u64, Vec<(f64, u64)>)>) {
        let report = obs.report("mc");
        let counters = report
            .counters
            .iter()
            .filter(|(n, _)| {
                n.starts_with("mc.")
                    && !n.contains("worker")
                    && !n.contains("nanos")
                    && !n.contains("wall")
                    && !n.contains("slot")
            })
            .cloned()
            .collect();
        let hist = report
            .hist("mc.shard_escapes")
            .map(|h| (h.count, h.buckets.to_vec()));
        (counters, hist)
    }

    #[test]
    fn interrupt_and_resume_is_bit_identical() {
        let w = weights(8, 0.7);
        let d = vec![true, true, false, true, false, false, true, true];
        let cfg = MonteCarloConfig {
            dies: 5 * SHARD_DIES + 123, // 6 shards
            seed: 0xFEED,
        };
        let uninterrupted_obs = Recorder::enabled();
        let reference = simulate_fallout_resumable(
            &w,
            &d,
            &cfg,
            ThreadCount::fixed(1).unwrap(),
            &uninterrupted_obs,
            &RunBudget::unlimited(),
            None,
        )
        .unwrap();
        let reference_trace = trace_fingerprint(&uninterrupted_obs);
        for kill in [1u64, 2, 4, 5] {
            for t in [1usize, 2, 4] {
                let threads = ThreadCount::fixed(t).unwrap();
                let budget = RunBudget::unlimited().cancel_after_checks(kill);
                let err = simulate_fallout_resumable(
                    &w,
                    &d,
                    &cfg,
                    threads,
                    Recorder::noop(),
                    &budget,
                    None,
                )
                .expect_err("fuse below shard count must interrupt");
                let (budget_info, checkpoint) = match err {
                    ModelError::Interrupted { budget, checkpoint } => (budget, checkpoint),
                    other => panic!("kill={kill} t={t}: expected Interrupted, got {other:?}"),
                };
                assert_eq!(budget_info.completed, kill, "kill={kill} t={t}");
                assert_eq!(budget_info.total, 6);
                assert_eq!(checkpoint.tallies.len(), kill as usize);
                // Round-trip the checkpoint through its sealed envelope.
                let key = McCheckpoint::key(&w, &d, &cfg, &UnitMix);
                let sealed = crate::ckpt::seal(McCheckpoint::KIND, key, &checkpoint.to_payload());
                let payload = crate::ckpt::open(&sealed, McCheckpoint::KIND, key).unwrap();
                let restored = McCheckpoint::from_payload(&payload).unwrap();
                assert_eq!(restored, *checkpoint);
                // Resume at a possibly different thread count.
                let resume_obs = Recorder::enabled();
                let resumed = simulate_fallout_resumable(
                    &w,
                    &d,
                    &cfg,
                    threads,
                    &resume_obs,
                    &RunBudget::unlimited(),
                    Some(&restored),
                )
                .unwrap();
                assert_eq!(resumed, reference, "kill={kill} t={t}");
                assert_eq!(
                    trace_fingerprint(&resume_obs),
                    reference_trace,
                    "kill={kill} t={t}: deterministic trace content must replay"
                );
            }
        }
    }

    #[test]
    fn double_interrupt_then_resume_still_matches() {
        let w = weights(6, 0.8);
        let d = vec![true, false, true, true, false, true];
        let cfg = MonteCarloConfig {
            dies: 4 * SHARD_DIES, // 4 shards
            seed: 7,
        };
        let reference = fallout(&w, &d, &cfg, ThreadCount::fixed(2).unwrap()).unwrap();
        let threads = ThreadCount::fixed(2).unwrap();
        let kill = |n: u64, resume: Option<&McCheckpoint>| {
            simulate_fallout_resumable(
                &w,
                &d,
                &cfg,
                threads,
                Recorder::noop(),
                &RunBudget::unlimited().cancel_after_checks(n),
                resume,
            )
        };
        let first = match kill(1, None) {
            Err(ModelError::Interrupted { checkpoint, .. }) => checkpoint,
            other => panic!("expected first interrupt, got {other:?}"),
        };
        let second = match kill(2, Some(&first)) {
            Err(ModelError::Interrupted { budget, checkpoint }) => {
                assert_eq!(budget.completed, 3, "1 replayed + 2 fresh shards");
                checkpoint
            }
            other => panic!("expected second interrupt, got {other:?}"),
        };
        assert_eq!(second.tallies.len(), 3);
        assert_eq!(second.tallies[..1], first.tallies[..]);
        let finished = simulate_fallout_resumable(
            &w,
            &d,
            &cfg,
            threads,
            Recorder::noop(),
            &RunBudget::unlimited(),
            Some(&second),
        )
        .unwrap();
        assert_eq!(finished, reference);
    }

    #[test]
    fn resume_rejects_oversized_and_foreign_checkpoints() {
        let w = weights(4, 0.9);
        let d = vec![true; 4];
        let cfg = MonteCarloConfig {
            dies: SHARD_DIES, // 1 shard
            seed: 1,
        };
        let oversized = McCheckpoint {
            tallies: vec![(1, 1, 0); 5],
        };
        assert!(matches!(
            simulate_fallout_resumable(
                &w,
                &d,
                &cfg,
                ThreadCount::fixed(1).unwrap(),
                Recorder::noop(),
                &RunBudget::unlimited(),
                Some(&oversized),
            ),
            Err(ModelError::BadCheckpoint { .. })
        ));
        // A checkpoint sealed for different inputs fails on its key.
        let other_cfg = MonteCarloConfig {
            dies: SHARD_DIES,
            seed: 2,
        };
        let sealed = crate::ckpt::seal(
            McCheckpoint::KIND,
            McCheckpoint::key(&w, &d, &other_cfg, &UnitMix),
            &McCheckpoint { tallies: vec![] }.to_payload(),
        );
        assert!(matches!(
            crate::ckpt::open(
                &sealed,
                McCheckpoint::KIND,
                McCheckpoint::key(&w, &d, &cfg, &UnitMix)
            ),
            Err(crate::ckpt::CkptError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn memory_budget_gates_up_front() {
        let w = weights(4, 0.9);
        let d = vec![true; 4];
        let cfg = MonteCarloConfig::default();
        let err = simulate_fallout_resumable(
            &w,
            &d,
            &cfg,
            ThreadCount::fixed(1).unwrap(),
            Recorder::noop(),
            &RunBudget::unlimited().with_memory_limit(16),
            None,
        )
        .expect_err("a 16-byte budget cannot hold the shard table");
        match err {
            ModelError::Budget(b) => {
                assert_eq!(b.completed, 0);
                assert!(matches!(
                    b.reason,
                    crate::budget::BudgetReason::Memory { .. }
                ));
            }
            other => panic!("expected Budget, got {other:?}"),
        }

        // The estimate counts the probabilities and the shard table, plus
        // the lane kernel's per-fault thresholds and jump table when it
        // runs: a budget one byte short of that trips, the exact figure
        // passes.
        let cfg = MonteCarloConfig {
            dies: 2 * SHARD_DIES,
            seed: 1,
        };
        let base = 4 * 8 + 2 * (16 + 24);
        let lanes = 4 * 16 + std::mem::size_of::<Jump>() as u64;
        assert_eq!(std::mem::size_of::<Jump>(), 512);
        for (mix, bytes) in [
            (&UnitMix as &dyn DieMix, base + lanes),
            (&DoubleOddDies, base),
        ] {
            let run = |limit| {
                simulate_fallout_mixed_resumable(
                    &w,
                    &d,
                    &cfg,
                    mix,
                    ThreadCount::fixed(1).unwrap(),
                    Recorder::noop(),
                    &RunBudget::unlimited().with_memory_limit(limit),
                    None,
                )
            };
            match run(bytes - 1) {
                Err(ModelError::Budget(b)) => assert!(matches!(
                    b.reason,
                    crate::budget::BudgetReason::Memory { estimated_bytes, .. } if estimated_bytes == bytes
                )),
                other => panic!("expected Budget at {bytes} - 1 bytes, got {other:?}"),
            }
            assert!(run(bytes).is_ok(), "{bytes} bytes must suffice");
        }
    }

    #[test]
    fn mc_checkpoint_payload_rejects_malformed_shapes() {
        for bad in [
            "{}",
            "{\"tallies\":3.0}",
            "{\"tallies\":[[1.0,2.0]]}",
            "{\"tallies\":[[1.0,2.0,-3.0]]}",
            "{\"tallies\":[[1.0,2.0,3.5]]}",
            "{\"tallies\":[\"x\"]}",
        ] {
            let payload = Json::parse(bad).unwrap();
            assert!(
                matches!(
                    McCheckpoint::from_payload(&payload),
                    Err(CkptError::Malformed { .. })
                ),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn mc_tracks_formula() {
        for (seed, y) in [
            (3u64, 0.55),
            (77, 0.62),
            (191, 0.7),
            (260, 0.78),
            (333, 0.82),
            (401, 0.86),
            (449, 0.88),
            (499, 0.58),
        ] {
            let raw: Vec<f64> = (0..12).map(|j| 1.0 + (j as f64) * 0.7).collect();
            let w = FaultWeights::new(raw).unwrap().scaled_to_yield(y).unwrap();
            let detected: Vec<bool> = (0..12).map(|j| (seed >> (j % 8)) & 1 == 1).collect();
            let theta = w.theta(&detected).unwrap();
            let formula = w.defect_level(theta).unwrap();
            let est = fallout(
                &w,
                &detected,
                &MonteCarloConfig { dies: 60_000, seed },
                env_threads(),
            )
            .unwrap();
            assert!(
                (est.defect_level() - formula).abs() < 0.02,
                "seed={seed} y={y}: MC {} vs eq.3 {}",
                est.defect_level(),
                formula
            );
        }
    }
}
