//! Parallel-pattern single-fault-propagation (PPSFP) stuck-at simulation.
//!
//! Vectors are processed in blocks of 64 (one bit per pattern). For each
//! block the fault-free circuit is evaluated once; each still-undetected
//! fault is then injected and only its fanout cone re-evaluated. A fault is
//! detected when any primary-output word differs from the fault-free word;
//! detected faults are dropped from subsequent blocks.
//!
//! Fanout cones are cached per fault site, and the cache is bounded:
//! within a block the live faults are walked in windows of at most
//! 32,768 faults, and the cache is cleared before a window's cones would
//! overflow it. A fault list no longer than one window builds each cone
//! once; a million-fault list keeps one window's cones resident, so its
//! memory stays proportional to the window, not to the list.

use dlp_circuit::{ConeScratch, GateKind, Netlist, NodeId};
use dlp_core::obs::Recorder;
use dlp_core::par::{self, ThreadCount};
use dlp_core::{BudgetExceeded, RunBudget};

use crate::ckpt::SimCheckpoint;
use crate::detection::{DetectionProfile, DetectionRecord};
use crate::stuck_at::{FaultSite, StuckAtFault};
use crate::SimError;

/// Upper bound on the detection cap of [`simulate_counted_resumable`]:
/// beyond this the per-fault index storage (`faults × n_cap` vector
/// indices) stops being a profiling structure and becomes an unbounded
/// transcript.
pub const MAX_DETECTION_CAP: usize = 1 << 16;

/// Faults per window of the block kernel, and the most cones the cache
/// holds: large enough that every shipped circuit's collapsed list fits
/// one window, small enough that one window's cones stay in the tens of
/// megabytes even when every cone spans a few hundred nodes.
const WINDOW_FAULTS: usize = 32_768;

/// Validates every fault site against the netlist: the stem node, or the
/// branch's gate and pin index, must exist.
fn validate_faults(netlist: &Netlist, faults: &[StuckAtFault]) -> Result<(), SimError> {
    let n = netlist.node_count();
    for (fi, f) in faults.iter().enumerate() {
        let bad = |what| SimError::FaultOutOfRange { fault: fi, what };
        match f.site {
            FaultSite::Stem(node) => {
                if node.index() >= n {
                    return Err(bad("node"));
                }
            }
            FaultSite::Branch { gate, pin } => {
                if gate.index() >= n {
                    return Err(bad("gate"));
                }
                if pin >= netlist.fanin(gate).len() {
                    return Err(bad("input pin"));
                }
            }
        }
    }
    Ok(())
}

/// Validated per-run state of the block kernel: the fault list and a
/// bounded cache of its fanout cones.
struct SimSetup<'a> {
    netlist: &'a Netlist,
    faults: &'a [StuckAtFault],
    n_in: usize,
    /// Fanout cones (sorted, so in topological order) indexed by seed
    /// node; empty where not built, since a cone holds its seed.
    cones: Vec<Vec<NodeId>>,
    /// The seeds whose cones are built; never more than `window`.
    cached: Vec<NodeId>,
    /// One shared scratch keeps cone building O(Σ cone) instead of
    /// O(seeds × nodes).
    scratch: ConeScratch,
    window: usize,
}

/// The fault-free words of one packed 64-pattern block.
struct GoodBlock {
    /// One word per node: bit `p` is the node's value under pattern `p`.
    words: Vec<u64>,
    /// The bits of the block's patterns: all 64 except in a partial
    /// final block.
    used_mask: u64,
}

fn cone_seed(f: &StuckAtFault) -> NodeId {
    match f.site {
        FaultSite::Stem(n) => n,
        FaultSite::Branch { gate, .. } => gate,
    }
}

impl<'a> SimSetup<'a> {
    /// Validates the vector widths and fault sites; cones are built on
    /// demand, `window` faults at a time.
    fn new(
        netlist: &'a Netlist,
        faults: &'a [StuckAtFault],
        vectors: &[Vec<bool>],
        window: usize,
    ) -> Result<Self, SimError> {
        let n_in = netlist.inputs().len();
        crate::error::check_widths(vectors, n_in)?;
        validate_faults(netlist, faults)?;
        Ok(SimSetup {
            netlist,
            faults,
            n_in,
            cones: vec![Vec::new(); netlist.node_count()],
            cached: Vec::new(),
            scratch: ConeScratch::new(),
            window,
        })
    }

    /// Builds the cones of `window` that the cache lacks, clearing the
    /// cache first when they would overflow it.
    fn cover(&mut self, window: &[usize]) {
        let missing = window
            .iter()
            .filter(|&&fi| self.cones[cone_seed(&self.faults[fi]).index()].is_empty())
            .count();
        if self.cached.len() + missing > self.window {
            for seed in self.cached.drain(..) {
                self.cones[seed.index()] = Vec::new();
            }
        }
        for &fi in window {
            let seed = cone_seed(&self.faults[fi]);
            if self.cones[seed.index()].is_empty() {
                self.cones[seed.index()] = self.netlist.fanout_cone_with(seed, &mut self.scratch);
                self.cached.push(seed);
            }
        }
    }

    /// Packs a block (word `i` = input `i` across patterns) and evaluates
    /// the fault-free circuit on it.
    fn good_block(&self, block: &[Vec<bool>]) -> GoodBlock {
        let mut input_words = vec![0u64; self.n_in];
        for (p, v) in block.iter().enumerate() {
            for (i, &bit) in v.iter().enumerate() {
                if bit {
                    input_words[i] |= 1 << p;
                }
            }
        }
        let used_mask = if block.len() == 64 {
            u64::MAX
        } else {
            (1u64 << block.len()) - 1
        };
        GoodBlock {
            words: self.netlist.eval_words_all(&input_words),
            used_mask,
        }
    }

    /// Hands `detected` the fault index and masked output-difference
    /// word of every fault of `live` that the block detects, in `live`
    /// order, one window at a time.
    ///
    /// Each window's faults are partitioned across the workers, and each
    /// worker owns its scratch `faulty` array. A fault's detection word
    /// is a pure function of (fault, block), so the outcome cannot depend
    /// on the window or the partition — the bit-identical-merge
    /// foundation every caller builds on.
    fn detection_words(
        &mut self,
        good: &GoodBlock,
        live: &[usize],
        workers: usize,
        obs: &Recorder,
        scope: &'static str,
        mut detected: impl FnMut(usize, u64),
    ) {
        for window in live.chunks(self.window) {
            self.cover(window);
            let this = &*self;
            let chunks =
                par::map_chunks_counted(workers, window, workers, obs, scope, |_, chunk| {
                    this.propagate(good, chunk)
                });
            for (fi, word) in chunks.into_iter().flatten() {
                detected(fi, word);
            }
        }
    }

    /// Injects each fault of `chunk` and propagates it through its cone.
    fn propagate(&self, good: &GoodBlock, chunk: &[usize]) -> Vec<(usize, u64)> {
        let good_words = &good.words;
        let mut faulty = good_words.clone();
        let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
        let mut found = Vec::new();
        for &fi in chunk {
            let fault = &self.faults[fi];
            let cone = &self.cones[cone_seed(fault).index()];
            let mut diff_word_at_outputs = 0u64;
            for &node in cone {
                let kind = self.netlist.kind(node);
                let mut value = if kind == GateKind::Input {
                    good_words[node.index()]
                } else {
                    fanin_buf.clear();
                    for (pin, &f) in self.netlist.fanin(node).iter().enumerate() {
                        let mut v = faulty[f.index()];
                        if let FaultSite::Branch { gate, pin: fpin } = fault.site {
                            if gate == node && fpin == pin {
                                v = if fault.stuck_at_one { u64::MAX } else { 0 };
                            }
                        }
                        fanin_buf.push(v);
                    }
                    kind.eval_words(&fanin_buf)
                };
                if fault.site == FaultSite::Stem(node) {
                    value = if fault.stuck_at_one { u64::MAX } else { 0 };
                }
                faulty[node.index()] = value;
                if self.netlist.is_output(node) {
                    diff_word_at_outputs |= (value ^ good_words[node.index()]) & good.used_mask;
                }
            }
            // Restore the scratch array for the next fault.
            for &node in cone {
                faulty[node.index()] = good_words[node.index()];
            }
            if diff_word_at_outputs != 0 {
                found.push((fi, diff_word_at_outputs));
            }
        }
        found
    }
}

/// Per-fault detection indices in one flat `faults × n_cap` array:
/// fault `fi` holds `counts[fi]` ascending vector indices from
/// `ranks[fi * n_cap]` on. One allocation instead of one per fault is
/// what keeps a million-fault run's state small.
struct Ranks {
    n_cap: usize,
    ranks: Vec<usize>,
    counts: Vec<u32>,
}

impl Ranks {
    fn new(faults: usize, n_cap: usize) -> Ranks {
        Ranks {
            n_cap,
            ranks: vec![0; faults.saturating_mul(n_cap)],
            counts: vec![0; faults],
        }
    }

    /// Packs per-fault lists already checked to hold at most `n_cap`
    /// indices each.
    fn from_lists(lists: &[Vec<usize>], n_cap: usize) -> Ranks {
        let mut out = Ranks::new(lists.len(), n_cap);
        for (fi, list) in lists.iter().enumerate() {
            out.ranks[fi * n_cap..][..list.len()].copy_from_slice(list);
            out.counts[fi] = list.len() as u32;
        }
        out
    }

    fn of(&self, fi: usize) -> &[usize] {
        &self.ranks[fi * self.n_cap..][..self.counts[fi] as usize]
    }

    fn is_live(&self, fi: usize) -> bool {
        (self.counts[fi] as usize) < self.n_cap
    }

    /// Credits the set bits of `diff` (bit `b` is vector `base + b`) to
    /// fault `fi` in ascending order, up to the cap; returns how many.
    fn credit(&mut self, fi: usize, base: usize, mut diff: u64) -> u64 {
        let mut credited = 0;
        while diff != 0 && self.is_live(fi) {
            self.ranks[fi * self.n_cap + self.counts[fi] as usize] =
                base + diff.trailing_zeros() as usize;
            self.counts[fi] += 1;
            diff &= diff - 1;
            credited += 1;
        }
        credited
    }

    fn to_lists(&self) -> Vec<Vec<usize>> {
        (0..self.counts.len())
            .map(|fi| self.of(fi).to_vec())
            .collect()
    }

    fn first_detect(&self) -> Vec<Option<usize>> {
        (0..self.counts.len())
            .map(|fi| self.of(fi).first().copied())
            .collect()
    }
}

/// Simulates `faults` against `vectors` and reports first detections,
/// under a cooperative [`RunBudget`], resumable from a [`SimCheckpoint`].
///
/// Within each 64-pattern block the still-live faults are partitioned
/// across `threads` workers (`1` forces the serial path). Each fault's
/// detection word depends only on the fault and the block, so the record
/// is bit-identical for every thread count.
///
/// When the recorder is enabled, the run is traced under the `sim.gate`
/// scope: a span over the whole simulation, counters for faults /
/// vectors / blocks / detections, the live-fault count entering each
/// 64-pattern block (`sim.gate.live_per_block`), the per-block detection
/// series and histogram (`sim.gate.detects_per_block` — the histogram's
/// percentiles are identical at every thread count), the per-block
/// timing histogram (`sim.gate.block_nanos`), and per-worker timeline
/// telemetry from the parallel layer. Tracing never perturbs the
/// result: the record is bit-identical with tracing on or off, at any
/// thread count.
///
/// The budget is checked once per 64-pattern block, in the serial outer
/// loop, so the set of possible interruption points is identical at
/// every thread count. On a trip the error carries a checkpoint holding
/// the completed-block prefix; passing it back as `resume` (same
/// netlist, faults, and vectors) continues the run and reproduces the
/// uninterrupted record — and its deterministic trace content —
/// bit-identically at any thread count.
///
/// # Errors
///
/// [`SimError::VectorWidthMismatch`] if a vector's width differs from the
/// netlist's input count; [`SimError::FaultOutOfRange`] if a fault
/// references a node, gate, or input pin the netlist does not have;
/// [`SimError::Budget`] if the memory estimate already exceeds the
/// budget, [`SimError::Interrupted`] (carrying the checkpoint) if the
/// budget trips at a block boundary, and [`SimError::BadCheckpoint`] if
/// `resume` is inconsistent with this run's inputs.
///
/// # Example
///
/// ```
/// use dlp_circuit::generators;
/// use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
/// use dlp_sim::{detection, ppsfp, stuck_at};
///
/// let c17 = generators::c17();
/// let faults = stuck_at::enumerate(&c17).collapse();
/// let vectors = detection::random_vectors(5, 32, 3);
/// let record = ppsfp::simulate_resumable(
///     &c17,
///     faults.faults(),
///     &vectors,
///     ThreadCount::from_env()?,
///     Recorder::noop(),
///     &RunBudget::unlimited(),
///     None,
/// )?;
/// assert!(record.coverage_after(32) > 0.9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate_resumable(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    vectors: &[Vec<bool>],
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
    resume: Option<&SimCheckpoint>,
) -> Result<DetectionRecord, SimError> {
    // First-detect is the counted engine with a cap of 1: the rank-1
    // index of each fault *is* its first detection, a fault retires on
    // its first credit, and the per-block credit count equals the
    // per-block retirement count — so both the record and the trace are
    // exactly what the dedicated first-detect loop produced.
    let ranks = run_counted(
        "sim.gate",
        netlist,
        faults,
        vectors,
        1,
        threads,
        obs,
        budget,
        resume,
        WINDOW_FAULTS,
    )?;
    Ok(DetectionRecord::new(ranks.first_detect(), vectors.len()))
}

/// Count-capped simulation: like [`simulate_resumable`], but each fault
/// stays live until it has been detected `n_cap` times, and the profile
/// records the vector index of its 1st..`n_cap`-th detection.
///
/// With `n_cap = 1` the profile's rank-1 indices equal
/// [`simulate_resumable`]'s `first_detect` exactly — the counted mode is
/// a strict generalization.
///
/// Traced under the `sim.gate.counted` scope: fault / vector / block /
/// detected counters, the live-fault count entering each block
/// (`sim.gate.counted.live_per_block`), the detection credits assigned per
/// block (`sim.gate.counted.detects_per_block`, as both a series and a
/// histogram — note this counts *detections*, which can exceed the
/// number of faults retired), the per-block timing histogram
/// (`sim.gate.counted.block_nanos`), and per-worker timeline telemetry.
/// Tracing never perturbs the profile.
///
/// Budget and resume semantics are exactly those of
/// [`simulate_resumable`]: one check per freshly simulated block in the
/// serial outer loop, interruption surfaces a checkpoint, and resuming
/// reproduces the uninterrupted profile bit-identically at any thread
/// count.
///
/// # Errors
///
/// [`SimError::BadDetectionCap`] unless `n_cap ∈ 1..=`[`MAX_DETECTION_CAP`];
/// otherwise as [`simulate_resumable`].
///
/// # Example
///
/// ```
/// use dlp_circuit::generators;
/// use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
/// use dlp_sim::{detection, ppsfp, stuck_at};
///
/// let c17 = generators::c17();
/// let faults = stuck_at::enumerate(&c17).collapse();
/// let vectors = detection::random_vectors(5, 64, 7);
/// let profile = ppsfp::simulate_counted_resumable(
///     &c17,
///     faults.faults(),
///     &vectors,
///     3,
///     ThreadCount::from_env()?,
///     Recorder::noop(),
///     &RunBudget::unlimited(),
///     None,
/// )?;
/// // c17 is small: 64 random vectors detect every fault at least 3 times.
/// assert_eq!(profile.coverage_at_least(3), 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[allow(clippy::too_many_arguments)] // mirrors run_counted; a knob struct would hide the contract
pub fn simulate_counted_resumable(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    vectors: &[Vec<bool>],
    n_cap: usize,
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
    resume: Option<&SimCheckpoint>,
) -> Result<DetectionProfile, SimError> {
    let ranks = run_counted(
        "sim.gate.counted",
        netlist,
        faults,
        vectors,
        n_cap,
        threads,
        obs,
        budget,
        resume,
        WINDOW_FAULTS,
    )?;
    Ok(DetectionProfile::new(
        ranks.to_lists(),
        n_cap,
        vectors.len(),
    ))
}

/// Per-scope trace names, built once per run instead of per block.
struct ScopeNames {
    blocks: String,
    live: String,
    detects: String,
    nanos: String,
}

impl ScopeNames {
    fn new(scope: &str) -> ScopeNames {
        ScopeNames {
            blocks: format!("{scope}.blocks"),
            live: format!("{scope}.live_per_block"),
            detects: format!("{scope}.detects_per_block"),
            nanos: format!("{scope}.block_nanos"),
        }
    }
}

/// Validates a resume checkpoint against this run's shape and replays
/// the deterministic trace content of its completed blocks (block
/// counter, live/detect series, detection histogram — not timing, which
/// is never part of the determinism contract). Returns the restored
/// detection state and the first block left to simulate.
fn restore_checkpoint(
    ckpt: &SimCheckpoint,
    fault_count: usize,
    vectors_len: usize,
    n_cap: usize,
    obs: &Recorder,
    names: &ScopeNames,
) -> Result<(Ranks, usize), SimError> {
    let bad = |what: &'static str| SimError::BadCheckpoint { what };
    if ckpt.n_cap != n_cap {
        return Err(bad("detection cap differs from the run's"));
    }
    if ckpt.vectors_len != vectors_len {
        return Err(bad("vector count differs from the run's"));
    }
    if ckpt.detections.len() != fault_count {
        return Err(bad("fault count differs from the run's"));
    }
    let total_blocks = vectors_len.div_ceil(64);
    if ckpt.next_block > total_blocks {
        return Err(bad("records more blocks than the run has"));
    }
    let completed_vectors = (ckpt.next_block * 64).min(vectors_len);
    // credits[b] / leavers[b]: detections credited in block `b`, and
    // faults whose cap-th detection (which retires them) is in `b`.
    let mut credits = vec![0u64; ckpt.next_block];
    let mut leavers = vec![0usize; ckpt.next_block];
    for d in &ckpt.detections {
        if d.len() > n_cap {
            return Err(bad("a fault exceeds the detection cap"));
        }
        if !d.windows(2).all(|w| w[0] < w[1]) {
            return Err(bad("detection indices are not strictly increasing"));
        }
        if d.last().is_some_and(|&i| i >= completed_vectors) {
            return Err(bad("a detection index is outside the completed blocks"));
        }
        for &idx in d {
            credits[idx / 64] += 1;
        }
        if d.len() == n_cap {
            leavers[d[n_cap - 1] / 64] += 1;
        }
    }
    let mut live_count = fault_count;
    for b in 0..ckpt.next_block {
        if live_count == 0 {
            // The real run breaks out once every fault has retired; a
            // checkpoint claiming further blocks was never written by it.
            return Err(bad("records blocks past an exhausted live set"));
        }
        obs.incr(&names.blocks);
        obs.push(&names.live, live_count as f64);
        obs.push(&names.detects, credits[b] as f64);
        obs.observe(&names.detects, credits[b] as f64);
        live_count -= leavers[b];
    }
    Ok((Ranks::from_lists(&ckpt.detections, n_cap), ckpt.next_block))
}

/// Shared engine of both simulation modes: count-capped detection
/// (first-detect is the cap-1 instance) with cooperative budget checks
/// and optional resume, walking each block's live faults in windows of
/// `window` faults.
///
/// Exactly one budget check guards each freshly simulated block, in the
/// serial outer loop — so the set of possible interruption points, and
/// the checkpoint captured at each, is identical at every worker count
/// and every window.
#[allow(clippy::too_many_arguments)]
fn run_counted(
    scope: &'static str,
    netlist: &Netlist,
    faults: &[StuckAtFault],
    vectors: &[Vec<bool>],
    n_cap: usize,
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
    resume: Option<&SimCheckpoint>,
    window: usize,
) -> Result<Ranks, SimError> {
    let _span = obs.span(scope);
    if n_cap == 0 || n_cap > MAX_DETECTION_CAP {
        return Err(SimError::BadDetectionCap { cap: n_cap });
    }
    let mut setup = SimSetup::new(netlist, faults, vectors, window)?;
    let workers = threads.get();
    let total_blocks = vectors.len().div_ceil(64);

    // Up-front footprint estimate: the detection state's worst case
    // (faults × n_cap indices) plus the good-circuit words, each
    // worker's scratch copy, and the first window's cone cache —
    // measured, not guessed, and built now so that a fresh run's first
    // block reuses it.
    let first: Vec<usize> = (0..faults.len().min(setup.window)).collect();
    setup.cover(&first);
    let cone_bytes: u64 = setup
        .cached
        .iter()
        .map(|seed| 4 * setup.cones[seed.index()].len() as u64)
        .sum();
    let estimate = (faults.len() as u64)
        .saturating_mul(n_cap as u64)
        .saturating_mul(8)
        .saturating_add(
            (netlist.node_count() as u64)
                .saturating_mul(8)
                .saturating_mul(workers as u64 + 1),
        )
        .saturating_add(cone_bytes);
    if let Err(reason) = budget.check_memory(estimate) {
        return Err(SimError::Budget(BudgetExceeded {
            reason,
            completed: 0,
            total: total_blocks as u64,
        }));
    }

    let names = ScopeNames::new(scope);
    obs.add(&format!("{scope}.faults"), faults.len() as u64);
    obs.add(&format!("{scope}.vectors"), vectors.len() as u64);
    let (mut ranks, start_block) = match resume {
        Some(ckpt) => restore_checkpoint(ckpt, faults.len(), vectors.len(), n_cap, obs, &names)?,
        None => (Ranks::new(faults.len(), n_cap), 0),
    };
    let mut live: Vec<usize> = (0..faults.len()).filter(|&fi| ranks.is_live(fi)).collect();

    for (block_idx, block) in vectors.chunks(64).enumerate().skip(start_block) {
        if live.is_empty() {
            break;
        }
        if let Err(reason) = budget.check() {
            return Err(SimError::Interrupted {
                budget: BudgetExceeded {
                    reason,
                    completed: block_idx as u64,
                    total: total_blocks as u64,
                },
                checkpoint: Box::new(SimCheckpoint {
                    n_cap,
                    next_block: block_idx,
                    vectors_len: vectors.len(),
                    detections: ranks.to_lists(),
                }),
            });
        }
        let block_start = obs.is_enabled().then(std::time::Instant::now);
        obs.incr(&names.blocks);
        obs.push(&names.live, live.len() as f64);
        let good = setup.good_block(block);

        // Count-merge determinism rule: the masked difference word is a
        // pure function of (fault, block), and its set bits are consumed
        // in ascending bit order, so the rank-k detection index is the
        // global k-th smallest detecting vector index — `block_idx * 64`
        // plus the bit — for every worker count and window. A fault
        // leaves the live set only once its count reaches `n_cap`.
        let mut credited = 0u64;
        setup.detection_words(&good, &live, workers, obs, scope, |fi, diff| {
            credited += ranks.credit(fi, block_idx * 64, diff);
        });
        live.retain(|&fi| ranks.is_live(fi));
        obs.push(&names.detects, credited as f64);
        obs.observe(&names.detects, credited as f64);
        if let Some(start) = block_start {
            obs.observe(&names.nanos, start.elapsed().as_nanos() as f64);
        }
    }

    obs.add(
        &format!("{scope}.detected"),
        ranks.counts.iter().filter(|&&c| c > 0).count() as u64,
    );
    Ok(ranks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::random_vectors;
    use crate::stuck_at;
    use dlp_circuit::generators;
    use dlp_core::ckpt::Checkpoint;

    /// Unbudgeted, untraced first-detect run at the `DLP_THREADS` worker
    /// count, so both thread passes of the suite exercise it.
    fn first_detect(
        netlist: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
    ) -> Result<DetectionRecord, SimError> {
        let threads = ThreadCount::from_env().unwrap();
        let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
        simulate_resumable(netlist, faults, vectors, threads, obs, budget, None)
    }

    /// [`first_detect`] for the count-capped engine.
    fn counted(
        netlist: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
        n_cap: usize,
    ) -> Result<DetectionProfile, SimError> {
        let threads = ThreadCount::from_env().unwrap();
        let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
        simulate_counted_resumable(netlist, faults, vectors, n_cap, threads, obs, budget, None)
    }

    /// Brute-force single-pattern fault simulation for cross-checking.
    fn naive_detects(netlist: &Netlist, fault: &StuckAtFault, vector: &[bool]) -> bool {
        let words: Vec<u64> = vector.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let good = netlist.eval_words_all(&words);
        // Faulty evaluation, full circuit, 1-bit patterns.
        let mut faulty = vec![0u64; netlist.node_count()];
        for id in netlist.node_ids() {
            let kind = netlist.kind(id);
            let mut v = if kind == GateKind::Input {
                words[netlist.inputs().iter().position(|&x| x == id).unwrap()]
            } else {
                let fan: Vec<u64> = netlist
                    .fanin(id)
                    .iter()
                    .enumerate()
                    .map(|(pin, &f)| {
                        if fault.site == (FaultSite::Branch { gate: id, pin }) {
                            if fault.stuck_at_one {
                                u64::MAX
                            } else {
                                0
                            }
                        } else {
                            faulty[f.index()]
                        }
                    })
                    .collect();
                kind.eval_words(&fan)
            };
            if fault.site == FaultSite::Stem(id) {
                v = if fault.stuck_at_one { u64::MAX } else { 0 };
            }
            faulty[id.index()] = v;
        }
        netlist
            .outputs()
            .iter()
            .any(|o| (faulty[o.index()] ^ good[o.index()]) & 1 != 0)
    }

    #[test]
    fn agrees_with_naive_simulation_on_c17() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17);
        let vectors = random_vectors(5, 100, 11);
        let record = first_detect(&c17, faults.faults(), &vectors).unwrap();
        for (fi, fault) in faults.faults().iter().enumerate() {
            let expected = vectors.iter().position(|v| naive_detects(&c17, fault, v));
            assert_eq!(
                record.first_detect()[fi],
                expected,
                "fault {}",
                fault.describe(&c17)
            );
        }
    }

    #[test]
    fn agrees_with_naive_on_c432_class_sampled() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 96, 5);
        let record = first_detect(&nl, faults.faults(), &vectors).unwrap();
        // Spot-check every 7th fault against the naive simulator.
        for (fi, fault) in faults.faults().iter().enumerate().step_by(7) {
            let expected = vectors.iter().position(|v| naive_detects(&nl, fault, v));
            assert_eq!(
                record.first_detect()[fi],
                expected,
                "fault {}",
                fault.describe(&nl)
            );
        }
    }

    #[test]
    fn c17_full_coverage_with_random_vectors() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let vectors = random_vectors(5, 64, 7);
        let record = first_detect(&c17, faults.faults(), &vectors).unwrap();
        assert_eq!(
            record.detected_count(),
            faults.len(),
            "c17 has no redundant faults"
        );
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 1024, 9);
        let record = first_detect(&nl, faults.faults(), &vectors).unwrap();
        let curve = record.coverage_curve();
        assert!(curve.windows(2).all(|w| w[1] >= w[0]));
        // The paper observes >80 % stuck-at coverage from random vectors.
        assert!(
            record.coverage_after(1024) > 0.8,
            "random coverage {}",
            record.coverage_after(1024)
        );
    }

    #[test]
    fn detected_fault_is_dropped_not_reused() {
        // A fault detected in block 0 must keep its first-detect index even
        // if later vectors also detect it.
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17);
        let mut vectors = random_vectors(5, 64, 3);
        vectors.extend(random_vectors(5, 64, 3)); // repeat the same block
        let record = first_detect(&c17, faults.faults(), &vectors).unwrap();
        for d in record.first_detect().iter().flatten() {
            assert!(*d < 64, "first detection must come from the first block");
        }
    }

    #[test]
    fn partial_final_block_is_masked() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17);
        // 70 vectors: final block has 6 patterns; detections must never
        // report an index >= 70.
        let vectors = random_vectors(5, 70, 13);
        let record = first_detect(&c17, faults.faults(), &vectors).unwrap();
        for d in record.first_detect().iter().flatten() {
            assert!(*d < 70);
        }
    }

    #[test]
    fn out_of_range_fault_sites_are_typed_errors() {
        use dlp_circuit::NodeId;

        let c17 = generators::c17();
        let beyond = NodeId::from_index(c17.node_count());
        let stem = StuckAtFault {
            site: FaultSite::Stem(beyond),
            stuck_at_one: true,
        };
        let vectors = random_vectors(5, 8, 1);
        assert_eq!(
            first_detect(&c17, &[stem], &vectors),
            Err(SimError::FaultOutOfRange {
                fault: 0,
                what: "node"
            })
        );
        let branch_gate = StuckAtFault {
            site: FaultSite::Branch {
                gate: beyond,
                pin: 0,
            },
            stuck_at_one: false,
        };
        // Put a valid fault first so the reported index is the offender's.
        let valid = StuckAtFault {
            site: FaultSite::Stem(NodeId::from_index(0)),
            stuck_at_one: false,
        };
        assert_eq!(
            first_detect(&c17, &[valid, branch_gate], &vectors),
            Err(SimError::FaultOutOfRange {
                fault: 1,
                what: "gate"
            })
        );
        // A real gate, but a pin past its fanin.
        let gate = c17.node_ids().find(|&n| !c17.fanin(n).is_empty()).unwrap();
        let branch_pin = StuckAtFault {
            site: FaultSite::Branch {
                gate,
                pin: c17.fanin(gate).len(),
            },
            stuck_at_one: true,
        };
        assert_eq!(
            first_detect(&c17, &[valid, branch_pin], &vectors),
            Err(SimError::FaultOutOfRange {
                fault: 1,
                what: "input pin"
            })
        );
    }

    #[test]
    fn counted_agrees_with_naive_simulation_on_c17() {
        // The rank-k index must be the index of the k-th vector (in
        // sequence order) that detects the fault, for every rank ≤ cap.
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17);
        let vectors = random_vectors(5, 100, 11);
        let n_cap = 4;
        let profile = counted(&c17, faults.faults(), &vectors, n_cap).unwrap();
        for (fi, fault) in faults.faults().iter().enumerate() {
            let expected: Vec<usize> = vectors
                .iter()
                .enumerate()
                .filter_map(|(i, v)| naive_detects(&c17, fault, v).then_some(i))
                .take(n_cap)
                .collect();
            assert_eq!(
                profile.detections(fi),
                expected.as_slice(),
                "fault {}",
                fault.describe(&c17)
            );
        }
    }

    #[test]
    fn counted_with_cap_one_equals_first_detect() {
        // Acceptance criterion: n_cap = 1 rank-1 indices are exactly the
        // first-detect record of the plain simulator.
        for (nl, width, n, seed) in [
            (generators::c17(), 5, 70, 13),
            (generators::c432_class(), 36, 256, 33),
        ] {
            let faults = stuck_at::enumerate(&nl).collapse();
            let vectors = random_vectors(width, n, seed);
            let record = first_detect(&nl, faults.faults(), &vectors).unwrap();
            let profile = counted(&nl, faults.faults(), &vectors, 1).unwrap();
            assert_eq!(profile.first_detect_record(), record, "{}", nl.name());
        }
    }

    #[test]
    fn counted_counts_are_monotone_in_cap_and_masked() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        // 70 vectors: the partial final block must not contribute
        // phantom detections past index 69.
        let vectors = random_vectors(5, 70, 13);
        let mut prev: Option<Vec<usize>> = None;
        for cap in [1usize, 2, 5, 70] {
            let p = counted(&c17, faults.faults(), &vectors, cap).unwrap();
            for j in 0..faults.len() {
                assert!(p.count(j) <= cap);
                assert!(p.detections(j).iter().all(|&i| i < 70));
                assert!(p.detections(j).windows(2).all(|w| w[0] < w[1]));
            }
            if let Some(prev) = prev {
                for (j, &c) in prev.iter().enumerate() {
                    assert!(p.count(j) >= c, "count must not shrink as the cap grows");
                }
            }
            prev = Some(p.counts());
        }
    }

    #[test]
    fn counted_rejects_bad_caps() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let vectors = random_vectors(5, 8, 1);
        for cap in [0usize, MAX_DETECTION_CAP + 1, usize::MAX] {
            assert_eq!(
                counted(&c17, faults.faults(), &vectors, cap),
                Err(SimError::BadDetectionCap { cap })
            );
        }
        assert!(counted(&c17, faults.faults(), &vectors, MAX_DETECTION_CAP).is_ok());
    }

    #[test]
    fn counted_validates_fault_sites() {
        use dlp_circuit::NodeId;

        let c17 = generators::c17();
        let beyond = StuckAtFault {
            site: FaultSite::Stem(NodeId::from_index(c17.node_count())),
            stuck_at_one: true,
        };
        assert_eq!(
            counted(&c17, &[beyond], &random_vectors(5, 8, 1), 2),
            Err(SimError::FaultOutOfRange {
                fault: 0,
                what: "node"
            })
        );
    }

    /// The deterministic slice of a simulation trace: counters, series,
    /// and the detection histogram — everything except timing and
    /// worker telemetry, which the determinism contract excludes.
    #[allow(clippy::type_complexity)]
    fn trace_fingerprint(
        obs: &Recorder,
        scope: &str,
    ) -> (
        Vec<(String, u64)>,
        Vec<(String, Vec<f64>)>,
        Option<(u64, Vec<(f64, u64)>)>,
    ) {
        let report = obs.report(scope);
        let counters = report
            .counters
            .iter()
            .filter(|(n, _)| {
                n.starts_with(scope)
                    && !n.contains("worker")
                    && !n.contains("nanos")
                    && !n.contains("wall")
                    && !n.contains("slot")
            })
            .cloned()
            .collect();
        let series = report
            .series
            .iter()
            .filter(|(n, _)| n.ends_with("live_per_block") || n.ends_with("detects_per_block"))
            .cloned()
            .collect();
        let hist = report
            .hist(&format!("{scope}.detects_per_block"))
            .map(|h| (h.count, h.buckets.to_vec()));
        (counters, series, hist)
    }

    #[test]
    fn counted_interrupt_and_resume_is_bit_identical() {
        use dlp_core::obs::Recorder;
        use dlp_core::par::ThreadCount;
        use dlp_core::RunBudget;

        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 256, 33);
        let n_cap = 2;
        let reference_obs = Recorder::enabled();
        let reference = simulate_counted_resumable(
            &nl,
            faults.faults(),
            &vectors,
            n_cap,
            ThreadCount::fixed(1).unwrap(),
            &reference_obs,
            &RunBudget::unlimited(),
            None,
        )
        .unwrap();
        let reference_trace = trace_fingerprint(&reference_obs, "sim.gate.counted");
        // Blocks the uninterrupted run actually simulated (it may break
        // early once every fault reaches the cap).
        let simulated = reference_obs
            .report("sim.gate.counted")
            .counter("sim.gate.counted.blocks")
            .unwrap();
        assert!(simulated >= 2, "need at least two blocks to interrupt");

        for kill in 0..simulated {
            for t in [1usize, 2, 4] {
                let threads = ThreadCount::fixed(t).unwrap();
                let budget = RunBudget::unlimited().cancel_after_checks(kill);
                let err = simulate_counted_resumable(
                    &nl,
                    faults.faults(),
                    &vectors,
                    n_cap,
                    threads,
                    Recorder::noop(),
                    &budget,
                    None,
                )
                .expect_err("fuse below the block count must interrupt");
                let (info, ckpt) = match err {
                    SimError::Interrupted { budget, checkpoint } => (budget, checkpoint),
                    other => panic!("kill={kill} t={t}: expected Interrupted, got {other:?}"),
                };
                assert_eq!(info.completed, kill, "kill={kill} t={t}");
                assert_eq!(info.total, 4);
                assert_eq!(ckpt.next_block, kill as usize);
                // Round-trip through the sealed on-disk envelope.
                let key = SimCheckpoint::key(&nl, faults.faults(), &vectors, n_cap);
                let sealed = dlp_core::ckpt::seal(SimCheckpoint::KIND, key, &ckpt.to_payload());
                let payload = dlp_core::ckpt::open(&sealed, SimCheckpoint::KIND, key).unwrap();
                let restored = SimCheckpoint::from_payload(&payload).unwrap();
                assert_eq!(restored, *ckpt);
                // Resume and compare against the uninterrupted run.
                let resume_obs = Recorder::enabled();
                let resumed = simulate_counted_resumable(
                    &nl,
                    faults.faults(),
                    &vectors,
                    n_cap,
                    threads,
                    &resume_obs,
                    &RunBudget::unlimited(),
                    Some(&restored),
                )
                .unwrap();
                assert_eq!(resumed, reference, "kill={kill} t={t}");
                assert_eq!(
                    trace_fingerprint(&resume_obs, "sim.gate.counted"),
                    reference_trace,
                    "kill={kill} t={t}: resumed trace must match"
                );
            }
        }
    }

    #[test]
    fn first_detect_interrupt_and_resume_is_bit_identical() {
        use dlp_core::obs::Recorder;
        use dlp_core::par::ThreadCount;
        use dlp_core::RunBudget;

        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 192, 5);
        let reference_obs = Recorder::enabled();
        let reference = simulate_resumable(
            &nl,
            faults.faults(),
            &vectors,
            ThreadCount::fixed(1).unwrap(),
            &reference_obs,
            &RunBudget::unlimited(),
            None,
        )
        .unwrap();
        let reference_trace = trace_fingerprint(&reference_obs, "sim.gate");
        let simulated = reference_obs
            .report("sim.gate")
            .counter("sim.gate.blocks")
            .unwrap();

        for kill in 1..simulated {
            for t in [1usize, 2, 4] {
                let threads = ThreadCount::fixed(t).unwrap();
                let budget = RunBudget::unlimited().cancel_after_checks(kill);
                let err = simulate_resumable(
                    &nl,
                    faults.faults(),
                    &vectors,
                    threads,
                    Recorder::noop(),
                    &budget,
                    None,
                )
                .expect_err("fuse below the block count must interrupt");
                let ckpt = match err {
                    SimError::Interrupted { checkpoint, .. } => checkpoint,
                    other => panic!("kill={kill} t={t}: expected Interrupted, got {other:?}"),
                };
                let resume_obs = Recorder::enabled();
                let resumed = simulate_resumable(
                    &nl,
                    faults.faults(),
                    &vectors,
                    threads,
                    &resume_obs,
                    &RunBudget::unlimited(),
                    Some(&ckpt),
                )
                .unwrap();
                assert_eq!(resumed, reference, "kill={kill} t={t}");
                assert_eq!(
                    trace_fingerprint(&resume_obs, "sim.gate"),
                    reference_trace,
                    "kill={kill} t={t}: resumed trace must match"
                );
            }
        }
    }

    #[test]
    fn double_interrupt_then_resume_still_matches() {
        use dlp_core::obs::Recorder;
        use dlp_core::par::ThreadCount;
        use dlp_core::RunBudget;

        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 256, 33);
        let threads = ThreadCount::fixed(2).unwrap();
        let reference = counted(&nl, faults.faults(), &vectors, 2).unwrap();
        // First interrupt after 1 block, second after 1 more.
        let first = simulate_counted_resumable(
            &nl,
            faults.faults(),
            &vectors,
            2,
            threads,
            Recorder::noop(),
            &RunBudget::unlimited().cancel_after_checks(1),
            None,
        )
        .expect_err("first fuse");
        let SimError::Interrupted { checkpoint, .. } = first else {
            panic!("expected Interrupted");
        };
        let second = simulate_counted_resumable(
            &nl,
            faults.faults(),
            &vectors,
            2,
            threads,
            Recorder::noop(),
            &RunBudget::unlimited().cancel_after_checks(1),
            Some(&checkpoint),
        )
        .expect_err("second fuse");
        let SimError::Interrupted { budget, checkpoint } = second else {
            panic!("expected Interrupted");
        };
        assert_eq!(budget.completed, 2, "progress accumulates across resumes");
        assert_eq!(checkpoint.next_block, 2);
        let finished = simulate_counted_resumable(
            &nl,
            faults.faults(),
            &vectors,
            2,
            threads,
            Recorder::noop(),
            &RunBudget::unlimited(),
            Some(&checkpoint),
        )
        .unwrap();
        assert_eq!(finished, reference);
    }

    #[test]
    fn resume_rejects_inconsistent_checkpoints() {
        use dlp_core::obs::Recorder;
        use dlp_core::par::ThreadCount;
        use dlp_core::RunBudget;

        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let vectors = random_vectors(5, 128, 7);
        let n_faults = faults.len();
        let threads = ThreadCount::fixed(1).unwrap();
        let run = |ckpt: &SimCheckpoint| {
            simulate_counted_resumable(
                &c17,
                faults.faults(),
                &vectors,
                2,
                threads,
                Recorder::noop(),
                &RunBudget::unlimited(),
                Some(ckpt),
            )
        };
        let good = SimCheckpoint {
            n_cap: 2,
            next_block: 1,
            vectors_len: 128,
            detections: vec![Vec::new(); n_faults],
        };
        assert!(run(&good).is_ok(), "an empty one-block checkpoint resumes");
        for (label, bad) in [
            (
                "cap",
                SimCheckpoint {
                    n_cap: 3,
                    ..good.clone()
                },
            ),
            (
                "vectors",
                SimCheckpoint {
                    vectors_len: 64,
                    ..good.clone()
                },
            ),
            (
                "faults",
                SimCheckpoint {
                    detections: vec![Vec::new(); n_faults + 1],
                    ..good.clone()
                },
            ),
            (
                "blocks",
                SimCheckpoint {
                    next_block: 3,
                    ..good.clone()
                },
            ),
            (
                "index range",
                SimCheckpoint {
                    detections: {
                        let mut d = vec![Vec::new(); n_faults];
                        d[0] = vec![64]; // not within the 1 completed block
                        d
                    },
                    ..good.clone()
                },
            ),
            (
                "ordering",
                SimCheckpoint {
                    detections: {
                        let mut d = vec![Vec::new(); n_faults];
                        d[0] = vec![5, 5];
                        d
                    },
                    ..good.clone()
                },
            ),
            (
                "over cap",
                SimCheckpoint {
                    detections: {
                        let mut d = vec![Vec::new(); n_faults];
                        d[0] = vec![1, 2, 3];
                        d
                    },
                    ..good.clone()
                },
            ),
            (
                "exhausted live set",
                SimCheckpoint {
                    next_block: 2,
                    detections: vec![vec![0, 1]; n_faults],
                    ..good.clone()
                },
            ),
        ] {
            assert!(
                matches!(run(&bad), Err(SimError::BadCheckpoint { .. })),
                "{label} inconsistency must be a typed error"
            );
        }
    }

    #[test]
    fn memory_budget_gates_up_front() {
        use dlp_core::obs::Recorder;
        use dlp_core::par::ThreadCount;
        use dlp_core::{BudgetReason, RunBudget};

        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let vectors = random_vectors(5, 64, 7);
        let err = simulate_counted_resumable(
            &c17,
            faults.faults(),
            &vectors,
            2,
            ThreadCount::fixed(1).unwrap(),
            Recorder::noop(),
            &RunBudget::unlimited().with_memory_limit(16),
            None,
        )
        .expect_err("a 16-byte budget cannot fit any simulation");
        match err {
            SimError::Budget(b) => {
                assert_eq!(b.completed, 0);
                assert!(matches!(b.reason, BudgetReason::Memory { .. }));
            }
            other => panic!("expected Budget, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_file_round_trip_binds_the_inputs() {
        use std::path::PathBuf;

        let dir: PathBuf = [
            env!("CARGO_MANIFEST_DIR"),
            "..",
            "..",
            "target",
            "tmp",
            concat!("sim_ckpt_", env!("CARGO_PKG_NAME")),
        ]
        .iter()
        .collect();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("ppsfp_{}.ckpt", std::process::id()));
        let path = path.to_str().unwrap();

        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let vectors = random_vectors(5, 128, 7);
        let ckpt = SimCheckpoint {
            n_cap: 2,
            next_block: 1,
            vectors_len: 128,
            detections: vec![Vec::new(); faults.len()],
        };
        let key = |n_cap| SimCheckpoint::key(&c17, faults.faults(), &vectors, n_cap);
        ckpt.save(path, key(2)).unwrap();
        let loaded = SimCheckpoint::load(path, key(2)).unwrap();
        assert_eq!(loaded, ckpt);
        // A different cap derives a different key: the stale file must
        // be rejected, not silently reinterpreted.
        assert!(matches!(
            SimCheckpoint::load(path, key(3)),
            Err(dlp_core::CkptError::KeyMismatch { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    /// The engine at an explicit window, as per-fault detection lists.
    #[allow(clippy::too_many_arguments)]
    fn windowed(
        nl: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
        n_cap: usize,
        workers: usize,
        budget: &RunBudget,
        resume: Option<&SimCheckpoint>,
        window: usize,
    ) -> Result<Vec<Vec<usize>>, SimError> {
        let threads = ThreadCount::fixed(workers).unwrap();
        let obs = Recorder::noop();
        let ranks = run_counted(
            "sim.gate", nl, faults, vectors, n_cap, threads, obs, budget, resume, window,
        )?;
        Ok(ranks.to_lists())
    }

    #[test]
    fn every_window_matches_the_single_window_run() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let f = faults.faults();
        let vectors = random_vectors(36, 192, 5);
        let unlimited = RunBudget::unlimited();
        for n_cap in [1, 3] {
            let reference =
                windowed(&nl, f, &vectors, n_cap, 1, &unlimited, None, WINDOW_FAULTS).unwrap();
            assert!(f.len() < WINDOW_FAULTS, "the reference must be one window");
            for window in [1, 7, 64, f.len(), f.len() + 100] {
                for workers in [1, 2, 4] {
                    let got = windowed(&nl, f, &vectors, n_cap, workers, &unlimited, None, window)
                        .unwrap();
                    assert_eq!(
                        got, reference,
                        "cap {n_cap} window {window} workers {workers}"
                    );
                }
            }
        }
        let empty = windowed(&nl, &[], &vectors, 1, 2, &unlimited, None, 7).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn windowed_interrupt_and_resume_is_bit_identical() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let f = faults.faults();
        let vectors = random_vectors(36, 256, 33);
        let (n_cap, window) = (2, 7);
        let unlimited = RunBudget::unlimited();
        let reference = windowed(&nl, f, &vectors, n_cap, 1, &unlimited, None, window).unwrap();
        for kill in 0..vectors.len().div_ceil(64) as u64 {
            for workers in [1, 2, 4] {
                let fuse = RunBudget::unlimited().cancel_after_checks(kill);
                let ckpt = match windowed(&nl, f, &vectors, n_cap, workers, &fuse, None, window) {
                    Err(SimError::Interrupted { checkpoint, .. }) => checkpoint,
                    other => panic!("kill={kill} workers={workers}: got {other:?}"),
                };
                assert_eq!(ckpt.next_block, kill as usize);
                let resumed = windowed(
                    &nl,
                    f,
                    &vectors,
                    n_cap,
                    workers,
                    &unlimited,
                    Some(&ckpt),
                    window,
                )
                .unwrap();
                assert_eq!(resumed, reference, "kill={kill} workers={workers}");
            }
        }
    }

    #[test]
    fn partial_block_first_detect_is_global_with_parallel_merge() {
        use dlp_core::par::ThreadCount;

        // 70 vectors (partial final block) with 3 workers: the regression
        // the audit asks for — every first-detect index must be the global
        // minimum, never a worker-local bit index, and the whole record
        // must match the serial path bit for bit.
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17);
        let vectors = random_vectors(5, 70, 13);
        let serial = simulate_resumable(
            &c17,
            faults.faults(),
            &vectors,
            ThreadCount::fixed(1).unwrap(),
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )
        .unwrap();
        let parallel = simulate_resumable(
            &c17,
            faults.faults(),
            &vectors,
            ThreadCount::fixed(3).unwrap(),
            Recorder::noop(),
            &RunBudget::unlimited(),
            None,
        )
        .unwrap();
        assert_eq!(serial, parallel);
        for (fi, fault) in faults.faults().iter().enumerate() {
            let expected = vectors.iter().position(|v| naive_detects(&c17, fault, v));
            assert_eq!(
                parallel.first_detect()[fi],
                expected,
                "fault {}",
                fault.describe(&c17)
            );
            if let Some(d) = parallel.first_detect()[fi] {
                assert!(d < 70, "index past the 70 used patterns");
            }
        }
    }
}
