//! The n-detect test-set builder: greedy forward selection over a random
//! vector pool, then per-rank PODEM top-ups.
//!
//! The builder produces an *incremental schedule*: targets `1..=max_n`
//! are satisfied in order and vectors are only ever appended, so the test
//! set for target `n` is a prefix of the set for `n + 1`. Measurements
//! over the prefixes (coverage, θ, DL) are therefore monotone in `n` by
//! construction, which is what the DL-vs-n experiment relies on.
//!
//! Everything is deterministic: the pool, the greedy tie-break (lowest
//! pool index), PODEM's search, and the don't-care fill streams are all
//! fixed by the seeds in [`NDetectConfig`].

use dlp_atpg::podem::{Podem, PodemOutcome};
use dlp_circuit::Netlist;
use dlp_core::obs::Recorder;
use dlp_core::par::ThreadCount;
use dlp_core::rng::Xorshift64Star;
use dlp_core::{BudgetExceeded, RunBudget};
use dlp_sim::detection::random_vectors;
use dlp_sim::ppsfp::{self, MAX_DETECTION_CAP};
use dlp_sim::stuck_at::StuckAtFault;

use crate::ckpt::NDetectCheckpoint;
use crate::NDetectError;

/// Builder configuration. The defaults match the ATPG crate's random
/// phase: a 1024-vector pool and a 20 000-backtrack PODEM budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NDetectConfig {
    /// Size of the random candidate pool the greedy phase selects from.
    pub pool_size: usize,
    /// Seed of the pool's xorshift64* stream.
    pub pool_seed: u64,
    /// PODEM backtrack limit per (fault, rank) top-up.
    pub backtrack_limit: usize,
    /// Base seed of the don't-care fill streams; each (fault, rank) pair
    /// derives its own stream from it.
    pub fill_seed: u64,
}

impl Default for NDetectConfig {
    fn default() -> Self {
        NDetectConfig {
            pool_size: 1024,
            pool_seed: 1,
            backtrack_limit: 20_000,
            fill_seed: 1,
        }
    }
}

/// An incremental n-detect schedule: the chosen vector sequence plus the
/// prefix length satisfying each target `n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NDetectSchedule {
    /// The chosen vectors: greedy pool picks and PODEM top-ups for target
    /// 1, then the additions for target 2, and so on.
    pub vectors: Vec<Vec<bool>>,
    /// `len_at[n - 1]` is the prefix length whose vectors satisfy target
    /// `n` (every fault detected `min(n, achievable)` times).
    pub len_at: Vec<usize>,
    /// Per-fault detection counts of the full sequence, capped at the
    /// maximum target (measured by a final counted simulation).
    pub counts: Vec<usize>,
    /// How many of the vectors came from the greedy pool phase.
    pub pool_selected: usize,
    /// Faults stuck below the maximum target, as `(fault index, achieved
    /// count)` — redundant faults (count 0) and PODEM aborts.
    pub below_target: Vec<(usize, usize)>,
}

impl NDetectSchedule {
    /// The test-set prefix for target `n`, or `None` if `n` is zero or
    /// beyond the schedule's maximum target.
    pub fn test_set(&self, n: usize) -> Option<&[Vec<bool>]> {
        if n == 0 || n > self.len_at.len() {
            return None;
        }
        Some(&self.vectors[..self.len_at[n - 1]])
    }

    /// The schedule's maximum target.
    pub fn max_n(&self) -> usize {
        self.len_at.len()
    }
}

/// Derives the don't-care fill stream for a (fault, rank) top-up: a
/// distinct, deterministic xorshift64* seed per pair, so each extra rank
/// fills the same test cube differently and excites the site under a new
/// input condition.
fn fill_stream(base: u64, fault: usize, rank: usize) -> Xorshift64Star {
    let salt = (fault as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rank as u64).rotate_left(32));
    Xorshift64Star::new(base ^ salt)
}

/// Builds an incremental n-detect schedule for targets `1..=max_n`.
///
/// Phase 1 (per target): greedy forward selection over the random pool —
/// repeatedly pick the unselected pool vector that lifts the most faults
/// still below their requirement `min(n, pool-achievable)`, lowest index
/// on ties, until no pick gains anything.
///
/// Phase 2 (per target): PODEM top-ups for faults the pool left below
/// `n`. The cube for a fault is deterministic, so rank diversity comes
/// from the fill: each (fault, rank) pair fills the cube's don't-cares
/// from its own stream (see [`NDetectConfig::fill_seed`]), retrying a few
/// times when the filled vector duplicates one already chosen. Every
/// top-up vector is fault-simulated so cross-detections are credited.
/// Faults PODEM proves redundant or aborts on are reported in
/// [`NDetectSchedule::below_target`].
///
/// # Errors
///
/// [`NDetectError::BadTarget`] unless
/// `max_n ∈ 1..=`[`MAX_DETECTION_CAP`]; [`NDetectError::Sim`] if a fault
/// site is out of range for the netlist.
pub fn build_schedule(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    max_n: usize,
    config: &NDetectConfig,
) -> Result<NDetectSchedule, NDetectError> {
    build_schedule_resumable(
        netlist,
        faults,
        max_n,
        config,
        &RunBudget::unlimited(),
        None,
    )
}

/// Validates a resume checkpoint against this build's shape and returns
/// the target to continue from.
fn restore_checkpoint(
    ckpt: &NDetectCheckpoint,
    fault_count: usize,
    pool_len: usize,
    n_in: usize,
    max_n: usize,
) -> Result<usize, NDetectError> {
    let bad = |what: &'static str| NDetectError::BadCheckpoint { what };
    if ckpt.next_target == 0 || ckpt.next_target > max_n {
        return Err(bad("next target is outside the build's range"));
    }
    if ckpt.len_at.len() != ckpt.next_target - 1 {
        return Err(bad("prefix lengths do not match the completed targets"));
    }
    if ckpt.counts.len() != fault_count || ckpt.hopeless.len() != fault_count {
        return Err(bad("fault count differs from the build's"));
    }
    if ckpt.selected.len() != pool_len {
        return Err(bad("pool size differs from the build's"));
    }
    if ckpt.pool_selected != ckpt.selected.iter().filter(|&&s| s).count()
        || ckpt.pool_selected > ckpt.vectors.len()
    {
        return Err(bad("pool-selection bookkeeping is inconsistent"));
    }
    if !ckpt.len_at.windows(2).all(|w| w[0] <= w[1])
        || ckpt.len_at.last().is_some_and(|&l| l > ckpt.vectors.len())
    {
        return Err(bad("prefix lengths are not a monotone prefix chain"));
    }
    if ckpt.vectors.iter().any(|v| v.len() != n_in) {
        return Err(bad("a vector's width differs from the circuit's inputs"));
    }
    Ok(ckpt.next_target)
}

/// [`build_schedule`] under a cooperative [`RunBudget`], resumable from
/// an [`NDetectCheckpoint`].
///
/// The budget is checked once per target (the schedule's natural unit
/// of progress: prefix test sets). On a trip the error carries a
/// checkpoint holding the satisfied-target prefix; passing it back as
/// `resume` (same netlist, faults, target, and config) continues the
/// build and reproduces the uninterrupted schedule bit-identically —
/// the builder is deterministic, and its fault simulations are
/// bit-identical at every thread count, so the thread count never enters
/// the picture.
///
/// # Errors
///
/// As [`build_schedule`], plus [`NDetectError::Budget`] if the memory
/// estimate already exceeds the budget, [`NDetectError::Interrupted`]
/// (carrying the checkpoint) if the budget trips at a target boundary,
/// and [`NDetectError::BadCheckpoint`] if `resume` is inconsistent with
/// this build's inputs.
pub fn build_schedule_resumable(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    max_n: usize,
    config: &NDetectConfig,
    budget: &RunBudget,
    resume: Option<&NDetectCheckpoint>,
) -> Result<NDetectSchedule, NDetectError> {
    if max_n == 0 || max_n > MAX_DETECTION_CAP {
        return Err(NDetectError::BadTarget { n: max_n });
    }
    let n_in = netlist.inputs().len();

    // Up-front footprint estimate: the pool itself plus the capped pool
    // profile (faults × max_n detection indices).
    let estimate = (config.pool_size as u64)
        .saturating_mul(n_in as u64)
        .saturating_add(
            (faults.len() as u64)
                .saturating_mul(max_n as u64)
                .saturating_mul(8),
        );
    if let Err(reason) = budget.check_memory(estimate) {
        return Err(NDetectError::Budget(BudgetExceeded {
            reason,
            completed: 0,
            total: max_n as u64,
        }));
    }

    let pool = random_vectors(n_in, config.pool_size, config.pool_seed);
    // The builder's own simulations run unbudgeted on every available
    // core: `budget` guards the target boundaries only, and the records
    // do not depend on the worker count.
    let (threads, obs, unlimited) = (ThreadCount::Auto, Recorder::noop(), &RunBudget::unlimited());
    let counted = |vectors: &[Vec<bool>]| {
        ppsfp::simulate_counted_resumable(
            netlist, faults, vectors, max_n, threads, obs, unlimited, None,
        )
    };

    // Pool detection structure, capped at max_n entries per fault — all a
    // requirement of min(n, achievable) can ever consume. `by_vector`
    // inverts it so the greedy gain scan touches only recorded pairs.
    // (An empty pool skips straight to the PODEM phase; the capped
    // simulation itself validates the fault sites either way.)
    let profile = counted(&pool)?;
    let avail: Vec<usize> = profile.counts();
    let mut by_vector: Vec<Vec<usize>> = vec![Vec::new(); pool.len()];
    for j in 0..faults.len() {
        for &v in profile.detections(j) {
            by_vector[v].push(j);
        }
    }

    let engine = Podem::new(netlist, config.backtrack_limit);
    let start_n = match resume {
        Some(ckpt) => restore_checkpoint(ckpt, faults.len(), pool.len(), n_in, max_n)?,
        None => 1,
    };
    let mut vectors: Vec<Vec<bool>> = resume.map_or_else(Vec::new, |c| c.vectors.clone());
    let mut len_at: Vec<usize> =
        resume.map_or_else(|| Vec::with_capacity(max_n), |c| c.len_at.clone());
    // counts[j]: detections of fault j by the chosen sequence so far.
    // Pool picks credit their recorded pairs; top-ups credit through a
    // truth simulation — both only ever undercount the real sequence, so
    // the schedule can only over-satisfy its targets, never miss them.
    let mut counts: Vec<usize> = resume.map_or_else(|| vec![0; faults.len()], |c| c.counts.clone());
    let mut selected: Vec<bool> =
        resume.map_or_else(|| vec![false; pool.len()], |c| c.selected.clone());
    let mut pool_selected = resume.map_or(0usize, |c| c.pool_selected);
    let mut hopeless: Vec<bool> =
        resume.map_or_else(|| vec![false; faults.len()], |c| c.hopeless.clone());

    for n in start_n..=max_n {
        if let Err(reason) = budget.check() {
            return Err(NDetectError::Interrupted {
                budget: BudgetExceeded {
                    reason,
                    completed: (n - 1) as u64,
                    total: max_n as u64,
                },
                checkpoint: Box::new(NDetectCheckpoint {
                    next_target: n,
                    vectors,
                    len_at,
                    counts,
                    selected,
                    pool_selected,
                    hopeless,
                }),
            });
        }
        // Phase 1: greedy forward selection from the pool.
        loop {
            let mut best: Option<(usize, usize)> = None; // (gain, index)
            for (v, detected) in by_vector.iter().enumerate() {
                if selected[v] {
                    continue;
                }
                let gain = detected
                    .iter()
                    .filter(|&&j| counts[j] < n.min(avail[j]))
                    .count();
                if gain > 0 && best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, v));
                }
            }
            let Some((_, v)) = best else { break };
            selected[v] = true;
            pool_selected += 1;
            vectors.push(pool[v].clone());
            for &j in &by_vector[v] {
                counts[j] += 1;
            }
        }

        // Phase 2: PODEM top-ups for faults the pool left below n.
        for j in 0..faults.len() {
            if hopeless[j] {
                continue;
            }
            while counts[j] < n {
                let rank = counts[j] + 1;
                match engine.generate(&faults[j]) {
                    PodemOutcome::Test(cube) => {
                        let mut rng = fill_stream(config.fill_seed, j, rank);
                        let mut vector: Vec<bool> = cube
                            .iter()
                            .map(|c| c.unwrap_or_else(|| rng.next_bool()))
                            .collect();
                        // A duplicate vector re-applies an already-counted
                        // pattern; refill (bounded) to excite the site
                        // under a genuinely new input condition.
                        let mut attempts = 0;
                        while vectors.contains(&vector) && attempts < 16 {
                            vector = cube
                                .iter()
                                .map(|c| c.unwrap_or_else(|| rng.next_bool()))
                                .collect();
                            attempts += 1;
                        }
                        // Credit the new vector against every fault still
                        // below the final target.
                        let live: Vec<usize> =
                            (0..faults.len()).filter(|&k| counts[k] < max_n).collect();
                        let live_faults: Vec<StuckAtFault> =
                            live.iter().map(|&k| faults[k]).collect();
                        let rec = ppsfp::simulate_resumable(
                            netlist,
                            &live_faults,
                            std::slice::from_ref(&vector),
                            threads,
                            obs,
                            unlimited,
                            None,
                        )?;
                        let before = counts[j];
                        for (pos, d) in rec.first_detect().iter().enumerate() {
                            if d.is_some() {
                                counts[live[pos]] += 1;
                            }
                        }
                        vectors.push(vector);
                        if counts[j] == before {
                            // Tripwire (mirrors PodemVerdict::Unconfirmed):
                            // the cube did not confirm under simulation.
                            hopeless[j] = true;
                        }
                    }
                    PodemOutcome::Redundant | PodemOutcome::Aborted => {
                        hopeless[j] = true;
                    }
                }
                if hopeless[j] {
                    break;
                }
            }
        }
        len_at.push(vectors.len());
    }

    let below_target: Vec<(usize, usize)> = (0..faults.len())
        .filter(|&j| counts[j] < max_n)
        .map(|j| (j, counts[j]))
        .collect();
    // Report truth-measured counts, not the builder's (undercounting)
    // bookkeeping.
    let final_counts = if vectors.is_empty() {
        vec![0; faults.len()]
    } else {
        counted(&vectors)?.counts()
    };

    Ok(NDetectSchedule {
        vectors,
        len_at,
        counts: final_counts,
        pool_selected,
        below_target,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlp_circuit::generators;
    use dlp_core::ckpt::Checkpoint;
    use dlp_sim::stuck_at;

    /// Untraced capped profile at the `DLP_THREADS` worker count.
    fn profile(
        nl: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
        n: usize,
    ) -> dlp_sim::detection::DetectionProfile {
        let threads = ThreadCount::from_env().unwrap();
        let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
        ppsfp::simulate_counted_resumable(nl, faults, vectors, n, threads, obs, budget, None)
            .unwrap()
    }

    #[test]
    fn c17_schedule_satisfies_every_target() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let max_n = 4;
        let schedule =
            build_schedule(&c17, faults.faults(), max_n, &NDetectConfig::default()).unwrap();
        assert_eq!(schedule.max_n(), max_n);
        assert!(schedule.below_target.is_empty(), "c17 is fully testable");
        // Truth-check every prefix: the n-set detects every fault ≥ n
        // times, and prefixes are monotone.
        let mut prev = 0;
        for n in 1..=max_n {
            let set = schedule.test_set(n).unwrap();
            assert!(set.len() >= prev);
            prev = set.len();
            let p = profile(&c17, faults.faults(), set, n);
            assert_eq!(
                p.coverage_at_least(n),
                1.0,
                "target {n} not met by a {}-vector prefix",
                set.len()
            );
        }
        assert_eq!(schedule.test_set(0), None);
        assert_eq!(schedule.test_set(max_n + 1), None);
    }

    #[test]
    fn schedule_is_deterministic() {
        let nl = generators::ripple_adder(3);
        let faults = stuck_at::enumerate(&nl).collapse();
        let cfg = NDetectConfig {
            pool_size: 128,
            ..Default::default()
        };
        let a = build_schedule(&nl, faults.faults(), 3, &cfg).unwrap();
        let b = build_schedule(&nl, faults.faults(), 3, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_pool_builds_from_podem_alone() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let cfg = NDetectConfig {
            pool_size: 0,
            ..Default::default()
        };
        let schedule = build_schedule(&c17, faults.faults(), 2, &cfg).unwrap();
        assert_eq!(schedule.pool_selected, 0);
        assert!(schedule.below_target.is_empty());
        let set = schedule.test_set(2).unwrap();
        let p = profile(&c17, faults.faults(), set, 2);
        assert_eq!(p.coverage_at_least(2), 1.0);
    }

    #[test]
    fn bad_targets_are_typed_errors() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        for n in [0usize, MAX_DETECTION_CAP + 1] {
            assert_eq!(
                build_schedule(&c17, faults.faults(), n, &NDetectConfig::default()),
                Err(NDetectError::BadTarget { n })
            );
        }
    }

    #[test]
    fn redundant_faults_are_reported_below_target() {
        use dlp_circuit::{GateKind, Netlist};
        // z = a OR NOT a is constant 1: the s-a-1 fault on z is redundant.
        let mut n = Netlist::new("red");
        let a = n.add_input("a").unwrap();
        let na = n.add_gate("na", GateKind::Not, vec![a]).unwrap();
        let z = n.add_gate("z", GateKind::Or, vec![a, na]).unwrap();
        n.mark_output(z);
        n.freeze();
        let faults = stuck_at::enumerate(&n);
        let schedule = build_schedule(&n, faults.faults(), 2, &NDetectConfig::default()).unwrap();
        assert!(
            !schedule.below_target.is_empty(),
            "the redundant fault cannot reach any detection count"
        );
        for &(j, c) in &schedule.below_target {
            assert!(j < faults.len());
            assert!(c < 2);
        }
    }

    #[test]
    fn interrupt_and_resume_reproduces_the_schedule() {
        let nl = generators::ripple_adder(3);
        let faults = stuck_at::enumerate(&nl).collapse();
        let cfg = NDetectConfig {
            pool_size: 128,
            ..Default::default()
        };
        let max_n = 4;
        let reference = build_schedule(&nl, faults.faults(), max_n, &cfg).unwrap();

        for kill in 0..max_n as u64 {
            let budget = RunBudget::unlimited().cancel_after_checks(kill);
            let err = build_schedule_resumable(&nl, faults.faults(), max_n, &cfg, &budget, None)
                .expect_err("fuse below the target count must interrupt");
            let (info, ckpt) = match err {
                NDetectError::Interrupted { budget, checkpoint } => (budget, checkpoint),
                other => panic!("kill={kill}: expected Interrupted, got {other:?}"),
            };
            assert_eq!(info.completed, kill, "kill={kill}");
            assert_eq!(info.total, max_n as u64);
            assert_eq!(ckpt.next_target, kill as usize + 1);
            assert_eq!(ckpt.len_at.len(), kill as usize);
            // Round-trip through the sealed on-disk envelope.
            let key = NDetectCheckpoint::key(&nl, faults.faults(), max_n, &cfg);
            let sealed = dlp_core::ckpt::seal(NDetectCheckpoint::KIND, key, &ckpt.to_payload());
            let payload = dlp_core::ckpt::open(&sealed, NDetectCheckpoint::KIND, key).unwrap();
            let restored = NDetectCheckpoint::from_payload(&payload).unwrap();
            assert_eq!(restored, *ckpt);
            let resumed = build_schedule_resumable(
                &nl,
                faults.faults(),
                max_n,
                &cfg,
                &RunBudget::unlimited(),
                Some(&restored),
            )
            .unwrap();
            assert_eq!(resumed, reference, "kill={kill}");
        }
    }

    #[test]
    fn double_interrupt_then_resume_still_matches() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let cfg = NDetectConfig {
            pool_size: 64,
            ..Default::default()
        };
        let reference = build_schedule(&c17, faults.faults(), 3, &cfg).unwrap();
        let first = build_schedule_resumable(
            &c17,
            faults.faults(),
            3,
            &cfg,
            &RunBudget::unlimited().cancel_after_checks(1),
            None,
        )
        .expect_err("first fuse");
        let NDetectError::Interrupted { checkpoint, .. } = first else {
            panic!("expected Interrupted");
        };
        let second = build_schedule_resumable(
            &c17,
            faults.faults(),
            3,
            &cfg,
            &RunBudget::unlimited().cancel_after_checks(1),
            Some(&checkpoint),
        )
        .expect_err("second fuse");
        let NDetectError::Interrupted { budget, checkpoint } = second else {
            panic!("expected Interrupted");
        };
        assert_eq!(budget.completed, 2, "progress accumulates across resumes");
        let finished = build_schedule_resumable(
            &c17,
            faults.faults(),
            3,
            &cfg,
            &RunBudget::unlimited(),
            Some(&checkpoint),
        )
        .unwrap();
        assert_eq!(finished, reference);
    }

    #[test]
    fn resume_rejects_inconsistent_checkpoints() {
        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let cfg = NDetectConfig {
            pool_size: 64,
            ..Default::default()
        };
        let n_faults = faults.len();
        let run = |ckpt: &NDetectCheckpoint| {
            build_schedule_resumable(
                &c17,
                faults.faults(),
                3,
                &cfg,
                &RunBudget::unlimited(),
                Some(ckpt),
            )
        };
        let good = NDetectCheckpoint {
            next_target: 1,
            vectors: Vec::new(),
            len_at: Vec::new(),
            counts: vec![0; n_faults],
            selected: vec![false; 64],
            pool_selected: 0,
            hopeless: vec![false; n_faults],
        };
        assert!(run(&good).is_ok(), "an empty target-1 checkpoint resumes");
        for (label, bad) in [
            (
                "target zero",
                NDetectCheckpoint {
                    next_target: 0,
                    ..good.clone()
                },
            ),
            (
                "target range",
                NDetectCheckpoint {
                    next_target: 4,
                    ..good.clone()
                },
            ),
            (
                "prefix count",
                NDetectCheckpoint {
                    len_at: vec![0],
                    ..good.clone()
                },
            ),
            (
                "fault count",
                NDetectCheckpoint {
                    counts: vec![0; n_faults + 1],
                    ..good.clone()
                },
            ),
            (
                "pool size",
                NDetectCheckpoint {
                    selected: vec![false; 63],
                    ..good.clone()
                },
            ),
            (
                "pool bookkeeping",
                NDetectCheckpoint {
                    pool_selected: 1,
                    ..good.clone()
                },
            ),
            (
                "prefix chain",
                NDetectCheckpoint {
                    next_target: 2,
                    len_at: vec![5],
                    ..good.clone()
                },
            ),
            (
                "vector width",
                NDetectCheckpoint {
                    next_target: 2,
                    len_at: vec![1],
                    vectors: vec![vec![true; 4]],
                    ..good.clone()
                },
            ),
        ] {
            assert!(
                matches!(run(&bad), Err(NDetectError::BadCheckpoint { .. })),
                "{label} inconsistency must be a typed error"
            );
        }
    }

    #[test]
    fn memory_budget_gates_up_front() {
        use dlp_core::BudgetReason;

        let c17 = generators::c17();
        let faults = stuck_at::enumerate(&c17).collapse();
        let err = build_schedule_resumable(
            &c17,
            faults.faults(),
            2,
            &NDetectConfig::default(),
            &RunBudget::unlimited().with_memory_limit(16),
            None,
        )
        .expect_err("a 16-byte budget cannot fit the pool");
        match err {
            NDetectError::Budget(b) => {
                assert_eq!(b.completed, 0);
                assert!(matches!(b.reason, BudgetReason::Memory { .. }));
            }
            other => panic!("expected Budget, got {other:?}"),
        }
    }

    #[test]
    fn foreign_fault_is_a_typed_error() {
        use dlp_circuit::NodeId;
        use dlp_sim::stuck_at::{FaultSite, StuckAtFault};

        let c17 = generators::c17();
        let foreign = StuckAtFault {
            site: FaultSite::Stem(NodeId::from_index(9_999)),
            stuck_at_one: true,
        };
        assert!(matches!(
            build_schedule(&c17, &[foreign], 2, &NDetectConfig::default()),
            Err(NDetectError::Sim(dlp_sim::SimError::FaultOutOfRange { .. }))
        ));
    }
}
