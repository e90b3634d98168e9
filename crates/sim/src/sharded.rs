//! Sharded PPSFP: bounded-memory first-detect simulation of fault lists
//! too large for one [`ppsfp`](crate::ppsfp) setup.
//!
//! The plain simulator precomputes one fanout cone per distinct fault
//! site before the first block runs. On a million-fault circuit that
//! cone cache is hundreds of megabytes — far beyond the detection
//! record it exists to produce. The sharded driver instead slices the
//! fault list into fixed-size shards and runs each through the counted
//! engine in turn, so peak memory is proportional to the shard size
//! while the merged record is *bit-identical* to the unsharded one:
//! a fault's first-detect index is a pure function of (fault, vectors)
//! and never depends on which other faults share its setup.
//!
//! Budget semantics: the budget is checked once per shard in the serial
//! outer loop (plus each shard's own up-front memory gate and per-block
//! checks inside the counted engine). Through
//! [`simulate_sharded_resumable`] a trip surfaces as
//! [`SimError::ShardedInterrupted`] carrying a [`ShardedCheckpoint`] —
//! the completed-shard first-detect prefix plus the interrupted shard's
//! own block-level [`SimCheckpoint`] — and resuming from it reproduces
//! the uninterrupted record bit-identically. The plain
//! [`simulate_sharded_obs`] entry point keeps the original contract and
//! collapses a trip into [`SimError::Budget`] with shard-level progress.
//!
//! On disk a sharded checkpoint is a sealed [`dlp_core::ckpt`] envelope
//! of kind [`SHARDED_CKPT_KIND`] whose key digests the netlist
//! structure, the *full* fault universe, the vector set, and the shard
//! size — so a checkpoint can never be resumed against different
//! inputs or a different shard decomposition.

use dlp_circuit::Netlist;
use dlp_core::ckpt::{self, CkptError, KeyHasher};
use dlp_core::obs::{Json, Recorder};
use dlp_core::par::ThreadCount;
use dlp_core::{BudgetExceeded, RunBudget};

use crate::ckpt::{hash_faults, hash_netlist, SimCheckpoint};
use crate::detection::DetectionRecord;
use crate::ppsfp::run_counted;
use crate::stuck_at::StuckAtFault;
use crate::SimError;

/// Default faults per shard: large enough that the per-shard fault-free
/// evaluation (one per 64-pattern block) amortises, small enough that
/// the cone cache of a shard stays in the tens of megabytes even when
/// every cone spans a few hundred nodes.
pub const DEFAULT_SHARD_FAULTS: usize = 32_768;

/// The envelope `kind` of sharded PPSFP checkpoints.
pub const SHARDED_CKPT_KIND: &str = "sim.sharded";

/// Resume state of an interrupted sharded PPSFP run.
///
/// Captures the merged first-detect prefix of every *completed* shard
/// plus, when the trip happened mid-shard, the interrupted shard's own
/// block-level [`SimCheckpoint`] wrapped alongside — so a resume loses
/// no completed shard and at most the interrupted shard's current
/// 64-pattern block.
#[derive(Clone, PartialEq, Eq)]
pub struct ShardedCheckpoint {
    /// The shard size the run was started with.
    pub shard_faults: usize,
    /// The first shard that has *not* been fully simulated.
    pub next_shard: usize,
    /// The run's total vector count (shape check on resume).
    pub vectors_len: usize,
    /// First-detect indices for every fault in the completed shards,
    /// in fault-universe order.
    pub first_detect: Vec<Option<usize>>,
    /// Block-level state of shard `next_shard` when the budget tripped
    /// inside it; `None` when the trip happened at a shard boundary.
    pub inner: Option<SimCheckpoint>,
}

impl std::fmt::Debug for ShardedCheckpoint {
    // The prefix scales with the fault universe; a derived Debug would
    // dump it into any error message embedding the checkpoint, so only
    // aggregate sizes are shown.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCheckpoint")
            .field("shard_faults", &self.shard_faults)
            .field("next_shard", &self.next_shard)
            .field("vectors_len", &self.vectors_len)
            .field("completed_faults", &self.first_detect.len())
            .field("inner", &self.inner)
            .finish()
    }
}

impl ShardedCheckpoint {
    /// The checkpoint key binding the run's inputs: netlist structure,
    /// the full fault universe, the vector set, and the shard size.
    pub fn key(
        netlist: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
        shard_faults: usize,
    ) -> u64 {
        let mut h = KeyHasher::new();
        hash_netlist(&mut h, netlist);
        hash_faults(&mut h, faults);
        h.write_usize(vectors.len());
        for v in vectors {
            h.write_usize(v.len());
            for &bit in v {
                h.write_bool(bit);
            }
        }
        h.write_usize(shard_faults);
        h.finish()
    }

    /// The checkpoint payload: `{"shard_faults":…,"next_shard":…,
    /// "vectors_len":…,"first_detect":[…, null, …],"inner":{…}|null}`.
    pub fn to_payload(&self) -> Json {
        let first_detect = self
            .first_detect
            .iter()
            .map(|d| match d {
                Some(i) => Json::Number(*i as f64),
                None => Json::Null,
            })
            .collect();
        Json::Object(vec![
            (
                "shard_faults".to_string(),
                Json::Number(self.shard_faults as f64),
            ),
            (
                "next_shard".to_string(),
                Json::Number(self.next_shard as f64),
            ),
            (
                "vectors_len".to_string(),
                Json::Number(self.vectors_len as f64),
            ),
            ("first_detect".to_string(), Json::Array(first_detect)),
            (
                "inner".to_string(),
                match &self.inner {
                    Some(inner) => inner.to_payload(),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Decodes a payload produced by [`ShardedCheckpoint::to_payload`].
    ///
    /// # Errors
    ///
    /// [`CkptError::Malformed`] if the payload does not have the
    /// expected shape (missing fields, non-integer indices).
    pub fn from_payload(payload: &Json) -> Result<ShardedCheckpoint, CkptError> {
        let field = |name: &'static str, what: &'static str| {
            payload
                .get(name)
                .and_then(Json::as_f64)
                .filter(|v| *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53))
                .map(|v| v as usize)
                .ok_or(CkptError::Malformed { what })
        };
        let shard_faults = field("shard_faults", "missing or non-integer shard_faults")?;
        let next_shard = field("next_shard", "missing or non-integer next_shard")?;
        let vectors_len = field("vectors_len", "missing or non-integer vectors_len")?;
        let rows = payload
            .get("first_detect")
            .and_then(Json::as_array)
            .ok_or(CkptError::Malformed {
                what: "missing first_detect array",
            })?;
        let mut first_detect = Vec::with_capacity(rows.len());
        for v in rows {
            first_detect.push(match v {
                Json::Null => None,
                other => Some(
                    other
                        .as_f64()
                        .filter(|x| *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53))
                        .map(|x| x as usize)
                        .ok_or(CkptError::Malformed {
                            what: "first_detect entry is not null or a non-negative integer",
                        })?,
                ),
            });
        }
        let inner = match payload.get("inner") {
            Some(Json::Null) => None,
            Some(obj) => Some(SimCheckpoint::from_payload(obj)?),
            None => {
                return Err(CkptError::Malformed {
                    what: "missing inner field",
                })
            }
        };
        Ok(ShardedCheckpoint {
            shard_faults,
            next_shard,
            vectors_len,
            first_detect,
            inner,
        })
    }

    /// Seals and atomically writes this checkpoint for the given inputs.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] if the atomic write fails.
    pub fn save_to(
        &self,
        path: &str,
        netlist: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
    ) -> Result<(), CkptError> {
        let key = ShardedCheckpoint::key(netlist, faults, vectors, self.shard_faults);
        ckpt::save(path, SHARDED_CKPT_KIND, key, &self.to_payload())
    }

    /// Loads and fully verifies a checkpoint written by
    /// [`ShardedCheckpoint::save_to`] against the given inputs.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`]: unreadable file, corrupt envelope, wrong
    /// version/kind/key, checksum mismatch, or malformed payload.
    pub fn load_from(
        path: &str,
        netlist: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
        shard_faults: usize,
    ) -> Result<ShardedCheckpoint, CkptError> {
        let key = ShardedCheckpoint::key(netlist, faults, vectors, shard_faults);
        let payload = ckpt::load(path, SHARDED_CKPT_KIND, key)?;
        ShardedCheckpoint::from_payload(&payload)
    }
}

/// Simulates `faults` against `vectors` in shards of `shard_faults`,
/// reporting first detections, with explicit workers, an observability
/// [`Recorder`], and a cooperative [`RunBudget`].
///
/// The record equals [`crate::ppsfp::simulate_resumable`]'s bit for bit,
/// at every shard size and thread count.
///
/// Traced under the `sim.sharded` scope: a span over the whole run,
/// counters for shards / faults / detected, and the per-shard fault
/// count series (`sim.sharded.faults_per_shard`). Each shard's inner
/// run adds its own `sim.gate` telemetry, accumulated across shards.
///
/// # Errors
///
/// As [`crate::ppsfp::simulate_resumable`] for validation failures
/// (reported with shard-local fault indices translated back to the
/// caller's), plus
/// [`SimError::BadShardSize`] for a zero `shard_faults` and
/// [`SimError::Budget`] when the budget trips — `completed` / `total`
/// count shards, not blocks. Callers who need to keep the completed
/// shards across a trip use [`simulate_sharded_resumable`].
pub fn simulate_sharded_obs(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    vectors: &[Vec<bool>],
    shard_faults: usize,
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
) -> Result<DetectionRecord, SimError> {
    simulate_sharded_resumable(netlist, faults, vectors, shard_faults, threads, obs, budget, None)
        .map_err(|e| match e {
            SimError::ShardedInterrupted { budget, .. } => SimError::Budget(budget),
            other => other,
        })
}

/// [`simulate_sharded_obs`] with resume support: a budget trip surfaces
/// as [`SimError::ShardedInterrupted`] carrying a [`ShardedCheckpoint`]
/// instead of discarding the completed shards, and passing that
/// checkpoint back as `resume` continues the run — the final record is
/// bit-identical to the uninterrupted one at every shard size and
/// thread count.
///
/// # Errors
///
/// As [`simulate_sharded_obs`], except a budget trip is
/// [`SimError::ShardedInterrupted`] (shard-level progress in its
/// `budget` field), plus [`SimError::BadCheckpoint`] when `resume` is
/// inconsistent with this run's inputs.
#[allow(clippy::too_many_arguments)]
pub fn simulate_sharded_resumable(
    netlist: &Netlist,
    faults: &[StuckAtFault],
    vectors: &[Vec<bool>],
    shard_faults: usize,
    threads: ThreadCount,
    obs: &Recorder,
    budget: &RunBudget,
    resume: Option<&ShardedCheckpoint>,
) -> Result<DetectionRecord, SimError> {
    if shard_faults == 0 {
        return Err(SimError::BadShardSize);
    }
    let total_shards = faults.len().div_ceil(shard_faults).max(1);
    let (start_shard, mut first_detect, mut inner_resume) = match resume {
        None => (0, Vec::with_capacity(faults.len()), None),
        Some(ckpt) => {
            if ckpt.shard_faults != shard_faults {
                return Err(SimError::BadCheckpoint {
                    what: "shard size differs from the checkpointed run",
                });
            }
            if ckpt.vectors_len != vectors.len() {
                return Err(SimError::BadCheckpoint {
                    what: "vector count differs from the checkpointed run",
                });
            }
            if ckpt.next_shard > total_shards {
                return Err(SimError::BadCheckpoint {
                    what: "next_shard is past the end of the fault universe",
                });
            }
            let expected = (ckpt.next_shard * shard_faults).min(faults.len());
            if ckpt.first_detect.len() != expected {
                return Err(SimError::BadCheckpoint {
                    what: "completed-shard prefix length is impossible",
                });
            }
            if let Some(inner) = &ckpt.inner {
                let shard_len = faults
                    .len()
                    .saturating_sub(ckpt.next_shard * shard_faults)
                    .min(shard_faults);
                if inner.n_cap != 1
                    || inner.vectors_len != vectors.len()
                    || inner.detections.len() != shard_len
                {
                    return Err(SimError::BadCheckpoint {
                        what: "inner shard checkpoint does not match the interrupted shard",
                    });
                }
            }
            let mut prefix = Vec::with_capacity(faults.len());
            prefix.extend(ckpt.first_detect.iter().copied());
            (ckpt.next_shard, prefix, ckpt.inner.clone())
        }
    };

    let _span = obs.span("sim.sharded");
    obs.add("sim.sharded.faults", faults.len() as u64);
    let chunk = shard_faults.min(faults.len().max(1));
    for (shard_idx, shard) in faults
        .chunks(chunk)
        .enumerate()
        .skip(start_shard)
    {
        if let Err(reason) = budget.check() {
            return Err(interrupted(
                reason,
                shard_idx,
                total_shards,
                shard_faults,
                vectors.len(),
                first_detect,
                None,
            ));
        }
        obs.incr("sim.sharded.shards");
        obs.push("sim.sharded.faults_per_shard", shard.len() as f64);
        let shard_resume = inner_resume.take();
        let profile = match run_counted(
            "sim.gate",
            netlist,
            shard,
            vectors,
            1,
            threads,
            obs,
            budget,
            shard_resume.as_ref(),
        ) {
            Ok(profile) => profile,
            Err(SimError::FaultOutOfRange { fault, what }) => {
                return Err(SimError::FaultOutOfRange {
                    fault: shard_idx * shard_faults + fault,
                    what,
                })
            }
            Err(SimError::Budget(b)) => {
                return Err(interrupted(
                    b.reason,
                    shard_idx,
                    total_shards,
                    shard_faults,
                    vectors.len(),
                    first_detect,
                    None,
                ))
            }
            Err(SimError::Interrupted { budget: b, checkpoint }) => {
                return Err(interrupted(
                    b.reason,
                    shard_idx,
                    total_shards,
                    shard_faults,
                    vectors.len(),
                    first_detect,
                    Some(*checkpoint),
                ))
            }
            Err(other) => return Err(other),
        };
        first_detect.extend(
            profile
                .first_detect_record()
                .first_detect()
                .iter()
                .copied(),
        );
    }
    obs.add(
        "sim.sharded.detected",
        first_detect.iter().filter(|d| d.is_some()).count() as u64,
    );
    Ok(DetectionRecord::new(first_detect, vectors.len()))
}

/// Builds the [`SimError::ShardedInterrupted`] for a trip at (or
/// inside) shard `next_shard`, with shard-level progress in the budget.
fn interrupted(
    reason: dlp_core::BudgetReason,
    next_shard: usize,
    total_shards: usize,
    shard_faults: usize,
    vectors_len: usize,
    first_detect: Vec<Option<usize>>,
    inner: Option<SimCheckpoint>,
) -> SimError {
    SimError::ShardedInterrupted {
        budget: BudgetExceeded {
            reason,
            completed: next_shard as u64,
            total: total_shards as u64,
        },
        checkpoint: Box::new(ShardedCheckpoint {
            shard_faults,
            next_shard,
            vectors_len,
            first_detect,
            inner,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::random_vectors;
    use crate::{ppsfp, stuck_at};
    use dlp_circuit::generators;

    /// Unbudgeted, untraced runs at the `DLP_THREADS` worker count, so
    /// both thread passes of the suite exercise them.
    fn first_detect(
        nl: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
    ) -> Result<DetectionRecord, SimError> {
        let threads = ThreadCount::from_env().unwrap();
        let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
        ppsfp::simulate_resumable(nl, faults, vectors, threads, obs, budget, None)
    }

    fn sharded(
        nl: &Netlist,
        faults: &[StuckAtFault],
        vectors: &[Vec<bool>],
        shard_faults: usize,
    ) -> Result<DetectionRecord, SimError> {
        let threads = ThreadCount::from_env().unwrap();
        let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
        simulate_sharded_obs(nl, faults, vectors, shard_faults, threads, obs, budget)
    }

    #[test]
    fn matches_unsharded_at_every_shard_size() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 192, 5);
        let reference = first_detect(&nl, faults.faults(), &vectors).unwrap();
        for shard in [1, 7, 64, faults.len(), faults.len() + 100] {
            let record = sharded(&nl, faults.faults(), &vectors, shard).unwrap();
            assert_eq!(record, reference, "shard size {shard}");
        }
    }

    #[test]
    fn empty_fault_list_is_an_empty_record() {
        let nl = generators::c17();
        let vectors = random_vectors(5, 64, 1);
        let record = sharded(&nl, &[], &vectors, 8).unwrap();
        assert_eq!(record.fault_count(), 0);
        assert_eq!(record.vector_count(), 64);
    }

    #[test]
    fn zero_shard_size_is_a_typed_error() {
        let nl = generators::c17();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(5, 8, 1);
        assert_eq!(
            sharded(&nl, faults.faults(), &vectors, 0),
            Err(SimError::BadShardSize)
        );
    }

    #[test]
    fn fault_indices_in_errors_are_global() {
        use crate::stuck_at::FaultSite;
        use dlp_circuit::NodeId;

        let nl = generators::c17();
        let mut faults = stuck_at::enumerate(&nl).collapse().faults().to_vec();
        faults.push(StuckAtFault {
            site: FaultSite::Stem(NodeId::from_index(nl.node_count())),
            stuck_at_one: true,
        });
        let bad_index = faults.len() - 1;
        let vectors = random_vectors(5, 8, 1);
        // Shard size 4: the offender lands in a later shard; its reported
        // index must still be in the caller's frame.
        let err = sharded(&nl, &faults, &vectors, 4).unwrap_err();
        assert_eq!(
            err,
            SimError::FaultOutOfRange {
                fault: bad_index,
                what: "node"
            }
        );
    }

    #[test]
    fn budget_trips_report_shard_progress() {
        use dlp_core::BudgetReason;

        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 128, 9);
        // Fuse after 3 budget checks: the outer loop checks once per
        // shard and the inner engine once per block, so a small fuse
        // trips somewhere mid-run and must surface as shard progress,
        // never as a shard-local checkpoint.
        let budget = RunBudget::unlimited().cancel_after_checks(3);
        let err = simulate_sharded_obs(
            &nl,
            faults.faults(),
            &vectors,
            64,
            ThreadCount::fixed(1).unwrap(),
            Recorder::noop(),
            &budget,
        )
        .unwrap_err();
        match err {
            SimError::Budget(b) => {
                assert!(matches!(b.reason, BudgetReason::Cancelled));
                assert_eq!(b.total, faults.len().div_ceil(64) as u64);
                assert!(b.completed < b.total);
            }
            other => panic!("expected Budget, got {other:?}"),
        }
    }

    #[test]
    fn sharded_trace_counts_shards_and_faults() {
        let nl = generators::c17();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(5, 64, 7);
        let obs = Recorder::enabled();
        let record = simulate_sharded_obs(
            &nl,
            faults.faults(),
            &vectors,
            4,
            ThreadCount::fixed(1).unwrap(),
            &obs,
            &RunBudget::unlimited(),
        )
        .unwrap();
        let report = obs.report("sim.sharded");
        assert_eq!(
            report.counter("sim.sharded.shards"),
            Some(faults.len().div_ceil(4) as u64)
        );
        assert_eq!(
            report.counter("sim.sharded.faults"),
            Some(faults.len() as u64)
        );
        assert_eq!(
            report.counter("sim.sharded.detected"),
            Some(record.detected_count() as u64)
        );
    }

    /// Resumes an interrupted run from every kill point and demands the
    /// merged record equal the uninterrupted one bit for bit.
    #[test]
    fn interrupt_resume_is_bit_identical_at_shard_boundaries() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 128, 9);
        let reference = first_detect(&nl, faults.faults(), &vectors).unwrap();
        let threads = ThreadCount::fixed(1).unwrap();
        for fuse in [1u64, 2, 3, 5, 8, 13] {
            let budget = RunBudget::unlimited().cancel_after_checks(fuse);
            let first = simulate_sharded_resumable(
                &nl,
                faults.faults(),
                &vectors,
                64,
                threads,
                Recorder::noop(),
                &budget,
                None,
            );
            let ckpt = match first {
                Err(SimError::ShardedInterrupted { budget, checkpoint }) => {
                    assert_eq!(budget.completed, checkpoint.next_shard as u64);
                    assert_eq!(budget.total, faults.len().div_ceil(64) as u64);
                    *checkpoint
                }
                Ok(record) => {
                    // Fuse outlasted the run: nothing to resume.
                    assert_eq!(record, reference, "fuse {fuse}");
                    continue;
                }
                Err(other) => panic!("expected ShardedInterrupted, got {other:?}"),
            };
            let resumed = simulate_sharded_resumable(
                &nl,
                faults.faults(),
                &vectors,
                64,
                threads,
                Recorder::noop(),
                &RunBudget::unlimited(),
                Some(&ckpt),
            )
            .unwrap();
            assert_eq!(resumed, reference, "fuse {fuse}");
        }
    }

    /// The sealed envelope round-trips through disk and rejects resume
    /// against mismatched inputs.
    #[test]
    fn checkpoint_envelope_round_trips_and_binds_inputs() {
        let nl = generators::c432_class();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(36, 128, 9);
        let budget = RunBudget::unlimited().cancel_after_checks(4);
        let err = simulate_sharded_resumable(
            &nl,
            faults.faults(),
            &vectors,
            64,
            ThreadCount::fixed(1).unwrap(),
            Recorder::noop(),
            &budget,
            None,
        )
        .unwrap_err();
        let ckpt = match err {
            SimError::ShardedInterrupted { checkpoint, .. } => *checkpoint,
            other => panic!("expected ShardedInterrupted, got {other:?}"),
        };
        let dir = std::env::temp_dir().join(format!("dlp_sharded_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sharded.ckpt");
        let path = path.to_str().unwrap();
        ckpt.save_to(path, &nl, faults.faults(), &vectors).unwrap();
        let restored =
            ShardedCheckpoint::load_from(path, &nl, faults.faults(), &vectors, 64).unwrap();
        assert_eq!(restored, ckpt);
        // A different shard size keys differently: typed rejection.
        assert!(matches!(
            ShardedCheckpoint::load_from(path, &nl, faults.faults(), &vectors, 32),
            Err(CkptError::KeyMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Inconsistent resume state is a typed `BadCheckpoint`, never a
    /// wrong answer.
    #[test]
    fn mismatched_resume_state_is_rejected() {
        let nl = generators::c17();
        let faults = stuck_at::enumerate(&nl).collapse();
        let vectors = random_vectors(5, 64, 1);
        let reference = first_detect(&nl, faults.faults(), &vectors).unwrap();
        // A genuine shard-0-complete checkpoint: its prefix is the real
        // first-detect data, so the clean resume below stays bit-exact.
        let good = ShardedCheckpoint {
            shard_faults: 4,
            next_shard: 1,
            vectors_len: 64,
            first_detect: reference.first_detect()[..4].to_vec(),
            inner: None,
        };
        let run = |ckpt: &ShardedCheckpoint, shard: usize| {
            simulate_sharded_resumable(
                &nl,
                faults.faults(),
                &vectors,
                shard,
                ThreadCount::fixed(1).unwrap(),
                Recorder::noop(),
                &RunBudget::unlimited(),
                Some(ckpt),
            )
        };
        // The good checkpoint resumes cleanly.
        assert_eq!(run(&good, 4).unwrap(), reference);
        // Wrong shard size.
        assert!(matches!(
            run(&good, 8),
            Err(SimError::BadCheckpoint { .. })
        ));
        // Wrong vector count.
        let mut bad = good.clone();
        bad.vectors_len = 32;
        assert!(matches!(run(&bad, 4), Err(SimError::BadCheckpoint { .. })));
        // Impossible prefix length.
        let mut bad = good.clone();
        bad.first_detect.push(None);
        assert!(matches!(run(&bad, 4), Err(SimError::BadCheckpoint { .. })));
        // next_shard past the end.
        let mut bad = good.clone();
        bad.next_shard = faults.len();
        bad.first_detect = vec![None; faults.len()];
        assert!(matches!(run(&bad, 4), Err(SimError::BadCheckpoint { .. })));
        // Inner checkpoint with the wrong shape.
        let mut bad = good;
        bad.inner = Some(SimCheckpoint {
            n_cap: 2,
            next_block: 0,
            vectors_len: 64,
            detections: vec![vec![]; 4],
        });
        assert!(matches!(run(&bad, 4), Err(SimError::BadCheckpoint { .. })));
    }

    #[test]
    fn payload_round_trips_and_rejects_malformed_shapes() {
        let ckpt = ShardedCheckpoint {
            shard_faults: 8,
            next_shard: 2,
            vectors_len: 64,
            first_detect: vec![Some(3), None, Some(17), None],
            inner: Some(SimCheckpoint {
                n_cap: 1,
                next_block: 1,
                vectors_len: 64,
                detections: vec![vec![5], vec![]],
            }),
        };
        let restored = ShardedCheckpoint::from_payload(&ckpt.to_payload()).unwrap();
        assert_eq!(restored, ckpt);
        for bad in [
            "{}",
            "{\"shard_faults\":8.0,\"next_shard\":0.0,\"vectors_len\":8.0,\"inner\":null}",
            "{\"shard_faults\":8.0,\"next_shard\":0.0,\"vectors_len\":8.0,\
             \"first_detect\":[-1.0],\"inner\":null}",
            "{\"shard_faults\":8.0,\"next_shard\":0.0,\"vectors_len\":8.0,\
             \"first_detect\":[]}",
            "{\"shard_faults\":8.0,\"next_shard\":0.0,\"vectors_len\":8.0,\
             \"first_detect\":[],\"inner\":3.0}",
        ] {
            let payload = Json::parse(bad).expect("test fixture parses");
            assert!(
                matches!(
                    ShardedCheckpoint::from_payload(&payload),
                    Err(CkptError::Malformed { .. })
                ),
                "{bad} must be rejected"
            );
        }
    }
}
