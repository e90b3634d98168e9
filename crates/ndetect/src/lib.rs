//! n-detection test sets over the stuck-at fault universe.
//!
//! A single-detection test set leaves realistic (bridge/open) faults at a
//! detected site untested under most excitation conditions — the gap the
//! paper's `R`/`θ_max` model quantifies. The classic industrial response
//! is *n-detection* (Pomeranz & Reddy): require every stuck-at fault to be
//! detected `n` times, so unmodeled faults sharing those sites are caught
//! incidentally.
//!
//! This crate builds such sets on top of the count-capped simulator
//! [`dlp_sim::ppsfp::simulate_counted_resumable`]:
//!
//! * [`builder::build_schedule`] — greedy forward selection over a random
//!   vector pool, then PODEM top-ups (a distinct don't-care fill stream
//!   per fault and rank) for faults the pool cannot lift to `n`. The
//!   result is an *incremental schedule*: the test set for target `n` is
//!   a prefix of the set for `n + 1`, so coverage and DL(n) measurements
//!   are monotone by construction. The DL(n) study reads these prefixes
//!   as they stand; no set is compacted.
//! * The DL(n) model lives in [`dlp_core::ndetect`].
//!
//! # Example
//!
//! ```
//! use dlp_circuit::generators;
//! use dlp_core::{obs::Recorder, par::ThreadCount, RunBudget};
//! use dlp_ndetect::{build_schedule, NDetectConfig};
//! use dlp_sim::{ppsfp, stuck_at};
//!
//! let c17 = generators::c17();
//! let faults = stuck_at::enumerate(&c17).collapse();
//! let schedule = build_schedule(&c17, faults.faults(), 3, &NDetectConfig::default())?;
//! // The n = 3 prefix detects every fault at least 3 times.
//! let set = schedule.test_set(3).expect("n within target");
//! let (f, threads) = (faults.faults(), ThreadCount::from_env()?);
//! let (obs, budget) = (Recorder::noop(), &RunBudget::unlimited());
//! let profile = ppsfp::simulate_counted_resumable(&c17, f, set, 3, threads, obs, budget, None)?;
//! assert_eq!(profile.coverage_at_least(3), 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod ckpt;
mod error;

pub use builder::{build_schedule, build_schedule_resumable, NDetectConfig, NDetectSchedule};
pub use error::NDetectError;
