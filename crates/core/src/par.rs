//! Dependency-free scoped parallel execution for the simulation and
//! Monte-Carlo hot paths.
//!
//! The workspace builds offline, so there is no rayon: workers are plain
//! `std::thread::scope` threads pulling chunk indices from an atomic
//! counter. Two properties are load-bearing for the reproduction:
//!
//! * **Determinism.** [`map_chunks_counted`] decomposes the input into
//!   contiguous chunks whose boundaries depend only on the item count and
//!   the requested chunk count — never on the worker count — and returns
//!   the per-chunk results in chunk order. Any reduction folded over the
//!   result is therefore bit-identical for every thread count, so
//!   parallelism cannot perturb a reproduced figure.
//! * **Explicit thread control.** [`ThreadCount`] resolves the worker
//!   count from the `DLP_THREADS` environment variable (default: the
//!   machine's available parallelism; `1` forces the serial in-line
//!   path). An unusable setting (`0`, garbage) is a typed [`ParError`]
//!   that the pipeline stages surface through their own error enums —
//!   never a panic.

use std::env;
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::budget::{BudgetExceeded, BudgetReason, RunBudget};
use crate::obs::{elapsed_nanos, lock_or_recover};

/// The environment variable that overrides the worker count.
pub const THREADS_ENV: &str = "DLP_THREADS";

/// An unusable thread-count setting (`DLP_THREADS=0` or non-numeric).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParError {
    value: String,
}

impl ParError {
    /// The rejected setting, verbatim.
    pub fn value(&self) -> &str {
        &self.value
    }
}

impl fmt::Display for ParError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{THREADS_ENV}=\"{}\" is not a positive thread count",
            self.value
        )
    }
}

impl Error for ParError {}

/// How many worker threads a parallel stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadCount {
    /// Use the machine's available parallelism.
    Auto,
    /// Use exactly this many workers (`1` forces the serial path).
    Fixed(NonZeroUsize),
}

impl ThreadCount {
    /// Resolves the `DLP_THREADS` environment variable.
    ///
    /// Unset or empty means [`ThreadCount::Auto`].
    ///
    /// # Errors
    ///
    /// [`ParError`] if the variable is set to `0` or to anything that is
    /// not a positive integer.
    pub fn from_env() -> Result<ThreadCount, ParError> {
        Self::from_setting(env::var(THREADS_ENV).ok().as_deref())
    }

    /// Parses an explicit `DLP_THREADS`-style setting (`None` = unset).
    ///
    /// # Errors
    ///
    /// [`ParError`] for `0` or a non-numeric value.
    ///
    /// # Example
    ///
    /// ```
    /// use dlp_core::par::ThreadCount;
    ///
    /// assert_eq!(ThreadCount::from_setting(None), Ok(ThreadCount::Auto));
    /// assert_eq!(ThreadCount::from_setting(Some("4")), ThreadCount::fixed(4));
    /// assert!(ThreadCount::from_setting(Some("0")).is_err());
    /// assert!(ThreadCount::from_setting(Some("many")).is_err());
    /// ```
    pub fn from_setting(setting: Option<&str>) -> Result<ThreadCount, ParError> {
        match setting.map(str::trim) {
            None | Some("") => Ok(ThreadCount::Auto),
            Some(s) => s
                .parse::<usize>()
                .ok()
                .and_then(NonZeroUsize::new)
                .map(ThreadCount::Fixed)
                .ok_or_else(|| ParError {
                    value: s.to_string(),
                }),
        }
    }

    /// An explicit worker count.
    ///
    /// # Errors
    ///
    /// [`ParError`] for `threads == 0`.
    pub fn fixed(threads: usize) -> Result<ThreadCount, ParError> {
        NonZeroUsize::new(threads)
            .map(ThreadCount::Fixed)
            .ok_or_else(|| ParError {
                value: threads.to_string(),
            })
    }

    /// The resolved worker count (`Auto` falls back to `1` if the
    /// platform cannot report its parallelism).
    pub fn get(self) -> usize {
        match self {
            ThreadCount::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            ThreadCount::Fixed(n) => n.get(),
        }
    }
}

/// Contiguous `(start, end)` chunk bounds: as even as possible, the
/// remainder spread over the leading chunks. Depends only on `len` and
/// `chunks`, never on the worker count.
fn chunk_bounds(len: usize, chunks: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let n = chunks.clamp(1, len);
    let base = len / n;
    let rem = len % n;
    let mut bounds = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < rem);
        bounds.push((start, start + size));
        start += size;
    }
    bounds
}

/// What one worker measured about itself during a parallel region.
#[derive(Debug, Default)]
struct WorkerStats {
    items: u64,
    chunks: u64,
    busy_nanos: u64,
    chunk_hist: crate::obs::Histogram,
}

/// `<scope>.<suffix>` metric names built in one reused buffer, so a
/// traced region formats its names without allocating each one.
struct ScopedName {
    buf: String,
    scope_len: usize,
}

impl ScopedName {
    fn new(scope: &str) -> ScopedName {
        let buf = format!("{scope}.");
        ScopedName {
            scope_len: buf.len(),
            buf,
        }
    }

    fn get(&mut self, suffix: fmt::Arguments<'_>) -> &str {
        self.buf.truncate(self.scope_len);
        let _ = fmt::Write::write_fmt(&mut self.buf, suffix);
        &self.buf
    }
}

/// Records the per-worker timeline telemetry of one parallel region.
///
/// `stats[w]` is worker `w`'s measurement; `wall` is the region's
/// wall-clock duration; `workers` is how many workers were spawned
/// (idle workers still count — their idleness *is* the signal).
fn record_region(
    obs: &crate::obs::Recorder,
    scope: &str,
    wall: u64,
    workers: usize,
    stats: &[WorkerStats],
) {
    let mut name = ScopedName::new(scope);
    let mut chunk_hist = crate::obs::Histogram::new();
    for (w, s) in stats.iter().enumerate() {
        if s.items > 0 {
            obs.add(name.get(format_args!("worker{w}.items")), s.items);
        }
        obs.add(name.get(format_args!("worker{w}.busy_nanos")), s.busy_nanos);
        obs.add(
            name.get(format_args!("worker{w}.wait_nanos")),
            wall.saturating_sub(s.busy_nanos),
        );
        obs.add(name.get(format_args!("worker{w}.chunks")), s.chunks);
        obs.push(
            name.get(format_args!("worker{w}.timeline")),
            s.busy_nanos as f64,
        );
        chunk_hist.merge(&s.chunk_hist);
    }
    obs.merge_hist(name.get(format_args!("chunk_nanos")), &chunk_hist);
    obs.add(name.get(format_args!("wall_nanos")), wall);
    obs.add(
        name.get(format_args!("slot_nanos")),
        wall.saturating_mul(workers as u64),
    );
    update_balance_gauges(obs, &mut name);
}

/// Recomputes the `<scope>.utilization` / `<scope>.imbalance` gauges
/// from the cumulative per-worker counters, so repeated regions under
/// one scope (e.g. one PPSFP call per 64-pattern block) aggregate into
/// one run-level figure.
fn update_balance_gauges(obs: &crate::obs::Recorder, name: &mut ScopedName) {
    let busy: Vec<u64> = obs
        .counters_with_prefix(name.get(format_args!("worker")))
        .into_iter()
        .filter(|(n, _)| n.ends_with(".busy_nanos"))
        .map(|(_, v)| v)
        .collect();
    let total_busy: u64 = busy.iter().sum();
    if let Some(slot) = obs
        .counter_value(name.get(format_args!("slot_nanos")))
        .filter(|&s| s > 0)
    {
        obs.gauge(
            name.get(format_args!("utilization")),
            total_busy as f64 / slot as f64,
        );
    }
    if !busy.is_empty() && total_busy > 0 {
        let mean = total_busy as f64 / busy.len() as f64;
        let max = busy.iter().max().copied().unwrap_or(0) as f64;
        obs.gauge(name.get(format_args!("imbalance")), max / mean);
    }
}

/// Deterministic parallel map over contiguous chunks of `items`, with
/// per-worker observability.
///
/// `items` is split into (at most) `chunks` contiguous slices — see
/// [`chunk_bounds`] — and `f(chunk_index, chunk)` is evaluated for each,
/// by `threads` scoped workers pulling chunks from a shared counter.
/// Results come back **in chunk order**, so folding them sequentially is
/// bit-identical for every thread count. With `threads <= 1` (or a single
/// chunk) everything runs inline on the caller's thread — no spawn at all.
///
/// When `obs` is enabled the region's scheduling becomes diagnosable
/// from the trace. Per worker `<i>` under the given `scope`:
///
/// * counters `<scope>.worker<i>.items` (processed item total, omitted
///   when zero), `.busy_nanos` (time inside `f`), `.wait_nanos`
///   (region wall-clock minus busy — queue wait plus idle tail), and
///   `.chunks`;
/// * series `<scope>.worker<i>.timeline` — one busy-nanos point per
///   region, the worker's utilization timeline across repeated calls;
///
/// and per region: counters `<scope>.wall_nanos` / `<scope>.slot_nanos`
/// (wall × workers), the histogram `<scope>.chunk_nanos` of individual
/// chunk durations (p50/p99/max expose stragglers), and the derived
/// gauges `<scope>.utilization` (Σ busy / slot, 1.0 = no idle time)
/// and `<scope>.imbalance` (max worker busy / mean worker busy, 1.0 =
/// perfectly balanced) recomputed from the cumulative counters.
///
/// Which worker wins which chunk is a scheduling race, so the
/// per-worker split and all timing telemetry may vary between runs;
/// the `.items` sum across workers always equals `items.len()`, and
/// the mapped *results* stay bit-identical regardless. With a disabled
/// recorder no clock is ever read.
///
/// # Example
///
/// ```
/// use dlp_core::{obs::Recorder, par};
///
/// let items: Vec<u64> = (0..100).collect();
/// let sums = par::map_chunks_counted(4, &items, 8, Recorder::noop(), "sum", |_, c| {
///     c.iter().sum::<u64>()
/// });
/// assert_eq!(sums.iter().sum::<u64>(), 4950);
/// ```
pub fn map_chunks_counted<T, R, F>(
    threads: usize,
    items: &[T],
    chunks: usize,
    obs: &crate::obs::Recorder,
    scope: &str,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let unlimited = crate::budget::RunBudget::unlimited();
    match map_chunks_budgeted(threads, items, chunks, obs, scope, &unlimited, f) {
        Ok(out) => out,
        Err(_) => unreachable!("an unlimited budget can never interrupt a region"),
    }
}

/// A parallel region stopped by its [`RunBudget`] at a chunk boundary.
///
/// `prefix` holds the results of the chunks that completed — always a
/// *contiguous leading run* `0..prefix.len()` of the region's chunk
/// order, so a caller can checkpoint it and later resume from chunk
/// `prefix.len()` with bit-identical results.
#[derive(Debug)]
pub struct Interrupted<R> {
    /// Results of the completed leading chunks, in chunk order.
    pub prefix: Vec<R>,
    /// What tripped, with chunk-level progress attached.
    pub budget: crate::budget::BudgetExceeded,
}

/// [`map_chunks_counted`] with cooperative budget checks at chunk
/// boundaries.
///
/// The budget is checked once before each chunk *claim* (on every
/// worker). When a check trips, no further chunks are claimed; chunks
/// already in flight complete, so the finished results always form a
/// contiguous leading prefix of the chunk order, returned inside
/// [`Interrupted`]. A trip that lands after every chunk was already
/// claimed is *not* an interruption — the region completes and returns
/// `Ok`, because there is nothing left to skip.
///
/// With the deterministic check-count fuse
/// ([`RunBudget::cancel_after_checks`]), a region interrupted with
/// `n` remaining checks completes exactly `min(n, chunks)` chunks —
/// independent of the worker count — because every successful check is
/// followed by exactly one chunk claim, and claims hand out chunk
/// indices in order. This is what makes the chaos harness's
/// kill-and-resume sweeps reproducible at any `DLP_THREADS`.
///
/// # Errors
///
/// [`Interrupted`] carrying the completed prefix and the
/// [`BudgetExceeded`] that stopped the region.
pub fn map_chunks_budgeted<T, R, F>(
    threads: usize,
    items: &[T],
    chunks: usize,
    obs: &crate::obs::Recorder,
    scope: &str,
    budget: &RunBudget,
    f: F,
) -> Result<Vec<R>, Interrupted<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    use std::time::Instant;

    let bounds = chunk_bounds(items.len(), chunks);
    let n = bounds.len();
    let recording = obs.is_enabled();
    let interrupted = |prefix: Vec<R>, reason: BudgetReason| {
        let completed = prefix.len() as u64;
        Err(Interrupted {
            prefix,
            budget: BudgetExceeded {
                reason,
                completed,
                total: n as u64,
            },
        })
    };
    if threads <= 1 || n <= 1 {
        let region_start = recording.then(Instant::now);
        let mut stats = WorkerStats::default();
        let mut out = Vec::with_capacity(n);
        let mut tripped = None;
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            if let Err(reason) = budget.check() {
                tripped = Some(reason);
                break;
            }
            let chunk_start = recording.then(Instant::now);
            let r = f(i, &items[lo..hi]);
            if let Some(start) = chunk_start {
                let nanos = elapsed_nanos(start);
                stats.busy_nanos = stats.busy_nanos.saturating_add(nanos);
                stats.chunks += 1;
                stats.items += (hi - lo) as u64;
                stats.chunk_hist.observe(nanos as f64);
            }
            out.push(r);
        }
        if let Some(start) = region_start {
            if n > 0 {
                record_region(obs, scope, elapsed_nanos(start), 1, &[stats]);
            }
        }
        return match tripped {
            None => Ok(out),
            Some(reason) => interrupted(out, reason),
        };
    }
    let workers = threads.min(n);
    let region_start = recording.then(Instant::now);
    let next = AtomicUsize::new(0);
    let trip_flag = std::sync::atomic::AtomicBool::new(false);
    let trip_reason: Mutex<Option<BudgetReason>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let stats_slots: Vec<Mutex<WorkerStats>> = (0..workers)
        .map(|_| Mutex::new(WorkerStats::default()))
        .collect();
    std::thread::scope(|thread_scope| {
        for w in 0..workers {
            let next = &next;
            let slots = &slots;
            let bounds = &bounds;
            let f = &f;
            let stats_slots = &stats_slots;
            let trip_flag = &trip_flag;
            let trip_reason = &trip_reason;
            thread_scope.spawn(move || {
                let mut stats = WorkerStats::default();
                loop {
                    // A check *must* precede every claim: the fuse
                    // determinism contract counts one successful check
                    // per claimed chunk. Once any worker trips, the
                    // rest stand down without consuming checks.
                    if trip_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Err(reason) = budget.check() {
                        trip_flag.store(true, Ordering::Relaxed);
                        lock_or_recover(trip_reason).get_or_insert(reason);
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (lo, hi) = bounds[i];
                    let chunk_start = recording.then(Instant::now);
                    let r = f(i, &items[lo..hi]);
                    if let Some(start) = chunk_start {
                        let nanos = elapsed_nanos(start);
                        stats.busy_nanos = stats.busy_nanos.saturating_add(nanos);
                        stats.chunks += 1;
                        stats.chunk_hist.observe(nanos as f64);
                    }
                    stats.items += (hi - lo) as u64;
                    *lock_or_recover(&slots[i]) = Some(r);
                }
                if recording {
                    *lock_or_recover(&stats_slots[w]) = stats;
                }
            });
        }
    });
    if let Some(start) = region_start {
        let wall = elapsed_nanos(start);
        let stats: Vec<WorkerStats> = stats_slots
            .into_iter()
            .map(|slot| std::mem::take(&mut *lock_or_recover(&slot)))
            .collect();
        record_region(obs, scope, wall, workers, &stats);
    }
    let mut results: Vec<Option<R>> = slots
        .into_iter()
        .map(|slot| lock_or_recover(&slot).take())
        .collect();
    let reason = lock_or_recover(&trip_reason).take();
    let prefix_len = results.iter().take_while(|r| r.is_some()).count();
    if prefix_len == n {
        // Every chunk completed; a trip after the last claim is moot.
        return Ok(results
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| unreachable!("scoped worker exited without storing its chunk"))
            })
            .collect());
    }
    match reason {
        Some(reason) => {
            debug_assert!(
                results[prefix_len..].iter().all(Option::is_none),
                "completed chunks must form a contiguous prefix"
            );
            let prefix = results
                .drain(..prefix_len)
                .map(|r| {
                    r.unwrap_or_else(|| {
                        unreachable!("prefix scan counted a chunk that is not there")
                    })
                })
                .collect();
            interrupted(prefix, reason)
        }
        None => unreachable!("scoped worker exited without storing its chunk"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The untraced map: the reference the traced and budgeted maps are
    /// checked against.
    fn map_chunks<T, R, F>(threads: usize, items: &[T], chunks: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &[T]) -> R + Sync,
    {
        map_chunks_counted(
            threads,
            items,
            chunks,
            crate::obs::Recorder::noop(),
            "par",
            f,
        )
    }

    #[test]
    fn thread_count_parsing() {
        assert_eq!(ThreadCount::from_setting(None), Ok(ThreadCount::Auto));
        assert_eq!(ThreadCount::from_setting(Some("")), Ok(ThreadCount::Auto));
        assert_eq!(
            ThreadCount::from_setting(Some("  2 ")),
            ThreadCount::fixed(2)
        );
        for bad in ["0", "-1", "1.5", "four", "4x"] {
            let err = ThreadCount::from_setting(Some(bad)).unwrap_err();
            assert_eq!(err.value(), bad.trim());
            assert!(err.to_string().contains("DLP_THREADS"), "{err}");
        }
        assert!(ThreadCount::fixed(0).is_err());
        assert!(ThreadCount::Auto.get() >= 1);
        assert_eq!(ThreadCount::fixed(3).map(ThreadCount::get), Ok(3));
    }

    #[test]
    fn chunk_bounds_cover_exactly_once() {
        for len in [0usize, 1, 2, 7, 64, 70, 100] {
            for chunks in [1usize, 2, 3, 4, 8, 100] {
                let bounds = chunk_bounds(len, chunks);
                if len == 0 {
                    assert!(bounds.is_empty());
                    continue;
                }
                assert_eq!(bounds.len(), chunks.min(len));
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds[bounds.len() - 1].1, len);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                    assert!(w[0].1 > w[0].0, "non-empty");
                }
                // Even split: sizes differ by at most one.
                let sizes: Vec<usize> = bounds.iter().map(|&(a, b)| b - a).collect();
                let min = sizes.iter().min().copied().unwrap_or(0);
                let max = sizes.iter().max().copied().unwrap_or(0);
                assert!(max - min <= 1, "len={len} chunks={chunks} {sizes:?}");
            }
        }
    }

    #[test]
    fn map_chunks_is_thread_count_invariant() {
        let items: Vec<u64> = (0..1000).map(|i| i * 7 + 3).collect();
        let reference = map_chunks(1, &items, 16, |ci, c| (ci, c.iter().sum::<u64>()));
        for threads in [2usize, 3, 4, 8] {
            assert_eq!(
                map_chunks(threads, &items, 16, |ci, c| (ci, c.iter().sum::<u64>())),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_chunks_handles_degenerate_shapes() {
        let empty: &[u8] = &[];
        assert!(map_chunks(4, empty, 8, |_, c| c.len()).is_empty());
        assert_eq!(map_chunks(4, &[42u8], 8, |_, c| c[0]), vec![42]);
        // More chunks than items: one chunk per item.
        let out = map_chunks(2, &[1u8, 2, 3], 100, |_, c| c.to_vec());
        assert_eq!(out, vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn counted_map_matches_plain_and_tallies_all_items() {
        use crate::obs::Recorder;

        let items: Vec<u32> = (0..500).collect();
        let reference = map_chunks(1, &items, 8, |_, c| c.iter().sum::<u32>());
        let obs = Recorder::enabled();
        let got = map_chunks_counted(3, &items, 8, &obs, "t", |_, c| c.iter().sum::<u32>());
        assert_eq!(got, reference);
        let report = obs.report("par");
        let total: u64 = report
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("t.worker") && n.ends_with(".items"))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(total, 500, "per-worker tallies must cover every item");

        // The serial path attributes everything to worker 0.
        let serial_obs = Recorder::enabled();
        let _ = map_chunks_counted(1, &items, 8, &serial_obs, "s", |_, c| c.len());
        assert_eq!(serial_obs.report("x").counter("s.worker0.items"), Some(500));
    }

    #[test]
    fn counted_map_records_worker_timelines() {
        use crate::obs::Recorder;

        let items: Vec<u32> = (0..400).collect();
        let obs = Recorder::enabled();
        // Two regions under one scope, as the PPSFP per-block loop does.
        for _ in 0..2 {
            let _ = map_chunks_counted(4, &items, 8, &obs, "t", |_, c| {
                c.iter().map(|&x| u64::from(x) * 3).sum::<u64>()
            });
        }
        let report = obs.report("par");
        // Chunk accounting: 8 chunks per region, every chunk timed.
        let chunks: u64 = report
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("t.worker") && n.ends_with(".chunks"))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(chunks, 16);
        let hist = report.hist("t.chunk_nanos").expect("chunk duration hist");
        assert_eq!(hist.count, 16);
        assert!(hist.p50().is_some());
        // Region accounting: wall and slot totals, derived gauges.
        let wall = report.counter("t.wall_nanos").expect("wall counter");
        assert_eq!(report.counter("t.slot_nanos"), Some(wall * 4));
        let utilization = report.gauge("t.utilization").expect("utilization");
        assert!(utilization > 0.0 && utilization <= 1.0, "{utilization}");
        let imbalance = report.gauge("t.imbalance").expect("imbalance");
        assert!(imbalance >= 1.0, "{imbalance}");
        // Every spawned worker has a timeline point per region, busy or
        // idle — idleness is the signal the gauges summarise.
        for w in 0..4 {
            let timeline = report
                .series(&format!("t.worker{w}.timeline"))
                .unwrap_or_else(|| panic!("worker{w} timeline"));
            assert_eq!(timeline.len(), 2);
            assert!(report.counter(&format!("t.worker{w}.wait_nanos")).is_some());
        }
        // The serial path reports a single fully-utilised worker.
        let serial = Recorder::enabled();
        let _ = map_chunks_counted(1, &items, 8, &serial, "s", |_, c| c.len());
        let report = serial.report("serial");
        assert_eq!(
            report.counter("s.slot_nanos"),
            report.counter("s.wall_nanos")
        );
        assert_eq!(report.hist("s.chunk_nanos").map(|h| h.count), Some(8));
        assert_eq!(report.gauge("s.imbalance"), Some(1.0));
        // A disabled recorder gets no telemetry at all.
        let noop = Recorder::noop();
        let _ = map_chunks_counted(4, &items, 8, noop, "n", |_, c| c.len());
        assert!(noop.report("n").counters.is_empty());
    }

    #[test]
    fn map_chunks_passes_chunk_indices_in_order() {
        let items: Vec<u8> = vec![0; 37];
        let indices = map_chunks(4, &items, 5, |ci, _| ci);
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn budgeted_map_with_unlimited_budget_matches_plain() {
        let items: Vec<u64> = (0..300).collect();
        let reference = map_chunks(1, &items, 8, |ci, c| (ci, c.iter().sum::<u64>()));
        for threads in [1usize, 2, 4] {
            let got = map_chunks_budgeted(
                threads,
                &items,
                8,
                crate::obs::Recorder::noop(),
                "b",
                &RunBudget::unlimited(),
                |ci, c| (ci, c.iter().sum::<u64>()),
            );
            assert_eq!(got.ok(), Some(reference.clone()), "threads={threads}");
        }
    }

    #[test]
    fn fuse_interrupts_with_a_thread_count_invariant_prefix() {
        let items: Vec<u64> = (0..640).collect();
        let chunks = 16;
        let full = map_chunks(1, &items, chunks, |_, c| c.iter().sum::<u64>());
        for kill in [0u64, 1, 3, 7, 15] {
            for threads in [1usize, 2, 4] {
                let budget = RunBudget::unlimited().cancel_after_checks(kill);
                let out = map_chunks_budgeted(
                    threads,
                    &items,
                    chunks,
                    crate::obs::Recorder::noop(),
                    "b",
                    &budget,
                    |_, c| c.iter().sum::<u64>(),
                );
                let interrupted = out.expect_err("fuse below chunk count must interrupt");
                assert_eq!(
                    interrupted.prefix.len(),
                    kill as usize,
                    "kill={kill} threads={threads}: prefix length is the fuse value"
                );
                assert_eq!(
                    interrupted.prefix,
                    full[..kill as usize],
                    "kill={kill} threads={threads}: prefix must match the full run"
                );
                assert_eq!(interrupted.budget.completed, kill);
                assert_eq!(interrupted.budget.total, chunks as u64);
                assert_eq!(interrupted.budget.reason, BudgetReason::Cancelled);
            }
        }
    }

    #[test]
    fn late_trips_do_not_interrupt_a_completed_region() {
        let items: Vec<u64> = (0..64).collect();
        let chunks = 4;
        // Enough checks to claim every chunk: the region completes even
        // though trailing worker checks trip on the exhausted fuse.
        for threads in [1usize, 2, 4] {
            let budget = RunBudget::unlimited().cancel_after_checks(chunks as u64);
            let out = map_chunks_budgeted(
                threads,
                &items,
                chunks,
                crate::obs::Recorder::noop(),
                "b",
                &budget,
                |_, c| c.len(),
            );
            let out = out.unwrap_or_else(|_| panic!("threads={threads}: all chunks claimed"));
            assert_eq!(out, vec![16, 16, 16, 16]);
        }
    }

    #[test]
    fn expired_deadline_interrupts_before_the_first_chunk() {
        let budget = RunBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let items: Vec<u8> = vec![1; 100];
        for threads in [1usize, 4] {
            let err = map_chunks_budgeted(
                threads,
                &items,
                8,
                crate::obs::Recorder::noop(),
                "b",
                &budget,
                |_, c| c.len(),
            )
            .expect_err("an expired deadline stops the region up front");
            assert!(err.prefix.is_empty());
            assert_eq!(err.budget.completed, 0);
            assert!(matches!(err.budget.reason, BudgetReason::Deadline { .. }));
        }
    }
}
