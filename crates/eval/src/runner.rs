//! Deterministic parallel episode execution.
//!
//! Every experiment in this crate is a grid of independent *episodes*
//! (one fixing/generation attempt at fixed coordinates). Episodes are pure
//! functions of their [`EpisodeSpec`] — all randomness comes from the
//! spec's seed, and all inputs (dataset, guidance database, retrieval
//! index) are shared read-only artifacts — so they can execute on any
//! thread in any order without changing results. This module provides:
//!
//! * [`episode_seed`] — the single canonical seed derivation every
//!   experiment uses (one namespace, documented below).
//! * [`run_indexed`] — a self-scheduling (work-stealing) thread pool over
//!   an index range, reassembling results in index order so parallel runs
//!   are byte-identical to `jobs = 1`.
//! * [`run_indexed_checked`] / [`run_episodes_checked`] — the same pool
//!   with per-index panic containment: a panicking episode becomes a
//!   structured [`EpisodeFailure`] instead of tearing down the run.
//! * [`run_planned_checked`] / [`run_episodes_planned`] — the one executor
//!   behind all of these: workers claim the batches of a
//!   [`Plan`](crate::schedule::Plan) in order. The index-range entry points
//!   run the grid plan, one index per batch in index order;
//!   [`run_episodes_planned`] runs the fingerprint-batched plan.
//! * [`episode_grid`] / [`run_episodes`] — the flattened
//!   entries × repeats grid most experiments execute, with wall-clock
//!   [`RunStats`].
//!
//! # Seed namespace
//!
//! `episode_seed(base, cell, entry, repeat)` mixes a per-config base seed
//! with three grid coordinates. The `cell` coordinate partitions the seed
//! space between experiments so no two episodes in one process ever share
//! a seed by accident:
//!
//! | cell range | experiment |
//! |-----------:|------------|
//! | 0..=13     | Table 1 grid cells (paper row order) |
//! | 20         | Figure 7 iteration histogram |
//! | 40, 41     | Table 2/3 generator and fixer episodes |
//! | 60, 61     | §5 sim-debug mutation and repair |
//! | 100..=104  | ablations: iteration-budget sweep |
//! | 200..=201  | ablations: pre-fixer on/off |
//! | 300..=303  | ablations: database-size sweep |
//! | 500..=503  | ablations: retriever choice (incl. hybrid) |
//! | 510..=511  | ablations: iverilog exact-tag vs hybrid duel |
//! | 700..=799  | chaos: fault-rate sweep (one cell per variant × rate) |
//! | 800        | learning curve (`table_learning`) — every round reuses
//! |            | this one cell, so rounds differ only via the distilled
//! |            | store's state, never via fresh seeds |

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Derives the deterministic seed for one episode.
///
/// The derivation is a fixed-point contract: changing any multiplier
/// changes every experimental result in the repo. `base` is spread across
/// the 64-bit space by the golden-ratio constant; `cell`, `entry` and
/// `repeat` are spaced by primes large enough that realistic grids
/// (hundreds of entries, tens of repeats) never collide within a cell.
pub fn episode_seed(base: u64, cell: u64, entry: u64, repeat: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell.wrapping_mul(1_000_003))
        .wrapping_add(entry.wrapping_mul(10_007))
        .wrapping_add(repeat)
}

/// Resolves a requested worker count: `0` means "use the machine's
/// available parallelism".
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Runs `task(0..len)` across `jobs` worker threads and returns the results
/// in index order.
///
/// Scheduling is self-balancing: workers claim the next index from a shared
/// atomic cursor, so a slow episode never stalls the queue behind it
/// (work-stealing in the limit of a single shared deque). Because `task` is
/// a pure function of its index, the reassembled output is identical for
/// every `jobs` value, including the serial `jobs <= 1` fast path.
pub fn run_indexed<R, F>(jobs: usize, len: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (results, failures) = run_indexed_checked(jobs, len, task);
    if let Some(first) = failures.first() {
        panic!(
            "{} of {len} episodes panicked; first at index {}: {}",
            failures.len(),
            first.index,
            first.message
        );
    }
    results
        .into_iter()
        .map(|v| v.expect("no failures, so every index produced a value"))
        .collect()
}

/// One contained episode panic from [`run_indexed_checked`].
#[derive(Debug, Clone)]
pub struct EpisodeFailure {
    /// Index of the panicking task.
    pub index: usize,
    /// Rendered panic payload.
    pub message: String,
}

/// Renders a caught panic payload for an [`EpisodeFailure`].
///
/// `panic!` payloads are `&str` / `String` and render verbatim. Typed
/// payloads (`std::panic::panic_any` with an error code, an exit status, a
/// structured error) get a best-effort `Debug` rendering for the common
/// primitive types, so server logs are never blind to what actually
/// escaped an episode.
pub fn panic_message(payload: Box<dyn Any + Send>) -> String {
    macro_rules! try_debug {
        ($($ty:ty),+ $(,)?) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!("panic payload ({}): {:?}", stringify!($ty), v);
            })+
        };
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    try_debug!(
        i8, i16, i32, i64, i128, isize, u8, u16, u32, u64, u128, usize, f32, f64, bool, char,
        Box<str>, Vec<String>, Option<String>, std::io::Error, std::fmt::Error,
    );
    format!("non-string panic payload ({:?})", (*payload).type_id())
}

/// Like [`run_indexed`], but a panicking task yields a structured
/// [`EpisodeFailure`] (and a `None` result slot) instead of aborting the
/// pool — one poisoned episode cannot sink a whole grid.
///
/// Failures are returned in index order. Determinism is preserved: panics
/// are as much a pure function of the index as results are.
pub fn run_indexed_checked<R, F>(
    jobs: usize,
    len: usize,
    task: F,
) -> (Vec<Option<R>>, Vec<EpisodeFailure>)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (results, failures, _) = run_planned_checked(jobs, &crate::schedule::Plan::grid(len), task);
    (results, failures)
}

/// Executes a [`Plan`](crate::schedule::Plan): workers claim whole batches
/// from a shared cursor and run members back-to-back (so a batch leader's
/// compile/elaborate warms the artifact caches for its followers), then
/// flush results through one lock per worker. [`run_episodes_planned`]
/// clamps `jobs` to the hardware, since CPU-bound workers beyond it only
/// oversubscribe; this function honours the count it is given, so
/// [`run_indexed`] keeps its requested count and tests can exercise
/// specific worker configurations.
///
/// Each task runs inside an observability episode capture: whatever the
/// episode records (spans, counters, trace events) lands in a worker-local
/// buffer, merged into the registry at the barrier in index order. Results
/// land in slots by original index, so outputs and registry contents are
/// bit-identical for every `jobs` value and every plan over the same
/// positions. A contained panic keeps the failed episode's partial
/// telemetry — failures should be visible.
///
/// The third return value is the total wall time workers spent idle at the
/// pool barrier (their own queue drained, other workers still running), in
/// microseconds; always `0` on the serial path, which has no barrier.
pub fn run_planned_checked<R, F>(
    jobs: usize,
    plan: &crate::schedule::Plan,
    task: F,
) -> (Vec<Option<R>>, Vec<EpisodeFailure>, u64)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let len = plan.len();
    let jobs = resolve_jobs(jobs).min(plan.batches.len().max(1));
    let run_one = |index: usize| {
        rtlfixer_obs::episode_begin();
        let result = catch_unwind(AssertUnwindSafe(|| task(index)));
        let telemetry = rtlfixer_obs::episode_end();
        (result.map_err(panic_message), telemetry)
    };
    type Slot<R> = (Result<R, String>, Option<rtlfixer_obs::EpisodeTelemetry>);

    let mut slots: Vec<Option<Slot<R>>> = Vec::new();
    slots.resize_with(len, || None);
    let mut barrier_idle_us = 0u64;
    if jobs <= 1 {
        for batch in &plan.batches {
            for &index in batch {
                slots[index] = Some(run_one(index));
            }
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, Slot<R>)>> = Mutex::new(Vec::with_capacity(len));
        let finishes: Mutex<Vec<Instant>> = Mutex::new(Vec::with_capacity(jobs));
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let cursor = &cursor;
                let collected = &collected;
                let finishes = &finishes;
                let run_one = &run_one;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Slot<R>)> = Vec::new();
                    loop {
                        let claim = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(batch) = plan.batches.get(claim) else { break };
                        for &index in batch {
                            local.push((index, run_one(index)));
                        }
                    }
                    // The worker is done before it queues for the flush
                    // locks, so lock contention does not count as idle.
                    let done = Instant::now();
                    collected
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .extend(local);
                    finishes
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .push(done);
                });
            }
        });
        for (index, slot) in
            collected.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner())
        {
            slots[index] = Some(slot);
        }
        let finishes = finishes.into_inner().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(last) = finishes.iter().max().copied() {
            barrier_idle_us = finishes
                .iter()
                .map(|f| u64::try_from(last.duration_since(*f).as_micros()).unwrap_or(u64::MAX))
                .sum();
        }
    }

    let mut results = Vec::with_capacity(len);
    let mut failures = Vec::new();
    for (index, slot) in slots.into_iter().enumerate() {
        let (result, telemetry) = slot.expect("plan covered every position exactly once");
        // The pool barrier: worker-local telemetry merges in index order,
        // independent of which worker ran what, in which batch.
        if let Some(telemetry) = &telemetry {
            rtlfixer_obs::merge(telemetry);
        }
        match result {
            Ok(value) => results.push(Some(value)),
            Err(message) => {
                results.push(None);
                failures.push(EpisodeFailure { index, message });
            }
        }
    }
    (results, failures, barrier_idle_us)
}

/// Coordinates plus derived seed for one episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodeSpec {
    /// Experiment cell (see the module-level namespace table).
    pub cell: u64,
    /// Dataset entry index within the cell.
    pub entry: usize,
    /// Repeat index within the entry.
    pub repeat: usize,
    /// The derived [`episode_seed`].
    pub seed: u64,
}

/// Flattens an `entries × repeats` grid into episode specs, repeats
/// innermost (the order the sequential loops used).
pub fn episode_grid(base: u64, cell: u64, entries: usize, repeats: usize) -> Vec<EpisodeSpec> {
    let mut specs = Vec::with_capacity(entries * repeats);
    for entry in 0..entries {
        for repeat in 0..repeats {
            specs.push(EpisodeSpec {
                cell,
                entry,
                repeat,
                seed: episode_seed(base, cell, entry as u64, repeat as u64),
            });
        }
    }
    specs
}

/// Hit/miss counters of one artifact cache, in serialisable form (see
/// [`rtlfixer_cache::CacheStats`]).
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute while the cache was enabled.
    pub misses: u64,
    /// Lookups that skipped the cache entirely (kill switch) — kept out of
    /// `misses` so `RTLFIXER_CACHE=0` runs don't read as cold caches.
    pub bypassed: u64,
    /// Entries dropped by capacity-pressure shard clears.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// `hits / (hits + misses)`, `0` with no traffic.
    pub hit_rate: f64,
}

impl From<rtlfixer_cache::CacheStats> for CacheCounters {
    fn from(stats: rtlfixer_cache::CacheStats) -> Self {
        CacheCounters {
            hits: stats.hits,
            misses: stats.misses,
            bypassed: stats.bypassed,
            evictions: stats.evictions,
            entries: stats.entries,
            hit_rate: stats.hit_rate(),
        }
    }
}

/// Point-in-time snapshot of the three process-wide artifact caches the
/// episode pool shares: frontend analyses, rendered compile outcomes, and
/// elaborated designs. Counters are cumulative since process start.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct CacheReport {
    /// Whether caching was active at snapshot time (`RTLFIXER_CACHE`).
    pub enabled: bool,
    /// `rtlfixer_verilog::compile_shared` (source → `Analysis`).
    pub analyses: CacheCounters,
    /// `Compiler::compile_cached` (personality × file × source → outcome).
    pub outcomes: CacheCounters,
    /// `rtlfixer_sim::elab::elaborate_shared` (source × top → `Design`).
    pub designs: CacheCounters,
}

/// Snapshots all three artifact caches (for throughput artifacts and logs).
pub fn cache_report() -> CacheReport {
    CacheReport {
        enabled: rtlfixer_cache::enabled(),
        analyses: rtlfixer_verilog::analysis_cache_stats().into(),
        outcomes: rtlfixer_compilers::outcome_cache_stats().into(),
        designs: rtlfixer_sim::elab::design_cache_stats().into(),
    }
}

/// Wall-clock statistics for one experiment cell / run.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct RunStats {
    /// Episodes executed.
    pub episodes: usize,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Episode throughput over *successful* episodes — a panicked episode
    /// is not completed work, so chaos runs don't inflate this number.
    pub episodes_per_sec: f64,
    /// Episodes that panicked and were contained as [`EpisodeFailure`]s
    /// (always 0 on the unchecked paths, which abort instead).
    pub failed_episodes: usize,
    /// Scheduler metadata of the run (batches formed, episodes coalesced,
    /// barrier idle) — `None` (serialised as `null`) for runs that never
    /// went through [`run_episodes_planned`].
    pub scheduler: Option<crate::schedule::SchedulerStats>,
}

impl RunStats {
    /// Builds stats from a measured duration.
    pub fn new(episodes: usize, wall: Duration) -> Self {
        let seconds = wall.as_secs_f64();
        RunStats {
            episodes,
            seconds,
            episodes_per_sec: if seconds > 0.0 { episodes as f64 / seconds } else { 0.0 },
            failed_episodes: 0,
            scheduler: None,
        }
    }

    /// Records contained episode failures (builder style) and recomputes
    /// throughput over the episodes that actually completed.
    pub fn with_failed(mut self, failed_episodes: usize) -> Self {
        self.failed_episodes = failed_episodes;
        let successful = self.episodes.saturating_sub(failed_episodes);
        self.episodes_per_sec =
            if self.seconds > 0.0 { successful as f64 / self.seconds } else { 0.0 };
        self
    }

    /// Folds another run's wall-clock stats into this one (episodes,
    /// seconds and scheduler counters add, throughput recomputes). The
    /// aggregation the multi-cell experiments share.
    pub fn accumulate(&mut self, other: &RunStats) {
        if let Some(theirs) = &other.scheduler {
            let mine = self.scheduler.get_or_insert_with(Default::default);
            mine.batches += theirs.batches;
            mine.coalesced += theirs.coalesced;
            mine.barrier_idle_us += theirs.barrier_idle_us;
        }
        self.episodes += other.episodes;
        self.failed_episodes += other.failed_episodes;
        self.seconds += other.seconds;
        let successful = self.episodes.saturating_sub(self.failed_episodes);
        self.episodes_per_sec =
            if self.seconds > 0.0 { successful as f64 / self.seconds } else { 0.0 };
    }
}

/// Runs every episode of a grid through the pool, timed.
///
/// Returns per-episode results in grid order (entry-major, repeat-minor)
/// plus wall-clock stats.
pub fn run_episodes<R, F>(jobs: usize, specs: &[EpisodeSpec], episode: F) -> (Vec<R>, RunStats)
where
    R: Send,
    F: Fn(&EpisodeSpec) -> R + Sync,
{
    let start = Instant::now();
    let results = run_indexed(jobs, specs.len(), |i| episode(&specs[i]));
    (results, RunStats::new(specs.len(), start.elapsed()))
}

/// [`run_episodes`] with panic containment: a panicking episode yields a
/// `None` result and an [`EpisodeFailure`], the rest of the grid completes,
/// and the failure count lands in [`RunStats::failed_episodes`].
pub fn run_episodes_checked<R, F>(
    jobs: usize,
    specs: &[EpisodeSpec],
    episode: F,
) -> (Vec<Option<R>>, Vec<EpisodeFailure>, RunStats)
where
    R: Send,
    F: Fn(&EpisodeSpec) -> R + Sync,
{
    let start = Instant::now();
    let (results, failures) = run_indexed_checked(jobs, specs.len(), |i| episode(&specs[i]));
    let stats = RunStats::new(specs.len(), start.elapsed()).with_failed(failures.len());
    (results, failures, stats)
}

/// [`run_episodes_checked`] over the fingerprint-batched
/// [`Plan`](crate::schedule::Plan) of `features` (one per spec): specs
/// sharing a source run back-to-back on one worker, batches in grid order.
/// The returned [`RunStats`] carries the run's
/// [`SchedulerStats`](crate::schedule::SchedulerStats) for
/// `results/bench_eval.json`. Results and failures are by original grid
/// position — the plan is invisible in the outputs.
pub fn run_episodes_planned<R, F>(
    jobs: usize,
    specs: &[EpisodeSpec],
    features: &[crate::schedule::EpisodeFeatures],
    episode: F,
) -> (Vec<Option<R>>, Vec<EpisodeFailure>, RunStats)
where
    R: Send,
    F: Fn(&EpisodeSpec) -> R + Sync,
{
    assert_eq!(specs.len(), features.len(), "one feature set per spec");
    let plan = crate::schedule::Plan::batched(features);
    // Episodes are CPU-bound, so workers beyond the machine's parallelism
    // only add context-switch and cache-thrash overhead. The planner clamps
    // the pool to the hardware (results are jobs-invariant by construction,
    // so this is pure wall-time).
    let hardware = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(usize::MAX);
    let jobs = resolve_jobs(jobs).min(hardware);
    let start = Instant::now();
    let (results, failures, barrier_idle_us) =
        run_planned_checked(jobs, &plan, |i| episode(&specs[i]));
    let mut stats = RunStats::new(specs.len(), start.elapsed()).with_failed(failures.len());
    stats.scheduler = Some(crate::schedule::SchedulerStats {
        batches: plan.batches.len(),
        coalesced: plan.coalesced(),
        barrier_idle_us,
    });
    (results, failures, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_stable() {
        // The published contract: these exact values are what every
        // experiment's RNG streams derive from.
        assert_eq!(episode_seed(1, 0, 0, 0), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(
            episode_seed(1, 2, 3, 4),
            0x9E37_79B9_7F4A_7C15u64
                .wrapping_add(2 * 1_000_003)
                .wrapping_add(3 * 10_007)
                .wrapping_add(4)
        );
    }

    #[test]
    fn seeds_unique_within_realistic_grids() {
        let mut seen = std::collections::HashSet::new();
        for cell in
            [0u64, 1, 13, 20, 40, 41, 60, 61, 100, 104, 200, 300, 500, 503, 510, 511, 800]
        {
            for entry in 0..250u64 {
                for repeat in 0..12u64 {
                    assert!(
                        seen.insert(episode_seed(7, cell, entry, repeat)),
                        "collision at cell {cell} entry {entry} repeat {repeat}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(i as u32 % 64);
        let serial = run_indexed(1, 500, work);
        for jobs in [2, 3, 8] {
            assert_eq!(run_indexed(jobs, 500, work), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_tiny_ranges() {
        assert_eq!(run_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(8, 1, |i| i * 2), vec![0]);
    }

    #[test]
    fn grid_order_is_entry_major() {
        let specs = episode_grid(1, 5, 2, 3);
        let coords: Vec<(usize, usize)> = specs.iter().map(|s| (s.entry, s.repeat)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        for spec in &specs {
            assert_eq!(
                spec.seed,
                episode_seed(1, 5, spec.entry as u64, spec.repeat as u64)
            );
        }
    }

    #[test]
    fn run_episodes_reports_stats() {
        let specs = episode_grid(1, 0, 4, 2);
        let (results, stats) = run_episodes(2, &specs, |s| s.seed);
        assert_eq!(results.len(), 8);
        assert_eq!(stats.episodes, 8);
        assert!(stats.seconds >= 0.0);
    }

    #[test]
    fn resolve_jobs_zero_is_auto() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(4), 4);
    }

    /// Runs `f` with the default panic hook suppressed so contained panics
    /// don't spam the test log.
    fn quietly<T>(f: impl FnOnce() -> T) -> T {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn checked_pool_contains_panics() {
        for jobs in [1, 4] {
            let (results, failures) = quietly(|| {
                run_indexed_checked(jobs, 20, |i| {
                    if i == 7 || i == 13 {
                        panic!("episode {i} fell over");
                    }
                    i * 2
                })
            });
            assert_eq!(results.len(), 20, "jobs = {jobs}");
            assert_eq!(results[6], Some(12));
            assert_eq!(results[7], None);
            assert_eq!(results[13], None);
            let indices: Vec<usize> = failures.iter().map(|f| f.index).collect();
            assert_eq!(indices, vec![7, 13], "jobs = {jobs}");
            assert!(failures[0].message.contains("episode 7 fell over"));
        }
    }

    #[test]
    fn non_string_panic_payloads_render_debug() {
        // Regression: `panic_any` with a typed payload (an errno, an exit
        // status, a structured error) used to collapse to the blind
        // "non-string panic payload" — server logs need the value.
        let (results, failures) = quietly(|| {
            run_indexed_checked(2, 4, |i| {
                match i {
                    1 => std::panic::panic_any(42i32),
                    2 => std::panic::panic_any(Some("poisoned".to_owned())),
                    _ => {}
                }
                i
            })
        });
        assert_eq!(results[0], Some(0));
        assert_eq!(failures.len(), 2);
        assert!(failures[0].message.contains("i32") && failures[0].message.contains("42"),
            "{}", failures[0].message);
        assert!(failures[1].message.contains("poisoned"), "{}", failures[1].message);
        // Truly opaque payloads still identify themselves by type id.
        struct Opaque;
        let message = panic_message(Box::new(Opaque));
        assert!(message.contains("non-string panic payload (TypeId"), "{message}");
    }

    #[test]
    fn unchecked_pool_reports_structured_panic() {
        let caught = quietly(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_indexed(2, 10, |i| {
                    if i == 3 {
                        panic!("boom at {i}");
                    }
                    i
                })
            }))
        });
        let message = panic_message(caught.expect_err("must propagate"));
        assert!(message.contains("1 of 10 episodes panicked"), "{message}");
        assert!(message.contains("index 3"), "{message}");
        assert!(message.contains("boom at 3"), "{message}");
    }

    #[test]
    fn failed_episodes_do_not_count_toward_throughput() {
        // Regression: panicked episodes are not completed work; throughput
        // under chaos must be computed over successes only.
        let stats = RunStats::new(10, Duration::from_secs(2)).with_failed(4);
        assert_eq!(stats.episodes, 10);
        assert_eq!(stats.failed_episodes, 4);
        assert!((stats.episodes_per_sec - 3.0).abs() < 1e-12, "{stats:?}");
        let all_failed = RunStats::new(5, Duration::from_secs(1)).with_failed(5);
        assert_eq!(all_failed.episodes_per_sec, 0.0, "{all_failed:?}");
        let clean = RunStats::new(6, Duration::from_secs(2)).with_failed(0);
        assert!((clean.episodes_per_sec - 3.0).abs() < 1e-12, "{clean:?}");
    }

    #[test]
    fn telemetry_merges_identically_at_any_jobs_and_plan() {
        // Worker-local episode telemetry merges at the pool barrier in
        // index order, so the registry aggregate is a pure function of the
        // episode set — independent of worker count, scheduling and plan.
        // Both entry points are checked in this one test because each
        // check flips the process-global telemetry flag and resets the
        // registry: as two tests running in parallel they would clear each
        // other's runs.
        // Only `test.`-prefixed keys are compared: other tests in this
        // binary may record telemetry concurrently while the flag is on.
        use crate::schedule::{EpisodeFeatures, Plan};
        rtlfixer_obs::set_telemetry(true);
        let ours = |snap: &rtlfixer_obs::Snapshot| {
            let counters: Vec<(String, u64)> = snap
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("test."))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            let hists: Vec<(String, rtlfixer_obs::Histogram)> = snap
                .hists
                .iter()
                .filter(|(k, _)| k.starts_with("test."))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            (counters, hists)
        };

        // `run_indexed` (the grid plan) at any job count.
        let run = |jobs: usize| {
            rtlfixer_obs::reset();
            let _ = run_indexed(jobs, 40, |i| {
                rtlfixer_obs::counter_add("test.episodes", 1);
                rtlfixer_obs::counter_add(&format!("test.mod.{}", i % 3), 1);
                rtlfixer_obs::observe("test.value", (i as u64) * 7 % 100);
                i
            });
            ours(&rtlfixer_obs::snapshot())
        };
        let serial = run(1);
        assert!(serial.0.iter().any(|(k, v)| k == "test.episodes" && *v == 40), "{serial:?}");
        for jobs in [2, 4] {
            assert_eq!(run(jobs), serial, "jobs = {jobs}");
        }

        // A batched plan against `run_indexed` at one job.
        let work = |i: usize| {
            rtlfixer_obs::counter_add("test.sched.episodes", 1);
            rtlfixer_obs::observe("test.sched.value", (i as u64) * 13 % 50);
            i
        };
        rtlfixer_obs::reset();
        let _ = run_indexed(1, 30, work);
        let grid = ours(&rtlfixer_obs::snapshot());
        assert!(grid.0.iter().any(|(k, v)| k == "test.sched.episodes" && *v == 30), "{grid:?}");
        let features: Vec<EpisodeFeatures> =
            (0..30).map(|i| EpisodeFeatures { fingerprint: u128::from(i as u64 % 5) }).collect();
        let plan = Plan::batched(&features);
        for jobs in [1, 4] {
            rtlfixer_obs::reset();
            let _ = run_planned_checked(jobs, &plan, work);
            assert_eq!(ours(&rtlfixer_obs::snapshot()), grid, "jobs = {jobs}");
        }
        rtlfixer_obs::set_telemetry(false);
        rtlfixer_obs::reset();
    }

    #[test]
    fn planned_executor_is_identical_under_every_plan_and_jobs() {
        use crate::schedule::{EpisodeFeatures, Plan};
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(i as u32 % 64);
        let expected: Vec<Option<u64>> = (0..120).map(|i| Some(work(i))).collect();
        // Grid plan and batched plan (with shared fingerprints so real
        // batches form), at several job counts: identical results in index
        // order.
        let features: Vec<EpisodeFeatures> = (0..120)
            .map(|i| EpisodeFeatures { fingerprint: u128::from(i as u64 % 17) })
            .collect();
        for plan in [Plan::grid(120), Plan::batched(&features)] {
            for jobs in [1, 2, 4] {
                let (results, failures, barrier_idle_us) = run_planned_checked(jobs, &plan, work);
                assert_eq!(results, expected, "{} batches, jobs {jobs}", plan.batches.len());
                assert!(failures.is_empty());
                if jobs == 1 {
                    assert_eq!(barrier_idle_us, 0, "no barrier when serial");
                }
            }
        }
    }

    #[test]
    fn planned_executor_contains_panics_by_original_index() {
        use crate::schedule::{EpisodeFeatures, Plan};
        let features: Vec<EpisodeFeatures> =
            (0..20).map(|i| EpisodeFeatures { fingerprint: u128::from(i as u64 / 2) }).collect();
        let plan = Plan::batched(&features);
        for jobs in [1, 3] {
            let (results, failures, _) = quietly(|| {
                run_planned_checked(jobs, &plan, |i| {
                    if i == 7 || i == 13 {
                        panic!("episode {i} fell over");
                    }
                    i * 2
                })
            });
            assert_eq!(results.len(), 20, "jobs = {jobs}");
            assert_eq!(results[6], Some(12));
            assert_eq!(results[7], None);
            assert_eq!(results[13], None);
            let indices: Vec<usize> = failures.iter().map(|f| f.index).collect();
            assert_eq!(indices, vec![7, 13], "failures stay in index order, jobs = {jobs}");
        }
    }

    #[test]
    fn run_stats_accumulate_folds_scheduler_metadata() {
        use crate::schedule::SchedulerStats;
        let mut total = RunStats::new(10, Duration::from_secs(1));
        total.scheduler = Some(SchedulerStats { batches: 4, coalesced: 6, barrier_idle_us: 10 });
        let mut other = RunStats::new(30, Duration::from_secs(3));
        other.scheduler = Some(SchedulerStats { batches: 10, coalesced: 20, barrier_idle_us: 30 });
        total.accumulate(&other);
        assert_eq!(total.episodes, 40);
        assert!((total.seconds - 4.0).abs() < 1e-12);
        assert!((total.episodes_per_sec - 10.0).abs() < 1e-12);
        let sched = total.scheduler.expect("merged scheduler stats");
        assert_eq!(sched.batches, 14);
        assert_eq!(sched.coalesced, 26);
        assert_eq!(sched.barrier_idle_us, 40);
        // Folding into a scheduler-less total adopts the other side's stats.
        let mut bare = RunStats::new(5, Duration::from_secs(1));
        bare.accumulate(&other);
        assert_eq!(bare.scheduler.expect("adopted").batches, 10);
    }

    #[test]
    fn run_episodes_checked_counts_failures() {
        let specs = episode_grid(1, 0, 6, 1);
        let (results, failures, stats) = quietly(|| {
            run_episodes_checked(2, &specs, |s| {
                assert!(s.entry != 2, "deliberate failure at entry 2");
                s.seed
            })
        });
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 5);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 2);
        assert_eq!(stats.failed_episodes, 1);
        assert_eq!(stats.episodes, 6);
    }
}
