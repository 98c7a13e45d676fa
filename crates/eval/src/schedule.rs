//! Telemetry-driven episode scheduling: cost-model ordering, fingerprint
//! batching and deterministic multi-process sharding.
//!
//! The [`runner`](crate::runner) pool treats every episode as an opaque,
//! equal-cost unit and drains specs in grid order. That leaves two kinds of
//! waste on the table: long-tail episodes (multi-turn repairs) claimed last
//! straggle at the pool barrier, and specs sharing a source redo
//! compile/elaborate admission work whenever concurrent workers race the
//! same cache miss. This module *plans* execution instead:
//!
//! * A [`CostModel`] predicts per-episode cost from static features
//!   (primary error category, source length) and — when the `--telemetry`
//!   registry has seen traffic — from the per-category episode-duration
//!   histograms `rtlfixer-obs` records (`span.episode.by_category.*.us`,
//!   read back via [`rtlfixer_obs::span_summaries`]).
//! * [`plan`] groups specs sharing a 128-bit source fingerprint into
//!   batches (one worker runs a batch back-to-back, so the leader's
//!   compile/elaborate warms the artifact caches before the rest of the
//!   batch runs — planned coalescing instead of incidental dedupe) and
//!   orders batches longest-expected-first (LPT), so stragglers start
//!   first and the barrier tail shrinks.
//! * [`Shard`] partitions a spec grid deterministically by spec index
//!   (`index % count == shard`), the unit the bench binaries' `--shard i/n`
//!   flag and `merge-shards` subcommand are built on.
//!
//! None of this may change results: episodes are pure functions of their
//! spec, results are written back by original index, and worker-local
//! telemetry still merges at the barrier in index order — so the
//! bit-identical-at-any-`--jobs` invariant holds under every policy, and
//! the scheduling invariance suite pins it. `RTLFIXER_SCHED=grid` (or any
//! "off" spelling: `0`/`off`/`false`/`no`) runs the planned executor
//! without reordering or batching, claiming episodes in grid order —
//! isolating the ordering effect for A/B measurements.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Scheduling policy for one planned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Singleton batches in grid order — no reordering, no coalescing.
    /// Isolates ordering effects in A/B runs (`RTLFIXER_SCHED=grid`, or an
    /// "off" spelling).
    Grid,
    /// Fingerprint batching + longest-expected-first ordering (default).
    Lpt,
}

impl Policy {
    /// Stable lowercase name recorded in `results/bench_eval.json`.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Grid => "grid",
            Policy::Lpt => "lpt",
        }
    }
}

// 0 = uninitialised, 1 = Grid, 2 = Lpt, +8 = forced override.
static POLICY: AtomicU8 = AtomicU8::new(0);

fn policy_from_env() -> Policy {
    match std::env::var("RTLFIXER_SCHED") {
        Ok(value) => match value.to_ascii_lowercase().as_str() {
            "0" | "off" | "false" | "no" | "grid" => Policy::Grid,
            // Unrecognised spellings keep the default on, mirroring the
            // other RTLFIXER_* switches: a typo must not silently change
            // the engine.
            _ => Policy::Lpt,
        },
        Err(_) => Policy::Lpt,
    }
}

fn encode(policy: Policy) -> u8 {
    match policy {
        Policy::Grid => 1,
        Policy::Lpt => 2,
    }
}

fn decode(bits: u8) -> Policy {
    match bits & 0b111 {
        1 => Policy::Grid,
        _ => Policy::Lpt,
    }
}

/// The active scheduling policy: a forced override if one is set, else
/// `RTLFIXER_SCHED` (consulted once and cached).
pub fn policy() -> Policy {
    match POLICY.load(Ordering::Relaxed) {
        0 => {
            let policy = policy_from_env();
            // Keep a racing `force_policy` call's override: only replace
            // the uninitialised marker.
            let _ = POLICY.compare_exchange(
                0,
                encode(policy),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            decode(POLICY.load(Ordering::Relaxed))
        }
        bits => decode(bits),
    }
}

/// Overrides the scheduling policy process-wide (tests, A/B sweeps).
/// `None` returns to the `RTLFIXER_SCHED` environment setting.
pub fn force_policy(policy: Option<Policy>) {
    match policy {
        Some(policy) => POLICY.store(encode(policy) | 0b1000, Ordering::Relaxed),
        None => POLICY.store(0, Ordering::Relaxed),
    }
}

// ---- sharding -------------------------------------------------------------

/// One deterministic partition of a spec grid: spec `i` belongs to shard
/// `index` of `count` iff `i % count == index`. Striding (rather than
/// contiguous ranges) keeps every shard's workload representative — entries
/// and repeats interleave across shards the way they do across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total shards the grid is split into (`>= 1`).
    pub count: usize,
}

impl Shard {
    /// The full grid as a single shard.
    pub const FULL: Shard = Shard { index: 0, count: 1 };

    /// Parses `"i/n"` (e.g. `"0/2"`), rejecting `n = 0`, `i >= n` and
    /// malformed input with a human-readable message.
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("--shard expects i/n (e.g. 0/2), got `{text}`"))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| format!("--shard index is not a number in `{text}`"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("--shard count is not a number in `{text}`"))?;
        if count == 0 {
            return Err(format!("--shard count must be >= 1, got `{text}`"));
        }
        if index >= count {
            return Err(format!(
                "--shard index must be < count, got `{text}` (index {index} of {count})"
            ));
        }
        Ok(Shard { index, count })
    }

    /// Whether spec index `i` belongs to this shard.
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }

    /// The spec indices of `0..len` this shard owns, ascending.
    pub fn indices(&self, len: usize) -> Vec<usize> {
        (self.index..len).step_by(self.count).collect()
    }

    /// Whether this is the whole grid.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

// ---- cost model -----------------------------------------------------------

/// Static, scheduler-visible features of one episode. Everything here is
/// derivable from the spec's inputs before execution; nothing depends on
/// the episode's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodeFeatures {
    /// 128-bit fingerprint of the episode's source (the batching key —
    /// episodes sharing it share compile/elaborate admission work).
    pub fingerprint: u128,
    /// Source length in bytes.
    pub source_len: usize,
    /// Primary injected-error category slug (`None` when unknown, e.g.
    /// generation episodes).
    pub category: Option<&'static str>,
}

impl EpisodeFeatures {
    /// Features for an episode over `source` with an optional primary
    /// category.
    pub fn of(source: &str, category: Option<&'static str>) -> Self {
        EpisodeFeatures {
            fingerprint: rtlfixer_cache::fingerprint128(source.as_bytes()),
            source_len: source.len(),
            category,
        }
    }
}

/// Static per-category cost weight, in microsecond-scale units. These seed
/// the model before any telemetry exists; the ordering (not the absolute
/// scale) is what LPT consumes. Categories whose repairs typically take
/// more ReAct revisions (structural errors the guidance database is weak
/// on) weigh more than one-revision lexical slips.
fn static_category_us(slug: &str) -> u64 {
    match slug {
        // Structural / multi-revision repairs.
        "unbalanced_block" | "syntax_error" => 900,
        "c_style_construct" | "keyword_as_identifier" => 700,
        "port_connection_mismatch" | "unknown_module" => 650,
        // Declaration-level repairs, usually fixed in one or two turns.
        "undeclared_identifier" | "redeclaration" | "misplaced_directive" => 500,
        "illegal_procedural_lvalue" | "illegal_continuous_lvalue" | "assign_to_input" => 450,
        // Expression-level or lint-level repairs.
        "index_out_of_range" | "index_arithmetic" | "width_mismatch" => 400,
        "inferred_latch" | "case_missing_default" | "unused_signal" => 300,
        _ => 500,
    }
}

/// Minimum telemetry samples before a category's measured mean replaces
/// its static seed.
const TELEMETRY_MIN_SAMPLES: u64 = 8;

/// Predicts per-episode cost (microsecond-scale, ordering is what
/// matters). Seeded from static features; when the process has recorded
/// per-category episode histograms (a prior cell of the same run, a warm
/// `--telemetry` sweep), the measured means take over.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    /// Measured mean episode duration per category slug, from the
    /// telemetry registry.
    measured: HashMap<String, f64>,
}

impl CostModel {
    /// A purely static model (no telemetry read-back).
    pub fn static_only() -> Self {
        CostModel::default()
    }

    /// Builds the model from the current telemetry registry: every
    /// per-category episode histogram with at least
    /// [`TELEMETRY_MIN_SAMPLES`] samples contributes its measured mean.
    /// With telemetry off (or cold) this is exactly [`static_only`].
    pub fn from_telemetry() -> Self {
        Self::from_summaries(rtlfixer_obs::span_summaries("episode.by_category."))
    }

    /// [`from_telemetry`](Self::from_telemetry) over an explicit summary
    /// map (the testable seam — the registry is process-global).
    pub fn from_summaries(
        summaries: std::collections::BTreeMap<String, rtlfixer_obs::SpanSummary>,
    ) -> Self {
        let measured = summaries
            .into_iter()
            .filter(|(_, summary)| summary.count >= TELEMETRY_MIN_SAMPLES)
            .map(|(slug, summary)| (slug, summary.mean()))
            .collect();
        CostModel { measured }
    }

    /// How many categories are currently backed by measured telemetry.
    pub fn measured_categories(&self) -> usize {
        self.measured.len()
    }

    /// Predicted cost of one episode, in microsecond-scale units.
    pub fn predict(&self, features: &EpisodeFeatures) -> u64 {
        let category = match features.category {
            Some(slug) => match self.measured.get(slug) {
                Some(mean) => *mean,
                None => static_category_us(slug) as f64,
            },
            None => 500.0,
        };
        // Source length contributes linearly: longer sources parse, print
        // and prompt slower across every turn of the episode.
        (category + features.source_len as f64 / 4.0) as u64
    }
}

// ---- plans ----------------------------------------------------------------

/// One executable schedule over a spec slice: batches of positions
/// (indices into the slice), in claim order, plus the per-position
/// predicted cost the LPT ordering was derived from.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Batches in claim order; each batch is run back-to-back by one
    /// worker, members in ascending position order.
    pub batches: Vec<Vec<usize>>,
    /// Predicted cost per position (empty for grid plans — no model ran).
    pub predicted: Vec<u64>,
    /// The policy that produced this plan.
    pub policy: Policy,
}

impl Plan {
    /// The trivial grid-order plan: every position its own batch, in
    /// order.
    pub fn grid(len: usize) -> Plan {
        Plan {
            batches: (0..len).map(|i| vec![i]).collect(),
            predicted: Vec::new(),
            policy: Policy::Grid,
        }
    }

    /// Builds the LPT + fingerprint-batching plan for `features`:
    /// positions sharing a fingerprint coalesce into one batch (first
    /// occurrence fixes the batch's identity, members stay in ascending
    /// position order), and batches are ordered by descending total
    /// predicted cost, ties broken by first position — fully
    /// deterministic for a given feature slice and model.
    pub fn lpt(features: &[EpisodeFeatures], model: &CostModel) -> Plan {
        let predicted: Vec<u64> = features.iter().map(|f| model.predict(f)).collect();
        let mut batch_of: HashMap<u128, usize> = HashMap::new();
        let mut batches: Vec<Vec<usize>> = Vec::new();
        for (position, feature) in features.iter().enumerate() {
            match batch_of.entry(feature.fingerprint) {
                std::collections::hash_map::Entry::Occupied(entry) => {
                    batches[*entry.get()].push(position);
                }
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(batches.len());
                    batches.push(vec![position]);
                }
            }
        }
        // Longest-expected-first; the stable tie-break keeps plans
        // deterministic when predictions collide.
        let mut keyed: Vec<(u64, usize)> = batches
            .iter()
            .enumerate()
            .map(|(b, members)| (members.iter().map(|&p| predicted[p]).sum(), b))
            .collect();
        keyed.sort_by(|a, b| b.0.cmp(&a.0).then(batches[a.1][0].cmp(&batches[b.1][0])));
        let batches: Vec<Vec<usize>> =
            keyed.into_iter().map(|(_, b)| std::mem::take(&mut batches[b])).collect();
        Plan { batches, predicted, policy: Policy::Lpt }
    }

    /// Builds the plan the active [`policy`] calls for.
    pub fn for_policy(active: Policy, features: &[EpisodeFeatures], model: &CostModel) -> Plan {
        match active {
            Policy::Lpt => Plan::lpt(features, model),
            Policy::Grid => Plan::grid(features.len()),
        }
    }

    /// Episodes covered by this plan.
    pub fn len(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Whether the plan covers no episodes.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Episodes coalesced behind a batch leader (total members minus
    /// batches) — the compiles/elaborations the plan avoided racing.
    pub fn coalesced(&self) -> usize {
        self.len() - self.batches.len()
    }
}

// ---- scheduler statistics --------------------------------------------------

/// Post-run scheduler metadata, recorded into `results/bench_eval.json`
/// next to throughput (see `RunStats::scheduler`). `Copy` so `RunStats`
/// stays `Copy`.
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct SchedulerStats {
    /// Policy name (`"grid"`, `"lpt"`, or `"mixed"` after merging both).
    pub policy: &'static str,
    /// Batches formed by the plan.
    pub batches: usize,
    /// Episodes coalesced behind batch leaders.
    pub coalesced: usize,
    /// Spearman rank correlation between predicted and actual episode
    /// cost (`0` when the plan had no predictions).
    pub rank_correlation: f64,
    /// Total wall time workers spent idle at the pool barrier (their last
    /// task done, other workers still running), in microseconds.
    pub barrier_idle_us: u64,
}

impl SchedulerStats {
    /// Folds another cell's / shard's stats into this one: batches and
    /// idle add, and the rank correlation becomes the episode-weighted
    /// mean (`self` weighted by `self_episodes`, `other` by
    /// `other_episodes`).
    pub fn merge(
        &mut self,
        self_episodes: usize,
        other: &SchedulerStats,
        other_episodes: usize,
    ) {
        let total = (self_episodes + other_episodes) as f64;
        if total > 0.0 {
            self.rank_correlation = (self.rank_correlation * self_episodes as f64
                + other.rank_correlation * other_episodes as f64)
                / total;
        }
        self.batches += other.batches;
        self.coalesced += other.coalesced;
        self.barrier_idle_us += other.barrier_idle_us;
        // A merged report keeps the more interesting policy label if they
        // disagree (sharded halves must agree in practice; validated by
        // the merge tool).
        if self.policy != other.policy {
            self.policy = "mixed";
        }
    }
}

/// Spearman rank correlation between two equal-length samples: Pearson
/// correlation of their average ranks (ties share the mean rank). Returns
/// `0` for degenerate inputs (length < 2 or zero variance).
pub fn spearman(xs: &[u64], ys: &[u64]) -> f64 {
    if xs.len() != ys.len() || xs.len() < 2 {
        return 0.0;
    }
    let rx = average_ranks(xs);
    let ry = average_ranks(ys);
    let n = rx.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut cov, mut var_x, mut var_y) = (0.0f64, 0.0f64, 0.0f64);
    for (x, y) in rx.iter().zip(&ry) {
        let dx = x - mean;
        let dy = y - mean;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    cov / (var_x * var_y).sqrt()
}

/// Average (fractional) ranks of `values`, 1-based, ties sharing the mean
/// of the ranks they span.
fn average_ranks(values: &[u64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by_key(|&i| values[i]);
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Positions i..=j hold equal values; they share the mean rank.
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &position in &order[i..=j] {
            ranks[position] = rank;
        }
        i = j + 1;
    }
    ranks
}

// ---- last-run report -------------------------------------------------------

static LAST_REPORT: Mutex<Option<SchedulerStats>> = Mutex::new(None);

/// Publishes one run's scheduler stats as the process-wide "last report"
/// (mirroring `cache_report` / `fault_report`): experiments that aggregate
/// several cells fold their per-cell stats and publish the total; the
/// bench recorder reads it back.
pub fn publish_report(stats: SchedulerStats) {
    *LAST_REPORT.lock().unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(stats);
}

/// The most recently published scheduler stats, if any run published one.
pub fn scheduler_report() -> Option<SchedulerStats> {
    *LAST_REPORT.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feature(fingerprint: u128, source_len: usize, category: Option<&'static str>) -> EpisodeFeatures {
        EpisodeFeatures { fingerprint, source_len, category }
    }

    #[test]
    fn shard_parse_accepts_valid_and_rejects_invalid() {
        assert_eq!(Shard::parse("0/2"), Ok(Shard { index: 0, count: 2 }));
        assert_eq!(Shard::parse("3/8"), Ok(Shard { index: 3, count: 8 }));
        for bad in ["2/2", "5/2", "0/0", "1/0", "x/2", "0/y", "02", "", "/", "1/2/3"] {
            assert!(Shard::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(Shard::parse("2/2").unwrap_err().contains("index must be < count"));
        assert!(Shard::parse("0/0").unwrap_err().contains("count must be >= 1"));
    }

    #[test]
    fn shards_partition_exactly() {
        let len = 17;
        for count in [1usize, 2, 3, 5] {
            let mut seen = vec![0u32; len];
            for index in 0..count {
                let shard = Shard { index, count };
                for i in shard.indices(len) {
                    assert!(shard.owns(i));
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "count {count}: {seen:?}");
        }
        assert!(Shard::FULL.is_full());
        assert_eq!(Shard { index: 1, count: 4 }.to_string(), "1/4");
    }

    #[test]
    fn grid_plan_is_the_identity_order() {
        let plan = Plan::grid(4);
        assert_eq!(plan.batches, vec![vec![0], vec![1], vec![2], vec![3]]);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.coalesced(), 0);
        assert!(Plan::grid(0).is_empty());
    }

    #[test]
    fn lpt_batches_by_fingerprint_and_orders_longest_first() {
        // Two specs share fingerprint 7 (a repeats pair), one long spec
        // stands alone, one short spec stands alone.
        let features = [
            feature(7, 100, Some("unused_signal")),        // cheap pair...
            feature(7, 100, Some("unused_signal")),        // ...same source
            feature(9, 4_000, Some("unbalanced_block")),   // the straggler
            feature(11, 40, Some("unused_signal")),        // cheapest
        ];
        let plan = Plan::lpt(&features, &CostModel::static_only());
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.batches.len(), 3);
        assert_eq!(plan.coalesced(), 1);
        // The expensive lone spec leads; the shared-fingerprint batch
        // (2 × cheap) still outweighs the single cheapest.
        assert_eq!(plan.batches[0], vec![2]);
        assert_eq!(plan.batches[1], vec![0, 1]);
        assert_eq!(plan.batches[2], vec![3]);
    }

    #[test]
    fn lpt_plan_is_deterministic_and_covers_every_position() {
        let features: Vec<EpisodeFeatures> = (0..100)
            .map(|i| feature(u128::from(i as u64 % 33), (i * 37) % 900, Some("syntax_error")))
            .collect();
        let model = CostModel::static_only();
        let a = Plan::lpt(&features, &model);
        let b = Plan::lpt(&features, &model);
        assert_eq!(a.batches, b.batches, "plans must be deterministic");
        let mut seen: Vec<usize> = a.batches.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>(), "plan must cover every position once");
        // Within a batch, members stay in ascending position order so the
        // lowest-index member is the cache-warming leader.
        for batch in &a.batches {
            assert!(batch.windows(2).all(|w| w[0] < w[1]), "{batch:?}");
        }
    }

    #[test]
    fn cost_model_prefers_measured_telemetry_over_static_seeds() {
        let mut model = CostModel::static_only();
        let slow = feature(1, 0, Some("unused_signal"));
        let fast = feature(2, 0, Some("unbalanced_block"));
        // Statically, unbalanced_block outweighs unused_signal.
        assert!(model.predict(&fast) > model.predict(&slow));
        // Telemetry that contradicts the static seeds takes over.
        model.measured.insert("unused_signal".into(), 9_000.0);
        model.measured.insert("unbalanced_block".into(), 100.0);
        assert!(model.predict(&slow) > model.predict(&fast));
        assert_eq!(model.measured_categories(), 2);
        // Source length still contributes.
        let long = feature(3, 8_000, Some("unbalanced_block"));
        assert!(model.predict(&long) > model.predict(&fast));
    }

    #[test]
    fn cost_model_filters_summaries_by_sample_floor() {
        // The from_telemetry read-back, tested through its pure seam (the
        // registry itself is process-global and other tests record into
        // it concurrently).
        let summary = |count: u64, mean_us: u64| rtlfixer_obs::SpanSummary {
            count,
            p50: mean_us,
            p95: mean_us,
            sum: count * mean_us,
        };
        let mut summaries = std::collections::BTreeMap::new();
        // Below the sample floor: ignored. At the floor: adopted.
        summaries.insert("width_mismatch".to_owned(), summary(TELEMETRY_MIN_SAMPLES - 1, 50_000));
        summaries.insert("syntax_error".to_owned(), summary(TELEMETRY_MIN_SAMPLES, 20_000));
        let model = CostModel::from_summaries(summaries);
        assert_eq!(model.measured_categories(), 1, "{model:?}");
        let measured = feature(1, 0, Some("syntax_error"));
        let unmeasured = feature(2, 0, Some("width_mismatch"));
        assert_eq!(model.predict(&measured), 20_000);
        assert_eq!(model.predict(&unmeasured), static_category_us("width_mismatch"));
        // A cold registry (telemetry off) degrades to the static model.
        assert_eq!(CostModel::from_summaries(Default::default()).measured_categories(), 0);
    }

    #[test]
    fn spearman_matches_known_values() {
        assert_eq!(spearman(&[1, 2, 3, 4], &[10, 20, 30, 40]), 1.0);
        assert_eq!(spearman(&[1, 2, 3, 4], &[40, 30, 20, 10]), -1.0);
        assert_eq!(spearman(&[], &[]), 0.0);
        assert_eq!(spearman(&[1], &[1]), 0.0);
        assert_eq!(spearman(&[5, 5, 5], &[1, 2, 3]), 0.0, "zero variance");
        // Ties share average ranks: still perfectly monotone.
        assert!(spearman(&[1, 1, 2, 3], &[10, 10, 20, 30]) > 0.99);
        // A mixed permutation lands strictly between -1 and 1.
        let rho = spearman(&[1, 2, 3, 4, 5], &[3, 1, 4, 2, 5]);
        assert!(rho > 0.0 && rho < 1.0, "{rho}");
    }

    #[test]
    fn average_ranks_handle_ties() {
        assert_eq!(average_ranks(&[10, 20, 30]), vec![1.0, 2.0, 3.0]);
        assert_eq!(average_ranks(&[20, 10, 20]), vec![2.5, 1.0, 2.5]);
        assert_eq!(average_ranks(&[7, 7, 7, 7]), vec![2.5, 2.5, 2.5, 2.5]);
    }

    #[test]
    fn scheduler_stats_merge_weights_by_episodes() {
        let mut a = SchedulerStats {
            policy: "lpt",
            batches: 10,
            coalesced: 5,
            rank_correlation: 0.8,
            barrier_idle_us: 100,
        };
        let b = SchedulerStats {
            policy: "lpt",
            batches: 2,
            coalesced: 1,
            rank_correlation: 0.2,
            barrier_idle_us: 50,
        };
        a.merge(30, &b, 10);
        assert_eq!(a.batches, 12);
        assert_eq!(a.coalesced, 6);
        assert_eq!(a.barrier_idle_us, 150);
        assert!((a.rank_correlation - 0.65).abs() < 1e-12, "{}", a.rank_correlation);
        assert_eq!(a.policy, "lpt");
        let c = SchedulerStats { policy: "grid", ..b };
        a.merge(40, &c, 0);
        assert_eq!(a.policy, "mixed");
    }

    #[test]
    fn policy_override_wins_and_reverts() {
        force_policy(Some(Policy::Grid));
        assert_eq!(policy(), Policy::Grid);
        force_policy(None);
        // Back on the environment (unset in the test harness → Lpt, or
        // whatever the ambient RTLFIXER_SCHED says — either way stable).
        let ambient = policy();
        assert_eq!(policy(), ambient);
        assert_eq!(Policy::Lpt.name(), "lpt");
    }

    #[test]
    fn published_report_reads_back() {
        let stats = SchedulerStats {
            policy: "lpt",
            batches: 3,
            coalesced: 2,
            rank_correlation: 0.5,
            barrier_idle_us: 7,
        };
        publish_report(stats);
        // Concurrent tests may publish their own runs' stats between the
        // write and the read; only the accessor contract (a report exists
        // after a publish) is stable enough to assert here.
        assert!(scheduler_report().is_some());
    }
}
