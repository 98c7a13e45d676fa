//! Learning curve: fix rate vs episodes served as the distilled store
//! grows (DESIGN.md §3k).
//!
//! Each round replays the *same* episode grid (seed cell 800, iverilog +
//! ReAct ×10 + RAG, GPT-3.5-class) against a shared [`DistilledStore`].
//! Because the seeds never change, rounds differ only through the store's
//! state: a round-0 episode that succeeded after real revisions files a
//! repair brief under its initial error shape, and every later episode that
//! hits the same shape — other repeats of the same entry, or other entries
//! whose normalised log matches — retrieves it as exact guidance. The fix
//! rate climbing across rounds is therefore *pure* retrieval-loop effect,
//! not seed luck.
//!
//! Merges happen only at the per-round pool barrier, in grid index order,
//! so the curve is bit-identical at any `--jobs` value.

use std::sync::Arc;

use serde::Serialize;

use rtlfixer_agent::Strategy;
use rtlfixer_compilers::CompilerKind;
use rtlfixer_llm::Capability;
use rtlfixer_rag::DistilledStore;

use super::table1::{fix_rate_from_successes, load_entries, FixRateConfig};
use crate::episode::{run_repair, RepairJob};
use crate::runner::{episode_grid, run_episodes_planned, RunStats};
use crate::schedule::EpisodeFeatures;

/// Seed cell for every learning-curve round (see the namespace table in
/// [`crate::runner`]). One cell for all rounds is deliberate: reusing the
/// seeds is what isolates the store's contribution.
const CELL: u64 = 800;

/// Configuration for the learning-curve experiment.
#[derive(Debug, Clone, Copy)]
pub struct LearningConfig {
    /// Number of times the grid is replayed.
    pub rounds: usize,
    /// The per-round episode grid (entries, repeats, seeds, jobs).
    pub episodes: FixRateConfig,
}

impl LearningConfig {
    /// Smoke-test preset: small grid, three rounds.
    pub fn quick() -> Self {
        LearningConfig {
            rounds: 3,
            episodes: FixRateConfig {
                max_entries: Some(16),
                repeats: 2,
                dataset_seed: 7,
                base_seed: 9,
                jobs: 0,
            },
        }
    }

    /// Full preset: the whole dataset, five rounds.
    pub fn full() -> Self {
        LearningConfig {
            rounds: 5,
            episodes: FixRateConfig {
                max_entries: None,
                repeats: 3,
                dataset_seed: 7,
                base_seed: 1,
                jobs: 0,
            },
        }
    }
}

/// One round of the learning curve.
#[derive(Debug, Clone, Serialize)]
pub struct LearningPoint {
    /// 0-based round index.
    pub round: usize,
    /// Fix rate over the round's grid (paper Eq. 1).
    pub fix_rate: f64,
    /// Distilled-store size *after* this round's barrier merge.
    pub store_entries: usize,
    /// Wall-clock statistics for the round.
    pub stats: RunStats,
}

/// Runs the learning-curve experiment: `rounds` replays of the cell-800
/// grid over one growing [`DistilledStore`].
pub fn run_learning(config: &LearningConfig) -> Vec<LearningPoint> {
    let entries = load_entries(&config.episodes);
    let store = Arc::new(DistilledStore::new());
    let grid = episode_grid(
        config.episodes.base_seed,
        CELL,
        entries.len(),
        config.episodes.repeats,
    );
    let features: Vec<EpisodeFeatures> =
        grid.iter().map(|spec| EpisodeFeatures::of(&entries[spec.entry].code, None)).collect();

    let mut points = Vec::with_capacity(config.rounds);
    for round in 0..config.rounds {
        let (outcomes, failures, stats) =
            run_episodes_planned(config.episodes.jobs, &grid, &features, |spec| {
                let entry = &entries[spec.entry];
                run_repair(&RepairJob {
                    problem: &entry.description,
                    code: &entry.code,
                    compiler: CompilerKind::Iverilog,
                    strategy: Strategy::React { max_iterations: 10 },
                    rag: true,
                    capability: Capability::Gpt35Class,
                    seed: spec.seed,
                    deadline_ms: None,
                    distilled: Some(&store),
                })
            });
        if let Some(first) = failures.first() {
            panic!(
                "{} of {} learning episodes panicked; first at position {}: {}",
                failures.len(),
                grid.len(),
                first.index,
                first.message
            );
        }
        let successes: Vec<bool> = outcomes
            .iter()
            .map(|o| o.as_ref().is_some_and(|o| o.success))
            .collect();
        // Pool barrier: merge fresh briefs in grid index order. Episodes
        // snapshot the store at fixer build, so nothing above raced on it;
        // index-order merging makes the post-round store (and every later
        // round) identical at any worker count.
        for outcome in outcomes.iter().flatten() {
            store.merge(&outcome.distilled);
        }
        points.push(LearningPoint {
            round,
            fix_rate: fix_rate_from_successes(&successes, config.episodes.repeats),
            store_entries: store.len(),
            stats,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LearningConfig {
        LearningConfig {
            rounds: 3,
            episodes: FixRateConfig {
                max_entries: Some(12),
                repeats: 2,
                dataset_seed: 7,
                base_seed: 9,
                jobs: 1,
            },
        }
    }

    #[test]
    fn curve_is_jobs_invariant() {
        let serial = tiny();
        let mut parallel = tiny();
        parallel.episodes.jobs = 4;
        let a: Vec<(f64, usize)> =
            run_learning(&serial).iter().map(|p| (p.fix_rate, p.store_entries)).collect();
        let b: Vec<(f64, usize)> =
            run_learning(&parallel).iter().map(|p| (p.fix_rate, p.store_entries)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn round_zero_matches_store_free_baseline() {
        // Round 0 starts from an empty store, and episodes snapshot the
        // store at build — so its fix rate must equal the same grid run
        // with no store wired at all (the `RTLFIXER_RAG_DISTILL=0`
        // reproduction contract, checked at the library level).
        let config = tiny();
        let points = run_learning(&config);

        let entries = load_entries(&config.episodes);
        let grid = episode_grid(
            config.episodes.base_seed,
            CELL,
            entries.len(),
            config.episodes.repeats,
        );
        let successes: Vec<bool> = grid
            .iter()
            .map(|spec| {
                let entry = &entries[spec.entry];
                run_repair(&RepairJob {
                    problem: &entry.description,
                    code: &entry.code,
                    compiler: CompilerKind::Iverilog,
                    strategy: Strategy::React { max_iterations: 10 },
                    rag: true,
                    capability: Capability::Gpt35Class,
                    seed: spec.seed,
                    deadline_ms: None,
                    distilled: None,
                })
                .success
            })
            .collect();
        let baseline = fix_rate_from_successes(&successes, config.episodes.repeats);
        assert_eq!(points[0].fix_rate, baseline);
    }

    #[test]
    fn store_grows_and_the_curve_does_not_regress() {
        let points = run_learning(&tiny());
        assert_eq!(points.len(), 3);
        assert!(
            points[0].store_entries > 0,
            "round 0 should distill something: {points:?}"
        );
        for pair in points.windows(2) {
            assert!(
                pair[1].store_entries >= pair[0].store_entries,
                "store shrank: {points:?}"
            );
            assert!(
                pair[1].fix_rate >= pair[0].fix_rate,
                "curve regressed: {points:?}"
            );
        }
        assert!(
            points.last().unwrap().fix_rate >= points[0].fix_rate,
            "no learning effect: {points:?}"
        );
    }
}
