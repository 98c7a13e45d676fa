//! Episode plans: fingerprint batching over a spec grid.
//!
//! The [`runner`](crate::runner) pool claims work in *batches*. A
//! [`Plan::batched`] plan groups specs sharing a 128-bit source fingerprint
//! (the repeat dimension of every grid) into one batch, so one worker runs
//! them back-to-back and the leader's compile/elaborate warms the artifact
//! caches for the rest of the batch. Batches keep grid order: each forms
//! where its first member sits. [`Plan::grid`] is the plan with no
//! batching, one index per batch in index order, which the index-range
//! entry points run.
//!
//! No plan may change results: episodes are pure functions of their spec,
//! results are written back by original index, and worker-local telemetry
//! merges at the barrier in index order, so every plan and `--jobs` value
//! is bit-identical to the serial grid-order run (pinned by the scheduling
//! invariance suite).

use std::collections::HashMap;

/// Scheduler-visible features of one episode, derivable from the spec's
/// inputs before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpisodeFeatures {
    /// 128-bit fingerprint of the episode's source: the batching key, since
    /// episodes sharing it share compile/elaborate admission work.
    pub fingerprint: u128,
}

impl EpisodeFeatures {
    /// Features for an episode over `source`.
    ///
    /// `category` is unused. It fed a per-category cost model that has been
    /// deleted, and stays in the signature only because the `perfbench`
    /// package calls this two-argument form; a later change to that
    /// benchmark can drop it.
    pub fn of(source: &str, _category: Option<&'static str>) -> Self {
        EpisodeFeatures { fingerprint: rtlfixer_cache::fingerprint128(source.as_bytes()) }
    }
}

/// One executable schedule over a spec slice: batches of positions
/// (indices into the slice), in claim order.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Batches in claim order; each batch is run back-to-back by one
    /// worker, members in ascending position order.
    pub batches: Vec<Vec<usize>>,
}

impl Plan {
    /// The grid-order plan: every position its own batch, in order.
    pub fn grid(len: usize) -> Plan {
        Plan { batches: (0..len).map(|i| vec![i]).collect() }
    }

    /// The fingerprint-batching plan for `features`: positions sharing a
    /// fingerprint coalesce into one batch, members in ascending position
    /// order, and batches are claimed in the order of their first member.
    pub fn batched(features: &[EpisodeFeatures]) -> Plan {
        let mut batch_of: HashMap<u128, usize> = HashMap::new();
        let mut batches: Vec<Vec<usize>> = Vec::new();
        for (position, feature) in features.iter().enumerate() {
            let batch = *batch_of.entry(feature.fingerprint).or_insert_with(|| {
                batches.push(Vec::new());
                batches.len() - 1
            });
            batches[batch].push(position);
        }
        Plan { batches }
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
    /// batches): the compiles/elaborations the plan avoided racing.
    pub fn coalesced(&self) -> usize {
        self.len() - self.batches.len()
    }
}

/// Post-run scheduler metadata, recorded into `results/bench_eval.json`
/// next to throughput (see `RunStats::scheduler`). `Copy` so `RunStats`
/// stays `Copy`.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct SchedulerStats {
    /// Batches formed by the plan.
    pub batches: usize,
    /// Episodes coalesced behind batch leaders.
    pub coalesced: usize,
    /// Total wall time workers spent idle at the pool barrier (their last
    /// task done, other workers still running), in microseconds.
    pub barrier_idle_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(fingerprints: &[u128]) -> Vec<EpisodeFeatures> {
        fingerprints.iter().map(|&fingerprint| EpisodeFeatures { fingerprint }).collect()
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
    fn batched_plan_groups_fingerprints_in_first_occurrence_order() {
        // A repeats pair (7), a lone spec (9), then a fingerprint that
        // recurs after other work (11): every batch forms where its first
        // member sits, and later members join it.
        let plan = Plan::batched(&features(&[7, 7, 9, 11, 7, 11]));
        assert_eq!(plan.batches, vec![vec![0, 1, 4], vec![2], vec![3, 5]]);
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.coalesced(), 3);
        assert!(Plan::batched(&[]).is_empty());
        // Distinct fingerprints reduce to the grid plan.
        assert_eq!(Plan::batched(&features(&[3, 1, 2])).batches, Plan::grid(3).batches);
    }

    #[test]
    fn features_fingerprint_the_source_only() {
        let a = EpisodeFeatures::of("module m; endmodule", Some("syntax_error"));
        assert_eq!(a, EpisodeFeatures::of("module m; endmodule", None));
        assert_ne!(a, EpisodeFeatures::of("module n; endmodule", None));
    }
}
