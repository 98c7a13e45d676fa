//! Design-choice ablations beyond the paper's tables (DESIGN.md §3):
//! retriever choice, ReAct iteration budget, pre-fixer on/off, and guidance
//! database size.

use std::sync::Arc;

use serde::Serialize;

use rtlfixer_agent::{RtlFixerBuilder, Strategy};
use rtlfixer_compilers::CompilerKind;
use rtlfixer_llm::{Capability, ResilientModel, SimulatedLlm};
use rtlfixer_rag::{
    ExactTagRetriever, GuidanceDatabase, HybridRetriever, JaccardRetriever, Retriever,
    TfIdfRetriever,
};

use super::table1::{load_entries, FixRateConfig};
use crate::metrics::fix_rate;
use crate::runner::{episode_grid, run_episodes, RunStats};

/// A labelled ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct AblationPoint {
    /// Variant label.
    pub variant: String,
    /// Measured fix rate.
    pub fix_rate: f64,
    /// Wall-clock statistics for this variant's episodes.
    pub stats: RunStats,
}

/// Runs one ablation variant on the episode pool. `cell` is the variant's
/// slot in the canonical seed namespace (see [`crate::runner::episode_seed`]);
/// each variant gets a distinct cell so sweeps never share episode seeds.
fn run_variant(
    entries: &[rtlfixer_dataset::SyntaxBenchEntry],
    config: &FixRateConfig,
    cell: u64,
    build: impl Fn(u64) -> rtlfixer_agent::RtlFixer<ResilientModel<SimulatedLlm>> + Sync,
) -> (f64, RunStats) {
    let specs = episode_grid(config.base_seed, cell, entries.len(), config.repeats);
    let (successes, stats) = run_episodes(config.jobs, &specs, |spec| {
        let entry = &entries[spec.entry];
        let mut fixer = build(spec.seed);
        fixer.fix_problem(&entry.description, &entry.code).success
    });
    let per_problem: Vec<(usize, usize)> = successes
        .chunks(config.repeats.max(1))
        .map(|repeats| (repeats.iter().filter(|s| **s).count(), repeats.len()))
        .collect();
    (fix_rate(&per_problem), stats)
}

fn point(
    label: String,
    entries: &[rtlfixer_dataset::SyntaxBenchEntry],
    config: &FixRateConfig,
    cell: u64,
    build: impl Fn(u64) -> rtlfixer_agent::RtlFixer<ResilientModel<SimulatedLlm>> + Sync,
) -> AblationPoint {
    let (rate, stats) = run_variant(entries, config, cell, build);
    AblationPoint { variant: label, fix_rate: rate, stats }
}

/// Retriever ablation: exact-tag vs Jaccard vs TF-IDF vs hybrid, ReAct +
/// Quartus. Seed cells 500–503.
pub fn retriever_ablation(config: &FixRateConfig) -> Vec<AblationPoint> {
    let entries = load_entries(config);
    type MakeRetriever = Box<dyn Fn() -> Box<dyn Retriever> + Send + Sync>;
    let variants: Vec<(&str, MakeRetriever)> = vec![
        ("exact-tag", Box::new(|| Box::new(ExactTagRetriever::new()))),
        ("jaccard", Box::new(|| Box::new(JaccardRetriever::new()))),
        ("tfidf", Box::new(|| Box::new(TfIdfRetriever::new()))),
        ("hybrid", Box::new(|| Box::new(HybridRetriever::new()))),
    ];
    variants
        .into_iter()
        .enumerate()
        .map(|(slot, (label, make))| {
            point(label.to_owned(), &entries, config, 500 + slot as u64, |seed| {
                RtlFixerBuilder::new()
                    .compiler(CompilerKind::Quartus)
                    .strategy(Strategy::React { max_iterations: 10 })
                    .with_rag(true)
                    .retriever(make())
                    .fault_seed(seed)
                    .build(ResilientModel::new(
                        SimulatedLlm::new(Capability::Gpt35Class, seed),
                        seed,
                    ))
            })
        })
        .collect()
}

/// Exact-tag vs hybrid on the iverilog personality, whose logs carry no
/// vendor error tags at all — the grid where lexical + category evidence
/// has to carry retrieval on its own. Seed cells 510–511.
pub fn iverilog_retriever_duel(config: &FixRateConfig) -> Vec<AblationPoint> {
    let entries = load_entries(config);
    type MakeRetriever = Box<dyn Fn() -> Box<dyn Retriever> + Send + Sync>;
    let variants: Vec<(&str, MakeRetriever)> = vec![
        ("iverilog exact-tag", Box::new(|| Box::new(ExactTagRetriever::new()))),
        ("iverilog hybrid", Box::new(|| Box::new(HybridRetriever::new()))),
    ];
    variants
        .into_iter()
        .enumerate()
        .map(|(slot, (label, make))| {
            point(label.to_owned(), &entries, config, 510 + slot as u64, |seed| {
                RtlFixerBuilder::new()
                    .compiler(CompilerKind::Iverilog)
                    .strategy(Strategy::React { max_iterations: 10 })
                    .with_rag(true)
                    .retriever(make())
                    .fault_seed(seed)
                    .build(ResilientModel::new(
                        SimulatedLlm::new(Capability::Gpt35Class, seed),
                        seed,
                    ))
            })
        })
        .collect()
}

/// Iteration-budget sweep for ReAct (n ∈ {1, 2, 3, 5, 10}). Seed cells
/// 100–104.
pub fn iteration_sweep(config: &FixRateConfig) -> Vec<AblationPoint> {
    let entries = load_entries(config);
    [1usize, 2, 3, 5, 10]
        .iter()
        .enumerate()
        .map(|(slot, &n)| {
            point(format!("n={n}"), &entries, config, 100 + slot as u64, |seed| {
                RtlFixerBuilder::new()
                    .compiler(CompilerKind::Quartus)
                    .strategy(Strategy::React { max_iterations: n })
                    .with_rag(false)
                    .fault_seed(seed)
                    .build(ResilientModel::new(
                        SimulatedLlm::new(Capability::Gpt35Class, seed),
                        seed,
                    ))
            })
        })
        .collect()
}

/// Pre-fixer on/off ablation (One-shot, so the pre-fixer's contribution is
/// visible rather than recovered by iteration). Seed cells 200–201.
pub fn prefixer_ablation(config: &FixRateConfig) -> Vec<AblationPoint> {
    let entries = load_entries(config);
    [true, false]
        .iter()
        .enumerate()
        .map(|(slot, &enabled)| {
            let label = if enabled { "prefixer on" } else { "prefixer off" };
            point(label.to_owned(), &entries, config, 200 + slot as u64, |seed| {
                RtlFixerBuilder::new()
                    .compiler(CompilerKind::Quartus)
                    .strategy(Strategy::OneShot)
                    .with_rag(true)
                    .prefixer(enabled)
                    .fault_seed(seed)
                    .build(ResilientModel::new(
                        SimulatedLlm::new(Capability::Gpt35Class, seed),
                        seed,
                    ))
            })
        })
        .collect()
}

/// Guidance-database size sweep: fraction of entries kept (per category
/// order), ReAct + Quartus + RAG. Seed cells 300–303.
pub fn database_size_sweep(config: &FixRateConfig) -> Vec<AblationPoint> {
    let entries = load_entries(config);
    [0.0f64, 0.25, 0.5, 1.0]
        .iter()
        .enumerate()
        .map(|(slot, &fraction)| {
            let full = GuidanceDatabase::quartus();
            let keep = ((full.entries().len() as f64) * fraction).round() as usize;
            // One truncated database per variant, shared across all of the
            // variant's episodes (and worker threads) behind an Arc.
            let database =
                Arc::new(GuidanceDatabase::new(full.edition, full.entries()[..keep].to_vec()));
            point(
                format!("{:.0}% of database", fraction * 100.0),
                &entries,
                config,
                300 + slot as u64,
                |seed| {
                    RtlFixerBuilder::new()
                        .compiler(CompilerKind::Quartus)
                        .strategy(Strategy::React { max_iterations: 10 })
                        .with_rag(true)
                        .shared_database(Arc::clone(&database))
                        .fault_seed(seed)
                    .build(ResilientModel::new(
                        SimulatedLlm::new(Capability::Gpt35Class, seed),
                        seed,
                    ))
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FixRateConfig {
        FixRateConfig {
            max_entries: Some(24),
            repeats: 2,
            dataset_seed: 7,
            base_seed: 9,
            jobs: 1,
        }
    }

    #[test]
    fn iteration_budget_is_monotone_ish() {
        let sweep = iteration_sweep(&small_config());
        let first = sweep.first().unwrap().fix_rate;
        let last = sweep.last().unwrap().fix_rate;
        assert!(last > first, "n=10 ({last}) should beat n=1 ({first})");
    }

    #[test]
    fn bigger_database_does_not_hurt() {
        let sweep = database_size_sweep(&small_config());
        let empty = sweep.first().unwrap().fix_rate;
        let full = sweep.last().unwrap().fix_rate;
        assert!(full >= empty, "full {full} vs empty {empty}");
    }

    #[test]
    fn all_retrievers_produce_results() {
        let results = retriever_ablation(&small_config());
        assert_eq!(results.len(), 4);
        for point in &results {
            assert!(point.fix_rate > 0.3, "{point:?}");
        }
    }

    #[test]
    fn hybrid_beats_exact_tag_on_iverilog() {
        // iverilog logs carry no vendor tags, so exact-tag retrieval is
        // blind there; the hybrid's category + lexical evidence must win.
        let config = FixRateConfig {
            max_entries: Some(24),
            repeats: 3,
            dataset_seed: 7,
            base_seed: 9,
            jobs: 1,
        };
        let duel = iverilog_retriever_duel(&config);
        assert_eq!(duel.len(), 2);
        let exact = duel[0].fix_rate;
        let hybrid = duel[1].fix_rate;
        assert!(hybrid > exact, "hybrid {hybrid} vs exact-tag {exact}");
    }

    #[test]
    fn sweeps_are_jobs_invariant() {
        let serial = small_config();
        let parallel = FixRateConfig { jobs: 4, ..serial };
        let a: Vec<f64> = prefixer_ablation(&serial).iter().map(|p| p.fix_rate).collect();
        let b: Vec<f64> = prefixer_ablation(&parallel).iter().map(|p| p.fix_rate).collect();
        assert_eq!(a, b);
    }
}
