//! Table 1: fix rate on VerilogEval-syntax across prompting strategy,
//! RAG, feedback quality and LLM capability.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use serde::Serialize;

use rtlfixer_agent::Strategy;
use rtlfixer_compilers::CompilerKind;
use rtlfixer_dataset::SyntaxBenchEntry;
use rtlfixer_llm::Capability;

use crate::episode::{run_repair, RepairJob};
use crate::metrics::fix_rate;
use crate::runner::{episode_grid, run_episodes_planned, RunStats};
use crate::schedule::EpisodeFeatures;

/// Configuration for fix-rate experiments.
#[derive(Debug, Clone, Copy)]
pub struct FixRateConfig {
    /// Cap on dataset entries (`None` = all 212).
    pub max_entries: Option<usize>,
    /// Repeats per entry (the paper uses 10).
    pub repeats: usize,
    /// Seed for the dataset build.
    pub dataset_seed: u64,
    /// Base seed for episode randomness.
    pub base_seed: u64,
    /// Worker threads for episode execution (`0` = available parallelism).
    /// Results are identical for every value; this only changes wall-clock.
    pub jobs: usize,
}

impl Default for FixRateConfig {
    fn default() -> Self {
        FixRateConfig { max_entries: None, repeats: 10, dataset_seed: 7, base_seed: 1, jobs: 0 }
    }
}

/// One Table 1 cell result.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Cell {
    /// "One-shot" or "ReAct".
    pub strategy: String,
    /// RAG on/off.
    pub rag: bool,
    /// Feedback source.
    pub compiler: String,
    /// LLM capability label.
    pub llm: String,
    /// Measured fix rate.
    pub fix_rate: f64,
    /// The paper's reported value for this cell, for comparison.
    pub paper: f64,
    /// Wall-clock statistics for this cell's episodes.
    pub stats: RunStats,
}

/// The paper's Table 1 values, as (strategy, rag, compiler, llm, value).
pub const PAPER_TABLE1: &[(&str, bool, &str, &str, f64)] = &[
    ("One-shot", false, "Simple", "GPT-3.5", 0.414),
    ("One-shot", false, "iverilog", "GPT-3.5", 0.536),
    ("One-shot", false, "Quartus", "GPT-3.5", 0.587),
    ("One-shot", true, "iverilog", "GPT-3.5", 0.800),
    ("One-shot", true, "Quartus", "GPT-3.5", 0.899),
    ("ReAct", false, "Simple", "GPT-3.5", 0.671),
    ("ReAct", false, "iverilog", "GPT-3.5", 0.731),
    ("ReAct", false, "Quartus", "GPT-3.5", 0.799),
    ("ReAct", true, "iverilog", "GPT-3.5", 0.820),
    ("ReAct", true, "Quartus", "GPT-3.5", 0.985),
    ("One-shot", false, "Quartus", "GPT-4", 0.91),
    ("One-shot", true, "Quartus", "GPT-4", 0.98),
    ("ReAct", false, "Quartus", "GPT-4", 0.92),
    ("ReAct", true, "Quartus", "GPT-4", 0.99),
];

fn compiler_from_label(label: &str) -> CompilerKind {
    match label {
        "Simple" => CompilerKind::Simple,
        "iverilog" => CompilerKind::Iverilog,
        _ => CompilerKind::Quartus,
    }
}

fn capability_from_label(label: &str) -> Capability {
    if label == "GPT-4" {
        Capability::Gpt4Class
    } else {
        Capability::Gpt35Class
    }
}

/// Folds a cell's full success vector (grid order, entry-major) into the
/// paper's Eq. 1 fix rate.
pub fn fix_rate_from_successes(successes: &[bool], repeats: usize) -> f64 {
    let per_problem: Vec<(usize, usize)> = successes
        .chunks(repeats.max(1))
        .map(|repeats| (repeats.iter().filter(|s| **s).count(), repeats.len()))
        .collect();
    fix_rate(&per_problem)
}

/// Runs one Table 1 cell, returning every episode's verdict in grid order
/// (entry-major) plus wall-clock stats.
///
/// Episodes execute on the planned pool ([`run_episodes_planned`]): the
/// repeats of an entry share its source, so they run back-to-back as one
/// batch. Per-episode seeds come from the canonical
/// [`episode_seed`](crate::runner::episode_seed) grid and results land by
/// position, so verdicts are bit-identical for every `config.jobs` value.
pub fn run_cell_verdicts(
    entries: &[SyntaxBenchEntry],
    strategy: Strategy,
    compiler: CompilerKind,
    rag: bool,
    capability: Capability,
    config: &FixRateConfig,
    cell_index: u64,
) -> (Vec<bool>, RunStats) {
    let specs = episode_grid(config.base_seed, cell_index, entries.len(), config.repeats);
    let features: Vec<EpisodeFeatures> =
        specs.iter().map(|spec| EpisodeFeatures::of(&entries[spec.entry].code, None)).collect();
    let (results, failures, stats) = run_episodes_planned(config.jobs, &specs, &features, |spec| {
        let entry = &entries[spec.entry];
        // The canonical episode path (`episode::run_repair`) — shared with
        // the serve daemon, so a served request reproduces a batch episode
        // exactly.
        run_repair(&RepairJob {
            problem: &entry.description,
            code: &entry.code,
            compiler,
            strategy,
            rag,
            capability,
            seed: spec.seed,
            deadline_ms: None,
            distilled: None,
        })
        .success
    });
    if let Some(first) = failures.first() {
        panic!(
            "{} of {} episodes panicked; first at position {}: {}",
            failures.len(),
            specs.len(),
            first.index,
            first.message
        );
    }
    let successes = results.into_iter().map(|success| success.expect("no failures")).collect();
    (successes, stats)
}

/// Runs one Table 1 cell over `entries`, returning the fix rate plus
/// wall-clock stats.
pub fn run_cell_timed(
    entries: &[SyntaxBenchEntry],
    strategy: Strategy,
    compiler: CompilerKind,
    rag: bool,
    capability: Capability,
    config: &FixRateConfig,
    cell_index: u64,
) -> (f64, RunStats) {
    let (successes, stats) =
        run_cell_verdicts(entries, strategy, compiler, rag, capability, config, cell_index);
    (fix_rate_from_successes(&successes, config.repeats), stats)
}

/// Runs one Table 1 cell over `entries` and returns the fix rate.
pub fn run_cell(
    entries: &[SyntaxBenchEntry],
    strategy: Strategy,
    compiler: CompilerKind,
    rag: bool,
    capability: Capability,
    config: &FixRateConfig,
    cell_index: u64,
) -> f64 {
    run_cell_timed(entries, strategy, compiler, rag, capability, config, cell_index).0
}

/// Loads the dataset (possibly capped) for fix-rate experiments.
///
/// Cached per `(dataset_seed, max_entries)` behind an `Arc`: every
/// experiment binary calls this (table1, ablations, figure7, …), and a
/// multi-experiment run must build each dataset view exactly once.
pub fn load_entries(config: &FixRateConfig) -> Arc<Vec<SyntaxBenchEntry>> {
    type Key = (u64, Option<usize>);
    static CACHE: OnceLock<Mutex<HashMap<Key, Arc<Vec<SyntaxBenchEntry>>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (config.dataset_seed, config.max_entries);
    if let Some(hit) = cache.lock().expect("entries cache lock").get(&key) {
        return Arc::clone(hit);
    }
    let full = rtlfixer_dataset::verilog_eval_syntax_shared(config.dataset_seed);
    let view = match config.max_entries {
        Some(cap) if cap < full.len() => Arc::new(full[..cap].to_vec()),
        // Uncapped (or over-sized cap): alias the dataset crate's own Arc.
        _ => full,
    };
    Arc::clone(cache.lock().expect("entries cache lock").entry(key).or_insert(view))
}

/// A full Table 1 run: the rendered cells plus the 128-bit fingerprint
/// over the grid's success bits (cell-major, grid order) — the identity
/// every `--jobs` value must reproduce exactly.
#[derive(Debug, Clone)]
pub struct Table1Merge {
    /// The 14 rendered cells, paper row order.
    pub cells: Vec<Table1Cell>,
    /// `fingerprint128` over the success bits.
    pub verdict_fingerprint: u128,
}

/// Reproduces the full Table 1 grid (14 cells).
pub fn table1(config: &FixRateConfig) -> Vec<Table1Cell> {
    table1_merged(config).cells
}

/// [`table1`] plus the verdict fingerprint.
pub fn table1_merged(config: &FixRateConfig) -> Table1Merge {
    let entries = load_entries(config);
    let mut bits: Vec<u8> = Vec::with_capacity(entries.len() * config.repeats * PAPER_TABLE1.len());
    let cells = PAPER_TABLE1
        .iter()
        .enumerate()
        .map(|(cell_index, &(strategy_label, rag, compiler_label, llm_label, paper))| {
            let strategy = if strategy_label == "One-shot" {
                Strategy::OneShot
            } else {
                Strategy::React { max_iterations: 10 }
            };
            let (successes, stats) = run_cell_verdicts(
                &entries,
                strategy,
                compiler_from_label(compiler_label),
                rag,
                capability_from_label(llm_label),
                config,
                cell_index as u64,
            );
            bits.extend(successes.iter().map(|&s| s as u8));
            Table1Cell {
                strategy: strategy_label.to_owned(),
                rag,
                compiler: compiler_label.to_owned(),
                llm: llm_label.to_owned(),
                fix_rate: fix_rate_from_successes(&successes, config.repeats),
                paper,
                stats,
            }
        })
        .collect();
    Table1Merge { cells, verdict_fingerprint: rtlfixer_cache::fingerprint128(&bits) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FixRateConfig {
        FixRateConfig {
            max_entries: Some(30),
            repeats: 3,
            dataset_seed: 7,
            base_seed: 1,
            jobs: 1,
        }
    }

    #[test]
    fn react_quartus_rag_beats_one_shot_simple() {
        // The qualitative corner-to-corner ordering of Table 1.
        let config = small_config();
        let entries = load_entries(&config);
        let worst = run_cell(
            &entries,
            Strategy::OneShot,
            CompilerKind::Simple,
            false,
            Capability::Gpt35Class,
            &config,
            0,
        );
        let best = run_cell(
            &entries,
            Strategy::React { max_iterations: 10 },
            CompilerKind::Quartus,
            true,
            Capability::Gpt35Class,
            &config,
            1,
        );
        assert!(best > worst + 0.15, "best {best} vs worst {worst}");
        assert!(best > 0.8, "best cell should be high: {best}");
    }

    #[test]
    fn rag_improves_react_quartus() {
        let config = small_config();
        let entries = load_entries(&config);
        let without = run_cell(
            &entries,
            Strategy::React { max_iterations: 10 },
            CompilerKind::Quartus,
            false,
            Capability::Gpt35Class,
            &config,
            2,
        );
        let with = run_cell(
            &entries,
            Strategy::React { max_iterations: 10 },
            CompilerKind::Quartus,
            true,
            Capability::Gpt35Class,
            &config,
            3,
        );
        assert!(with > without, "with {with} vs without {without}");
    }

    #[test]
    fn results_are_deterministic() {
        let config = FixRateConfig { max_entries: Some(10), repeats: 2, ..Default::default() };
        let entries = load_entries(&config);
        let a = run_cell(
            &entries,
            Strategy::OneShot,
            CompilerKind::Quartus,
            true,
            Capability::Gpt35Class,
            &config,
            4,
        );
        let b = run_cell(
            &entries,
            Strategy::OneShot,
            CompilerKind::Quartus,
            true,
            Capability::Gpt35Class,
            &config,
            4,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_results_match_serial_byte_for_byte() {
        // The parallel engine's core guarantee: a --quick Table 1 cell
        // produces byte-identical fix rates at jobs = 1, 2 and 8.
        let base = FixRateConfig {
            max_entries: Some(20),
            repeats: 2,
            dataset_seed: 7,
            base_seed: 1,
            jobs: 1,
        };
        let entries = load_entries(&base);
        let run = |jobs: usize| {
            let config = FixRateConfig { jobs, ..base };
            let rate = run_cell(
                &entries,
                Strategy::React { max_iterations: 10 },
                CompilerKind::Quartus,
                true,
                Capability::Gpt35Class,
                &config,
                9,
            );
            // Byte-level comparison through the serialised representation,
            // the form results tables and JSON artifacts are built from.
            format!("{rate:.17}")
        };
        let serial = run(1);
        assert_eq!(run(2), serial, "jobs=2 must match jobs=1");
        assert_eq!(run(8), serial, "jobs=8 must match jobs=1");
    }

    #[test]
    fn load_entries_shares_one_build_per_view() {
        let config = small_config();
        let a = load_entries(&config);
        let b = load_entries(&config);
        assert!(Arc::ptr_eq(&a, &b), "same (seed, cap) must share one Vec");
        assert_eq!(a.len(), 30);
        let uncapped = FixRateConfig { max_entries: None, ..config };
        let full = load_entries(&uncapped);
        assert_eq!(full.len(), rtlfixer_dataset::SYNTAX_BENCH_COUNT);
        assert!(full[..30].iter().zip(a.iter()).all(|(x, y)| x.code == y.code));
    }
}
