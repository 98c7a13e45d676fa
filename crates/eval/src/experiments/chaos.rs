//! Chaos sweep: fix rate and revision cost versus injected fault rate.
//!
//! The robustness counterpart of Table 1 (DESIGN.md §3d): the same
//! fixing episodes run under a seeded fault plan that times out model
//! calls, rate-limits, truncates and malforms completions, crashes the
//! compiler and garbles its logs. The claim under test is *graceful
//! degradation* — as the fault rate climbs to 30% per call site, fix rates
//! decline smoothly (no cliff), revision costs rise, and no fault ever
//! aborts the evaluation pool.
//!
//! Every cell carries an explicit [`FaultSpec`] rather than mutating the
//! process-wide `RTLFIXER_FAULTS` state, so a chaos sweep composes with
//! other experiments (and with the test harness) in one process.

use std::sync::Arc;

use serde::Serialize;

use rtlfixer_agent::{RtlFixerBuilder, Strategy};
use rtlfixer_compilers::CompilerKind;
use rtlfixer_faults::FaultSpec;
use rtlfixer_llm::{Capability, ResilientModel, SimulatedLlm};

use super::table1::{load_entries, FixRateConfig};
use crate::metrics::fix_rate;
use crate::runner::{episode_grid, run_episodes_checked, RunStats};

/// First chaos cell in the seed namespace (see [`crate::runner`]); each
/// variant owns [`CELLS_PER_VARIANT`] consecutive cells, one per rate.
const CELL_BASE: u64 = 700;

/// Seed-namespace cells reserved per variant (bounds the rate grid).
const CELLS_PER_VARIANT: u64 = 25;

/// The default fault-rate grid: total injection probability per call site,
/// 0% (control) to 30%.
pub const DEFAULT_RATES: &[f64] = &[0.0, 0.05, 0.1, 0.2, 0.3];

/// The four agent variants the sweep crosses with the rate grid.
pub const VARIANTS: &[(&str, bool)] = &[
    ("ReAct", true),
    ("ReAct", false),
    ("One-shot", true),
    ("One-shot", false),
];

/// Configuration for the chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Episode-grid sizing and seeds (shared with the fix-rate grids).
    pub fix: FixRateConfig,
    /// Fault rates to sweep (site totals; capped at `CELLS_PER_VARIANT`, 25).
    pub rates: Vec<f64>,
    /// When set, the very first episode of the first cell panics on
    /// purpose, demonstrating that the checked pool contains episode
    /// failures without sinking the grid.
    pub panic_probe: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            fix: FixRateConfig::default(),
            rates: DEFAULT_RATES.to_vec(),
            panic_probe: false,
        }
    }
}

/// One (variant × fault-rate) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosCell {
    /// "One-shot" or "ReAct".
    pub strategy: String,
    /// RAG on/off.
    pub rag: bool,
    /// Total fault probability per call site.
    pub fault_rate: f64,
    /// Fix rate over delivered episodes (failed episodes count as misses).
    pub fix_rate: f64,
    /// Mean revisions per delivered episode.
    pub mean_revisions: f64,
    /// Episodes that saw at least one fault / degradation event.
    pub degraded_episodes: usize,
    /// Total `Fault` trace steps across the cell.
    pub fault_events: usize,
    /// Episodes that panicked and were contained by the pool.
    pub failed_episodes: usize,
    /// Wall-clock statistics.
    pub stats: RunStats,
}

/// Per-episode measurements folded into [`ChaosCell`] aggregates.
struct ChaosEpisode {
    success: bool,
    revisions: usize,
    degraded: bool,
    fault_events: usize,
}

/// Runs one chaos cell. `panic_at` is a flat grid index (entry-major) whose
/// episode panics deliberately; the pool must report it as failed and
/// finish the rest.
fn run_chaos_cell(
    entries: &[rtlfixer_dataset::SyntaxBenchEntry],
    strategy: Strategy,
    rag: bool,
    rate: f64,
    config: &FixRateConfig,
    cell: u64,
    panic_at: Option<usize>,
) -> (Vec<Option<ChaosEpisode>>, RunStats) {
    let fault_spec: Option<Arc<FaultSpec>> =
        (rate > 0.0).then(|| Arc::new(FaultSpec::uniform(rate)));
    let specs = episode_grid(config.base_seed, cell, entries.len(), config.repeats);
    let repeats = config.repeats.max(1);
    let (results, _failures, stats) = run_episodes_checked(config.jobs, &specs, |spec| {
        if panic_at == Some(spec.entry * repeats + spec.repeat) {
            panic!("chaos probe: deliberate episode panic at entry {}", spec.entry);
        }
        let entry = &entries[spec.entry];
        let llm = ResilientModel::with_spec(
            SimulatedLlm::new(Capability::Gpt35Class, spec.seed),
            fault_spec.clone(),
            spec.seed,
        );
        let mut fixer = RtlFixerBuilder::new()
            .compiler(CompilerKind::Quartus)
            .strategy(strategy)
            .with_rag(rag)
            .fault_spec(fault_spec.clone())
            .fault_seed(spec.seed)
            .build(llm);
        let outcome = fixer.fix_problem(&entry.description, &entry.code);
        ChaosEpisode {
            success: outcome.success,
            revisions: outcome.revisions,
            degraded: outcome.degraded,
            fault_events: outcome.fault_events,
        }
    });
    (results, stats)
}

/// Folds one cell's episode results into aggregates.
fn aggregate(
    strategy_label: &str,
    rag: bool,
    rate: f64,
    repeats: usize,
    results: Vec<Option<ChaosEpisode>>,
    stats: RunStats,
) -> ChaosCell {
    let per_problem: Vec<(usize, usize)> = results
        .chunks(repeats.max(1))
        .map(|chunk| {
            (
                chunk.iter().filter(|e| e.as_ref().is_some_and(|e| e.success)).count(),
                chunk.len(),
            )
        })
        .collect();
    let delivered: Vec<&ChaosEpisode> = results.iter().flatten().collect();
    let mean_revisions = if delivered.is_empty() {
        0.0
    } else {
        delivered.iter().map(|e| e.revisions).sum::<usize>() as f64 / delivered.len() as f64
    };
    ChaosCell {
        strategy: strategy_label.to_owned(),
        rag,
        fault_rate: rate,
        fix_rate: fix_rate(&per_problem),
        mean_revisions,
        degraded_episodes: delivered.iter().filter(|e| e.degraded).count(),
        fault_events: delivered.iter().map(|e| e.fault_events).sum(),
        failed_episodes: stats.failed_episodes,
        stats,
    }
}

/// Runs the full sweep: every variant crossed with every fault rate, in
/// variant-major order.
pub fn chaos(config: &ChaosConfig) -> Vec<ChaosCell> {
    let entries = load_entries(&config.fix);
    let rates: Vec<f64> =
        config.rates.iter().copied().take(CELLS_PER_VARIANT as usize).collect();
    let mut cells = Vec::with_capacity(VARIANTS.len() * rates.len());
    for (variant_index, &(strategy_label, rag)) in VARIANTS.iter().enumerate() {
        let strategy = if strategy_label == "One-shot" {
            Strategy::OneShot
        } else {
            Strategy::React { max_iterations: 10 }
        };
        for (rate_index, &rate) in rates.iter().enumerate() {
            let cell = CELL_BASE + variant_index as u64 * CELLS_PER_VARIANT + rate_index as u64;
            let panic_at =
                (config.panic_probe && variant_index == 0 && rate_index == 0).then_some(0);
            let (results, stats) = run_chaos_cell(
                &entries,
                strategy,
                rag,
                rate,
                &config.fix,
                cell,
                panic_at,
            );
            cells.push(aggregate(strategy_label, rag, rate, config.fix.repeats, results, stats));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(rates: &[f64]) -> ChaosConfig {
        ChaosConfig {
            fix: FixRateConfig {
                max_entries: Some(16),
                repeats: 2,
                dataset_seed: 7,
                base_seed: 1,
                jobs: 1,
            },
            rates: rates.to_vec(),
            panic_probe: false,
        }
    }

    #[test]
    fn faults_degrade_gracefully_not_catastrophically() {
        // Individual 32-episode cells are noisy (reshuffled model draws can
        // locally beat the clean run), so the degradation claim is asserted
        // on the mean across all four variants.
        let cells = chaos(&small_config(&[0.0, 0.6]));
        assert_eq!(cells.len(), VARIANTS.len() * 2);
        let mean = |rate: f64| {
            let picked: Vec<&ChaosCell> =
                cells.iter().filter(|c| c.fault_rate == rate).collect();
            assert_eq!(picked.len(), VARIANTS.len());
            picked.iter().map(|c| c.fix_rate).sum::<f64>() / picked.len() as f64
        };
        let (clean, faulted) = (mean(0.0), mean(0.6));
        for cell in cells.iter().filter(|c| c.fault_rate == 0.0) {
            assert_eq!(cell.degraded_episodes, 0, "clean cells see no faults");
            assert_eq!(cell.fault_events, 0);
        }
        for cell in cells.iter().filter(|c| c.fault_rate > 0.0) {
            assert!(cell.degraded_episodes > 0, "60% faults must touch episodes");
            assert!(cell.fault_events > 0);
        }
        // Graceful: worse than clean on average, but nowhere near zero —
        // retries, salvage and kept candidates absorb most injected faults.
        assert!(faulted < clean, "clean {clean} vs faulted {faulted}");
        assert!(faulted > 0.5 * clean, "cliff: clean {clean} vs faulted {faulted}");
        // No pool aborts anywhere in the sweep.
        assert!(cells.iter().all(|c| c.failed_episodes == 0));
    }

    #[test]
    fn panic_probe_is_contained_and_reported() {
        let quietly = |f: &dyn Fn() -> Vec<ChaosCell>| {
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let out = f();
            std::panic::set_hook(hook);
            out
        };
        let mut config = small_config(&[0.0]);
        config.fix.max_entries = Some(6);
        config.panic_probe = true;
        let cells = quietly(&|| chaos(&config));
        assert_eq!(cells.len(), VARIANTS.len());
        assert_eq!(cells[0].failed_episodes, 1, "the probe episode is reported as failed");
        assert_eq!(cells[0].stats.failed_episodes, 1);
        // Every other cell (and the rest of the probed cell) completed.
        assert!(cells[1..].iter().all(|c| c.failed_episodes == 0));
        assert_eq!(cells[0].stats.episodes, 12);
    }

    #[test]
    fn sweep_is_jobs_invariant_at_a_fixed_fault_rate() {
        let run = |jobs: usize| {
            let mut config = small_config(&[0.2]);
            config.fix.max_entries = Some(8);
            config.fix.jobs = jobs;
            chaos(&config)
                .into_iter()
                .map(|c| (format!("{:.17}", c.fix_rate), c.degraded_episodes, c.fault_events))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }
}
