//! # rtlfixer-eval
//!
//! Metrics and experiment drivers for the RTLFixer reproduction:
//!
//! * [`metrics`] — the paper's Eq. 1 (fix rate) and Eq. 2 (unbiased
//!   pass@k).
//! * [`runner`] — the deterministic parallel episode-execution engine all
//!   experiments run on: a work-stealing thread pool plus the canonical
//!   per-episode seed derivation, guaranteeing results are bit-identical
//!   for any `--jobs` value.
//! * [`schedule`] — the plan the runner claims work by: specs sharing a
//!   source fingerprint coalesce into cache-warming batches, in grid
//!   order. Scheduling never changes results — only when they are
//!   computed.
//! * [`experiments::table1`] — the fix-rate grid (strategy × RAG ×
//!   feedback × LLM), with the paper's reported values embedded for
//!   side-by-side comparison.
//! * [`experiments::table2`] — pass@{1,5} before/after syntax fixing on
//!   VerilogEval (plus the Figure 4 outcome shares) and Table 3 (RTLLM).
//! * [`experiments::figure7`] — the ReAct iteration histogram.
//! * [`experiments::ablations`] — retriever / iteration-budget /
//!   pre-fixer / database-size ablations beyond the paper.
//! * [`sim_debug`] — the §5 extension study: simulation-error (logic)
//!   debugging with waveform-style feedback, reproducing the paper's
//!   finding that it only helps on simple problems.
//!
//! The `rtlfixer-bench` crate's binaries drive these at paper scale and
//! print paper-vs-measured tables; the unit tests here run scaled-down
//! versions asserting the qualitative orderings.

#![warn(missing_docs)]

pub mod episode;
pub mod experiments;
pub mod metrics;
pub mod runner;
pub mod schedule;
pub mod sim_debug;

pub use episode::{run_repair, RepairJob};
pub use metrics::{fix_rate, mean_pass_at_k, pass_at_k};
pub use runner::{
    cache_report, episode_seed, panic_message, resolve_jobs, run_episodes, run_episodes_checked,
    run_episodes_planned, run_indexed_checked, run_planned_checked, CacheReport, EpisodeFailure,
    EpisodeSpec, RunStats,
};
pub use schedule::{EpisodeFeatures, Plan, SchedulerStats};
