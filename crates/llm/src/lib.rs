//! # rtlfixer-llm
//!
//! The language-model subsystem of the RTLFixer reproduction.
//!
//! The original system calls OpenAI's `gpt-3.5-turbo` / GPT-4; this
//! reproduction substitutes a **simulated model** (see DESIGN.md §1):
//!
//! * [`repair`] — deterministic, category-keyed repair operators: the exact
//!   source edit a competent engineer would make for each diagnosed error
//!   (declare the missing signal, clamp/wrap the index, wire→reg, rename
//!   the port, rewrite `i++`, …).
//! * [`competence`] — a calibrated stochastic model of *whether* the LLM
//!   finds that edit, conditioned on feedback quality, retrieved guidance,
//!   error category and capability class (GPT-3.5 vs GPT-4).
//! * [`SimulatedLlm`] — ties the two together behind the [`LanguageModel`]
//!   trait the agent talks to.
//! * [`Reasoning`] — a turn's reasoning, held as handles to the diagnostics
//!   it considered and rendered only when a transcript or a served event
//!   reads it.
//! * [`ResilientModel`] — the production transport layer over any model:
//!   seeded fault injection, bounded retries with simulated-clock backoff,
//!   a per-episode circuit breaker and a retry-budget ledger (DESIGN.md
//!   §3d).
//!
//! The split keeps the reproduction honest: everything mechanical is real
//! code; only the model's hit/miss behaviour is stochastic, with its
//! parameters calibrated once against the paper's Table 1.

#![warn(missing_docs)]

pub mod competence;
pub mod model;
pub mod reasoning;
pub mod repair;
pub mod resilient;
pub mod simulated;

pub use competence::{AttemptContext, Capability, Competence, GuidanceLevel};
pub use model::{
    Feedback, GuidanceSnippet, LanguageModel, PromptStyle, RepairRequest, RepairResponse,
};
pub use reasoning::Reasoning;
pub use resilient::{RepairTurn, ResilientModel, RetryLedger, RetryPolicy, TurnEvent};
pub use simulated::SimulatedLlm;
