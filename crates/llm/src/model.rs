//! The language-model interface the agent talks to, and the request /
//! response types that cross it.
//!
//! The agent never hands the model structured diagnostics — only what a real
//! deployment would have: the code, the rendered feedback log (whose
//! information content varies by compiler personality), and any retrieved
//! guidance text. Everything else the model "knows" it must derive from the
//! code itself.

use std::sync::Arc;

use rtlfixer_verilog::diag::ErrorCategory;

use crate::reasoning::Reasoning;

/// Feedback shown to the model for one repair turn. Mirrors what the
/// prompt template of Figure 2a carries. Borrowed from the compile outcome
/// the turn answers, so no turn copies the log.
#[derive(Debug, Clone, Copy, Default)]
pub struct Feedback<'a> {
    /// The rendered compiler log (or the Simple instruction, or empty).
    pub log: &'a str,
    /// Error categories the log makes identifiable. (A bare `syntax error`
    /// line identifies nothing; a Quartus `Error (10161)` identifies the
    /// undeclared-identifier category.)
    pub identified: &'a [ErrorCategory],
    /// Informativeness of the feedback source in `[0, 1]`.
    pub informativeness: f64,
}

/// One retrieved guidance snippet included in the prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct GuidanceSnippet {
    /// The error category the guidance covers.
    pub category: ErrorCategory,
    /// The rendered guidance text: a full repair brief for a database
    /// entry (diagnostics, grammar hints, repair strategy, the "Avoid"
    /// block and any demonstration), or a distilled entry's guidance.
    /// Shared with the database or store that rendered it.
    pub text: Arc<str>,
    /// Whether the snippet came from an exact retrieval hit (an error-tag
    /// match, or a distilled-store fingerprint match). Fuzzy fallback hits
    /// are uncertain matches and count as family-level guidance at best.
    pub exact_retrieval: bool,
    /// Whether the guidance carries an explicit anti-patterns block (the
    /// brief's "Avoid" section). False for legacy guidance without a
    /// brief.
    pub has_anti_patterns: bool,
}

/// Prompting style for a repair turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptStyle {
    /// One-shot: a single feedback turn, no decomposed reasoning.
    OneShot,
    /// ReAct: interleaved Thought/Action/Observation, iterative.
    React,
}

/// A request for the model to revise erroneous code.
///
/// Everything but the code borrows from the episode that issues it: the
/// problem text, the compile outcome's feedback and the retrieved guidance
/// are read in place, never copied per turn.
#[derive(Debug, Clone)]
pub struct RepairRequest<'a> {
    /// The current (erroneous) source code.
    pub code: String,
    /// The problem description, included in the prompt template.
    pub problem: &'a str,
    /// Compiler (or Simple) feedback.
    pub feedback: Feedback<'a>,
    /// Retrieved guidance snippets (empty when RAG is off or retrieval
    /// missed).
    pub guidance: &'a [GuidanceSnippet],
    /// Prompting style.
    pub style: PromptStyle,
    /// 0-based attempt number within the episode.
    pub attempt: usize,
}

/// The model's revision.
#[derive(Debug, Clone)]
pub struct RepairResponse {
    /// The revised source code.
    pub code: String,
    /// The model's (simulated) reasoning for this turn, rendered only
    /// where it is read: ReAct transcripts and served trace events.
    pub thought: Reasoning,
}

/// A language model that can revise Verilog code.
///
/// The production system would implement this over an LLM API; the
/// reproduction provides [`crate::SimulatedLlm`].
pub trait LanguageModel: Send {
    /// Model name for reports (`gpt-3.5-turbo-16k-0613` analogue).
    fn name(&self) -> &str;

    /// Starts a fresh debugging episode (resets per-episode latent state).
    fn begin_episode(&mut self);

    /// Proposes a revision of the code in `request`.
    fn propose_repair(&mut self, request: &RepairRequest<'_>) -> RepairResponse;

    /// Proposes a revision with transport-level outcome reporting.
    ///
    /// The default wraps [`propose_repair`](Self::propose_repair) as a
    /// clean, fault-free turn; [`crate::ResilientModel`] overrides it with
    /// retry / backoff / circuit-breaker semantics so the agent can react
    /// to degraded turns (salvage malformed completions, keep the previous
    /// candidate on exhaustion).
    fn propose_repair_turn(&mut self, request: &RepairRequest<'_>) -> crate::resilient::RepairTurn {
        crate::resilient::RepairTurn::clean(self.propose_repair(request))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feedback_default_is_empty() {
        let f = Feedback::default();
        assert!(f.log.is_empty());
        assert!(f.identified.is_empty());
        assert_eq!(f.informativeness, 0.0);
    }

    #[test]
    fn prompt_style_distinction() {
        assert_ne!(PromptStyle::OneShot, PromptStyle::React);
    }
}
