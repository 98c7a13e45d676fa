//! ReAct episode traces: the Thought / Action / Observation record of one
//! debugging episode, rendered in the style of the paper's Figure 2c.
//!
//! A step stores handles, not text: a fixed thought is a `&'static str`, a
//! compiler observation is the episode's shared [`CompileOutcome`], a RAG
//! observation is the guidance the model was shown, whose briefs the
//! database rendered once, and the model's reasoning is its [`Reasoning`],
//! which points at the diagnostics it considered. Text is built only where
//! a reader asks for it — [`FixTrace`]'s `Display` and the serve daemon's
//! wire events — so batch experiments, which read only the verdict, never
//! pay for it.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use rtlfixer_compilers::CompileOutcome;
use rtlfixer_llm::{GuidanceSnippet, Reasoning};

/// The text of a trace step's thought, observation or RAG query, held as a
/// handle to where it already lives. Two texts are equal when they render
/// equally.
#[derive(Clone)]
pub enum TraceText {
    /// A fixed string (the agent's own thoughts, fixed observations).
    Static(&'static str),
    /// Text built for this step (retry notes).
    Owned(String),
    /// The model's reasoning for a revision, rendered from the diagnostics
    /// it considered.
    Reasoning(Reasoning),
    /// The rendered log of a compile outcome, shared with the compile
    /// cache (or the episode's garbled copy of it).
    Log(Arc<CompileOutcome>),
    /// Retrieved guidance: each snippet's text on its own, joined by
    /// newlines.
    Guidance(Vec<GuidanceSnippet>),
}

impl TraceText {
    /// The text, borrowed except for guidance, which is joined on demand,
    /// and the model's reasoning, which is rendered on demand.
    pub fn as_str(&self) -> Cow<'_, str> {
        match self {
            TraceText::Static(text) => Cow::Borrowed(text),
            TraceText::Owned(text) => Cow::Borrowed(text),
            TraceText::Log(outcome) => Cow::Borrowed(&outcome.log),
            TraceText::Reasoning(_) | TraceText::Guidance(_) => Cow::Owned(self.to_string()),
        }
    }

    /// Writes the text into `out` in the pieces [`for_each_piece`]
    /// yields.
    ///
    /// [`for_each_piece`]: TraceText::for_each_piece
    fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match self {
            TraceText::Static(text) => out.write_str(text),
            TraceText::Owned(text) => out.write_str(text),
            TraceText::Log(outcome) => out.write_str(&outcome.log),
            TraceText::Reasoning(reasoning) => reasoning.write_to(out),
            TraceText::Guidance(snippets) => {
                for (index, snippet) in snippets.iter().enumerate() {
                    if index > 0 {
                        out.write_str("\n")?;
                    }
                    out.write_str(&snippet.text)?;
                }
                Ok(())
            }
        }
    }

    /// Calls `piece` with the text in consecutive pieces whose concatenation
    /// is [`TraceText::as_str`]: guidance comes snippet by snippet with the
    /// newlines between them, and reasoning sentence fragment by fragment
    /// around each diagnostic's headline, so a writer copies either without
    /// joining or rendering it first.
    pub fn for_each_piece(&self, piece: impl FnMut(&str)) {
        struct Pieces<F>(F);
        impl<F: FnMut(&str)> fmt::Write for Pieces<F> {
            fn write_str(&mut self, text: &str) -> fmt::Result {
                (self.0)(text);
                Ok(())
            }
        }
        let _ = self.write_to(&mut Pieces(piece));
    }

    /// The text's length in bytes. Reasoning is formatted to count it; see
    /// [`TraceText::len_hint`] for sizing a buffer.
    pub fn len(&self) -> usize {
        match self {
            TraceText::Reasoning(reasoning) => reasoning.len(),
            other => other.len_hint(),
        }
    }

    /// The text's length in bytes without rendering anything: exact except
    /// for the model's reasoning, whose headlines are estimated
    /// ([`Reasoning::len_hint`]) — what a writer reserves before writing
    /// the text once.
    pub fn len_hint(&self) -> usize {
        match self {
            TraceText::Static(text) => text.len(),
            TraceText::Owned(text) => text.len(),
            TraceText::Log(outcome) => outcome.log.len(),
            TraceText::Reasoning(reasoning) => reasoning.len_hint(),
            TraceText::Guidance(snippets) => {
                let newlines = snippets.len().saturating_sub(1);
                snippets.iter().map(|s| s.text.len()).sum::<usize>() + newlines
            }
        }
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            TraceText::Reasoning(reasoning) => reasoning.is_empty(),
            other => other.len_hint() == 0,
        }
    }

    /// Whether the text contains `pattern`.
    pub fn contains(&self, pattern: &str) -> bool {
        self.as_str().contains(pattern)
    }
}

impl From<&'static str> for TraceText {
    fn from(text: &'static str) -> Self {
        TraceText::Static(text)
    }
}

impl From<String> for TraceText {
    fn from(text: String) -> Self {
        TraceText::Owned(text)
    }
}

impl From<Reasoning> for TraceText {
    fn from(reasoning: Reasoning) -> Self {
        TraceText::Reasoning(reasoning)
    }
}

impl fmt::Display for TraceText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Debug for TraceText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.as_str(), f)
    }
}

impl PartialEq for TraceText {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for TraceText {}

/// One ReAct action (Figure 2b's action space).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// `Compiler[code]` — submit the current code to the compiler.
    Compiler,
    /// `RAG[logs]` — retrieve expert guidance for a compiler log.
    Rag {
        /// The log used as the retrieval query.
        query: TraceText,
    },
    /// Revise the code (the model's edit between compiler calls).
    Revise,
    /// A fault struck the episode (LLM transport, compiler crash, garbled
    /// log, retriever failure, open circuit breaker, …).
    Fault {
        /// The fault kind's stable slug (`timeout`, `compiler-crash`, …).
        kind: &'static str,
    },
    /// The resilience layer retried after a fault.
    Retry,
    /// `Finish[answer]` — return the final code.
    Finish,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Compiler => write!(f, "Compiler"),
            Action::Rag { query } => {
                let excerpt: String = query.as_str().chars().take(48).collect();
                write!(f, "RAG[..{excerpt}..]")
            }
            Action::Revise => write!(f, "Revise"),
            Action::Fault { kind } => write!(f, "Fault[{kind}]"),
            Action::Retry => write!(f, "Retry"),
            Action::Finish => write!(f, "Finish"),
        }
    }
}

/// One Thought → Action → Observation step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The model's reasoning for this step.
    pub thought: TraceText,
    /// The chosen action.
    pub action: Action,
    /// The observation the action produced (compiler log, guidance, …).
    pub observation: TraceText,
}

/// The full trace of one fixing episode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FixTrace {
    /// Steps in order.
    pub steps: Vec<Step>,
}

impl FixTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step.
    pub fn push(
        &mut self,
        thought: impl Into<TraceText>,
        action: Action,
        observation: impl Into<TraceText>,
    ) {
        self.steps.push(Step { thought: thought.into(), action, observation: observation.into() });
    }

    /// Number of compiler interactions in the trace.
    pub fn compiler_calls(&self) -> usize {
        self.steps.iter().filter(|s| s.action == Action::Compiler).count()
    }

    /// Number of code revisions in the trace.
    pub fn revisions(&self) -> usize {
        self.steps.iter().filter(|s| s.action == Action::Revise).count()
    }

    /// Number of fault steps in the trace (injected faults, retriever
    /// failures, open-breaker turns).
    pub fn fault_steps(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s.action, Action::Fault { .. })).count()
    }

    /// Number of resilience retries in the trace.
    pub fn retries(&self) -> usize {
        self.steps.iter().filter(|s| s.action == Action::Retry).count()
    }
}

impl fmt::Display for FixTrace {
    /// Renders in the Figure 2c transcript style.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Question:\n{}\n", crate::prompts::REACT_QUESTION)?;
        for (i, step) in self.steps.iter().enumerate() {
            let n = i + 1;
            writeln!(f, "Thought {n}:\n{}", step.thought)?;
            writeln!(f, "Action {n}: {}", step.action)?;
            if !step.observation.is_empty() {
                writeln!(f, "Observation {n}:\n{}", step.observation)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlfixer_compilers::CompilerKind;
    use rtlfixer_verilog::diag::ErrorCategory;

    #[test]
    fn counts_by_action_kind() {
        let mut trace = FixTrace::new();
        trace.push("compile it", Action::Compiler, "error: ...");
        trace.push("look it up", Action::Rag { query: "l-value".into() }, "use assign");
        trace.push("revise", Action::Revise, "");
        trace.push("compile again", Action::Compiler, "ok");
        trace.push("the API timed out", Action::Fault { kind: "timeout" }, "");
        trace.push("retrying", Action::Retry, "");
        trace.push("done", Action::Finish, "");
        assert_eq!(trace.compiler_calls(), 2);
        assert_eq!(trace.revisions(), 1);
        assert_eq!(trace.fault_steps(), 1);
        assert_eq!(trace.retries(), 1);
    }

    #[test]
    fn fault_action_renders_its_kind() {
        assert_eq!(Action::Fault { kind: "compiler-crash" }.to_string(), "Fault[compiler-crash]");
        assert_eq!(Action::Retry.to_string(), "Retry");
    }

    #[test]
    fn display_is_figure2c_shaped() {
        let mut trace = FixTrace::new();
        trace.push("The out signal is a wire.", Action::Compiler, "main.v:15: error: ...");
        let text = trace.to_string();
        assert!(text.starts_with("Question:"));
        assert!(text.contains("Thought 1:"));
        assert!(text.contains("Action 1: Compiler"));
        assert!(text.contains("Observation 1:"));
    }

    #[test]
    fn rag_action_truncates_query() {
        let action = Action::Rag { query: "x".repeat(200).into() };
        assert!(action.to_string().len() < 80);
    }

    #[test]
    fn handles_render_the_text_they_point_at() {
        let outcome = Arc::new(CompilerKind::Quartus.build().compile(
            "module m(output reg q); always @(posedge clk) q <= 1; endmodule",
            "main.sv",
        ));
        let log = TraceText::Log(Arc::clone(&outcome));
        assert_eq!(log, TraceText::Owned(outcome.log.clone()));
        assert_eq!(log.to_string(), outcome.log);
        let snippet = |text: &str| GuidanceSnippet {
            category: ErrorCategory::UndeclaredIdentifier,
            text: text.into(),
            exact_retrieval: true,
            has_anti_patterns: false,
        };
        let guidance = TraceText::Guidance(vec![snippet("first brief"), snippet("second")]);
        assert_eq!(guidance.to_string(), "first brief\nsecond");
        assert!(!guidance.is_empty() && guidance.contains("brief\nsecond"));
        assert!(TraceText::Guidance(Vec::new()).is_empty());
        assert!(!TraceText::Guidance(vec![snippet(""), snippet("")]).is_empty());
        assert_eq!(format!("{:?}", TraceText::Static("a\"b")), "\"a\\\"b\"");
        // The model's reasoning: fixed text, or thoughts about the
        // diagnostics of an analysis, fixed or persisting.
        let analysis = rtlfixer_verilog::compile_shared(
            "module m(input [7:0] a, output reg y);\nwire w\nassign y = a[9] & clk;\nendmodule",
        );
        let mut thoughts = Reasoning::default();
        for (index, _) in analysis.diagnostics.iter().enumerate() {
            thoughts.push(&analysis, index, index % 2 == 0);
        }
        assert!(analysis.diagnostics.len() >= 2);
        let reasoning = TraceText::Reasoning(thoughts.clone());
        assert_eq!(reasoning.to_string(), thoughts.to_string());
        assert!(reasoning.contains("The compiler reports: ") && reasoning.contains(") persists;"));
        let unchanged = TraceText::Reasoning(Reasoning::fixed("returning it unchanged"));
        assert_eq!(unchanged, TraceText::Static("returning it unchanged"));
        assert!(TraceText::Reasoning(Reasoning::default()).is_empty());
        // For every kind of text: pieces concatenate to the `Display`
        // rendering, `len` is its length and `is_empty` agrees; the size
        // hint is exact except for reasoning, which it estimates.
        let empty = TraceText::Guidance(Vec::new());
        let texts = [
            log,
            guidance,
            empty,
            TraceText::Static("fixed"),
            TraceText::Static(""),
            "owned".to_owned().into(),
            reasoning,
            unchanged,
            TraceText::Reasoning(Reasoning::default()),
        ];
        for text in texts {
            let mut joined = String::new();
            text.for_each_piece(|piece| joined.push_str(piece));
            assert_eq!(joined, text.to_string());
            assert_eq!(joined, text.as_str());
            assert_eq!(text.len(), joined.len());
            assert_eq!(text.is_empty(), joined.is_empty());
            if !matches!(text, TraceText::Reasoning(_)) {
                assert_eq!(text.len_hint(), joined.len(), "{text:?}");
            }
        }
    }
}
