//! The RTLFixer agent: the interactive debugging loop of Figure 1.
//!
//! The agent wires together a compiler personality (feedback source), an
//! optional RAG stage (guidance retrieval keyed on the compiler log) and a
//! language model (revision proposals), under one of two strategies:
//!
//! * [`Strategy::OneShot`] — a single feedback turn (the paper's baseline).
//! * [`Strategy::React`] — up to `max_iterations` Thought / Action /
//!   Observation rounds, re-compiling after every revision (§3.2).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rtlfixer_compilers::{Compiler, CompileOutcome, CompilerKind};
use rtlfixer_faults::{self as faults, FaultKind, FaultPlan, FaultSpec};
use rtlfixer_llm::{
    Feedback, GuidanceSnippet, LanguageModel, PromptStyle, RepairRequest, TurnEvent,
};
use rtlfixer_obs as obs;
use rtlfixer_rag::{
    category_brief, distill_enabled, hybrid_enabled, DefaultRetriever, DistilledEntry,
    DistilledSnapshot, DistilledStore, Evidence, GuidanceDatabase, HybridRetriever,
    RetrievalQuery, Retriever,
};
use rtlfixer_verilog::diag::ErrorCategory;

use crate::prefixer::prefix_fix;
use crate::trace::{Action, FixTrace, TraceText};

/// Fixing strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Single-turn feedback, no iteration.
    OneShot,
    /// Iterative ReAct loop with at most this many revision rounds (the
    /// paper uses 10).
    React {
        /// Maximum Thought-Action-Observation revision rounds.
        max_iterations: usize,
    },
}

impl Strategy {
    /// The revision budget this strategy allows.
    pub fn revision_budget(self) -> usize {
        match self {
            Strategy::OneShot => 1,
            Strategy::React { max_iterations } => max_iterations,
        }
    }

    /// Prompt style handed to the model.
    pub fn prompt_style(self) -> PromptStyle {
        match self {
            Strategy::OneShot => PromptStyle::OneShot,
            Strategy::React { .. } => PromptStyle::React,
        }
    }

    /// Label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::OneShot => "One-shot",
            Strategy::React { .. } => "ReAct",
        }
    }
}

/// The result of one fixing episode.
#[derive(Debug, Clone)]
pub struct FixOutcome {
    /// Whether the final code compiles cleanly.
    pub success: bool,
    /// The final (possibly fixed) code.
    pub final_code: String,
    /// Revision rounds used (0 if the input already compiled).
    pub revisions: usize,
    /// Error categories present before fixing.
    pub initial_categories: Vec<ErrorCategory>,
    /// Error categories still present after fixing (empty on success).
    pub remaining_categories: Vec<ErrorCategory>,
    /// Whether any fault or degradation struck the episode (injected LLM /
    /// compiler faults, retriever failures, exhausted retries).
    pub degraded: bool,
    /// Number of `Fault` steps in the trace.
    pub fault_events: usize,
    /// Repair briefs distilled from this episode (non-empty only when the
    /// episode succeeded after at least one revision and a
    /// [`DistilledStore`] was wired in). The caller merges these at its
    /// pool barrier — the episode itself never mutates shared state.
    pub distilled: Vec<DistilledEntry>,
    /// Full ReAct trace.
    pub trace: FixTrace,
}

/// Builder for [`RtlFixer`]; start with [`RtlFixerBuilder::new`].
pub struct RtlFixerBuilder {
    compiler: CompilerKind,
    strategy: Strategy,
    rag: bool,
    database: Option<Arc<GuidanceDatabase>>,
    retriever: Option<Box<dyn Retriever>>,
    distilled: Option<Arc<DistilledStore>>,
    prefixer: bool,
    fault_seed: u64,
    fault_spec: Option<Option<Arc<FaultSpec>>>,
}

impl RtlFixerBuilder {
    /// Starts a builder with the paper's defaults (ReAct ×10, Quartus, RAG,
    /// pre-fixer on).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Default for RtlFixerBuilder {
    fn default() -> Self {
        RtlFixerBuilder {
            compiler: CompilerKind::Quartus,
            strategy: Strategy::React { max_iterations: 10 },
            rag: true,
            database: None,
            retriever: None,
            distilled: None,
            prefixer: true,
            fault_seed: 0,
            fault_spec: None,
        }
    }
}

impl RtlFixerBuilder {
    /// Selects the compiler personality (feedback source).
    pub fn compiler(mut self, kind: CompilerKind) -> Self {
        self.compiler = kind;
        self
    }

    /// Selects the strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Enables or disables retrieval-augmented guidance.
    pub fn with_rag(mut self, rag: bool) -> Self {
        self.rag = rag;
        self
    }

    /// Overrides the guidance database (default: the edition matching the
    /// compiler).
    pub fn database(mut self, database: GuidanceDatabase) -> Self {
        self.database = Some(Arc::new(database));
        self
    }

    /// Overrides the guidance database with a shared handle.
    ///
    /// Parallel evaluation builds one fixer per episode; passing the same
    /// `Arc` to every builder means all episodes read one database instead
    /// of cloning it per episode.
    pub fn shared_database(mut self, database: Arc<GuidanceDatabase>) -> Self {
        self.database = Some(database);
        self
    }

    /// Overrides the retriever (default: the hybrid scorer, or exact-tag
    /// with Jaccard fallback when `RTLFIXER_RAG_HYBRID` is off).
    pub fn retriever(mut self, retriever: Box<dyn Retriever>) -> Self {
        self.retriever = Some(retriever);
        self
    }

    /// Wires in a distilled-guidance store (DESIGN.md §3k). The episode
    /// snapshots the store once at build time — concurrent merges by other
    /// episodes are invisible to it — and reports its own distilled
    /// entries in [`FixOutcome::distilled`] for the caller to merge at a
    /// barrier. Inert when `RTLFIXER_RAG_DISTILL` is off.
    pub fn distilled(mut self, store: Arc<DistilledStore>) -> Self {
        self.distilled = Some(store);
        self
    }

    /// Enables or disables the rule-based pre-fixer (§4 Setup).
    pub fn prefixer(mut self, enabled: bool) -> Self {
        self.prefixer = enabled;
        self
    }

    /// Seeds the compiler-side fault stream (default 0). Evaluation passes
    /// the episode seed so injected faults are a pure function of the
    /// episode, independent of worker count or scheduling.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = seed;
        self
    }

    /// Overrides the fault spec explicitly (chaos harness, tests) instead
    /// of reading the process-wide `RTLFIXER_FAULTS` spec. `None` disables
    /// compiler-side faults regardless of the environment.
    pub fn fault_spec(mut self, spec: Option<Arc<FaultSpec>>) -> Self {
        self.fault_spec = Some(spec);
        self
    }

    /// Builds the fixer around a language model.
    pub fn build<L: LanguageModel>(self, llm: L) -> RtlFixer<L> {
        // Default to the process-wide shared edition: episodes are built in
        // the thousands, and the database is read-only throughout.
        let database = self.database.unwrap_or_else(|| match self.compiler {
            CompilerKind::Quartus => GuidanceDatabase::quartus_shared(),
            _ => GuidanceDatabase::iverilog_shared(),
        });
        // Distillation: snapshot the store once so the whole episode sees
        // one consistent generation, and retrieve over the base database
        // extended with the distilled entries (an empty store aliases the
        // base Arc — zero cost).
        let (database, distilled) = match self.distilled {
            Some(store) if distill_enabled() => {
                let merged = store.merged_database(&database);
                (merged, Some(store.snapshot()))
            }
            _ => (database, None),
        };
        let faults = match self.fault_spec {
            Some(spec) => FaultPlan::compiler_with(spec, self.fault_seed),
            None => FaultPlan::compiler(self.fault_seed),
        };
        RtlFixer {
            compiler_kind: self.compiler,
            compiler: self.compiler.build(),
            strategy: self.strategy,
            rag: self.rag,
            database,
            retriever: self.retriever.unwrap_or_else(|| {
                if hybrid_enabled() {
                    Box::new(HybridRetriever::new())
                } else {
                    Box::new(DefaultRetriever::new())
                }
            }),
            distilled,
            prefixer: self.prefixer,
            faults,
            llm,
        }
    }
}

/// The RTLFixer agent. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use rtlfixer_agent::{RtlFixerBuilder, Strategy};
/// use rtlfixer_compilers::CompilerKind;
/// use rtlfixer_llm::{Capability, SimulatedLlm};
///
/// let llm = SimulatedLlm::new(Capability::Gpt4Class, 42);
/// let mut fixer = RtlFixerBuilder::new()
///     .compiler(CompilerKind::Quartus)
///     .strategy(Strategy::React { max_iterations: 10 })
///     .build(llm);
/// let outcome = fixer.fix(
///     "module m(input [7:0] in, output reg [7:0] out);
///      always @(posedge clk) out <= in;
///      endmodule",
/// );
/// assert!(outcome.success);
/// ```
pub struct RtlFixer<L: LanguageModel> {
    compiler_kind: CompilerKind,
    compiler: Box<dyn Compiler>,
    strategy: Strategy,
    rag: bool,
    database: Arc<GuidanceDatabase>,
    retriever: Box<dyn Retriever>,
    distilled: Option<Arc<DistilledSnapshot>>,
    prefixer: bool,
    faults: FaultPlan,
    llm: L,
}

impl<L: LanguageModel> RtlFixer<L> {
    /// The configured compiler personality.
    pub fn compiler_kind(&self) -> CompilerKind {
        self.compiler_kind
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Fixes `source` with an empty problem description.
    pub fn fix(&mut self, source: &str) -> FixOutcome {
        self.fix_problem("", source)
    }

    /// Runs one fixing episode over `source` for `problem`.
    ///
    /// The episode copies no text it does not return: the compile log is
    /// read in place by the retrieval query and the model's feedback, and
    /// the trace keeps handles to the compile outcomes and the guidance the
    /// model saw (see [`crate::trace`]).
    pub fn fix_problem(&mut self, problem: &str, source: &str) -> FixOutcome {
        let _episode_span = obs::span(obs::kind::EPISODE);
        // Per-category episode-duration histograms (the `--telemetry`
        // span block reports them); the categories are only known after
        // the initial compile, so the span guard can't carry them — time
        // the episode body explicitly.
        let episode_start = _episode_span.is_recording().then(std::time::Instant::now);
        obs::counter_add("agent.episodes", 1);
        let mut code =
            if self.prefixer { prefix_fix(source) } else { source.to_owned() };
        let mut trace = FixTrace::new();
        let mut degraded = false;
        self.llm.begin_episode();

        let mut outcome = self.compile_checked(
            &code,
            "Submit the implementation to the compiler to check for syntax errors.",
            &mut trace,
            &mut degraded,
        );
        let initial_categories = outcome.error_categories();
        // Kept for distillation, when a store is wired in: the pre-loop
        // candidate and its outcome. The error shape an eventual success is
        // filed under is the *initial* failing log (the shape the next
        // episode will see on its first compile).
        let initial = self.distilled.is_some().then(|| (code.clone(), Arc::clone(&outcome)));

        let mut revisions = 0usize;
        let budget = self.strategy.revision_budget();
        while !outcome.success && revisions < budget {
            let _turn_span = obs::span(obs::kind::TURN);
            // RAG stage: retrieve guidance keyed on the compiler log. A
            // panicking retriever degrades the episode to RAG-off for this
            // turn instead of aborting it.
            let guidance = if self.rag {
                self.retrieve(&outcome, &mut trace, &mut degraded)
            } else {
                Vec::new()
            };

            // The request borrows the outcome's feedback and the guidance;
            // the candidate code moves in and back out, and a delivered
            // revision replaces it below.
            let request = RepairRequest {
                code: std::mem::take(&mut code),
                problem,
                feedback: Feedback {
                    log: &outcome.log,
                    identified: &outcome.identified,
                    informativeness: self.compiler.quality().informativeness,
                },
                guidance: &guidance,
                style: self.strategy.prompt_style(),
                attempt: revisions,
            };
            let model_span = obs::span(obs::kind::MODEL);
            let turn = self.llm.propose_repair_turn(&request);
            drop(model_span);
            code = request.code;
            if !guidance.is_empty() {
                trace.push(
                    "Search the expert guidance database for this error.",
                    Action::Rag { query: TraceText::Log(Arc::clone(&outcome)) },
                    TraceText::Guidance(guidance),
                );
            }
            degraded |= turn.is_degraded();
            for event in &turn.events {
                match event {
                    TurnEvent::Fault { kind, .. } => trace.push(
                        "A fault struck the model call.",
                        Action::Fault { kind: kind.slug() },
                        "",
                    ),
                    TurnEvent::Retry { backoff_ms, .. } => trace.push(
                        format!("Back off {backoff_ms} ms, then retry the model call."),
                        Action::Retry,
                        "",
                    ),
                    TurnEvent::CircuitOpen => trace.push(
                        "The circuit breaker is open; no model call is made.",
                        Action::Fault { kind: "circuit-open" },
                        "",
                    ),
                }
            }
            match turn.response {
                Some(response) => {
                    let mut next = response.code;
                    if turn.malformed {
                        // Salvage the prose-wrapped completion through the
                        // same pre-fixer the paper applies to every
                        // LLM-generated candidate.
                        let salvaged = prefix_fix(&next);
                        if salvaged.contains("module") {
                            faults::record_recovered(FaultKind::MalformedOutput);
                            obs::counter_add("agent.salvaged_completions", 1);
                            next = salvaged;
                        }
                    }
                    trace.push(response.thought, Action::Revise, "");
                    code = next;
                }
                None => {
                    // Exhausted retries (or open breaker): keep the previous
                    // candidate. The turn still consumes a revision so a
                    // fully-unavailable model terminates at the budget.
                    trace.push(
                        "The model is unavailable this turn; keeping the previous candidate.",
                        Action::Revise,
                        "",
                    );
                }
            }
            revisions += 1;

            outcome = self.compile_checked(
                &code,
                "Re-run the compilation on the revised code.",
                &mut trace,
                &mut degraded,
            );
        }

        trace.push(
            if outcome.success {
                "The code now compiles successfully. Returning the final implementation."
            } else {
                "The revision budget is exhausted; returning the best attempt."
            },
            Action::Finish,
            "",
        );

        obs::counter_add("agent.revisions", revisions as u64);
        obs::observe("agent.revisions_per_episode", revisions as u64);
        if outcome.success {
            obs::counter_add("agent.episodes.fixed", 1);
        } else {
            obs::counter_add("agent.episodes.unfixed", 1);
        }
        if degraded {
            obs::counter_add("agent.episodes.degraded", 1);
        }
        if obs::enabled() {
            // Per-category names exist only when something records them.
            let episode_us = episode_start
                .map(|start| u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX));
            for category in &initial_categories {
                obs::counter_add(&format!("agent.episodes.by_category.{category}"), 1);
                obs::counter_add(
                    &format!("agent.revisions.by_category.{category}"),
                    revisions as u64,
                );
                if let Some(us) = episode_us {
                    obs::observe(&format!("span.episode.by_category.{category}.us"), us);
                }
            }
        }

        // Distillation: a successful repair that needed real work becomes a
        // reusable brief filed under the initial error shape. Captured into
        // the outcome only — the caller merges at its pool barrier so the
        // result stays bit-identical at any `--jobs`.
        let distilled = match &initial {
            Some((initial_code, initial_outcome)) if outcome.success && revisions > 0 => {
                let category = initial_categories
                    .first()
                    .copied()
                    .unwrap_or(ErrorCategory::SyntaxError);
                vec![DistilledEntry::from_episode(
                    &initial_outcome.log,
                    category,
                    revisions,
                    changed_line_count(initial_code, &code),
                )]
            }
            _ => Vec::new(),
        };

        FixOutcome {
            success: outcome.success,
            remaining_categories: outcome.error_categories(),
            final_code: code,
            revisions,
            initial_categories,
            degraded,
            fault_events: trace.fault_steps(),
            distilled,
            trace,
        }
    }

    /// The RAG stage of one turn: guidance for `outcome`'s log from the
    /// database, plus the distilled store's brief for its error shape. A
    /// panicking retriever records a fault step and yields no guidance.
    fn retrieve(
        &self,
        outcome: &CompileOutcome,
        trace: &mut FixTrace,
        degraded: &mut bool,
    ) -> Vec<GuidanceSnippet> {
        let query = RetrievalQuery::from_log(outcome.log.as_str())
            .with_identified(outcome.identified.as_slice());
        let retrieve_span = obs::span(obs::kind::RETRIEVE);
        let hits = catch_unwind(AssertUnwindSafe(|| {
            self.retriever.retrieve(&self.database, &query)
        }));
        drop(retrieve_span);
        let Ok(hits) = hits else {
            *degraded = true;
            trace.push(
                "The retrieval service failed; continuing without guidance.",
                Action::Fault { kind: "retriever-error" },
                "",
            );
            return Vec::new();
        };
        obs::counter_add("rag.retrievals", 1);
        if obs::enabled() {
            // Retrieval-quality telemetry: evidence share and the rank of
            // the first trustworthy hit (exact, or category-confirmed by
            // the feedback layer).
            for hit in &hits {
                obs::counter_add(hit.evidence.counter(), 1);
            }
            if let Some(depth) = hits
                .iter()
                .position(|h| h.exact || query.identified.contains(&h.entry.category.0))
            {
                obs::observe("rag.hit_depth", depth as u64);
            }
        }
        // Each hit shares its entry's brief, rendered once per database.
        let mut guidance: Vec<GuidanceSnippet> = hits
            .iter()
            .map(|hit| GuidanceSnippet {
                category: hit.entry.category.0,
                text: Arc::clone(self.database.brief(hit.index)),
                exact_retrieval: hit.exact,
                has_anti_patterns: !hit.entry.anti_patterns.is_empty(),
            })
            .collect();
        // Distilled-store lookup: a fingerprint hit is a previously
        // successful repair of this exact error shape — authoritative,
        // like a tag match.
        if let Some(entry) = self.distilled.as_ref().and_then(|s| s.lookup(&outcome.log)) {
            obs::counter_add(Evidence::Distilled.counter(), 1);
            guidance.push(GuidanceSnippet {
                category: entry.category.0,
                text: Arc::clone(&entry.guidance),
                exact_retrieval: true,
                has_anti_patterns: !category_brief(entry.category.0).1.is_empty(),
            });
        }
        guidance
    }

    /// One compile with compiler-side fault handling.
    ///
    /// Cached compile: across episodes (and pool workers) identical
    /// candidate sources compile exactly once per process. A drawn
    /// `CompilerCrash` is retried (the real tool flow: resubmit the job) up
    /// to twice; a drawn `GarbledLog` delivers the real verdict under a
    /// noise-corrupted log with no identifiable categories — feedback
    /// quality degrades, the episode continues.
    fn compile_checked(
        &mut self,
        code: &str,
        thought: &'static str,
        trace: &mut FixTrace,
        degraded: &mut bool,
    ) -> Arc<CompileOutcome> {
        let _compile_span = obs::span(obs::kind::COMPILE);
        obs::counter_add("agent.compiles", 1);
        let mut crashes = 0usize;
        let outcome = loop {
            match self.faults.draw() {
                Some(FaultKind::CompilerCrash) => {
                    *degraded = true;
                    trace.push(
                        "The compiler job died before producing a verdict.",
                        Action::Fault { kind: FaultKind::CompilerCrash.slug() },
                        faults::crash_log(),
                    );
                    if crashes < 2 {
                        crashes += 1;
                        trace.push("Resubmit the compilation job.", Action::Retry, "");
                        faults::record_recovered(FaultKind::CompilerCrash);
                        continue;
                    }
                    // Crash-retry budget exhausted: degrade gracefully by
                    // trusting the (cached) frontend verdict anyway rather
                    // than abandoning the episode.
                    faults::record_exhausted(FaultKind::CompilerCrash);
                    break self.compiler.compile_cached(code, "main.sv");
                }
                Some(FaultKind::GarbledLog) => {
                    *degraded = true;
                    let base = self.compiler.compile_cached(code, "main.sv");
                    if base.success {
                        break base;
                    }
                    // The shared cache entry stays pristine; only this
                    // episode sees the corrupted copy.
                    let mut out = (*base).clone();
                    out.log = self.faults.garble_log(&out.log);
                    out.identified.clear();
                    let out = Arc::new(out);
                    trace.push(
                        "The compiler log arrived corrupted; no error tag is legible.",
                        Action::Fault { kind: FaultKind::GarbledLog.slug() },
                        TraceText::Log(Arc::clone(&out)),
                    );
                    break out;
                }
                _ => break self.compiler.compile_cached(code, "main.sv"),
            }
        };
        trace.push(thought, Action::Compiler, TraceText::Log(Arc::clone(&outcome)));
        outcome
    }
}

/// Positional line diff between the pre-loop candidate and the final code:
/// pairwise-different lines plus the length delta, floored at 1 (a repair
/// that reached success through ≥1 revision changed *something*, even if
/// only whitespace the line iterator normalises away).
fn changed_line_count(before: &str, after: &str) -> usize {
    let a: Vec<&str> = before.lines().collect();
    let b: Vec<&str> = after.lines().collect();
    let common = a.len().min(b.len());
    let mut changed = a.len().max(b.len()) - common;
    for i in 0..common {
        if a[i] != b[i] {
            changed += 1;
        }
    }
    changed.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlfixer_llm::{Capability, SimulatedLlm};

    const PHANTOM_CLK: &str = "module m(input [7:0] in, output reg [7:0] out);\n\
                               always @(posedge clk) out <= in;\nendmodule";

    fn fixer(
        compiler: CompilerKind,
        strategy: Strategy,
        rag: bool,
        capability: Capability,
        seed: u64,
    ) -> RtlFixer<SimulatedLlm> {
        RtlFixerBuilder::new()
            .compiler(compiler)
            .strategy(strategy)
            .with_rag(rag)
            .build(SimulatedLlm::new(capability, seed))
    }

    #[test]
    fn already_clean_code_finishes_immediately() {
        let mut f = fixer(
            CompilerKind::Quartus,
            Strategy::React { max_iterations: 10 },
            true,
            Capability::Gpt35Class,
            1,
        );
        let outcome = f.fix("module m(input a, output y); assign y = a; endmodule");
        assert!(outcome.success);
        assert_eq!(outcome.revisions, 0);
        assert!(outcome.initial_categories.is_empty());
    }

    #[test]
    fn react_gpt4_fixes_phantom_clk() {
        let mut f = fixer(
            CompilerKind::Quartus,
            Strategy::React { max_iterations: 10 },
            true,
            Capability::Gpt4Class,
            7,
        );
        let outcome = f.fix(PHANTOM_CLK);
        assert!(outcome.success, "trace:\n{}", outcome.trace);
        assert_eq!(
            outcome.initial_categories,
            vec![ErrorCategory::UndeclaredIdentifier]
        );
        assert!(outcome.remaining_categories.is_empty());
        assert!(outcome.trace.compiler_calls() >= 2);
    }

    #[test]
    fn one_shot_uses_single_revision() {
        let mut f = fixer(
            CompilerKind::Quartus,
            Strategy::OneShot,
            true,
            Capability::Gpt4Class,
            11,
        );
        let outcome = f.fix(PHANTOM_CLK);
        assert!(outcome.revisions <= 1);
    }

    #[test]
    fn react_beats_one_shot_on_average() {
        // Aggregate sanity check of the loop dynamics (Table 1's main
        // qualitative claim), on a moderately hard sample.
        let sample = "module m(input [7:0] a, output reg [7:0] y);\n\
                      always @* begin\n\
                        for (int i = 0; i < 8; i++) y[i] = a[i] & mask;\n\
                      end\nendmodule";
        let runs = 40;
        let mut one_shot_wins = 0;
        let mut react_wins = 0;
        for seed in 0..runs {
            let mut os = fixer(
                CompilerKind::Iverilog,
                Strategy::OneShot,
                false,
                Capability::Gpt35Class,
                seed,
            );
            if os.fix(sample).success {
                one_shot_wins += 1;
            }
            let mut re = fixer(
                CompilerKind::Iverilog,
                Strategy::React { max_iterations: 10 },
                false,
                Capability::Gpt35Class,
                seed,
            );
            if re.fix(sample).success {
                react_wins += 1;
            }
        }
        assert!(
            react_wins > one_shot_wins,
            "react {react_wins} vs one-shot {one_shot_wins}"
        );
    }

    #[test]
    fn rag_improves_quartus_fix_rate() {
        // The Table 1 RAG effect, in miniature: a hard C-style sample.
        let sample = "module m(input [7:0] a, output reg [7:0] s);\n\
                      always @* begin\ns = 0;\ns += a;\nend\nendmodule";
        let runs = 60;
        let mut with_rag = 0;
        let mut without_rag = 0;
        for seed in 0..runs {
            let mut w = fixer(
                CompilerKind::Quartus,
                Strategy::React { max_iterations: 10 },
                true,
                Capability::Gpt35Class,
                seed,
            );
            if w.fix(sample).success {
                with_rag += 1;
            }
            let mut wo = fixer(
                CompilerKind::Quartus,
                Strategy::React { max_iterations: 10 },
                false,
                Capability::Gpt35Class,
                seed,
            );
            if wo.fix(sample).success {
                without_rag += 1;
            }
        }
        assert!(with_rag > without_rag, "with {with_rag} vs without {without_rag}");
    }

    #[test]
    fn trace_contains_rag_step_when_retrieval_hits() {
        let mut f = fixer(
            CompilerKind::Quartus,
            Strategy::React { max_iterations: 10 },
            true,
            Capability::Gpt4Class,
            3,
        );
        let outcome = f.fix(PHANTOM_CLK);
        let has_rag = outcome
            .trace
            .steps
            .iter()
            .any(|s| matches!(s.action, Action::Rag { .. }));
        assert!(has_rag, "trace:\n{}", outcome.trace);
    }

    #[test]
    fn successful_episode_with_store_distills_one_entry() {
        let store = Arc::new(DistilledStore::new());
        let mut f = RtlFixerBuilder::new()
            .compiler(CompilerKind::Quartus)
            .strategy(Strategy::React { max_iterations: 10 })
            .distilled(Arc::clone(&store))
            .build(SimulatedLlm::new(Capability::Gpt4Class, 7));
        let outcome = f.fix(PHANTOM_CLK);
        assert!(outcome.success, "trace:\n{}", outcome.trace);
        assert!(outcome.revisions >= 1);
        assert_eq!(outcome.distilled.len(), 1);
        assert_eq!(
            outcome.distilled[0].category.0,
            ErrorCategory::UndeclaredIdentifier
        );

        // Without a wired store the same episode distills nothing.
        let mut plain = fixer(
            CompilerKind::Quartus,
            Strategy::React { max_iterations: 10 },
            true,
            Capability::Gpt4Class,
            7,
        );
        let outcome = plain.fix(PHANTOM_CLK);
        assert!(outcome.success);
        assert!(outcome.distilled.is_empty());
    }

    #[test]
    fn merged_distilled_entries_surface_in_the_next_episode() {
        // Close the loop: episode 1 distills, the caller merges at its
        // barrier, episode 2 (a fresh fixer over the same store) retrieves
        // the distilled brief for the same error shape.
        let store = Arc::new(DistilledStore::new());
        let mut first = RtlFixerBuilder::new()
            .compiler(CompilerKind::Quartus)
            .strategy(Strategy::React { max_iterations: 10 })
            .distilled(Arc::clone(&store))
            .build(SimulatedLlm::new(Capability::Gpt4Class, 7));
        let outcome = first.fix(PHANTOM_CLK);
        assert!(outcome.success);
        assert_eq!(store.merge(&outcome.distilled), 1);

        let mut second = RtlFixerBuilder::new()
            .compiler(CompilerKind::Quartus)
            .strategy(Strategy::React { max_iterations: 10 })
            .distilled(Arc::clone(&store))
            .build(SimulatedLlm::new(Capability::Gpt4Class, 21));
        let outcome = second.fix(PHANTOM_CLK);
        assert!(outcome.success, "trace:\n{}", outcome.trace);
        let saw_distilled = outcome.trace.steps.iter().any(|s| {
            matches!(s.action, Action::Rag { .. })
                && s.observation.contains("A previous repair cleared this exact error shape")
        });
        assert!(saw_distilled, "trace:\n{}", outcome.trace);
    }

    #[test]
    fn markdown_wrapped_input_is_prefixed() {
        let wrapped = format!("Here you go:\n```verilog\n{PHANTOM_CLK}\n```\nEnjoy!");
        let mut f = fixer(
            CompilerKind::Quartus,
            Strategy::React { max_iterations: 10 },
            true,
            Capability::Gpt4Class,
            5,
        );
        let outcome = f.fix(&wrapped);
        assert!(outcome.success, "trace:\n{}", outcome.trace);
        assert!(outcome.final_code.starts_with("module"));
    }

    #[test]
    fn budget_exhaustion_reports_failure() {
        // The Figure 6 class: index arithmetic, nearly unsolvable.
        let sample = "module m(input [255:0] q, output [255:0] n);\n\
                      genvar i, j;\ngenerate\n\
                      for (i = 0; i < 16; i = i + 1) begin : r\n\
                      for (j = 0; j < 16; j = j + 1) begin : c\n\
                      assign n[i*16 + j] = q[(i-1)*16 + (j-1)];\n\
                      end\nend\nendgenerate\nendmodule";
        let mut failures = 0;
        for seed in 0..10 {
            let mut f = fixer(
                CompilerKind::Quartus,
                Strategy::React { max_iterations: 10 },
                false,
                Capability::Gpt35Class,
                seed,
            );
            let outcome = f.fix(sample);
            if !outcome.success {
                failures += 1;
                assert!(!outcome.remaining_categories.is_empty());
            }
        }
        assert!(failures >= 7, "index arithmetic should mostly fail: {failures}/10");
    }

    // ---- graceful degradation under faults -----------------------------

    use rtlfixer_faults::{FaultKind, FaultSpec};
    use rtlfixer_llm::ResilientModel;

    fn only(kind: FaultKind, rate: f64) -> Option<Arc<FaultSpec>> {
        Some(Arc::new(FaultSpec::none().with_rate(kind, rate)))
    }

    /// A fixer whose LLM transport injects exactly `kind` at `rate`, with
    /// compiler-side faults explicitly off. Explicit specs keep these tests
    /// independent of process-global fault state.
    fn faulty_llm_fixer(
        kind: FaultKind,
        rate: f64,
        seed: u64,
    ) -> RtlFixer<ResilientModel<SimulatedLlm>> {
        RtlFixerBuilder::new()
            .compiler(CompilerKind::Quartus)
            .strategy(Strategy::React { max_iterations: 10 })
            .fault_spec(None)
            .build(ResilientModel::with_spec(
                SimulatedLlm::new(Capability::Gpt4Class, seed),
                only(kind, rate),
                seed,
            ))
    }

    #[test]
    fn clean_run_is_not_degraded() {
        let mut f = fixer(
            CompilerKind::Quartus,
            Strategy::React { max_iterations: 10 },
            true,
            Capability::Gpt4Class,
            7,
        );
        let outcome = f.fix(PHANTOM_CLK);
        assert!(!outcome.degraded);
        assert_eq!(outcome.fault_events, 0);
        assert_eq!(outcome.trace.retries(), 0);
    }

    #[test]
    fn malformed_completions_are_salvaged() {
        // Every completion arrives prose-wrapped; the salvage path must
        // still land a compiling module.
        let mut f = faulty_llm_fixer(FaultKind::MalformedOutput, 1.0, 7);
        let outcome = f.fix(PHANTOM_CLK);
        assert!(outcome.success, "trace:\n{}", outcome.trace);
        assert!(outcome.degraded);
        assert!(outcome.fault_events >= 1);
        assert!(outcome.final_code.trim_start().starts_with("module"), "{}", outcome.final_code);
    }

    #[test]
    fn exhausted_turns_keep_previous_candidate_and_terminate() {
        // A permanently-down model: every turn exhausts its retries. The
        // episode must terminate at the revision budget with the original
        // candidate intact, not abort or spin.
        let mut f = faulty_llm_fixer(FaultKind::Timeout, 1.0, 3);
        let outcome = f.fix(PHANTOM_CLK);
        assert!(!outcome.success);
        assert!(outcome.degraded);
        assert_eq!(outcome.revisions, 10, "each dead turn still consumes a revision");
        assert_eq!(outcome.final_code, prefix_fix(PHANTOM_CLK));
        assert_eq!(outcome.remaining_categories, outcome.initial_categories);
    }

    struct PanickyRetriever;

    impl Retriever for PanickyRetriever {
        fn name(&self) -> &str {
            "panicky"
        }

        fn retrieve<'a>(
            &self,
            _db: &'a GuidanceDatabase,
            _query: &RetrievalQuery<'_>,
        ) -> Vec<rtlfixer_rag::Retrieved<'a>> {
            panic!("retrieval backend fell over")
        }
    }

    #[test]
    fn retriever_panic_degrades_to_rag_off() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the test log quiet
        let mut f = RtlFixerBuilder::new()
            .compiler(CompilerKind::Quartus)
            .strategy(Strategy::React { max_iterations: 10 })
            .retriever(Box::new(PanickyRetriever))
            .fault_spec(None)
            .build(SimulatedLlm::new(Capability::Gpt4Class, 7));
        let outcome = f.fix(PHANTOM_CLK);
        std::panic::set_hook(hook);
        assert!(outcome.degraded);
        let retriever_faults = outcome
            .trace
            .steps
            .iter()
            .filter(|s| s.action == Action::Fault { kind: "retriever-error" })
            .count();
        assert!(retriever_faults >= 1, "trace:\n{}", outcome.trace);
        // No guidance ever reached the model, so no RAG step either.
        assert!(!outcome.trace.steps.iter().any(|s| matches!(s.action, Action::Rag { .. })));
    }

    #[test]
    fn compiler_crashes_retry_and_continue() {
        let mut f = RtlFixerBuilder::new()
            .compiler(CompilerKind::Quartus)
            .strategy(Strategy::React { max_iterations: 10 })
            .fault_spec(only(FaultKind::CompilerCrash, 1.0))
            .fault_seed(7)
            .build(SimulatedLlm::new(Capability::Gpt4Class, 7));
        let outcome = f.fix(PHANTOM_CLK);
        assert!(outcome.success, "crashes must not sink the episode:\n{}", outcome.trace);
        assert!(outcome.degraded);
        assert!(outcome.trace.retries() >= 2, "crash retries appear in the trace");
        assert!(outcome.fault_events >= 3, "every compile drew a crash");
    }

    #[test]
    fn garbled_logs_degrade_feedback_but_not_the_loop() {
        let mut f = RtlFixerBuilder::new()
            .compiler(CompilerKind::Quartus)
            .strategy(Strategy::React { max_iterations: 10 })
            .with_rag(false)
            .fault_spec(only(FaultKind::GarbledLog, 1.0))
            .fault_seed(5)
            .build(SimulatedLlm::new(Capability::Gpt4Class, 5));
        let outcome = f.fix(PHANTOM_CLK);
        assert!(outcome.degraded);
        assert!(
            outcome
                .trace
                .steps
                .iter()
                .any(|s| s.action == Action::Fault { kind: "garbled-log" }),
            "trace:\n{}",
            outcome.trace
        );
        assert!(outcome.revisions <= 10, "loop terminated within budget");
    }

    #[test]
    fn explicit_off_spec_matches_no_layer_run() {
        // `.fault_spec(None)` + a plain model must behave exactly like the
        // pre-fault-layer agent.
        let run = |explicit_off: bool| {
            let builder = RtlFixerBuilder::new()
                .compiler(CompilerKind::Quartus)
                .strategy(Strategy::React { max_iterations: 10 });
            let builder = if explicit_off { builder.fault_spec(None) } else { builder };
            let mut f = builder.build(SimulatedLlm::new(Capability::Gpt35Class, 99));
            let o = f.fix(PHANTOM_CLK);
            (o.success, o.revisions, o.final_code)
        };
        assert_eq!(run(true), run(false));
    }
}
