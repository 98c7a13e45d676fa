//! The simulated language model: reads the code like an engineer would
//! (via the frontend), decides per error whether it *understands* it (the
//! competence model), and applies the corresponding real repair operator on
//! success.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rtlfixer_verilog::diag::{Diagnostic, ErrorCategory};

use crate::competence::{AttemptContext, Capability, Competence, GuidanceLevel};
use crate::model::{Feedback, GuidanceSnippet, LanguageModel, RepairRequest, RepairResponse};
use crate::reasoning::Reasoning;
use crate::repair;

/// Maximum errors fixed within one revision response (an LLM rewrites the
/// whole module once per turn, typically addressing everything it noticed).
const MAX_EDITS_PER_TURN: usize = 6;

/// The simulated LLM. See the [module docs](self) and DESIGN.md §1.
///
/// # Examples
///
/// ```
/// use rtlfixer_llm::{Capability, SimulatedLlm, LanguageModel};
/// let mut llm = SimulatedLlm::new(Capability::Gpt4Class, 7);
/// llm.begin_episode();
/// assert_eq!(llm.name(), "sim-gpt-4-class");
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    competence: Competence,
    rng: StdRng,
    /// Latent per-episode understanding, one entry per error instance in
    /// order of first sight. An episode meets a handful of errors, so a
    /// scan compares each diagnostic in place and nothing is built to look
    /// one up.
    episode: Vec<Latent>,
    name: &'static str,
}

/// The model's understanding of one error instance, drawn the first time
/// the episode meets it. The instance is its category and payload
/// ([`Diagnostic::same_error`]), so retries within an episode reuse the
/// draw (a model that misunderstood an error does not suddenly understand
/// it on attempt 5).
#[derive(Debug, Clone)]
struct Latent {
    error: Diagnostic,
    understood: bool,
}

impl SimulatedLlm {
    /// Creates a simulated model of the given capability, seeded
    /// deterministically.
    pub fn new(capability: Capability, seed: u64) -> Self {
        SimulatedLlm {
            competence: Competence::new(capability),
            rng: StdRng::seed_from_u64(seed),
            episode: Vec::new(),
            name: match capability {
                Capability::Gpt35Class => "sim-gpt-3.5-class",
                Capability::Gpt4Class => "sim-gpt-4-class",
            },
        }
    }

    /// The capability class this model simulates.
    pub fn capability(&self) -> Capability {
        self.competence.capability
    }

    /// Whether the model understands `diag`: the episode's earlier draw for
    /// the same error instance, or a fresh draw, remembered.
    fn understands(&mut self, diag: &Diagnostic, ctx: &AttemptContext) -> bool {
        if let Some(latent) = self.episode.iter().find(|latent| latent.error.same_error(diag)) {
            return latent.understood;
        }
        let u = self.competence.understand_probability(ctx);
        let understood = self.rng.gen_bool(u);
        self.episode.push(Latent { error: diag.clone(), understood });
        understood
    }

    fn guidance_level(guidance: &[GuidanceSnippet], category: ErrorCategory) -> GuidanceLevel {
        let category_match = |g: &GuidanceSnippet| {
            g.category == category
                // Both index classes share the Quartus 10232 tag.
                || (matches!(
                    g.category,
                    ErrorCategory::IndexOutOfRange | ErrorCategory::IndexArithmetic
                ) && matches!(
                    category,
                    ErrorCategory::IndexOutOfRange | ErrorCategory::IndexArithmetic
                ))
        };
        // An exact-tag retrieval hit on the right category is authoritative;
        // a fuzzy hit on the right category is only family-level confidence.
        if guidance.iter().any(|g| g.exact_retrieval && category_match(g)) {
            return GuidanceLevel::Exact;
        }
        if guidance.iter().any(category_match) {
            return GuidanceLevel::Family;
        }
        // Generic syntax guidance (all the iverilog database offers for the
        // syntax subfamily) helps, but far less than category-exact advice.
        if guidance.iter().any(|g| {
            g.category == ErrorCategory::SyntaxError
                && matches!(
                    category,
                    ErrorCategory::CStyleConstruct
                        | ErrorCategory::UnbalancedBlock
                        | ErrorCategory::KeywordAsIdentifier
                )
        }) {
            return GuidanceLevel::Family;
        }
        // The reverse direction of the rule above, unlocked by repair
        // briefs: a C-style-construct brief whose explicit anti-patterns
        // block names the constructs (`++`, `+=`, `bool`) tells the model
        // what a bare `syntax error` log hides.
        if guidance.iter().any(|g| {
            g.category == ErrorCategory::CStyleConstruct
                && g.has_anti_patterns
                && category == ErrorCategory::SyntaxError
        }) {
            return GuidanceLevel::Family;
        }
        GuidanceLevel::None
    }

    fn attempt_context(
        &self,
        diag: &Diagnostic,
        feedback: &Feedback<'_>,
        guidance: GuidanceLevel,
    ) -> AttemptContext {
        AttemptContext {
            category: diag.category,
            identified: feedback.identified.contains(&diag.category),
            informativeness: feedback.informativeness,
            guidance,
            style: crate::model::PromptStyle::React,
        }
    }
}

impl LanguageModel for SimulatedLlm {
    fn name(&self) -> &str {
        self.name
    }

    fn begin_episode(&mut self) {
        self.episode.clear();
    }

    fn propose_repair(&mut self, request: &RepairRequest<'_>) -> RepairResponse {
        // The latest revision; the candidate itself is copied only when no
        // edit lands.
        let mut revised: Option<String> = None;
        let mut reasoning = Reasoning::default();

        for _ in 0..MAX_EDITS_PER_TURN {
            let code = revised.as_deref().unwrap_or(&request.code);
            // The model re-reads its current draft (its "comprehension" is
            // modelled by the real frontend). Every read goes through the
            // process-wide analysis cache (DESIGN.md §3c): the first is the
            // candidate the agent just compiled, and the repair operators
            // are deterministic, so intermediate drafts recur across
            // repeats and grid cells. `compile` is pure, so a shared
            // analysis is indistinguishable from a fresh one.
            let analysis = rtlfixer_verilog::compile_shared(code);
            if analysis.is_ok() {
                break;
            }
            let mut edit = None;
            for (index, diag) in analysis.diagnostics.iter().enumerate() {
                if !diag.is_error() {
                    continue;
                }
                let guidance = Self::guidance_level(request.guidance, diag.category);
                let ctx = self.attempt_context(diag, &request.feedback, guidance);
                // Each thought is a handle to the diagnostic in this
                // analysis, rendered only if a reader asks.
                if !self.understands(diag, &ctx) {
                    reasoning.push(&analysis, index, false);
                    continue;
                }
                let r = self.competence.attempt_probability(&ctx);
                if !self.rng.gen_bool(r) {
                    reasoning.push(&analysis, index, false);
                    continue;
                }
                if let Some(next) = repair::repair(code, diag, &analysis) {
                    reasoning.push(&analysis, index, true);
                    edit = Some(next);
                    break; // spans shifted; re-read before the next edit
                }
                reasoning.push(&analysis, index, false);
            }
            match edit {
                Some(next) => revised = Some(next),
                None => break,
            }
        }

        if reasoning.is_empty() {
            reasoning = Reasoning::fixed("The code compiles cleanly; returning it unchanged.");
        }
        RepairResponse {
            code: revised.unwrap_or_else(|| request.code.clone()),
            thought: reasoning,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PromptStyle;

    fn request(
        code: &str,
        identified: &'static [ErrorCategory],
        informativeness: f64,
    ) -> RepairRequest<'static> {
        RepairRequest {
            code: code.to_owned(),
            problem: "test",
            feedback: Feedback { log: "", identified, informativeness },
            guidance: &[],
            style: PromptStyle::React,
            attempt: 0,
        }
    }

    const BROKEN: &str = "module m(input [7:0] in, output reg [7:0] out);\n\
                          always @(posedge clk) out <= in;\nendmodule";

    #[test]
    fn gpt4_fixes_easy_error_quickly() {
        // With near-1 probabilities, almost every episode must succeed (a
        // small residual stays stuck by design: the understanding latent is
        // sticky within an episode).
        let req = request(BROKEN, &[ErrorCategory::UndeclaredIdentifier], 0.85);
        let mut fixed_episodes = 0;
        let episodes = 10;
        for seed in 0..episodes {
            let mut llm = SimulatedLlm::new(Capability::Gpt4Class, seed);
            llm.begin_episode();
            let mut code = BROKEN.to_owned();
            for attempt in 0..10 {
                let mut r = req.clone();
                r.code = code.clone();
                r.attempt = attempt;
                code = llm.propose_repair(&r).code;
                if rtlfixer_verilog::compile(&code).is_ok() {
                    fixed_episodes += 1;
                    break;
                }
            }
        }
        assert!(fixed_episodes >= 8, "only {fixed_episodes}/{episodes} episodes fixed");
    }

    #[test]
    fn latent_understanding_is_sticky_within_episode() {
        // Seeds where the first draw fails must keep failing for the same
        // error in the same episode.
        for seed in 0..50u64 {
            let mut llm = SimulatedLlm::new(Capability::Gpt35Class, seed);
            llm.begin_episode();
            let req = request(BROKEN, &[], 0.0); // Simple feedback
            let first = llm.propose_repair(&req);
            let first_fixed = rtlfixer_verilog::compile(&first.code).is_ok();
            if first_fixed {
                continue;
            }
            // Same latent key: the episode map must contain a false entry.
            let stuck = llm.episode.iter().any(|latent| !latent.understood);
            if stuck {
                // 10 more attempts; if the model never understood, the code
                // must still fail (attempt accuracy never applies).
                let mut code = first.code;
                for _ in 0..10 {
                    let mut r = req.clone();
                    r.code = code.clone();
                    code = llm.propose_repair(&r).code;
                }
                assert!(
                    !rtlfixer_verilog::compile(&code).is_ok(),
                    "seed {seed}: stuck latent must stay stuck"
                );
                return; // found and verified one sticky case
            }
        }
        panic!("no seed produced a not-understood latent — u too high for Simple feedback?");
    }

    /// The memo key as first written: the category's slug and the
    /// debug-printed payload in one string. Kept as the oracle of the typed
    /// memo.
    fn error_key(diag: &Diagnostic) -> String {
        format!("{}:{:?}", diag.category.slug(), diag.data)
    }

    #[test]
    fn memo_keeps_one_draw_per_error_key() {
        // Drafts whose errors recur at shifted spans, and errors that
        // differ only in their payload.
        let sources = [
            BROKEN,
            "module m(input [7:0] in, output reg [7:0] out);\n\n  \
             always @(posedge clk) out <= in;\nendmodule",
            "module m(output y); assign y = clk & rst; endmodule",
            "module m(output y);\nwire t\nassign y = t & clk;\nendmodule",
            "module m(input [3:0] a, output y); assign y = a[4] | a[5] | clk; endmodule",
            "module m(input [3:0] a, output y);\n  assign y = a[4];\nendmodule",
        ];
        let mut llm = SimulatedLlm::new(Capability::Gpt35Class, 1);
        llm.begin_episode();
        let feedback = Feedback { log: "", identified: &[], informativeness: 0.5 };
        let mut keys: Vec<(String, bool)> = Vec::new();
        for _ in 0..2 {
            for source in sources {
                let analysis = rtlfixer_verilog::compile(source);
                for diag in analysis.diagnostics.iter().filter(|d| d.is_error()) {
                    let ctx = llm.attempt_context(diag, &feedback, GuidanceLevel::None);
                    let understood = llm.understands(diag, &ctx);
                    let key = error_key(diag);
                    match keys.iter().find(|(known, _)| *known == key) {
                        Some(&(_, drawn)) => assert_eq!(understood, drawn, "{key}"),
                        None => keys.push((key, understood)),
                    }
                    let memo: Vec<String> =
                        llm.episode.iter().map(|latent| error_key(&latent.error)).collect();
                    let oracle: Vec<&String> = keys.iter().map(|(key, _)| key).collect();
                    assert_eq!(memo.iter().collect::<Vec<_>>(), oracle);
                }
            }
        }
        assert!(keys.len() >= 5, "{keys:?}");
    }

    #[test]
    fn episode_reset_redraws_latents() {
        let mut llm = SimulatedLlm::new(Capability::Gpt35Class, 3);
        llm.begin_episode();
        let req = request(BROKEN, &[ErrorCategory::UndeclaredIdentifier], 0.85);
        let _ = llm.propose_repair(&req);
        assert!(!llm.episode.is_empty());
        llm.begin_episode();
        assert!(llm.episode.is_empty());
    }

    #[test]
    fn clean_code_returned_unchanged() {
        let mut llm = SimulatedLlm::new(Capability::Gpt35Class, 5);
        llm.begin_episode();
        let clean = "module m(input a, output y); assign y = a; endmodule";
        let resp = llm.propose_repair(&request(clean, &[], 0.85));
        assert_eq!(resp.code, clean);
        assert!(resp.thought.to_string().contains("compiles cleanly"));
    }

    #[test]
    fn guidance_matching_covers_index_family() {
        let snippets = vec![GuidanceSnippet {
            category: ErrorCategory::IndexOutOfRange,
            text: "".into(),
            exact_retrieval: true,
            has_anti_patterns: false,
        }];
        assert_eq!(
            SimulatedLlm::guidance_level(&snippets, ErrorCategory::IndexArithmetic),
            GuidanceLevel::Exact
        );
        assert_eq!(
            SimulatedLlm::guidance_level(&snippets, ErrorCategory::IndexOutOfRange),
            GuidanceLevel::Exact
        );
        assert_eq!(
            SimulatedLlm::guidance_level(&snippets, ErrorCategory::Redeclaration),
            GuidanceLevel::None
        );
        let syntax = vec![GuidanceSnippet {
            category: ErrorCategory::SyntaxError,
            text: "".into(),
            exact_retrieval: true,
            has_anti_patterns: false,
        }];
        assert_eq!(
            SimulatedLlm::guidance_level(&syntax, ErrorCategory::CStyleConstruct),
            GuidanceLevel::Family
        );
    }

    #[test]
    fn anti_pattern_briefs_cover_bare_syntax_errors() {
        // A C-style brief *with* an anti-patterns block helps a generic
        // syntax diagnostic (the brief names the constructs the log hides);
        // the same guidance without the block does not.
        let brief = |has_anti_patterns: bool| {
            vec![GuidanceSnippet {
                category: ErrorCategory::CStyleConstruct,
                text: "".into(),
                exact_retrieval: false,
                has_anti_patterns,
            }]
        };
        assert_eq!(
            SimulatedLlm::guidance_level(&brief(true), ErrorCategory::SyntaxError),
            GuidanceLevel::Family
        );
        assert_eq!(
            SimulatedLlm::guidance_level(&brief(false), ErrorCategory::SyntaxError),
            GuidanceLevel::None
        );
    }

    #[test]
    fn multi_error_sample_can_be_fully_fixed_in_one_turn() {
        // Two easy errors; GPT-4 should usually clear both in one response.
        let code = "module m(input a, output y);\nwire t\nassign y = t & clk;\nendmodule";
        let mut fixed_count = 0;
        for seed in 0..20 {
            let mut llm = SimulatedLlm::new(Capability::Gpt4Class, seed);
            llm.begin_episode();
            let resp = llm.propose_repair(&request(
                code,
                &[ErrorCategory::SyntaxError, ErrorCategory::UndeclaredIdentifier],
                0.85,
            ));
            if rtlfixer_verilog::compile(&resp.code).is_ok() {
                fixed_count += 1;
            }
        }
        assert!(fixed_count >= 15, "only {fixed_count}/20 fixed");
    }
}
