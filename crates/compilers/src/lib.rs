//! # rtlfixer-compilers
//!
//! Compiler *personalities* over the shared `rtlfixer-verilog` frontend.
//!
//! The paper's feedback-quality ablation (§4.3.1) compares three feedback
//! sources of increasing informativeness:
//!
//! 1. **Simple** — no compiler message at all, just the instruction
//!    *"Correct the syntax error in the code."* ([`simple::SimpleCompiler`]).
//! 2. **iverilog** — terse open-source logs; syntax errors collapse to a bare
//!    `syntax error` and hard cases end with `I give up.`
//!    ([`iverilog::IverilogCompiler`]).
//! 3. **Quartus** — verbose commercial logs with numeric error tags
//!    (`Error (10161): …`) and actionable suggestions
//!    ([`quartus::QuartusCompiler`]).
//!
//! All three personalities share one *verdict* (the frontend's diagnostics);
//! they differ only in what the rendered log reveals — which is exactly the
//! experimental variable the paper manipulates. The numeric tags in Quartus
//! logs are what the paper's exact-match retriever keys on (§3.3), so tag
//! presence is surfaced via [`FeedbackQuality::carries_tags`].
//!
//! ## Example
//!
//! ```
//! use rtlfixer_compilers::{Compiler, CompilerKind};
//!
//! let quartus = CompilerKind::Quartus.build();
//! let outcome = quartus.compile(
//!     "module m(output reg q); always @(posedge clk) q <= 1; endmodule",
//!     "main.sv",
//! );
//! assert!(!outcome.success);
//! assert!(outcome.log.contains("Error (10161)"));
//! assert!(outcome.log.contains("\"clk\" is not declared"));
//! ```

#![warn(missing_docs)]

pub mod iverilog;
pub mod quartus;
pub mod simple;

use std::fmt;
use std::sync::Arc;

use rtlfixer_verilog::diag::{Diagnostic, ErrorCategory};
use rtlfixer_verilog::Analysis;

/// How informative a compiler's log output is — the experimental axis of the
/// paper's §4.3.1 ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackQuality {
    /// Whether logs carry machine-readable numeric error tags (Quartus does;
    /// iverilog does not). The exact-match RAG retriever needs these.
    pub carries_tags: bool,
    /// Informativeness in `[0, 1]`: how much a log helps localise and
    /// explain the error. Calibrated: Simple 0.0, iverilog 0.55, Quartus 0.85.
    pub informativeness: f64,
}

/// Result of one compile attempt.
#[derive(Debug, Clone)]
pub struct CompileOutcome {
    /// Whether the design elaborated without errors.
    pub success: bool,
    /// The rendered log in this compiler's house style (what the LLM sees).
    pub log: String,
    /// The structured diagnostics behind the log (what repair operators and
    /// metrics see; never shown to the simulated LLM directly).
    pub diagnostics: Vec<Diagnostic>,
    /// Error categories that the rendered log makes identifiable. A bare
    /// `syntax error` line does *not* identify its subcategory.
    pub identified: Vec<ErrorCategory>,
    /// Full frontend analysis, for downstream consumers (simulator, repair).
    /// Shared: identical sources resolve to one analysis process-wide (see
    /// [`rtlfixer_verilog::compile_shared`]).
    pub analysis: Arc<Analysis>,
}

impl CompileOutcome {
    /// Error categories present in the diagnostics (deduplicated, ordered).
    pub fn error_categories(&self) -> Vec<ErrorCategory> {
        let mut cats: Vec<ErrorCategory> = self
            .diagnostics
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.category)
            .collect();
        cats.sort_by_key(|c| *c as u8);
        cats.dedup();
        cats
    }

    /// The first error diagnostic, if any — the one the agent works on next.
    pub fn first_error(&self) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.is_error())
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }
}

/// A compiler personality: compiles source and renders a log in its house
/// style. Object-safe so the agent can hold `Box<dyn Compiler>`.
pub trait Compiler: Send + Sync {
    /// Tool name as it would appear in a report (`iverilog`, `Quartus`, …).
    fn name(&self) -> &'static str;

    /// Compiles `source` (conceptually written to `file_name`) and returns
    /// the outcome with a rendered log.
    fn compile(&self, source: &str, file_name: &str) -> CompileOutcome;

    /// [`compile`](Compiler::compile), memoised process-wide behind the
    /// content hash of `(personality, file_name, source)`.
    ///
    /// `compile` is a pure function of those three inputs, so the repair
    /// loop's dominant cost — re-compiling candidate sources the grid has
    /// already seen, across all workers of the episode pool — collapses to
    /// a shard lookup. Identical for every personality via this default
    /// method; behaviour is bit-identical to `compile` (the cache is
    /// invisible, see [`rtlfixer_cache::enabled`]). The file name is a
    /// `'static` literal so the key borrows both names and a lookup
    /// allocates nothing.
    fn compile_cached(&self, source: &str, file_name: &'static str) -> Arc<CompileOutcome> {
        let key = (self.name(), file_name, rtlfixer_verilog::source_fingerprint(source));
        outcome_cache().get_or_insert_with(key, || Arc::new(self.compile(source, file_name)))
    }

    /// This personality's feedback quality.
    fn quality(&self) -> FeedbackQuality;

    /// Whether this personality's log makes `category` identifiable.
    fn identifies(&self, category: ErrorCategory) -> bool;
}

/// Key of the process-wide outcome cache: personality name, file name (it
/// appears verbatim in rendered logs) and source content hash.
type OutcomeKey = (&'static str, &'static str, u128);

fn outcome_cache() -> &'static rtlfixer_cache::ShardedCache<OutcomeKey, Arc<CompileOutcome>> {
    static CACHE: std::sync::OnceLock<
        rtlfixer_cache::ShardedCache<OutcomeKey, Arc<CompileOutcome>>,
    > = std::sync::OnceLock::new();
    CACHE.get_or_init(|| rtlfixer_cache::ShardedCache::named(64, 256, "outcomes"))
}

/// Hit/miss counters of the process-wide [`Compiler::compile_cached`] cache.
pub fn outcome_cache_stats() -> rtlfixer_cache::CacheStats {
    outcome_cache().stats()
}

/// Selector for the built-in compiler personalities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerKind {
    /// No log; the constant instruction string only.
    Simple,
    /// Icarus Verilog style.
    Iverilog,
    /// Intel Quartus Prime style.
    Quartus,
}

impl CompilerKind {
    /// All personalities in increasing feedback quality, as in Table 1.
    pub const ALL: [CompilerKind; 3] =
        [CompilerKind::Simple, CompilerKind::Iverilog, CompilerKind::Quartus];

    /// Instantiates the personality.
    pub fn build(self) -> Box<dyn Compiler> {
        match self {
            CompilerKind::Simple => Box::new(simple::SimpleCompiler::new()),
            CompilerKind::Iverilog => Box::new(iverilog::IverilogCompiler::new()),
            CompilerKind::Quartus => Box::new(quartus::QuartusCompiler::new()),
        }
    }

    /// Human-readable label used in result tables.
    pub fn label(self) -> &'static str {
        match self {
            CompilerKind::Simple => "Simple",
            CompilerKind::Iverilog => "iverilog",
            CompilerKind::Quartus => "Quartus",
        }
    }
}

impl fmt::Display for CompilerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Finds the name of the module enclosing a diagnostic, for messages such as
/// iverilog's ``'out' is not a valid l-value in top_module``.
pub(crate) fn enclosing_module(analysis: &Analysis, span: rtlfixer_verilog::span::Span) -> String {
    analysis
        .file
        .modules
        .iter()
        .find(|m| m.span.start <= span.start && span.end <= m.span.end)
        .map(|m| m.name.clone())
        .unwrap_or_else(|| {
            analysis
                .file
                .modules
                .first()
                .map(|m| m.name.clone())
                .unwrap_or_else(|| "top_module".to_owned())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "module m(input a, output y); assign y = ~a; endmodule";
    const BROKEN: &str =
        "module m(output reg q); always @(posedge clk) q <= 1; endmodule";

    #[test]
    fn all_personalities_agree_on_verdict() {
        for kind in CompilerKind::ALL {
            let compiler = kind.build();
            assert!(compiler.compile(CLEAN, "main.v").success, "{kind} rejects clean code");
            assert!(!compiler.compile(BROKEN, "main.v").success, "{kind} accepts broken code");
        }
    }

    #[test]
    fn quality_is_strictly_increasing() {
        let q: Vec<f64> =
            CompilerKind::ALL.iter().map(|k| k.build().quality().informativeness).collect();
        assert!(q[0] < q[1] && q[1] < q[2], "{q:?}");
    }

    #[test]
    fn only_quartus_carries_tags() {
        assert!(!CompilerKind::Simple.build().quality().carries_tags);
        assert!(!CompilerKind::Iverilog.build().quality().carries_tags);
        assert!(CompilerKind::Quartus.build().quality().carries_tags);
    }

    #[test]
    fn error_categories_dedup() {
        let outcome = CompilerKind::Quartus.build().compile(
            "module m(input [3:0] a, output [3:0] y);\nassign y[4] = a[5];\nendmodule",
            "main.v",
        );
        assert_eq!(outcome.error_categories(), vec![ErrorCategory::IndexOutOfRange]);
        assert_eq!(outcome.error_count(), 2);
    }

    #[test]
    fn first_error_is_earliest() {
        let outcome = CompilerKind::Quartus.build().compile(BROKEN, "main.v");
        assert_eq!(
            outcome.first_error().map(|d| d.category),
            Some(ErrorCategory::UndeclaredIdentifier)
        );
    }

    #[test]
    fn compile_cached_memoises_per_personality_and_file_name() {
        rtlfixer_cache::set_enabled(true);
        let quartus = CompilerKind::Quartus.build();
        let iverilog = CompilerKind::Iverilog.build();
        let a = quartus.compile_cached(BROKEN, "cache_probe.sv");
        let b = quartus.compile_cached(BROKEN, "cache_probe.sv");
        assert!(Arc::ptr_eq(&a, &b), "same (personality, file, source) must share");
        // Different personality or file name renders a different log.
        let other = iverilog.compile_cached(BROKEN, "cache_probe.sv");
        assert!(!Arc::ptr_eq(&a, &other));
        assert_ne!(a.log, other.log);
        let renamed = quartus.compile_cached(BROKEN, "cache_probe_b.sv");
        assert!(!Arc::ptr_eq(&a, &renamed));
        assert!(renamed.log.contains("cache_probe_b.sv"), "{}", renamed.log);
    }

    #[test]
    fn compile_cached_matches_uncached_compile() {
        for kind in CompilerKind::ALL {
            let compiler = kind.build();
            for source in [CLEAN, BROKEN] {
                let cached = compiler.compile_cached(source, "main.v");
                let direct = compiler.compile(source, "main.v");
                assert_eq!(cached.success, direct.success, "{kind}");
                assert_eq!(cached.log, direct.log, "{kind}");
                assert_eq!(cached.identified, direct.identified, "{kind}");
                assert_eq!(cached.diagnostics.len(), direct.diagnostics.len(), "{kind}");
            }
        }
    }
}
