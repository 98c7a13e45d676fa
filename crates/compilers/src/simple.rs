//! The "Simple" feedback arm: no compiler log at all.
//!
//! In the paper's ablation (§4.3.1), *Simple* feedback replaces the compiler
//! message with the bare instruction *"Correct the syntax error in the
//! code."* The underlying frontend still runs — the experiment harness needs
//! a pass/fail verdict — but nothing about the error reaches the LLM, and no
//! category is identifiable from the log.

use rtlfixer_verilog::compile_shared;
use rtlfixer_verilog::diag::ErrorCategory;

use crate::{CompileOutcome, Compiler, FeedbackQuality};

/// The instruction string shown instead of a compiler log.
pub const SIMPLE_INSTRUCTION: &str = "Correct the syntax error in the code.";

/// The Simple (no-feedback) personality. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleCompiler {
    _private: (),
}

impl SimpleCompiler {
    /// Creates the personality.
    pub fn new() -> Self {
        SimpleCompiler { _private: () }
    }
}

impl Compiler for SimpleCompiler {
    fn name(&self) -> &'static str {
        "Simple"
    }

    fn compile(&self, source: &str, _file_name: &str) -> CompileOutcome {
        let analysis = compile_shared(source);
        let success = analysis.is_ok();
        let log = if success { String::new() } else { SIMPLE_INSTRUCTION.to_owned() };
        CompileOutcome {
            success,
            log,
            diagnostics: analysis.diagnostics.clone(),
            identified: Vec::new(),
            analysis,
        }
    }

    fn quality(&self) -> FeedbackQuality {
        FeedbackQuality { carries_tags: false, informativeness: 0.0 }
    }

    fn identifies(&self, _category: ErrorCategory) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_always_the_instruction() {
        let outcome = SimpleCompiler::new().compile(
            "module m(output reg q); always @(posedge clk) q <= 1; endmodule",
            "main.v",
        );
        assert!(!outcome.success);
        assert_eq!(outcome.log, SIMPLE_INSTRUCTION);
        assert!(outcome.identified.is_empty());
        // The verdict machinery still sees the real diagnostics.
        assert!(!outcome.diagnostics.is_empty());
    }

    #[test]
    fn identifies_nothing() {
        let c = SimpleCompiler::new();
        for cat in ErrorCategory::ALL {
            assert!(!c.identifies(cat));
        }
    }

    #[test]
    fn success_log_is_empty() {
        let outcome = SimpleCompiler::new()
            .compile("module m(input a, output y); assign y = a; endmodule", "main.v");
        assert!(outcome.success);
        assert!(outcome.log.is_empty());
    }
}
