//! Icarus Verilog (`iverilog`) log personality.
//!
//! Modelled on the paper's Figure 5 example:
//!
//! ```text
//! vector100r.sv:5: error: Unable to bind wire/reg/memory 'clk' in 'top_module'
//! vector100r.sv:5: error: Failed to evaluate event expression 'posedge clk'.
//! 2 error(s) during elaboration.
//! ```
//!
//! Characteristics the paper calls out (§4.3.1): logs are terse, carry no
//! numeric tags, syntax errors collapse to a bare `syntax error`, and some
//! edge cases end with the famous `I give up.`

use rtlfixer_verilog::diag::{DiagData, Diagnostic, ErrorCategory, Severity};
use rtlfixer_verilog::{compile_shared, Analysis};

use crate::{enclosing_module, CompileOutcome, Compiler, FeedbackQuality};

/// The iverilog personality. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct IverilogCompiler {
    _private: (),
}

impl IverilogCompiler {
    /// Creates the personality.
    pub fn new() -> Self {
        IverilogCompiler { _private: () }
    }

    fn render_line(
        &self,
        diag: &Diagnostic,
        analysis: &Analysis,
        file_name: &str,
    ) -> Vec<String> {
        let line = analysis.source_map.line(diag.span.start);
        let module = enclosing_module(analysis, diag.span);
        let prefix = format!("{file_name}:{line}: ");
        match &diag.data {
            DiagData::Undeclared { name } => vec![
                format!("{prefix}error: Unable to bind wire/reg/memory '{name}' in '{module}'"),
                format!("{prefix}error: Failed to elaborate expression referencing '{name}'."),
            ],
            DiagData::IndexOob { target, index, .. } => {
                vec![format!("{prefix}error: Index {target}[{index}] is out of range.")]
            }
            DiagData::BadProceduralLvalue { name } => {
                vec![format!("{prefix}error: {name} is not a valid l-value in {module}.")]
            }
            DiagData::BadContinuousLvalue { name } => vec![format!(
                "{prefix}error: reg {name}; cannot be driven by primitives or continuous assignment."
            )],
            DiagData::InputAssigned { name } => {
                vec![format!("{prefix}error: {name} is not a valid l-value in {module}.")]
            }
            DiagData::PortMismatch { instance, port, expected, found, .. } => match port {
                Some(port) => {
                    vec![format!("{prefix}error: port ``{port}'' is not a port of {instance}.")]
                }
                None => vec![format!(
                    "{prefix}error: Wrong number of ports. Expecting {expected}, got {found}."
                )],
            },
            DiagData::ModuleNotFound { name } => {
                vec![format!("{prefix}error: Unknown module type: {name}")]
            }
            DiagData::Redeclared { name } => vec![format!(
                "{prefix}error: '{name}' has already been declared in this scope."
            )],
            // The information-poor cases: bare `syntax error`, subcategory
            // indistinguishable — this is what makes iverilog feedback worse
            // than Quartus for both the LLM and the retriever.
            DiagData::Syntax { .. }
            | DiagData::CStyle { .. }
            | DiagData::KeywordAsId { .. } => {
                vec![format!("{prefix}syntax error")]
            }
            DiagData::Unbalanced { construct } => vec![
                format!("{prefix}syntax error"),
                format!("{file_name}:{line}: error: Errors in '{construct}' region."),
            ],
            DiagData::Directive { directive } => vec![format!(
                "{prefix}error: `{directive} directive can not be inside a module declaration."
            )],
            // iverilog stays silent on warning-level lints — part of its
            // lower feedback informativeness.
            DiagData::Width { .. }
            | DiagData::Latch { .. }
            | DiagData::NoDefault
            | DiagData::Unused { .. } => Vec::new(),
        }
    }
}

impl Compiler for IverilogCompiler {
    fn name(&self) -> &'static str {
        "iverilog"
    }

    fn compile(&self, source: &str, file_name: &str) -> CompileOutcome {
        let analysis = compile_shared(source);
        let mut lines = Vec::new();
        let mut elab_errors = 0usize;
        let mut syntax_lines = 0usize;
        for diag in &analysis.diagnostics {
            if diag.severity != Severity::Error {
                continue;
            }
            let rendered = self.render_line(diag, &analysis, file_name);
            if rendered.iter().any(|l| l.contains("syntax error")) {
                syntax_lines += 1;
            } else {
                elab_errors += rendered.len();
            }
            lines.extend(rendered);
        }
        let success = analysis.is_ok();
        if !success {
            // iverilog's famous capitulation on parse-confused inputs.
            if syntax_lines >= 3 {
                lines.push("I give up.".to_owned());
            } else if elab_errors > 0 {
                lines.push(format!("{elab_errors} error(s) during elaboration."));
            }
        }
        let identified = analysis
            .diagnostics
            .iter()
            .filter(|d| d.is_error() && self.identifies(d.category))
            .map(|d| d.category)
            .collect();
        CompileOutcome { success, log: lines.join("\n"), diagnostics: analysis.diagnostics.clone(), identified, analysis }
    }

    fn quality(&self) -> FeedbackQuality {
        FeedbackQuality { carries_tags: false, informativeness: 0.55 }
    }

    fn identifies(&self, category: ErrorCategory) -> bool {
        !matches!(
            category,
            ErrorCategory::SyntaxError
                | ErrorCategory::CStyleConstruct
                | ErrorCategory::KeywordAsIdentifier
                | ErrorCategory::UnbalancedBlock
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shape_undeclared_clk() {
        let outcome = IverilogCompiler::new().compile(
            "module top_module(input [99:0] in, output reg [99:0] out);\n\
             always @(posedge clk) begin\n\
               out <= in;\n\
             end\nendmodule",
            "vector100r.sv",
        );
        assert!(!outcome.success);
        assert!(outcome.log.contains("vector100r.sv:2: error: Unable to bind wire/reg/memory 'clk' in 'top_module'"));
        assert!(outcome.log.contains("error(s) during elaboration."));
        // No numeric tags anywhere.
        assert!(!outcome.log.contains("(10161)"));
    }

    #[test]
    fn figure2a_index_out_of_range() {
        let outcome = IverilogCompiler::new().compile(
            "module top_module(input [7:0] in, output [7:0] out);\n\
             assign {out[0],out[1],out[2],out[3],out[4],out[5],out[6],out[8]} = in;\nendmodule",
            "main.v",
        );
        assert!(outcome.log.contains("main.v:2: error: Index out[8] is out of range."));
        assert!(outcome.log.contains("1 error(s) during elaboration."));
    }

    #[test]
    fn syntax_errors_are_terse() {
        let outcome = IverilogCompiler::new().compile(
            "module m(input a, output y);\nassign y = a\nendmodule",
            "main.v",
        );
        assert!(outcome.log.contains("syntax error"));
        assert!(!outcome.log.contains("expecting"), "iverilog must not explain: {}", outcome.log);
    }

    #[test]
    fn gives_up_on_heavy_syntax_damage() {
        let outcome = IverilogCompiler::new().compile(
            "module m(input a, output y);\nwire w\nwire v\nwire u\nassign y = a\nendmodule",
            "main.v",
        );
        assert!(!outcome.success);
        assert!(outcome.log.contains("I give up."), "log: {}", outcome.log);
    }

    #[test]
    fn syntax_subcategories_not_identified() {
        let c = IverilogCompiler::new();
        assert!(!c.identifies(ErrorCategory::SyntaxError));
        assert!(!c.identifies(ErrorCategory::CStyleConstruct));
        assert!(c.identifies(ErrorCategory::UndeclaredIdentifier));
        assert!(c.identifies(ErrorCategory::IndexOutOfRange));
    }

    #[test]
    fn clean_compile_produces_empty_log() {
        let outcome = IverilogCompiler::new()
            .compile("module m(input a, output y); assign y = a; endmodule", "main.v");
        assert!(outcome.success);
        assert!(outcome.log.is_empty());
    }

    #[test]
    fn lvalue_message_matches_figure2c() {
        // Figure 2c observation: "main.v:15: error: out is not a valid
        // l-value in top_module."
        let outcome = IverilogCompiler::new().compile(
            "module top_module(input a, output out);\nalways @(a) out = a;\nendmodule",
            "main.v",
        );
        assert!(
            outcome.log.contains("error: out is not a valid l-value in top_module."),
            "log: {}",
            outcome.log
        );
    }
}
