//! Intel Quartus Prime log personality.
//!
//! Modelled on the paper's Figure 5 example:
//!
//! ```text
//! Error (10161): Verilog HDL error at vector100r.sv(5): object "clk" is not
//! declared. Verify the object name is correct. If the name is correct,
//! declare the object. File: /tmp/tmp4u6ib9ig/vector100r.sv Line: 5
//! Error: Quartus Prime Analysis & Synthesis was unsuccessful. 1 error, 1 warning
//! ```
//!
//! Quartus logs are verbose, carry numeric error tags (which the exact-match
//! retriever keys on) and include suggestions — the highest-quality feedback
//! arm of the §4.3.1 ablation.

use rtlfixer_verilog::diag::{DiagData, Diagnostic, ErrorCategory, Severity};
use rtlfixer_verilog::{compile_shared, Analysis};

use crate::{CompileOutcome, Compiler, FeedbackQuality};

/// The Quartus personality. See the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct QuartusCompiler {
    _private: (),
}

impl QuartusCompiler {
    /// Creates the personality.
    pub fn new() -> Self {
        QuartusCompiler { _private: () }
    }

    fn render(&self, diag: &Diagnostic, analysis: &Analysis, file_name: &str) -> Option<String> {
        let line = analysis.source_map.line(diag.span.start);
        let code = diag.category.quartus_code();
        let suffix = format!(" File: /tmp/tmpworkdir/{file_name} Line: {line}");
        let head = match diag.severity {
            Severity::Error => format!("Error ({code}): Verilog HDL error at {file_name}({line}): "),
            Severity::Warning => {
                format!("Warning ({code}): Verilog HDL warning at {file_name}({line}): ")
            }
        };
        let body = match &diag.data {
            DiagData::Undeclared { name } => format!(
                "object \"{name}\" is not declared. Verify the object name is correct. \
                 If the name is correct, declare the object."
            ),
            DiagData::IndexOob { target, index, msb, lsb, .. } => format!(
                "index {index} cannot fall outside the declared range [{msb}:{lsb}] \
                 for vector \"{target}\""
            ),
            DiagData::BadProceduralLvalue { name } => format!(
                "object \"{name}\" on left-hand side of assignment must have a variable data type. \
                 Declare it as reg, or use a continuous assignment instead."
            ),
            DiagData::BadContinuousLvalue { name } => format!(
                "object \"{name}\" of variable data type cannot be the target of a continuous \
                 assignment. Drive it from an always block, or declare it as a wire."
            ),
            DiagData::InputAssigned { name } => format!(
                "object \"{name}\" declared as input port cannot be assigned a value. \
                 Check the port direction or assign a different object."
            ),
            DiagData::PortMismatch { instance, module, port, expected, found } => match port {
                Some(port) => format!(
                    "port \"{port}\" does not exist in module \"{module}\" instantiated as \
                     \"{instance}\". Verify the port name against the module declaration."
                ),
                None => format!(
                    "instance \"{instance}\" of module \"{module}\" has {found} port \
                     connections but the module declares {expected} ports."
                ),
            },
            DiagData::ModuleNotFound { name } => format!(
                "instantiated module \"{name}\" is not defined. Define the module or \
                 correct the instantiated name."
            ),
            DiagData::Redeclared { name } => format!(
                "object \"{name}\" is already declared in the present scope. Remove or rename \
                 the duplicate declaration."
            ),
            DiagData::Syntax { found, expected } => format!(
                "syntax error near text: \"{found}\"; expecting {expected}. \
                 Check for and fix any syntax errors that appear immediately before \
                 or at the specified keyword."
            ),
            DiagData::Unbalanced { construct } => format!(
                "unexpected end of construct; missing \"{construct}\". Insert the matching \
                 \"{construct}\" keyword to balance the block."
            ),
            DiagData::CStyle { construct } => format!(
                "syntax error near text: \"{construct}\"; \"{construct}\" is not a legal \
                 Verilog HDL operator. Rewrite the expression using Verilog syntax \
                 (for example \"i = i + 1\" instead of \"i++\")."
            ),
            DiagData::Directive { directive } => format!(
                "`{directive} directive is not allowed inside a design unit. Move the \
                 directive before the module declaration."
            ),
            DiagData::KeywordAsId { keyword } => format!(
                "\"{keyword}\" is an SystemVerilog reserved word and cannot be used as an \
                 identifier. Rename the object."
            ),
            DiagData::Width { lhs_width, rhs_width } => format!(
                "truncated value with size {rhs_width} to match size of target ({lhs_width})"
            ),
            DiagData::Latch { name } => format!(
                "inferring latch(es) for variable \"{name}\", which holds its previous value \
                 in one or more paths through the always construct"
            ),
            DiagData::NoDefault => "case statement does not cover all possible conditions and \
                 has no default condition"
                .to_owned(),
            DiagData::Unused { name } =>

                format!("object \"{name}\" assigned a value but never read"),
        };
        Some(format!("{head}{body}{suffix}"))
    }
}

impl Compiler for QuartusCompiler {
    fn name(&self) -> &'static str {
        "Quartus"
    }

    fn compile(&self, source: &str, file_name: &str) -> CompileOutcome {
        let analysis = compile_shared(source);
        let mut lines = Vec::new();
        let mut errors = 0usize;
        let mut warnings = 0usize;
        for diag in &analysis.diagnostics {
            if let Some(line) = self.render(diag, &analysis, file_name) {
                lines.push(line);
            }
            match diag.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
        let success = analysis.is_ok();
        if success {
            lines.push(format!(
                "Info: Quartus Prime Analysis & Synthesis was successful. 0 errors, \
                 {warnings} warning{}",
                if warnings == 1 { "" } else { "s" }
            ));
        } else {
            lines.push(format!(
                "Error: Quartus Prime Analysis & Synthesis was unsuccessful. {errors} error{}, \
                 {warnings} warning{}",
                if errors == 1 { "" } else { "s" },
                if warnings == 1 { "" } else { "s" }
            ));
        }
        let identified = analysis
            .diagnostics
            .iter()
            .filter(|d| d.is_error() && self.identifies(d.category))
            .map(|d| d.category)
            .collect();
        CompileOutcome {
            success,
            log: lines.join("\n"),
            diagnostics: analysis.diagnostics.clone(),
            identified,
            analysis,
        }
    }

    fn quality(&self) -> FeedbackQuality {
        FeedbackQuality { carries_tags: true, informativeness: 0.85 }
    }

    fn identifies(&self, _category: ErrorCategory) -> bool {
        true // every message carries its tag and an explanation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_shape_undeclared_clk() {
        let outcome = QuartusCompiler::new().compile(
            "module top_module(input [99:0] in, output reg [99:0] out);\n\
             always @(posedge clk) begin\n\
               out <= in;\n\
             end\nendmodule",
            "vector100r.sv",
        );
        assert!(!outcome.success);
        assert!(outcome.log.contains("Error (10161): Verilog HDL error at vector100r.sv(2): object \"clk\" is not declared."));
        assert!(outcome.log.contains("If the name is correct, declare the object."));
        assert!(outcome.log.contains("Error: Quartus Prime Analysis & Synthesis was unsuccessful."));
    }

    #[test]
    fn figure6_shape_index_arithmetic() {
        let outcome = QuartusCompiler::new().compile(
            "module conwaylife(input [255:0] q, output [255:0] next);\n\
             genvar i, j;\n\
             generate\n\
             for (i = 0; i < 16; i = i + 1) begin : row\n\
               for (j = 0; j < 16; j = j + 1) begin : col\n\
                 assign next[(i-1)*16 + (j-1)] = q[i*16 + j];\n\
               end\n\
             end\n\
             endgenerate\nendmodule",
            "conwaylife.sv",
        );
        assert!(!outcome.success);
        assert!(
            outcome
                .log
                .contains("Error (10232): Verilog HDL error at conwaylife.sv(6): index -17 cannot fall outside the declared range [255:0] for vector \"next\""),
            "log: {}",
            outcome.log
        );
    }

    #[test]
    fn syntax_error_names_offending_text() {
        let outcome = QuartusCompiler::new().compile(
            "module m(input a, output y);\nassign y = a\nendmodule",
            "main.sv",
        );
        assert!(outcome.log.contains("Error (10170)"));
        assert!(outcome.log.contains("near text: \"endmodule\""));
    }

    #[test]
    fn c_style_gets_guidance() {
        let outcome = QuartusCompiler::new().compile(
            "module m(input [7:0] a, output reg [7:0] y);\n\
             always @* begin\nfor (int i = 0; i < 8; i++) y[i] = a[i];\nend\nendmodule",
            "main.sv",
        );
        assert!(outcome.log.contains("\"++\" is not a legal"));
        assert!(outcome.log.contains("i = i + 1"));
    }

    #[test]
    fn warnings_counted_separately() {
        let outcome = QuartusCompiler::new().compile(
            "module m(input [15:0] a, output [7:0] y);\nassign y = a;\nendmodule",
            "main.sv",
        );
        assert!(outcome.success);
        assert!(outcome.log.contains("Warning (10230)"));
        assert!(outcome.log.contains("successful. 0 errors, 1 warning"));
    }

    #[test]
    fn identifies_everything() {
        let c = QuartusCompiler::new();
        for cat in ErrorCategory::ALL {
            assert!(c.identifies(cat));
        }
    }
}
