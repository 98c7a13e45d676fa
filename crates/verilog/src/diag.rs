//! Structured diagnostics produced by the Verilog frontend.
//!
//! The frontend never renders final user-facing text itself: it emits
//! [`Diagnostic`] values carrying a machine-readable [`ErrorCategory`] plus a
//! structured [`DiagData`] payload. The compiler *personalities* in the
//! `rtlfixer-compilers` crate (iverilog-style, Quartus-style) turn these into
//! logs of differing verbosity and informativeness, which is the axis the
//! paper's feedback-quality ablation (§4.3.1) varies.
//!
//! The category taxonomy mirrors the error groups the paper's retrieval
//! database is organised around (§3.3: 11 Quartus categories, 7 iverilog
//! categories).

use std::fmt;

use crate::span::Span;

/// Severity of a [`Diagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Non-fatal; compilation still succeeds.
    Warning,
    /// Fatal; the design does not elaborate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The syntax/semantic error taxonomy shared by the compilers, the retrieval
/// database and the repair operators.
///
/// Each category corresponds to one group of compiler error tags in the
/// paper's curated database. [`ErrorCategory::quartus_code`] returns the
/// numeric tag the Quartus personality prints (modelled on real Quartus Prime
/// message IDs, e.g. `10161` for an undeclared object as in the paper's
/// Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorCategory {
    /// Use of an identifier that was never declared (e.g. a missing `clk`).
    UndeclaredIdentifier,
    /// A *literal* constant index outside the declared vector range.
    IndexOutOfRange,
    /// An index that is out of range only after constant-folding arithmetic
    /// (the paper's Figure 6 failure case, e.g. `q[(i-1)*16 + (j-1)]`).
    IndexArithmetic,
    /// A net (`wire`) assigned inside an `always`/`initial` block.
    IllegalProceduralLvalue,
    /// A variable (`reg`) driven by a continuous `assign`.
    IllegalContinuousLvalue,
    /// An `input` port used as an assignment target.
    AssignToInput,
    /// Named/positional port connection does not match the instantiated
    /// module (unknown port name or arity mismatch).
    PortConnectionMismatch,
    /// Instantiation of a module that is not defined anywhere in the source.
    UnknownModule,
    /// The same name declared twice in one scope.
    Redeclaration,
    /// Generic parse error: unexpected token / missing punctuation.
    SyntaxError,
    /// Unbalanced `begin`/`end`, missing `endmodule`/`endcase`.
    UnbalancedBlock,
    /// C/C++ syntax that is invalid Verilog (`++`, `+=`, `bool`, …) — the
    /// paper notes LLMs are often confident in these (§5).
    CStyleConstruct,
    /// A compiler directive in an illegal position (e.g. `timescale` inside
    /// a module body). The rule-based pre-fixer of §4 targets these.
    MisplacedDirective,
    /// A reserved word used as an identifier.
    KeywordAsIdentifier,
    /// Assignment width mismatch (warning-level).
    WidthMismatch,
    /// Combinational always block that does not assign a variable on every
    /// path (latch inference; warning-level synthesis lint).
    InferredLatch,
    /// `case` without a `default` arm in combinational logic
    /// (warning-level synthesis lint).
    CaseMissingDefault,
    /// A declared signal that is never read (warning-level lint).
    UnusedSignal,
}

impl ErrorCategory {
    /// All categories, in a stable order.
    pub const ALL: [ErrorCategory; 18] = [
        ErrorCategory::UndeclaredIdentifier,
        ErrorCategory::IndexOutOfRange,
        ErrorCategory::IndexArithmetic,
        ErrorCategory::IllegalProceduralLvalue,
        ErrorCategory::IllegalContinuousLvalue,
        ErrorCategory::AssignToInput,
        ErrorCategory::PortConnectionMismatch,
        ErrorCategory::UnknownModule,
        ErrorCategory::Redeclaration,
        ErrorCategory::SyntaxError,
        ErrorCategory::UnbalancedBlock,
        ErrorCategory::CStyleConstruct,
        ErrorCategory::MisplacedDirective,
        ErrorCategory::KeywordAsIdentifier,
        ErrorCategory::WidthMismatch,
        ErrorCategory::InferredLatch,
        ErrorCategory::CaseMissingDefault,
        ErrorCategory::UnusedSignal,
    ];

    /// The numeric error tag printed by the Quartus personality.
    ///
    /// Tags are modelled on real Quartus Prime message IDs: `10161`
    /// (undeclared object), `10232` (index out of declared range), `10137`
    /// (illegal l-value), `10028`/`10170` and friends.
    pub fn quartus_code(self) -> u32 {
        match self {
            ErrorCategory::UndeclaredIdentifier => 10161,
            ErrorCategory::IndexOutOfRange => 10232,
            ErrorCategory::IndexArithmetic => 10232,
            ErrorCategory::IllegalProceduralLvalue => 10137,
            ErrorCategory::IllegalContinuousLvalue => 10044,
            ErrorCategory::AssignToInput => 10137,
            ErrorCategory::PortConnectionMismatch => 12002,
            ErrorCategory::UnknownModule => 12006,
            ErrorCategory::Redeclaration => 10028,
            ErrorCategory::SyntaxError => 10170,
            ErrorCategory::UnbalancedBlock => 10170,
            ErrorCategory::CStyleConstruct => 10170,
            ErrorCategory::MisplacedDirective => 10165,
            ErrorCategory::KeywordAsIdentifier => 10170,
            ErrorCategory::WidthMismatch => 10230,
            ErrorCategory::InferredLatch => 10240,
            ErrorCategory::CaseMissingDefault => 10270,
            ErrorCategory::UnusedSignal => 10036,
        }
    }

    /// Short stable snake_case name, used as a retrieval key and in reports.
    pub fn slug(self) -> &'static str {
        match self {
            ErrorCategory::UndeclaredIdentifier => "undeclared_identifier",
            ErrorCategory::IndexOutOfRange => "index_out_of_range",
            ErrorCategory::IndexArithmetic => "index_arithmetic",
            ErrorCategory::IllegalProceduralLvalue => "illegal_procedural_lvalue",
            ErrorCategory::IllegalContinuousLvalue => "illegal_continuous_lvalue",
            ErrorCategory::AssignToInput => "assign_to_input",
            ErrorCategory::PortConnectionMismatch => "port_connection_mismatch",
            ErrorCategory::UnknownModule => "unknown_module",
            ErrorCategory::Redeclaration => "redeclaration",
            ErrorCategory::SyntaxError => "syntax_error",
            ErrorCategory::UnbalancedBlock => "unbalanced_block",
            ErrorCategory::CStyleConstruct => "c_style_construct",
            ErrorCategory::MisplacedDirective => "misplaced_directive",
            ErrorCategory::KeywordAsIdentifier => "keyword_as_identifier",
            ErrorCategory::WidthMismatch => "width_mismatch",
            ErrorCategory::InferredLatch => "inferred_latch",
            ErrorCategory::CaseMissingDefault => "case_missing_default",
            ErrorCategory::UnusedSignal => "unused_signal",
        }
    }

    /// Looks a category up by its [`slug`](ErrorCategory::slug).
    pub fn from_slug(slug: &str) -> Option<ErrorCategory> {
        ErrorCategory::ALL.iter().copied().find(|c| c.slug() == slug)
    }
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Structured, category-specific payload of a [`Diagnostic`].
///
/// Renderers read this to produce faithful log lines; repair operators read
/// it to know *what* to change (which name to declare, which index to clamp).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagData {
    /// An undeclared name was referenced.
    Undeclared {
        /// The unresolved identifier.
        name: String,
    },
    /// `target[index]` fell outside the declared range.
    IndexOob {
        /// Indexed signal name.
        target: String,
        /// The evaluated index value.
        index: i64,
        /// Declared most-significant bound.
        msb: i64,
        /// Declared least-significant bound.
        lsb: i64,
        /// Whether the index came from constant-folded arithmetic
        /// (the [`ErrorCategory::IndexArithmetic`] class).
        from_arithmetic: bool,
    },
    /// `name` is a net but was assigned procedurally.
    BadProceduralLvalue {
        /// The offending target.
        name: String,
    },
    /// `name` is a variable but was driven by `assign`.
    BadContinuousLvalue {
        /// The offending target.
        name: String,
    },
    /// An input port was assigned.
    InputAssigned {
        /// The input port name.
        name: String,
    },
    /// Port connection problem on `instance` of `module`.
    PortMismatch {
        /// Instance name.
        instance: String,
        /// Instantiated module name.
        module: String,
        /// The offending named port, if the problem is an unknown name.
        port: Option<String>,
        /// Ports the module declares.
        expected: usize,
        /// Connections the instance provides.
        found: usize,
    },
    /// Instantiated module is not defined.
    ModuleNotFound {
        /// The unknown module name.
        name: String,
    },
    /// `name` declared more than once.
    Redeclared {
        /// The re-declared name.
        name: String,
    },
    /// Parser-level error with the offending token text and an expectation.
    Syntax {
        /// Rendered text of the unexpected token.
        found: String,
        /// What the parser expected instead.
        expected: String,
    },
    /// Missing or surplus block terminator.
    Unbalanced {
        /// The missing terminator keyword (`end`, `endmodule`, …).
        construct: String,
    },
    /// C-style construct, with the offending operator/keyword text.
    CStyle {
        /// The offending construct (`++`, `+=`, …).
        construct: String,
    },
    /// Misplaced compiler directive.
    Directive {
        /// Directive name without the backtick.
        directive: String,
    },
    /// Reserved word used as identifier.
    KeywordAsId {
        /// The keyword text.
        keyword: String,
    },
    /// Width mismatch on an assignment.
    Width {
        /// Target width in bits.
        lhs_width: u32,
        /// Source width in bits.
        rhs_width: u32,
    },
    /// A latch would be inferred for `name` (incomplete assignment paths).
    Latch {
        /// The incompletely-assigned variable.
        name: String,
    },
    /// A combinational `case` lacks a default arm.
    NoDefault,
    /// `name` is declared but never read.
    Unused {
        /// The unread signal.
        name: String,
    },
}

/// One frontend finding: category + severity + location + payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error group used for retrieval and repair dispatch.
    pub category: ErrorCategory,
    /// Error or warning.
    pub severity: Severity,
    /// Source location of the offending construct.
    pub span: Span,
    /// Category-specific structured data.
    pub data: DiagData,
}

impl Diagnostic {
    /// Convenience constructor for an error-severity diagnostic.
    pub fn error(category: ErrorCategory, span: Span, data: DiagData) -> Self {
        Diagnostic { category, severity: Severity::Error, span, data }
    }

    /// Convenience constructor for a warning-severity diagnostic.
    pub fn warning(category: ErrorCategory, span: Span, data: DiagData) -> Self {
        Diagnostic { category, severity: Severity::Warning, span, data }
    }

    /// Whether this diagnostic blocks elaboration.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Whether `other` reports the same error instance: the same category
    /// and payload, wherever it sits (a revision shifts spans, not the
    /// error). Compared in place.
    pub fn same_error(&self, other: &Diagnostic) -> bool {
        self.category == other.category && self.data == other.data
    }

    /// A neutral one-line description, independent of compiler personality.
    /// Used in traces and test assertions, not in rendered compiler logs.
    pub fn headline(&self) -> String {
        let mut headline = String::new();
        self.write_headline(&mut headline).expect("writing to a String cannot fail");
        headline
    }

    /// Writes the [`headline`](Self::headline) into `out`, formatting each
    /// piece straight into it: a transcript or a wire event that shows the
    /// headline builds no string of its own for it.
    pub fn write_headline<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        match &self.data {
            DiagData::Undeclared { name } => write!(out, "'{name}' is not declared"),
            DiagData::IndexOob { target, index, msb, lsb, .. } => {
                write!(out, "index {index} of '{target}' outside declared range [{msb}:{lsb}]")
            }
            DiagData::BadProceduralLvalue { name } => {
                write!(out, "'{name}' is not a valid l-value in a procedural block")
            }
            DiagData::BadContinuousLvalue { name } => write!(
                out,
                "'{name}' is a variable and cannot be driven by a continuous assignment"
            ),
            DiagData::InputAssigned { name } => {
                write!(out, "input port '{name}' cannot be assigned")
            }
            DiagData::PortMismatch { instance, module, port, expected, found } => match port {
                Some(p) => {
                    write!(out, "instance '{instance}': module '{module}' has no port '{p}'")
                }
                None => write!(
                    out,
                    "instance '{instance}' of '{module}': {found} connections for {expected} ports"
                ),
            },
            DiagData::ModuleNotFound { name } => write!(out, "unknown module '{name}'"),
            DiagData::Redeclared { name } => write!(out, "'{name}' is already declared"),
            DiagData::Syntax { found, expected } => {
                write!(out, "syntax error near '{found}', expected {expected}")
            }
            DiagData::Unbalanced { construct } => write!(out, "unbalanced '{construct}'"),
            DiagData::CStyle { construct } => {
                write!(out, "'{construct}' is not valid Verilog syntax")
            }
            DiagData::Directive { directive } => write!(out, "misplaced directive '`{directive}'"),
            DiagData::KeywordAsId { keyword } => {
                write!(out, "reserved word '{keyword}' used as identifier")
            }
            DiagData::Width { lhs_width, rhs_width } => {
                write!(out, "assignment width mismatch ({lhs_width} vs {rhs_width} bits)")
            }
            DiagData::Latch { name } => write!(out, "inferring latch for '{name}'"),
            DiagData::NoDefault => out.write_str("case statement has no default arm"),
            DiagData::Unused { name } => write!(out, "'{name}' is declared but never read"),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.severity)?;
        self.write_headline(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartus_codes_match_figure5_examples() {
        // Figure 5 of the paper: undeclared `clk` is Error (10161);
        // Figure 6: out-of-range index is Error (10232).
        assert_eq!(ErrorCategory::UndeclaredIdentifier.quartus_code(), 10161);
        assert_eq!(ErrorCategory::IndexOutOfRange.quartus_code(), 10232);
        assert_eq!(ErrorCategory::IndexArithmetic.quartus_code(), 10232);
    }

    #[test]
    fn slugs_round_trip() {
        for cat in ErrorCategory::ALL {
            assert_eq!(ErrorCategory::from_slug(cat.slug()), Some(cat));
        }
        assert_eq!(ErrorCategory::from_slug("nonsense"), None);
    }

    #[test]
    fn slugs_are_unique() {
        let mut slugs: Vec<_> = ErrorCategory::ALL.iter().map(|c| c.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), ErrorCategory::ALL.len());
    }

    #[test]
    fn slugs_are_injective_and_colon_free() {
        // A `slug:payload` string names its category unambiguously.
        for a in ErrorCategory::ALL {
            assert!(!a.slug().contains(':'), "{a:?}");
            for b in ErrorCategory::ALL {
                assert_eq!(a.slug() == b.slug(), a == b, "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn same_error_ignores_the_span() {
        let at = |start, name: &str| {
            Diagnostic::error(
                ErrorCategory::UndeclaredIdentifier,
                Span::new(start, start + 3),
                DiagData::Undeclared { name: name.into() },
            )
        };
        assert!(at(0, "clk").same_error(&at(40, "clk")));
        assert!(!at(0, "clk").same_error(&at(0, "rst")));
        let redeclared = Diagnostic::error(
            ErrorCategory::Redeclaration,
            Span::new(0, 3),
            DiagData::Undeclared { name: "clk".into() },
        );
        assert!(!at(0, "clk").same_error(&redeclared));
    }

    #[test]
    fn headline_mentions_offender() {
        let d = Diagnostic::error(
            ErrorCategory::UndeclaredIdentifier,
            Span::new(0, 3),
            DiagData::Undeclared { name: "clk".into() },
        );
        assert!(d.headline().contains("clk"));
        assert!(d.is_error());
        assert_eq!(d.to_string(), "error: 'clk' is not declared");
    }

    #[test]
    fn warning_is_not_error() {
        let d = Diagnostic::warning(
            ErrorCategory::WidthMismatch,
            Span::point(0),
            DiagData::Width { lhs_width: 8, rhs_width: 16 },
        );
        assert!(!d.is_error());
        assert!(Severity::Warning < Severity::Error);
    }
}
