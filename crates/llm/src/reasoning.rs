//! The model's reasoning for one repair turn, kept as handles and rendered
//! only when read.
//!
//! Batch experiments read a turn's revised code and never its reasoning;
//! only transcripts (`FixTrace`'s `Display`) and the serve daemon's wire
//! events show it. So a turn records, per diagnostic it considered, the
//! analysis that holds the diagnostic, its index there and whether the
//! revision addressed it, and the sentence is written out of the
//! diagnostic's headline when a reader asks for it.

use std::fmt;
use std::sync::Arc;

use rtlfixer_verilog::Analysis;

/// Bytes [`Reasoning::len_hint`] assumes for one diagnostic headline (most
/// headlines of the shipped corpora are 20–60 bytes).
const HEADLINE_HINT: usize = 48;

const FIXED_PREFIX: &str = "The compiler reports: ";
const FIXED_SUFFIX: &str = ". I will revise the code accordingly and re-run the compilation.";
const PERSISTS_PREFIX: &str = "The error (";
const PERSISTS_SUFFIX: &str = ") persists; my revision did not address the root cause.";

/// What the model reasoned on one turn: a fixed sentence, or one thought
/// per diagnostic it considered, in order, rendered one per line.
///
/// A thought reads `The compiler reports: <headline>. I will revise the
/// code accordingly and re-run the compilation.` when the revision
/// addressed its diagnostic, and `The error (<headline>) persists; my
/// revision did not address the root cause.` otherwise.
///
/// # Examples
///
/// ```
/// use rtlfixer_llm::Reasoning;
///
/// let fixed = Reasoning::fixed("The code compiles cleanly.");
/// assert_eq!(fixed.to_string(), "The code compiles cleanly.");
///
/// let analysis =
///     rtlfixer_verilog::compile_shared("module m(output y); assign y = clk; endmodule");
/// let mut reasoning = Reasoning::default();
/// reasoning.push(&analysis, 0, true);
/// assert_eq!(
///     reasoning.to_string(),
///     "The compiler reports: 'clk' is not declared. I will revise the code accordingly and \
///      re-run the compilation."
/// );
/// assert_eq!(reasoning.len(), reasoning.to_string().len());
/// ```
#[derive(Clone)]
pub struct Reasoning(Repr);

#[derive(Clone)]
enum Repr {
    Fixed(&'static str),
    Thoughts(Vec<Thought>),
}

/// One considered diagnostic, by handle.
#[derive(Clone)]
struct Thought {
    analysis: Arc<Analysis>,
    /// Index into `analysis.diagnostics`.
    diagnostic: usize,
    /// Whether the turn's revision addressed the diagnostic.
    fixed: bool,
}

impl Default for Reasoning {
    /// Reasoning with no thoughts yet (renders empty).
    fn default() -> Self {
        Reasoning(Repr::Thoughts(Vec::new()))
    }
}

impl Reasoning {
    /// Reasoning that is one fixed sentence.
    pub fn fixed(text: &'static str) -> Self {
        Reasoning(Repr::Fixed(text))
    }

    /// Appends a thought about `analysis.diagnostics[diagnostic]`: whether
    /// the turn's revision addressed it (`fixed`) or it persists. Fixed
    /// text, if any, is replaced.
    ///
    /// # Panics
    ///
    /// Panics when `diagnostic` is not an index into the analysis's
    /// diagnostics.
    pub fn push(&mut self, analysis: &Arc<Analysis>, diagnostic: usize, fixed: bool) {
        assert!(diagnostic < analysis.diagnostics.len(), "no diagnostic {diagnostic}");
        let thought = Thought { analysis: Arc::clone(analysis), diagnostic, fixed };
        match &mut self.0 {
            Repr::Thoughts(thoughts) => thoughts.push(thought),
            Repr::Fixed(_) => self.0 = Repr::Thoughts(vec![thought]),
        }
    }

    /// Whether the reasoning renders empty (no thoughts and no text).
    pub fn is_empty(&self) -> bool {
        match &self.0 {
            Repr::Fixed(text) => text.is_empty(),
            Repr::Thoughts(thoughts) => thoughts.is_empty(),
        }
    }

    /// The rendered length in bytes. Thoughts are formatted to count them
    /// (nothing is stored); a writer sizing a buffer uses
    /// [`len_hint`](Self::len_hint) instead.
    pub fn len(&self) -> usize {
        let mut counter = Counter(0);
        self.write_to(&mut counter).expect("counting cannot fail");
        counter.0
    }

    /// The rendered length without rendering: exact for fixed text, with
    /// each headline guessed at a typical length — what a writer reserves
    /// before writing the reasoning once.
    pub fn len_hint(&self) -> usize {
        match &self.0 {
            Repr::Fixed(text) => text.len(),
            Repr::Thoughts(thoughts) => thoughts
                .iter()
                .map(|thought| {
                    let frame = if thought.fixed {
                        FIXED_PREFIX.len() + FIXED_SUFFIX.len()
                    } else {
                        PERSISTS_PREFIX.len() + PERSISTS_SUFFIX.len()
                    };
                    frame + HEADLINE_HINT + 1
                })
                .sum::<usize>()
                .saturating_sub(1),
        }
    }

    /// Writes the reasoning into `out`, piece by piece: the fixed text, or
    /// each thought's sentence around its diagnostic's headline
    /// ([`rtlfixer_verilog::diag::Diagnostic::write_headline`]), one thought
    /// per line.
    pub fn write_to<W: fmt::Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let thoughts = match &self.0 {
            Repr::Fixed(text) => return out.write_str(text),
            Repr::Thoughts(thoughts) => thoughts,
        };
        for (index, thought) in thoughts.iter().enumerate() {
            if index > 0 {
                out.write_str("\n")?;
            }
            let diagnostic = &thought.analysis.diagnostics[thought.diagnostic];
            let (prefix, suffix) = if thought.fixed {
                (FIXED_PREFIX, FIXED_SUFFIX)
            } else {
                (PERSISTS_PREFIX, PERSISTS_SUFFIX)
            };
            out.write_str(prefix)?;
            diagnostic.write_headline(out)?;
            out.write_str(suffix)?;
        }
        Ok(())
    }
}

impl fmt::Display for Reasoning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Debug for Reasoning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

/// A writer that only counts the bytes written to it.
struct Counter(usize);

impl fmt::Write for Counter {
    fn write_str(&mut self, piece: &str) -> fmt::Result {
        self.0 += piece.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reasoning as first written: one `format!` per thought around
    /// the diagnostic's headline, joined by newlines. Kept as the oracle
    /// of the rendering.
    fn joined(analysis: &Analysis, thoughts: &[(usize, bool)]) -> String {
        let lines: Vec<String> = thoughts
            .iter()
            .map(|&(index, fixed)| {
                let diag = &analysis.diagnostics[index];
                if fixed {
                    format!(
                        "The compiler reports: {}. I will revise the code accordingly and \
                         re-run the compilation.",
                        diag.headline()
                    )
                } else {
                    format!(
                        "The error ({}) persists; my revision did not address the root cause.",
                        diag.headline()
                    )
                }
            })
            .collect();
        lines.join("\n")
    }

    #[test]
    fn thoughts_render_like_the_joined_strings() {
        let analysis = rtlfixer_verilog::compile_shared(
            "module m(input [7:0] a, output reg y);\nwire w\nassign y = a[9] & clk;\n\
             always @(*) w = 1;\nendmodule",
        );
        let errors: Vec<usize> = (0..analysis.diagnostics.len())
            .filter(|&i| analysis.diagnostics[i].is_error())
            .collect();
        assert!(!errors.is_empty());
        let mut reasoning = Reasoning::default();
        let mut thoughts = Vec::new();
        assert!(reasoning.is_empty());
        assert_eq!((reasoning.len(), reasoning.len_hint()), (0, 0));
        for (n, &index) in errors.iter().cycle().take(2 * errors.len()).enumerate() {
            let fixed = n % 3 == 1;
            reasoning.push(&analysis, index, fixed);
            thoughts.push((index, fixed));
            let text = reasoning.to_string();
            assert_eq!(text, joined(&analysis, &thoughts));
            assert_eq!(reasoning.len(), text.len());
            assert!(!reasoning.is_empty());
            assert_eq!(format!("{reasoning:?}"), format!("{text:?}"));
        }
    }

    #[test]
    fn fixed_text_renders_itself_and_gives_way_to_thoughts() {
        let text = "The code compiles cleanly; returning it unchanged.";
        let mut reasoning = Reasoning::fixed(text);
        assert_eq!(reasoning.to_string(), text);
        assert_eq!((reasoning.len(), reasoning.len_hint()), (text.len(), text.len()));
        assert!(Reasoning::fixed("").is_empty());
        let analysis = rtlfixer_verilog::compile_shared("module m; assign y = 1; endmodule");
        reasoning.push(&analysis, 0, false);
        assert_eq!(reasoning.to_string(), joined(&analysis, &[(0, false)]));
    }
}
