//! The curated human-expert guidance database.
//!
//! §3.3 of the paper: errors are grouped by compiler error tags; for each
//! group human experts wrote explanations and demonstrations, which are
//! stored alongside the compiler logs. The paper's databases hold **7
//! common error categories with 30 entries for iverilog** and **11
//! categories with 45 entries for Quartus** — those exact shapes are
//! reproduced here (and asserted by tests).
//!
//! The two entries of the paper's Figure 3 (undeclared `clk`, index out of
//! range) appear verbatim-adjacent in [`GuidanceDatabase::quartus`].

use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use rtlfixer_verilog::diag::ErrorCategory;

use crate::retriever::tfidf_corpus;
use crate::text::{Corpus, TfIdfIndex, TokenSet};

/// Which compiler's log style a database was curated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatabaseEdition {
    /// Curated against iverilog logs (no numeric tags).
    Iverilog,
    /// Curated against Quartus logs (numeric tags present).
    Quartus,
}

/// One database entry: a stored compiler log exemplar, the error category it
/// was grouped under, and the human expert guidance (plus an optional code
/// demonstration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuidanceEntry {
    /// Stable id, unique within an edition.
    pub id: String,
    /// Error group.
    pub category: ErrorCategorySlug,
    /// Numeric compiler tag, when the edition's logs carry one.
    pub error_tag: Option<u32>,
    /// A representative compiler log fragment this entry was curated from.
    pub log_exemplar: String,
    /// The human expert guidance text.
    pub guidance: String,
    /// Optional before/after demonstration.
    pub demonstration: Option<String>,
    /// One-line grammar reminder for the error group (the "Grammar hints"
    /// section of the rendered repair brief).
    pub grammar_hint: String,
    /// Constructs to avoid while repairing this error group (the "Avoid"
    /// section of the rendered brief; §5 notes LLMs are often confident in
    /// exactly these).
    pub anti_patterns: Vec<String>,
}

impl GuidanceEntry {
    /// Renders the entry as a full repair brief — the prompt block the
    /// agent splices into the model's context. Sections follow the
    /// auto-repair task template (diagnostics, grammar hints, repair
    /// strategy, an explicit anti-patterns block, and the demonstration
    /// when one exists).
    pub fn render_brief(&self) -> String {
        let mut brief = String::with_capacity(256);
        brief.push_str("## Diagnostics\n");
        brief.push_str(&self.log_exemplar);
        brief.push_str("\n## Grammar hints\n");
        brief.push_str(&self.grammar_hint);
        brief.push_str("\n## Repair strategy\n");
        brief.push_str(&self.guidance);
        if !self.anti_patterns.is_empty() {
            brief.push_str("\n## Avoid\n");
            for pattern in &self.anti_patterns {
                brief.push_str("- ");
                brief.push_str(pattern);
                brief.push('\n');
            }
        }
        if let Some(demo) = &self.demonstration {
            brief.push_str("## Demonstration\n");
            brief.push_str(demo);
            brief.push('\n');
        }
        brief
    }
}

/// The per-category grammar hint and anti-pattern block shared by every
/// entry of that group (and by entries the distill loop synthesises).
pub fn category_brief(category: ErrorCategory) -> (&'static str, &'static [&'static str]) {
    use ErrorCategory::*;
    match category {
        UndeclaredIdentifier => (
            "Every identifier must be declared (port, wire, reg, genvar or integer) before use.",
            &[
                "Inventing new ports that the module header does not declare.",
                "Renaming existing ports instead of fixing the use site.",
            ],
        ),
        IndexOutOfRange => (
            "A vector declared [N-1:0] has valid indices 0 through N-1.",
            &[
                "Using the declared width N as an index (one past the end).",
                "Widening the vector declaration to absorb a wrong index.",
            ],
        ),
        IndexArithmetic => (
            "Index expressions must stay in range at the smallest and largest loop values.",
            &[
                "Testing the index expression only at a mid-range loop value.",
                "Removing the arithmetic instead of guarding or wrapping it.",
            ],
        ),
        IllegalProceduralLvalue => (
            "Anything assigned under always/initial must be a variable (reg), not a net.",
            &[
                "Keeping the wire declaration and wrapping the assign in an always block.",
                "Duplicating the driver as both assign and always.",
            ],
        ),
        IllegalContinuousLvalue => (
            "A continuous assign drives nets (wire), never variables (reg).",
            &[
                "Adding a second procedural driver instead of changing the declaration.",
            ],
        ),
        AssignToInput => (
            "Input ports are read-only inside the module.",
            &[
                "Re-declaring an input as output to silence the error.",
                "Assigning to the input from an always block instead.",
            ],
        ),
        PortConnectionMismatch => (
            "Named connections must use the instantiated module's exact port names and arity.",
            &[
                "Adding ports to the instantiated module to match a wrong connection list.",
                "Switching to positional connections to bypass a name mismatch.",
            ],
        ),
        UnknownModule => (
            "Every instantiated module must be defined (or its definition included) in the source.",
            &[
                "Stubbing the missing module with an empty definition that drops its outputs.",
            ],
        ),
        Redeclaration => (
            "A name may be declared once per scope; ports are already declarations.",
            &[
                "Renaming one of the duplicates when a single declaration is what's intended.",
            ],
        ),
        SyntaxError => (
            "Statements end with ';'; blocks pair begin/end; modules end with endmodule.",
            &[
                "Deleting the offending line instead of completing its syntax.",
                "Rewriting unrelated lines the parser never complained about.",
            ],
        ),
        UnbalancedBlock => (
            "Every begin needs its end; every module/case needs endmodule/endcase.",
            &[
                "Closing the imbalance at the end of file instead of at the owning block.",
            ],
        ),
        CStyleConstruct => (
            "Verilog has no ++, --, += or bool; use i = i + 1 and reg/wire types.",
            &[
                "C-style increments and compound assignments (i++, x += y).",
                "C types (bool, int main-style declarations) in module scope.",
            ],
        ),
        MisplacedDirective => (
            "Compiler directives like `timescale belong outside the module body.",
            &[
                "Commenting the directive out instead of moving it above the module.",
            ],
        ),
        // Warning-level lints (width mismatch, inferred latch, missing
        // default, unused signal): no curated entries exist for these, but
        // the distill loop may synthesise briefs for any category.
        _ => (
            "Re-read the reported line against the declared widths and drivers.",
            &["Suppressing the warning instead of addressing its cause."],
        ),
    }
}

/// Serializable wrapper around [`ErrorCategory`] (stored as its slug).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ErrorCategorySlug(pub ErrorCategory);

impl Serialize for ErrorCategorySlug {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.0.slug())
    }
}

impl<'de> Deserialize<'de> for ErrorCategorySlug {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let slug = String::deserialize(d)?;
        ErrorCategory::from_slug(&slug)
            .map(ErrorCategorySlug)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown category slug '{slug}'")))
    }
}

/// The guidance database for one compiler edition.
///
/// Its entries are fixed at construction ([`GuidanceDatabase::new`]), so
/// what the database derives from them — the TF-IDF index built on its
/// first lexical retrieval (see [`crate::retriever::shared_tfidf_index`]),
/// each entry's exemplar token set, and each entry's rendered repair brief
/// ([`GuidanceDatabase::brief`]) — is computed at most once per database
/// and can never go stale. Entries are shared: a database extended by the
/// distilled store holds the base's entries, briefs, exemplar token sets
/// and TF-IDF documents by handle, so only its index is its own.
#[derive(Clone)]
pub struct GuidanceDatabase {
    /// Which compiler this database was curated against.
    pub edition: DatabaseEdition,
    entries: Vec<Arc<GuidanceEntry>>,
    /// Lexical index over `entries`, filled on the first retrieval.
    pub(crate) tfidf: OnceLock<TfIdfIndex>,
    /// Each entry's TF-IDF document and the vocabulary numbering it:
    /// tokenized from [`tfidf_corpus`] on first use, or handed over by the
    /// distilled store.
    corpus: OnceLock<Corpus>,
    /// Each entry's exemplar token-set cell: made on first use, or handed
    /// over by the distilled store.
    exemplar_tokens: OnceLock<Box<[ExemplarTokens]>>,
    /// Each entry's [`GuidanceEntry::render_brief`], filled on first use.
    briefs: OnceLock<Box<[Arc<str>]>>,
}

/// The token set of one entry's log exemplar (the Jaccard retriever's
/// side of each comparison), tokenized the first time a retrieval compares
/// against the entry and shared by every database that holds the entry.
pub(crate) type ExemplarTokens = Arc<OnceLock<TokenSet>>;

/// The serialised form: edition and entries, without the derived index.
#[derive(Serialize, Deserialize)]
struct DatabaseJson {
    edition: DatabaseEdition,
    entries: Vec<GuidanceEntry>,
}

impl PartialEq for GuidanceDatabase {
    fn eq(&self, other: &Self) -> bool {
        self.edition == other.edition && self.entries == other.entries
    }
}

impl fmt::Debug for GuidanceDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuidanceDatabase")
            .field("edition", &self.edition)
            .field("entries", &self.entries)
            .finish_non_exhaustive()
    }
}

fn entry(
    id: &str,
    category: ErrorCategory,
    tag: Option<u32>,
    log: &str,
    guidance: &str,
    demo: Option<&str>,
) -> GuidanceEntry {
    let (grammar_hint, anti_patterns) = category_brief(category);
    GuidanceEntry {
        id: id.to_owned(),
        category: ErrorCategorySlug(category),
        error_tag: tag,
        log_exemplar: log.to_owned(),
        guidance: guidance.to_owned(),
        demonstration: demo.map(str::to_owned),
        grammar_hint: grammar_hint.to_owned(),
        anti_patterns: anti_patterns.iter().map(|s| (*s).to_owned()).collect(),
    }
}

impl GuidanceDatabase {
    /// A database over `entries` (owned, or shared with another database),
    /// curated against `edition`.
    pub fn new<E: Into<Arc<GuidanceEntry>>>(
        edition: DatabaseEdition,
        entries: impl IntoIterator<Item = E>,
    ) -> Self {
        GuidanceDatabase {
            edition,
            entries: entries.into_iter().map(Into::into).collect(),
            tfidf: OnceLock::new(),
            corpus: OnceLock::new(),
            exemplar_tokens: OnceLock::new(),
            briefs: OnceLock::new(),
        }
    }

    /// A database whose briefs, exemplar token-set cells and TF-IDF
    /// documents are already derived, one per entry in order (the
    /// distilled store's merged databases).
    pub(crate) fn derived(
        edition: DatabaseEdition,
        entries: Vec<Arc<GuidanceEntry>>,
        briefs: Box<[Arc<str>]>,
        exemplar_tokens: Box<[ExemplarTokens]>,
        corpus: Corpus,
    ) -> Self {
        debug_assert!(briefs.len() == entries.len() && corpus.docs.len() == entries.len());
        debug_assert!(exemplar_tokens.len() == entries.len());
        GuidanceDatabase {
            edition,
            entries,
            tfidf: OnceLock::new(),
            corpus: OnceLock::from(corpus),
            exemplar_tokens: OnceLock::from(exemplar_tokens),
            briefs: OnceLock::from(briefs),
        }
    }

    /// All entries, in database order.
    pub fn entries(&self) -> &[Arc<GuidanceEntry>] {
        &self.entries
    }

    /// Every entry's TF-IDF document, tokenized on first use.
    pub(crate) fn corpus(&self) -> &Corpus {
        self.corpus.get_or_init(|| Corpus::tokenize(&tfidf_corpus(self)))
    }

    /// Every entry's rendered repair brief, in database order.
    pub(crate) fn briefs(&self) -> &[Arc<str>] {
        self.briefs.get_or_init(|| {
            self.entries.iter().map(|entry| Arc::from(entry.render_brief())).collect()
        })
    }

    /// The rendered repair brief of the entry at `index` (database order),
    /// shared: every entry's brief is rendered once per database, the
    /// first time any is asked for, and each prompt or trace that shows it
    /// holds a handle instead of a copy.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn brief(&self, index: usize) -> &Arc<str> {
        &self.briefs()[index]
    }

    /// Every entry's exemplar token-set cell, in database order: made
    /// empty on first use, or handed over by the distilled store, so a
    /// grown store's generations share the cells of the entries they hold.
    pub(crate) fn exemplar_cells(&self) -> &[ExemplarTokens] {
        self.exemplar_tokens.get_or_init(|| self.entries.iter().map(|_| Arc::default()).collect())
    }

    /// The token set of the log exemplar of the entry at `index`,
    /// tokenized the first time any database holding the entry asks.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub(crate) fn exemplar_tokens(&self, index: usize) -> &TokenSet {
        self.exemplar_cells()[index]
            .get_or_init(|| TokenSet::new(&self.entries[index].log_exemplar))
    }

    /// A content fingerprint (FNV-1a over edition and entry texts): two
    /// databases with equal contents always fingerprint equally. It hashes
    /// every entry's text, so keep it off per-request paths.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            hash ^= 0xff;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        };
        eat(match self.edition {
            DatabaseEdition::Iverilog => b"iverilog",
            DatabaseEdition::Quartus => b"quartus",
        });
        for entry in &self.entries {
            eat(entry.id.as_bytes());
            eat(entry.category.0.slug().as_bytes());
            eat(&entry.error_tag.unwrap_or(0).to_le_bytes());
            eat(entry.log_exemplar.as_bytes());
            eat(entry.guidance.as_bytes());
            eat(entry.demonstration.as_deref().unwrap_or("").as_bytes());
            eat(entry.grammar_hint.as_bytes());
            for pattern in &entry.anti_patterns {
                eat(pattern.as_bytes());
            }
        }
        hash
    }

    /// The process-wide shared Quartus database.
    ///
    /// Experiments run thousands of episodes, each of which needs the
    /// database read-only; sharing one `Arc` builds it once instead of
    /// allocating 45 entries per episode.
    pub fn quartus_shared() -> Arc<GuidanceDatabase> {
        static SHARED: OnceLock<Arc<GuidanceDatabase>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(GuidanceDatabase::quartus())))
    }

    /// The process-wide shared iverilog database (see [`Self::quartus_shared`]).
    pub fn iverilog_shared() -> Arc<GuidanceDatabase> {
        static SHARED: OnceLock<Arc<GuidanceDatabase>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| Arc::new(GuidanceDatabase::iverilog())))
    }

    /// Entries whose category is `category`.
    pub fn entries_for(&self, category: ErrorCategory) -> Vec<&GuidanceEntry> {
        self.entries.iter().map(|e| &**e).filter(|e| e.category.0 == category).collect()
    }

    /// Distinct categories covered.
    pub fn categories(&self) -> Vec<ErrorCategory> {
        let mut cats: Vec<ErrorCategory> = self.entries.iter().map(|e| e.category.0).collect();
        cats.sort_by_key(|c| *c as u8);
        cats.dedup();
        cats
    }

    /// Serialises to pretty JSON (for inspection / the open-sourced
    /// artifact).
    pub fn to_json(&self) -> String {
        let entries = self.entries.iter().map(|entry| (**entry).clone()).collect();
        let json = DatabaseJson { edition: self.edition, entries };
        serde_json::to_string_pretty(&json).expect("database serialises")
    }

    /// Deserialises from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying `serde_json` error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let DatabaseJson { edition, entries } = serde_json::from_str(json)?;
        Ok(GuidanceDatabase::new(edition, entries))
    }

    /// The Quartus-curated database: 11 categories, 45 entries.
    pub fn quartus() -> Self {
        use ErrorCategory::*;
        let q = |c: ErrorCategory| Some(c.quartus_code());
        let entries = vec![
            // ---- undeclared identifier (5) — Figure 3, first example ----
            entry("q-undeclared-clk", UndeclaredIdentifier, q(UndeclaredIdentifier),
                "Object 'clk' is not declared. Verify the object name is correct. If the name is correct, declare the object.",
                "Check if 'clk' is an input. If not, and if 'clk' is used within the module, make sure the name is correct. If it's meant to trigger an 'always' block, replace 'posedge clk' with '*'.",
                Some("// before\nalways @(posedge clk) out <= in;\n// after (no clk port exists)\nalways @(*) out = in;")),
            entry("q-undeclared-generic", UndeclaredIdentifier, q(UndeclaredIdentifier),
                "object \"<name>\" is not declared",
                "Declare the missing signal as a wire or reg with the width implied by its use, immediately after the module header. If the name is a typo for an existing port, rename the use instead.",
                Some("// add after the header\nwire [7:0] missing_sig;")),
            entry("q-undeclared-genvar", UndeclaredIdentifier, q(UndeclaredIdentifier),
                "object \"i\" is not declared (generate loop)",
                "Generate-for loop variables must be declared with 'genvar i;' before the loop. Procedural for loops need 'integer i;' or an inline 'int i' declaration.",
                Some("genvar i;\nfor (i = 0; i < N; i = i + 1) begin : g ... end")),
            entry("q-undeclared-reset", UndeclaredIdentifier, q(UndeclaredIdentifier),
                "object \"reset\" is not declared",
                "If the problem statement mentions a reset, the port list probably names it differently (rst, rst_n, areset). Use the exact port name from the module header; do not invent new ports.",
                None),
            entry("q-undeclared-intermediate", UndeclaredIdentifier, q(UndeclaredIdentifier),
                "object used before any declaration in module body",
                "Intermediate values used across expressions must be declared first. Add 'wire' declarations for combinational intermediates, 'reg' for values assigned in always blocks.",
                None),
            // ---- index out of range (5) — Figure 3, second example ----
            entry("q-index-range", IndexOutOfRange, q(IndexOutOfRange),
                "Index cannot fall outside the declared range for vector",
                "Carefully examine the index values to prevent encountering 'index out of bound' errors in your code. When utilizing parameters for indexing, try to use binary strings for performing the indexing operation instead.",
                None),
            entry("q-index-msb", IndexOutOfRange, q(IndexOutOfRange),
                "index N cannot fall outside the declared range [N-1:0]",
                "A vector declared [N-1:0] has valid indices 0 through N-1; index N is one past the end. Off-by-one on the MSB is the most common cause — use N-1.",
                Some("// before\nassign y = v[8]; // v is [7:0]\n// after\nassign y = v[7];")),
            entry("q-index-reversal", IndexOutOfRange, q(IndexOutOfRange),
                "index out of range while reversing bit order",
                "When reversing an N-bit vector, the highest index used must be N-1 (e.g. out[i] = in[N-1-i]). Check the constant against the declared width.",
                Some("assign out[i] = in[7 - i]; // for [7:0]")),
            entry("q-index-partselect", IndexOutOfRange, q(IndexOutOfRange),
                "part-select bounds outside the declared range",
                "For a part select a[hi:lo], both hi and lo must lie within the declared range, and hi must be on the MSB side. For sliding windows prefer indexed selects a[base +: WIDTH].",
                Some("assign y = a[idx*8 +: 8];")),
            entry("q-index-concat", IndexOutOfRange, q(IndexOutOfRange),
                "index out of range inside a concatenation l-value",
                "Each bit referenced inside {..} must be in range. Count the elements: an 8-bit target needs exactly indices 0..7.",
                None),
            // ---- index arithmetic (4) — the hard Figure 6 class ----
            entry("q-idxarith-negative", IndexArithmetic, q(IndexArithmetic),
                "index -17 cannot fall outside the declared range [255:0]",
                "The index expression can go negative for small loop values (e.g. (i-1)*16 + (j-1) at i=j=0). Guard the boundary cases explicitly, or add the modulus before multiplying: ((i+15)%16)*16 + ((j+15)%16).",
                Some("wire [3:0] im1 = (i + 15) % 16;\nwire [3:0] jm1 = (j + 15) % 16;\nassign n = q[im1*16 + jm1];")),
            entry("q-idxarith-wrap", IndexArithmetic, q(IndexArithmetic),
                "computed index exceeds the declared range at loop extremes",
                "Evaluate the index expression at the smallest and largest loop values before writing it. Wrap with % WIDTH for toroidal neighbourhoods; clamp otherwise.",
                None),
            entry("q-idxarith-scale", IndexArithmetic, q(IndexArithmetic),
                "index scaled by element width overruns the vector",
                "When indexing a flattened 2-D array as row*COLS + col, the maximum is ROWS*COLS-1. Verify both factors; off-by-one in either overruns the vector.",
                None),
            entry("q-idxarith-param", IndexArithmetic, q(IndexArithmetic),
                "parameterised index expression out of range",
                "When utilizing parameters for indexing, expand the expression with the parameter's actual value and check the bounds numerically; prefer localparam derived bounds over repeated arithmetic.",
                None),
            // ---- illegal procedural lvalue (4) ----
            entry("q-proclv-wire", IllegalProceduralLvalue, q(IllegalProceduralLvalue),
                "object on left-hand side of assignment must have a variable data type",
                "Use assign statements instead of always block if possible. Otherwise change the declaration from wire to reg — anything assigned under always/initial must be a variable.",
                Some("// before\nwire y; always @* y = a;\n// after\nreg y; always @* y = a;  // or: wire y; assign y = a;")),
            entry("q-proclv-outputreg", IllegalProceduralLvalue, q(IllegalProceduralLvalue),
                "output port assigned in always block without reg",
                "Declare the output as 'output reg name' (or SystemVerilog 'output logic name') when it is written inside an always block.",
                Some("module m(..., output reg [7:0] q);")),
            entry("q-proclv-mixed", IllegalProceduralLvalue, q(IllegalProceduralLvalue),
                "signal driven both by assign and always",
                "A signal must have exactly one driver style: either a continuous assign (wire) or procedural writes (reg). Remove one of the drivers.",
                None),
            entry("q-proclv-porthdr", IllegalProceduralLvalue, q(IllegalProceduralLvalue),
                "ANSI port lacks variable kind for procedural write",
                "In ANSI headers the kind rides on the port: 'output reg [N-1:0] q'. Adding a separate 'reg q;' in the body also works for non-ANSI headers.",
                None),
            // ---- illegal continuous lvalue (4) ----
            entry("q-contlv-reg", IllegalContinuousLvalue, q(IllegalContinuousLvalue),
                "object of variable data type cannot be the target of a continuous assignment",
                "A reg cannot be driven by 'assign'. Either declare the target as a wire, or move the assignment into an always @(*) block.",
                Some("// before\noutput reg y; assign y = a;\n// after\noutput y; assign y = a;")),
            entry("q-contlv-alwayscomb", IllegalContinuousLvalue, q(IllegalContinuousLvalue),
                "assign to reg that is also written in always",
                "Pick one driver: delete the assign and write the value inside the existing always block, or delete the always write and keep the assign on a wire.",
                None),
            entry("q-contlv-logic", IllegalContinuousLvalue, q(IllegalContinuousLvalue),
                "assign target declared reg out of SystemVerilog habit",
                "In plain Verilog use wire for assign targets. (SystemVerilog 'logic' would accept both; plain 'reg' does not.)",
                None),
            entry("q-contlv-initial", IllegalContinuousLvalue, q(IllegalContinuousLvalue),
                "wire initialised procedurally",
                "To give a net a constant value use 'assign w = value;' or a declaration initialiser 'wire w = value;', not an initial block.",
                None),
            // ---- assign to input (3) ----
            entry("q-input-assigned", AssignToInput, q(AssignToInput),
                "input port cannot be assigned a value",
                "Input ports are driven from outside the module; never assign them. If the value must be produced here, the port direction is wrong — or you meant to assign a similarly-named internal signal.",
                Some("// before\ninput ack; assign ack = ready;\n// after\noutput ack; assign ack = ready;")),
            entry("q-input-loopback", AssignToInput, q(AssignToInput),
                "feedback written to an input port",
                "For feedback paths declare an internal wire/reg, assign that, and use it in expressions; leave the input untouched.",
                None),
            entry("q-input-swap", AssignToInput, q(AssignToInput),
                "assignment direction reversed",
                "Check whether the two sides of the assignment are swapped: 'assign input_sig = out_sig' usually meant 'assign out_sig = input_sig'.",
                None),
            // ---- port connection mismatch (4) ----
            entry("q-port-name", PortConnectionMismatch, q(PortConnectionMismatch),
                "Port does not exist in macrofunction",
                "Named connections must use the instantiated module's exact port names. Open the module declaration and copy the names; do not guess abbreviations.",
                Some("child c(.a(x), .y(z)); // ports are a and y, not in/out")),
            entry("q-port-count", PortConnectionMismatch, q(PortConnectionMismatch),
                "instance has wrong number of port connections",
                "Positional connection lists must match the declared port count and order. Prefer named connections (.port(sig)) to make the mapping explicit.",
                None),
            entry("q-port-order", PortConnectionMismatch, q(PortConnectionMismatch),
                "positional connections in wrong order",
                "Positional port lists bind strictly by declaration order. If the instance compiles but behaves wrongly, switch to named connections.",
                None),
            entry("q-port-missing", PortConnectionMismatch, q(PortConnectionMismatch),
                "required port left unconnected",
                "Clock and reset ports must be connected. Add the missing .clk(clk) style connection.",
                None),
            // ---- redeclaration (3) ----
            entry("q-redecl-dup", Redeclaration, q(Redeclaration),
                "object is already declared in the present scope",
                "Delete the duplicate declaration. With ANSI headers the port declaration already declares the signal — do not re-declare it in the body.",
                Some("// before\nmodule m(output reg q); reg q;\n// after\nmodule m(output reg q);")),
            entry("q-redecl-widths", Redeclaration, q(Redeclaration),
                "same name declared with two different widths",
                "Keep a single declaration with the correct width; update all uses to it.",
                None),
            entry("q-redecl-portbody", Redeclaration, q(Redeclaration),
                "ANSI port re-declared in body",
                "Non-ANSI style ('module m(q); output q; reg q;') needs the body declarations; ANSI style ('module m(output reg q)') must not repeat them. Use one style consistently.",
                None),
            // ---- syntax (5) ----
            entry("q-syntax-semi", SyntaxError, q(SyntaxError),
                "syntax error near text expecting ';'",
                "A statement is missing its terminating semicolon, usually on the line before the reported one. Add the ';'.",
                None),
            entry("q-syntax-near", SyntaxError, q(SyntaxError),
                "syntax error near text \"<token>\"",
                "Check for and fix any syntax errors that appear immediately before or at the specified keyword: unclosed parentheses, missing commas in port lists, or stray tokens.",
                None),
            entry("q-syntax-sensitivity", SyntaxError, q(SyntaxError),
                "always block missing sensitivity list",
                "Synthesisable always blocks need '@(*)' for combinational logic or '@(posedge clk)' for sequential logic. Plain 'always begin' is not accepted.",
                Some("always @(*) begin ... end")),
            entry("q-syntax-assign-eq", SyntaxError, q(SyntaxError),
                "expecting '=' or '<='",
                "Procedural assignments use '=' (blocking) or '<=' (non-blocking). Check the statement is an assignment and not an expression used as a statement.",
                None),
            entry("q-syntax-portlist", SyntaxError, q(SyntaxError),
                "syntax error in port list",
                "Port list entries are comma-separated 'direction [range] name' groups. Look for a missing comma or an extra direction keyword.",
                None),
            // ---- unbalanced blocks (3) ----
            entry("q-unbal-end", UnbalancedBlock, q(UnbalancedBlock),
                "missing \"end\" to balance begin",
                "Every 'begin' needs a matching 'end'. Count them — multi-statement always bodies and nested ifs are the usual culprits.",
                None),
            entry("q-unbal-endmodule", UnbalancedBlock, q(UnbalancedBlock),
                "unexpected end of file; missing \"endmodule\"",
                "Append 'endmodule' at the end of the module. If the code was cut off mid-generation, complete the final statement first.",
                None),
            entry("q-unbal-endcase", UnbalancedBlock, q(UnbalancedBlock),
                "missing \"endcase\"",
                "Every 'case' needs 'endcase' after the arms (and before the enclosing block's 'end').",
                None),
            // ---- C-style constructs (5) — the paper's 'confident in C/C++ syntax' class ----
            entry("q-cstyle-incr", CStyleConstruct, q(CStyleConstruct),
                "syntax error near \"++\"",
                "Verilog has no ++/-- operators. Write the loop step as 'i = i + 1'. This C/C++ habit is the usual cause.",
                Some("for (i = 0; i < N; i = i + 1)")),
            entry("q-cstyle-compound", CStyleConstruct, q(CStyleConstruct),
                "syntax error near \"+=\"",
                "Compound assignment (+=, -=, *=) is not Verilog-2001. Expand it: 'sum = sum + x;'.",
                Some("sum = sum + a[i];")),
            entry("q-cstyle-bool", CStyleConstruct, q(CStyleConstruct),
                "C type name used in declaration",
                "Use Verilog types: reg/wire/integer, not bool/int (outside SystemVerilog contexts). A 1-bit flag is 'reg flag;'.",
                None),
            entry("q-cstyle-braces", CStyleConstruct, q(CStyleConstruct),
                "curly braces used as statement block",
                "Verilog blocks use begin/end, not { }. Curly braces mean concatenation in expressions.",
                Some("if (en) begin q <= d; v <= 1; end")),
            entry("q-cstyle-ternary-assign", CStyleConstruct, q(CStyleConstruct),
                "expression statement is not valid Verilog",
                "Statements must be assignments, control flow, or tasks. Bare expressions (like a C function-call statement) are invalid; assign the result to a signal.",
                None),
        ];
        GuidanceDatabase::new(DatabaseEdition::Quartus, entries)
    }

    /// The iverilog-curated database: 7 categories, 30 entries.
    ///
    /// iverilog logs carry no numeric tags, so `error_tag` is `None`
    /// everywhere — which is exactly why exact-tag retrieval degrades on
    /// this edition (§4.2, "Impact of RAG").
    pub fn iverilog() -> Self {
        use ErrorCategory::*;
        let entries = vec![
            // ---- undeclared (5) ----
            entry("i-undeclared-bind", UndeclaredIdentifier, None,
                "Unable to bind wire/reg/memory 'clk' in 'top_module'",
                "Check if 'clk' is an input. If not, and if 'clk' is used within the module, make sure the name is correct. If it's meant to trigger an 'always' block, replace 'posedge clk' with '*'.",
                Some("always @(*) out = in;")),
            entry("i-undeclared-generic", UndeclaredIdentifier, None,
                "Unable to bind wire/reg/memory '<name>'",
                "Declare the missing signal (wire for combinational, reg for procedural targets) right after the module header, or fix the typo against the port list.",
                None),
            entry("i-undeclared-event", UndeclaredIdentifier, None,
                "Failed to evaluate event expression 'posedge clk'",
                "The event expression references a signal that does not exist. Use an existing clock port, or make the block combinational with @(*).",
                None),
            entry("i-undeclared-genvar", UndeclaredIdentifier, None,
                "generate loop variable is not declared",
                "Add 'genvar i;' before generate-for loops; 'integer i;' for procedural loops.",
                None),
            entry("i-undeclared-hier", UndeclaredIdentifier, None,
                "Unable to bind wire/reg in nested scope",
                "Signals declared in one begin/end scope are not visible outside it; hoist the declaration to module level.",
                None),
            // ---- index out of range (5) ----
            entry("i-index-basic", IndexOutOfRange, None,
                "Index out[8] is out of range.",
                "A vector [7:0] has indices 0..7. Replace the out-of-range constant with the MSB index (width-1).",
                Some("assign {out[0],...,out[7]} = in;")),
            entry("i-index-loop", IndexOutOfRange, None,
                "Index is out of range inside for loop",
                "Check the loop bound against the vector width: 'i < WIDTH' with accesses at [i] and [WIDTH-1-i] stays in range.",
                None),
            entry("i-index-mem", IndexOutOfRange, None,
                "word index outside memory range",
                "A memory 'reg [7:0] m [0:D-1]' has words 0..D-1. Clamp or mask the address.",
                None),
            entry("i-index-partsel", IndexOutOfRange, None,
                "part select out of range",
                "Both bounds of [hi:lo] must be within the declaration; hi >= lo for descending ranges.",
                None),
            entry("i-index-arith", IndexOutOfRange, None,
                "computed index out of range",
                "Evaluate the index expression at the loop extremes; negative intermediate values overflow the range. Use modulo arithmetic for wrap-around neighbours.",
                None),
            // ---- procedural lvalue (5) ----
            entry("i-proclv-basic", IllegalProceduralLvalue, None,
                "out is not a valid l-value in top_module.",
                "Use assign statements instead of always block if possible. Otherwise declare the target as reg ('output reg out').",
                Some("output reg out;")),
            entry("i-proclv-wire", IllegalProceduralLvalue, None,
                "wire assigned in always block",
                "Wires cannot be written procedurally. Change 'wire' to 'reg' or convert the always block to an assign.",
                None),
            entry("i-proclv-port", IllegalProceduralLvalue, None,
                "output port written in always without reg",
                "Add reg to the port declaration: 'output reg [N-1:0] q;'.",
                None),
            entry("i-proclv-nba", IllegalProceduralLvalue, None,
                "non-blocking assignment to a net",
                "'<=' targets must be variables (reg). Declare the target as reg, or use assign with '='.",
                None),
            entry("i-proclv-both", IllegalProceduralLvalue, None,
                "signal has both assign and always drivers",
                "Remove one driver; a signal is either a continuously-assigned wire or a procedurally-assigned reg.",
                None),
            // ---- continuous lvalue (4) ----
            entry("i-contlv-basic", IllegalContinuousLvalue, None,
                "reg q; cannot be driven by primitives or continuous assignment.",
                "Drop the reg (make it a wire) or move the logic into an always block.",
                Some("output q; assign q = a; // or: output reg q; always @* q = a;")),
            entry("i-contlv-output", IllegalContinuousLvalue, None,
                "output reg driven by assign",
                "Remove 'reg' from the port declaration when the output is driven by assign.",
                None),
            entry("i-contlv-double", IllegalContinuousLvalue, None,
                "reg also written by always elsewhere",
                "Consolidate into the always block; delete the assign.",
                None),
            entry("i-contlv-init", IllegalContinuousLvalue, None,
                "continuous assignment to an integer",
                "Integers are variables; use a wire (with a width) for assign targets.",
                None),
            // ---- port mismatch (4) ----
            entry("i-port-name", PortConnectionMismatch, None,
                "port ``x'' is not a port of instance.",
                "Use the instantiated module's exact port names in named connections; open its declaration and copy them.",
                None),
            entry("i-port-count", PortConnectionMismatch, None,
                "Wrong number of ports",
                "Positional connections must cover every declared port, in order. Prefer named connections.",
                None),
            entry("i-port-dir", PortConnectionMismatch, None,
                "output port connected to an expression",
                "Output connections must be plain signals (or concatenations of them), not computed expressions.",
                None),
            entry("i-port-width", PortConnectionMismatch, None,
                "port width mismatch warning escalated",
                "Match the connected signal's width to the port's declaration; slice or pad explicitly.",
                None),
            // ---- unknown module (3) ----
            entry("i-unkmod-typo", UnknownModule, None,
                "Unknown module type: <name>",
                "The instantiated module name does not match any definition. Fix the spelling, or define the helper module in the same source.",
                None),
            entry("i-unkmod-helper", UnknownModule, None,
                "helper module not defined",
                "If the problem expects a single module, inline the helper's logic instead of instantiating an undefined module.",
                None),
            entry("i-unkmod-prim", UnknownModule, None,
                "unsupported primitive instantiated",
                "Write the logic with operators (&, |, ^, ~) instead of gate primitives when the flow does not provide them.",
                None),
            // ---- syntax (4) — covers all the bare 'syntax error' cases ----
            entry("i-syntax-giveup", SyntaxError, None,
                "syntax error / I give up.",
                "iverilog stops explaining after repeated parse failures. Re-check the basics in order: every statement ends with ';', every begin has an end, the module ends with 'endmodule', and no C operators (++, +=) appear.",
                None),
            entry("i-syntax-semi", SyntaxError, None,
                "syntax error (missing semicolon)",
                "Look at the line *before* the reported one for a missing ';'.",
                None),
            entry("i-syntax-cstyle", SyntaxError, None,
                "syntax error near C-style operator",
                "Replace ++/--/+=/-= with explicit Verilog arithmetic: 'i = i + 1'.",
                Some("for (i = 0; i < N; i = i + 1)")),
            entry("i-syntax-malformed", SyntaxError, None,
                "error: malformed statement",
                "The statement is not a legal Verilog form; common causes are assignments without '=' or '<=', and expressions used as statements.",
                None),
        ];
        GuidanceDatabase::new(DatabaseEdition::Iverilog, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartus_shape_matches_paper() {
        let db = GuidanceDatabase::quartus();
        assert_eq!(db.entries.len(), 45, "paper: 45 Quartus entries");
        assert_eq!(db.categories().len(), 11, "paper: 11 Quartus categories");
        assert!(db.entries.iter().all(|e| e.error_tag.is_some()));
    }

    #[test]
    fn iverilog_shape_matches_paper() {
        let db = GuidanceDatabase::iverilog();
        assert_eq!(db.entries.len(), 30, "paper: 30 iverilog entries");
        assert_eq!(db.categories().len(), 7, "paper: 7 iverilog categories");
        assert!(db.entries.iter().all(|e| e.error_tag.is_none()));
    }

    #[test]
    fn ids_are_unique() {
        for db in [GuidanceDatabase::quartus(), GuidanceDatabase::iverilog()] {
            let mut ids: Vec<&str> = db.entries.iter().map(|e| e.id.as_str()).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate ids in {:?}", db.edition);
        }
    }

    #[test]
    fn figure3_entries_present() {
        let db = GuidanceDatabase::quartus();
        let clk = db.entries.iter().find(|e| e.id == "q-undeclared-clk").unwrap();
        assert!(clk.guidance.contains("replace 'posedge clk' with '*'"));
        let idx = db.entries.iter().find(|e| e.id == "q-index-range").unwrap();
        assert!(idx.guidance.contains("binary strings"));
    }

    #[test]
    fn entries_for_filters_by_category() {
        let db = GuidanceDatabase::quartus();
        let entries = db.entries_for(ErrorCategory::CStyleConstruct);
        assert_eq!(entries.len(), 5);
        assert!(entries.iter().all(|e| e.category.0 == ErrorCategory::CStyleConstruct));
    }

    #[test]
    fn json_round_trip() {
        let db = GuidanceDatabase::quartus();
        let json = db.to_json();
        let back = GuidanceDatabase::from_json(&json).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let quartus = GuidanceDatabase::quartus();
        assert_eq!(quartus.fingerprint(), GuidanceDatabase::quartus().fingerprint());
        assert_ne!(quartus.fingerprint(), GuidanceDatabase::iverilog().fingerprint());
        let truncated = GuidanceDatabase::new(quartus.edition, quartus.entries()[..10].to_vec());
        assert_ne!(quartus.fingerprint(), truncated.fingerprint());
    }

    #[test]
    fn briefs_render_once_per_database() {
        let db = GuidanceDatabase::quartus();
        for (index, entry) in db.entries().iter().enumerate() {
            assert_eq!(**db.brief(index), entry.render_brief());
        }
        assert!(Arc::ptr_eq(db.brief(0), db.brief(0)), "one rendering per database");
        assert_eq!(db.exemplar_cells().len(), db.entries().len());
        assert_eq!(*db.exemplar_tokens(0), TokenSet::new(&db.entries()[0].log_exemplar));
        assert!(std::ptr::eq(db.exemplar_tokens(0), db.exemplar_tokens(0)));
    }

    #[test]
    fn shared_databases_are_singletons() {
        let a = GuidanceDatabase::quartus_shared();
        let b = GuidanceDatabase::quartus_shared();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, GuidanceDatabase::quartus());
        assert_eq!(*GuidanceDatabase::iverilog_shared(), GuidanceDatabase::iverilog());
    }

    #[test]
    fn quartus_tags_match_categories() {
        let db = GuidanceDatabase::quartus();
        for entry in &db.entries {
            assert_eq!(entry.error_tag, Some(entry.category.0.quartus_code()), "{}", entry.id);
        }
    }
}
