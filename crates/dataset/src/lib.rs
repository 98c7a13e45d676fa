//! # rtlfixer-dataset
//!
//! The benchmark substrate of the RTLFixer reproduction:
//!
//! * [`archetypes`] — ~45 hand-written circuit archetypes (plus width
//!   variants), each with a correct Verilog solution and a Rust golden
//!   model, including the paper's named examples `vector100r` (Figure 5)
//!   and `conwaylife` (Figure 6).
//! * [`suites`] — VerilogEval-Human (156 problems, 71 easy / 85 hard),
//!   VerilogEval-Machine (143) and RTLLM (29) suites with the paper's exact
//!   shapes.
//! * [`mutate`] — syntax-error injectors (one per error category; each
//!   verifies the intended category actually appears) plus functional-bug
//!   injection.
//! * [`generation`] — the calibrated candidate generation model standing in
//!   for LLM sampling (DESIGN.md §1).
//! * [`dbscan`] + [`curation`] — the §3.4 pipeline producing the
//!   VerilogEval-syntax debugging dataset (exactly 212 entries).
//!
//! ## Example
//!
//! ```
//! use rtlfixer_dataset::suites;
//! use rtlfixer_dataset::problem::Verdict;
//!
//! let problem = suites::find_problem("human/vector100r").expect("exists");
//! // Reference solutions pass their own golden-model testbench.
//! let solution = problem.solution.clone();
//! assert_eq!(problem.check(&solution), Verdict::Pass);
//! ```

#![warn(missing_docs)]

pub mod archetypes;
pub mod curation;
pub mod dbscan;
pub mod generation;
pub mod golden;
pub mod mutate;
pub mod problem;
pub mod suites;

pub use curation::{
    verilog_eval_syntax, verilog_eval_syntax_shared, SyntaxBenchEntry, SYNTAX_BENCH_COUNT,
};
pub use problem::{verdict_memo_stats, Difficulty, Problem, Suite, Verdict, VerdictMemo};
pub use suites::{rtllm, verilog_eval_human, verilog_eval_machine};
