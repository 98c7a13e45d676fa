//! # rtlfixer-agent
//!
//! The paper's primary contribution: **RTLFixer**, an autonomous language
//! agent that fixes Verilog syntax errors through an interactive feedback
//! loop (Figure 1).
//!
//! * [`RtlFixer`] — the agent: compile → (retrieve guidance) → revise →
//!   re-compile, under [`Strategy::OneShot`] or [`Strategy::React`].
//! * [`prefixer`] — the rule-based pre-fixer applied to every candidate
//!   (§4 Setup).
//! * [`prompts`] — the Figure 2 prompt templates.
//! * [`trace`] — Thought/Action/Observation episode records (Figure 2c),
//!   held as handles and rendered only when read.
//!
//! ## Example
//!
//! ```
//! use rtlfixer_agent::{RtlFixerBuilder, Strategy};
//! use rtlfixer_compilers::CompilerKind;
//! use rtlfixer_llm::{Capability, SimulatedLlm};
//!
//! let llm = SimulatedLlm::new(Capability::Gpt4Class, 42);
//! let mut fixer = RtlFixerBuilder::new()
//!     .compiler(CompilerKind::Quartus)
//!     .strategy(Strategy::React { max_iterations: 10 })
//!     .with_rag(true)
//!     .build(llm);
//! let outcome = fixer.fix(
//!     "module m(input [7:0] in, output reg [7:0] out);
//!      always @(posedge clk) out <= in;
//!      endmodule",
//! );
//! assert!(outcome.success);
//! println!("{}", outcome.trace); // Figure 2c style transcript
//! ```

#![warn(missing_docs)]

pub mod fixer;
pub mod prefixer;
pub mod prompts;
pub mod trace;

pub use fixer::{FixOutcome, RtlFixer, RtlFixerBuilder, Strategy};
pub use trace::{Action, FixTrace, Step, TraceText};
