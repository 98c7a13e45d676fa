//! # rtlfixer-sim
//!
//! A cycle-level Verilog simulator over the `rtlfixer-verilog` frontend,
//! standing in for the simulation half of the paper's evaluation stack
//! (VerilogEval measures functional correctness by simulating candidates
//! against golden testbenches).
//!
//! The pipeline is:
//!
//! 1. [`elab::elaborate`] flattens an analyzed design into signals plus
//!    combinational / sequential / initial processes (instances flattened
//!    with hierarchical prefixes, generate loops unrolled), each borrowing
//!    its body from the analysis, then lowers them into an interned kernel
//!    with compiled tapes. The resulting [`elab::Design`] keeps only its
//!    top, its ports and that kernel; [`elab::elaborate_shared`] caches it
//!    per source and top.
//! 2. [`Simulator`] executes the design: settle-to-fixpoint combinational
//!    evaluation, two-phase non-blocking sequential semantics, 4-state
//!    values ([`value::LogicVec`]). Each process runs as a compiled
//!    register bytecode tape, with a two-state variant tried first when its
//!    inputs are x-free; the tree walker is the reference the tape must
//!    match bit for bit.
//! 3. [`testbench::run_testbench`] compares the device under test against a
//!    Rust [`testbench::ReferenceModel`] over deterministic stimulus;
//!    [`testbench::run_until_mismatch`] stops at the first mismatching
//!    cycle, which is all a verdict needs.
//!
//! ## Example
//!
//! ```
//! use rtlfixer_sim::{Simulator, value::LogicVec};
//! use rtlfixer_verilog::compile;
//!
//! let analysis = compile(
//!     "module add(input [7:0] a, input [7:0] b, output [7:0] s);
//!      assign s = a + b; endmodule",
//! );
//! let mut sim = Simulator::new(&analysis, "add")?;
//! sim.poke("a", LogicVec::from_u64(8, 17))?;
//! sim.poke("b", LogicVec::from_u64(8, 25))?;
//! sim.settle()?;
//! assert_eq!(sim.peek("s").unwrap().to_u64(), Some(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod elab;
mod fast;
pub mod interp;
mod lower;
mod tape;
pub mod testbench;
pub mod value;
pub mod vcd;
mod wide;

pub use interp::{force_sim_backends, sim_backends, SimBackends, SimError, Simulator, StateValue};
pub use tape::TapeStats;
pub use testbench::{run_testbench, Clocking, ReferenceModel, TestResult};
pub use value::LogicVec;
