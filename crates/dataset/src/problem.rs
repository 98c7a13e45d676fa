//! Benchmark problem definitions and candidate verification.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use rtlfixer_sim::testbench::{random_stimuli, run_testbench, Clocking};
use rtlfixer_sim::value::LogicVec;
use rtlfixer_sim::ReferenceModel;

/// Which benchmark suite a problem belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// VerilogEval-Human analogue (high-level natural-language specs).
    VerilogEvalHuman,
    /// VerilogEval-Machine analogue (low-level generated descriptions).
    VerilogEvalMachine,
    /// RTLLM analogue (larger designs, generalisation test).
    Rtllm,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::VerilogEvalHuman => write!(f, "VerilogEval-Human"),
            Suite::VerilogEvalMachine => write!(f, "VerilogEval-Machine"),
            Suite::Rtllm => write!(f, "RTLLM"),
        }
    }
}

/// Difficulty split (the paper divides VerilogEval by a 0.1 pass-rate
/// threshold into 71 easy / 85 hard Human problems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Difficulty {
    /// Above the paper's 0.1 pass-rate threshold.
    Easy,
    /// Below it.
    Hard,
}

/// Verdict for one candidate implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Candidate failed to compile (syntax/elaboration errors).
    CompileError,
    /// Candidate compiled but output mismatched the golden model.
    SimMismatch,
    /// Candidate compiled and matched on every cycle.
    Pass,
}

/// Factory producing a fresh golden model per test run.
pub type GoldenFactory = Arc<dyn Fn() -> Box<dyn ReferenceModel + Send> + Send + Sync>;

/// One benchmark problem.
#[derive(Clone)]
pub struct Problem {
    /// Stable id, e.g. `human/reverse8`.
    pub id: String,
    /// Suite membership.
    pub suite: Suite,
    /// Natural-language description (style depends on suite).
    pub description: String,
    /// Top module name the candidate must implement.
    pub top: String,
    /// Input ports as (name, width), excluding the clock.
    pub inputs: Vec<(String, u32)>,
    /// Output ports as (name, width).
    pub outputs: Vec<(String, u32)>,
    /// Clocking discipline.
    pub clocking: Clocking,
    /// Reference (correct) implementation.
    pub solution: String,
    /// Golden model factory.
    pub golden: GoldenFactory,
    /// Static difficulty label.
    pub difficulty: Difficulty,
    /// Number of stimulus cycles for functional checking.
    pub test_cycles: usize,
}

impl fmt::Debug for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Problem")
            .field("id", &self.id)
            .field("suite", &self.suite)
            .field("difficulty", &self.difficulty)
            .field("top", &self.top)
            .finish_non_exhaustive()
    }
}

impl Problem {
    /// Deterministic stimulus for this problem. Reset-like inputs are held
    /// high for the first two cycles then mostly low, so sequential designs
    /// start from a defined state.
    pub fn stimuli(&self, seed: u64) -> Vec<BTreeMap<String, LogicVec>> {
        let mut stimuli = random_stimuli(&self.inputs, self.test_cycles, seed);
        // Structured corner patterns sharpen functional coverage beyond
        // random vectors: all-zeros, all-ones, and equal-operand cycles
        // (comparator/absdiff-style bugs only show on equal inputs).
        for (cycle, frame) in stimuli.iter_mut().enumerate() {
            match cycle % 11 {
                5 => {
                    for (name, width) in &self.inputs {
                        frame.insert(name.clone(), LogicVec::from_u64(*width, 0));
                    }
                }
                7 => {
                    for (name, width) in &self.inputs {
                        frame.insert(name.clone(), LogicVec::from_u128(*width, u128::MAX));
                    }
                }
                9 => {
                    // Copy the first input's value into every same-width input.
                    if let Some((first_name, first_width)) = self.inputs.first().cloned() {
                        let value = frame
                            .get(&first_name)
                            .cloned()
                            .unwrap_or_else(|| LogicVec::zeros(first_width.max(1)));
                        for (name, width) in &self.inputs {
                            if *width == first_width {
                                frame.insert(name.clone(), value.clone());
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for (name, width) in &self.inputs {
            let lname = name.to_lowercase();
            let is_reset = lname.contains("reset") || lname == "rst" || lname.starts_with("rst_");
            let is_enable = lname == "en" || lname == "enable" || lname == "we";
            if is_reset {
                for (cycle, frame) in stimuli.iter_mut().enumerate() {
                    let value = if cycle < 2 {
                        1
                    } else {
                        // Occasional mid-run reset pulses exercise the reset
                        // path; keep them rare.
                        u64::from(cycle % 17 == 0)
                    };
                    frame.insert(name.clone(), LogicVec::from_u64(*width, value));
                }
            } else if is_enable {
                // Bias enables toward 1 so the datapath actually moves.
                for (cycle, frame) in stimuli.iter_mut().enumerate() {
                    if cycle % 4 != 3 {
                        frame.insert(name.clone(), LogicVec::from_u64(*width, 1));
                    }
                }
            }
        }
        stimuli
    }

    /// Compiles and simulates `code` against the golden model.
    pub fn check(&self, code: &str) -> Verdict {
        self.check_seeded(code, 0xC0FFEE)
    }

    /// [`check`](Problem::check) with an explicit stimulus seed.
    pub fn check_seeded(&self, code: &str, seed: u64) -> Verdict {
        // Shared compile: the §5 debugger and the pass@k harness check the
        // same candidates repeatedly; the frontend runs once per source.
        let analysis = rtlfixer_verilog::compile_shared(code);
        if !analysis.is_ok() {
            return Verdict::CompileError;
        }
        if analysis.file.module(&self.top).is_none() {
            return Verdict::CompileError;
        }
        let mut golden = (self.golden)();
        let stimuli = self.stimuli(seed);
        match run_testbench(&analysis, &self.top, golden.as_mut(), &stimuli, &self.clocking) {
            Ok(result) if result.passed => Verdict::Pass,
            Ok(_) => Verdict::SimMismatch,
            Err(_) => Verdict::CompileError,
        }
    }

    /// Whether this is a clocked problem.
    pub fn is_sequential(&self) -> bool {
        matches!(self.clocking, Clocking::Sequential { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::{input_u64, out1, Comb};

    fn inverter_problem() -> Problem {
        Problem {
            id: "test/inv".into(),
            suite: Suite::VerilogEvalHuman,
            description: "Invert the input.".into(),
            top: "top_module".into(),
            inputs: vec![("a".into(), 8)],
            outputs: vec![("y".into(), 8)],
            clocking: Clocking::Combinational,
            solution: "module top_module(input [7:0] a, output [7:0] y);\n\
                       assign y = ~a;\nendmodule"
                .into(),
            golden: Arc::new(|| {
                Box::new(Comb::new(|ins| out1("y", 8, u128::from(!input_u64(ins, "a") & 0xFF))))
            }),
            difficulty: Difficulty::Easy,
            test_cycles: 32,
        }
    }

    #[test]
    fn solution_passes_its_own_check() {
        let p = inverter_problem();
        assert_eq!(p.check(&p.solution.clone()), Verdict::Pass);
    }

    #[test]
    fn broken_syntax_is_compile_error() {
        let p = inverter_problem();
        assert_eq!(
            p.check("module top_module(input [7:0] a, output [7:0] y);\nassign y = ~a\nendmodule"),
            Verdict::CompileError
        );
    }

    #[test]
    fn wrong_logic_is_sim_mismatch() {
        let p = inverter_problem();
        assert_eq!(
            p.check("module top_module(input [7:0] a, output [7:0] y);\nassign y = a;\nendmodule"),
            Verdict::SimMismatch
        );
    }

    #[test]
    fn wrong_module_name_is_compile_error() {
        let p = inverter_problem();
        assert_eq!(
            p.check("module wrong(input [7:0] a, output [7:0] y);\nassign y = ~a;\nendmodule"),
            Verdict::CompileError
        );
    }

    #[test]
    fn reset_stimulus_shaping() {
        let mut p = inverter_problem();
        p.inputs.push(("reset".into(), 1));
        let stimuli = p.stimuli(1);
        assert_eq!(stimuli[0]["reset"].to_u64(), Some(1));
        assert_eq!(stimuli[1]["reset"].to_u64(), Some(1));
        assert_eq!(stimuli[2]["reset"].to_u64(), Some(0));
    }
}
