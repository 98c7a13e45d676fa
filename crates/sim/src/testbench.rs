//! Golden-model testbench harness.
//!
//! Functional correctness (the paper's pass@k metric, Eq. 2) is measured by
//! simulating a candidate implementation against a [`ReferenceModel`] — a
//! Rust-level golden implementation of the problem — over a deterministic
//! stimulus sequence, and comparing outputs cycle by cycle. One run drives
//! one simulator over one stimulus sequence; a multi-seed check is a loop
//! of runs.

use std::collections::BTreeMap;

use rtlfixer_verilog::Analysis;

use crate::interp::Simulator;
use crate::value::LogicVec;

/// A golden reference implementation of a benchmark problem.
///
/// Implementations are plain Rust; `step` receives the cycle's input values
/// and returns the expected outputs. For sequential problems, `step` models
/// one clock cycle (inputs sampled at the posedge); for combinational ones
/// it is a pure function.
pub trait ReferenceModel {
    /// Resets internal state (called once before a test run).
    fn reset(&mut self);

    /// Computes expected outputs for this cycle's inputs.
    fn step(&mut self, inputs: &BTreeMap<String, LogicVec>) -> BTreeMap<String, LogicVec>;
}

/// Blanket implementation so closures can serve as combinational models.
impl<F> ReferenceModel for F
where
    F: FnMut(&BTreeMap<String, LogicVec>) -> BTreeMap<String, LogicVec>,
{
    fn reset(&mut self) {}

    fn step(&mut self, inputs: &BTreeMap<String, LogicVec>) -> BTreeMap<String, LogicVec> {
        self(inputs)
    }
}

/// Whether the device under test is clocked, and by which signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Clocking {
    /// Pure combinational: settle and compare.
    Combinational,
    /// Sequential: drive the named clock each cycle.
    Sequential {
        /// Clock port name (excluded from stimulus).
        clock: String,
    },
}

/// One output mismatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Cycle index at which the mismatch occurred.
    pub cycle: usize,
    /// Output port name.
    pub port: String,
    /// DUT value.
    pub got: LogicVec,
    /// Golden value.
    pub want: LogicVec,
}

/// Result of a testbench run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestResult {
    /// Whether every compared output matched on every cycle.
    pub passed: bool,
    /// Cycles executed.
    pub cycles: usize,
    /// Total mismatching (cycle, port) pairs.
    pub mismatch_count: usize,
    /// The first mismatch, for debugging and error messages.
    pub first_mismatch: Option<Mismatch>,
}

/// Errors from running a testbench.
#[derive(Debug, Clone)]
pub enum TestbenchError {
    /// The DUT failed to elaborate.
    Elab(crate::elab::ElabError),
    /// Simulation failed (combinational loop etc.).
    Sim(crate::interp::SimError),
}

impl std::fmt::Display for TestbenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestbenchError::Elab(e) => write!(f, "elaboration failed: {e}"),
            TestbenchError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for TestbenchError {}

impl From<crate::elab::ElabError> for TestbenchError {
    fn from(e: crate::elab::ElabError) -> Self {
        TestbenchError::Elab(e)
    }
}

impl From<crate::interp::SimError> for TestbenchError {
    fn from(e: crate::interp::SimError) -> Self {
        TestbenchError::Sim(e)
    }
}

/// Runs `model` against the DUT in `analysis` over `stimuli`.
///
/// Each stimulus entry maps input-port names to values for that cycle.
/// Output comparison uses case equality; an `x` produced by the DUT where
/// the golden model expects a defined value is a mismatch.
///
/// # Errors
///
/// Returns [`TestbenchError`] if the DUT fails to elaborate or simulate.
pub fn run_testbench(
    analysis: &Analysis,
    top: &str,
    model: &mut dyn ReferenceModel,
    stimuli: &[BTreeMap<String, LogicVec>],
    clocking: &Clocking,
) -> Result<TestResult, TestbenchError> {
    let _simulate_span = rtlfixer_obs::span(rtlfixer_obs::kind::SIMULATE);
    let mut sim = Simulator::new(analysis, top)?;
    sim.run_initial()?;
    model.reset();

    let output_ports: Vec<(String, u32)> = sim
        .design()
        .outputs
        .iter()
        .map(|p| (p.name.clone(), p.width))
        .collect();

    let mut mismatch_count = 0usize;
    let mut first_mismatch = None;
    for (cycle, inputs) in stimuli.iter().enumerate() {
        for (name, value) in inputs {
            // Unknown ports are skipped: the golden stimulus may mention
            // ports the (possibly wrong) DUT does not declare.
            let _ = sim.poke(name, value.clone());
        }
        match clocking {
            Clocking::Combinational => sim.settle()?,
            Clocking::Sequential { clock } => sim.clock_cycle(clock)?,
        }
        let expected = model.step(inputs);
        for (port, width) in &output_ports {
            let Some(want) = expected.get(port) else { continue };
            let got = sim.peek(port).unwrap_or_else(|| LogicVec::xs(*width));
            if got.eq_case(&want.resize(*width)).to_u64() != Some(1) {
                mismatch_count += 1;
                if first_mismatch.is_none() {
                    first_mismatch = Some(Mismatch {
                        cycle,
                        port: port.clone(),
                        got: got.clone(),
                        want: want.clone(),
                    });
                }
            }
        }
    }
    Ok(TestResult {
        passed: mismatch_count == 0,
        cycles: stimuli.len(),
        mismatch_count,
        first_mismatch,
    })
}

/// A tiny deterministic PRNG (xorshift64*) for stimulus generation, so the
/// simulator crate stays dependency-free.
#[derive(Debug, Clone)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    /// Seeds the generator; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> Self {
        Xorshift { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A random [`LogicVec`] of `width` bits (no x bits).
    pub fn next_vec(&mut self, width: u32) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        let mut i = 0;
        while i < width {
            let chunk = self.next_u64();
            for k in 0..64.min(width - i) {
                if (chunk >> k) & 1 == 1 {
                    v.set_bit(i + k, crate::value::Bit::One);
                }
            }
            i += 64;
        }
        v
    }
}

/// Generates `cycles` of random stimulus for the given `(name, width)` input
/// ports, deterministically from `seed`.
pub fn random_stimuli(
    ports: &[(String, u32)],
    cycles: usize,
    seed: u64,
) -> Vec<BTreeMap<String, LogicVec>> {
    let mut rng = Xorshift::new(seed);
    (0..cycles)
        .map(|_| {
            ports
                .iter()
                .map(|(name, width)| (name.clone(), rng.next_vec(*width)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlfixer_verilog::compile;

    fn inputs(pairs: &[(&str, u32, u64)]) -> BTreeMap<String, LogicVec> {
        pairs
            .iter()
            .map(|(n, w, v)| (n.to_string(), LogicVec::from_u64(*w, *v)))
            .collect()
    }

    #[test]
    fn correct_inverter_passes() {
        let analysis =
            compile("module inv(input [3:0] a, output [3:0] y); assign y = ~a; endmodule");
        let mut model = |ins: &BTreeMap<String, LogicVec>| {
            let a = ins["a"].clone();
            BTreeMap::from([("y".to_owned(), a.not())])
        };
        let stimuli: Vec<_> = (0..16).map(|i| inputs(&[("a", 4, i)])).collect();
        let result =
            run_testbench(&analysis, "inv", &mut model, &stimuli, &Clocking::Combinational)
                .unwrap();
        assert!(result.passed);
        assert_eq!(result.cycles, 16);
        assert_eq!(result.mismatch_count, 0);
    }

    #[test]
    fn wrong_logic_fails_with_mismatch_details() {
        // DUT computes AND, golden wants OR.
        let analysis = compile(
            "module orr(input a, input b, output y); assign y = a & b; endmodule",
        );
        let mut model = |ins: &BTreeMap<String, LogicVec>| {
            let y = ins["a"].or(&ins["b"]);
            BTreeMap::from([("y".to_owned(), y)])
        };
        let stimuli =
            vec![inputs(&[("a", 1, 0), ("b", 1, 1)]), inputs(&[("a", 1, 1), ("b", 1, 1)])];
        let result =
            run_testbench(&analysis, "orr", &mut model, &stimuli, &Clocking::Combinational)
                .unwrap();
        assert!(!result.passed);
        assert_eq!(result.mismatch_count, 1);
        let mm = result.first_mismatch.unwrap();
        assert_eq!(mm.cycle, 0);
        assert_eq!(mm.port, "y");
        assert_eq!(mm.got.to_u64(), Some(0));
        assert_eq!(mm.want.to_u64(), Some(1));
    }

    #[test]
    fn sequential_counter_against_golden() {
        let analysis = compile(
            "module ctr(input clk, input reset, output reg [7:0] q);\n\
             always @(posedge clk) begin\n\
               if (reset) q <= 0; else q <= q + 1;\n\
             end\nendmodule",
        );
        struct Golden {
            count: u64,
        }
        impl ReferenceModel for Golden {
            fn reset(&mut self) {
                self.count = 0;
            }
            fn step(
                &mut self,
                inputs: &BTreeMap<String, LogicVec>,
            ) -> BTreeMap<String, LogicVec> {
                if inputs["reset"].to_u64() == Some(1) {
                    self.count = 0;
                } else {
                    self.count = (self.count + 1) % 256;
                }
                BTreeMap::from([("q".to_owned(), LogicVec::from_u64(8, self.count))])
            }
        }
        let mut stimuli = vec![inputs(&[("reset", 1, 1)])];
        for _ in 0..10 {
            stimuli.push(inputs(&[("reset", 1, 0)]));
        }
        let mut golden = Golden { count: 0 };
        let result = run_testbench(
            &analysis,
            "ctr",
            &mut golden,
            &stimuli,
            &Clocking::Sequential { clock: "clk".into() },
        )
        .unwrap();
        assert!(result.passed, "{:?}", result.first_mismatch);
    }

    #[test]
    fn stimulus_is_deterministic() {
        let ports = vec![("a".to_owned(), 8), ("b".to_owned(), 16)];
        let s1 = random_stimuli(&ports, 20, 7);
        let s2 = random_stimuli(&ports, 20, 7);
        assert_eq!(s1, s2);
        let s3 = random_stimuli(&ports, 20, 8);
        assert_ne!(s1, s3);
    }

    #[test]
    fn xorshift_wide_vectors() {
        let mut rng = Xorshift::new(1);
        let v = rng.next_vec(100);
        assert_eq!(v.width(), 100);
        assert!(!v.has_x());
    }

    #[test]
    fn reset_state_matches_fresh_simulator() {
        // The elaborate-once fast path: one shared design, per-run state
        // reset must reproduce a fresh simulator's results exactly.
        let analysis = compile(
            "module ctr2(input clk, input reset, output reg [7:0] q);\n\
             always @(posedge clk) begin\n\
               if (reset) q <= 0; else q <= q + 3;\n\
             end\nendmodule",
        );
        let design = crate::elab::elaborate_shared(&analysis, "ctr2").expect("elaborates");
        let drive = |sim: &mut crate::interp::Simulator| {
            sim.run_initial().expect("init");
            sim.poke("reset", LogicVec::from_u64(1, 1)).expect("port");
            sim.clock_cycle("clk").expect("cycle");
            sim.poke("reset", LogicVec::from_u64(1, 0)).expect("port");
            for _ in 0..5 {
                sim.clock_cycle("clk").expect("cycle");
            }
            sim.peek("q").expect("q").to_u64()
        };
        let mut reused = crate::interp::Simulator::from_design(design.clone());
        let first = drive(&mut reused);
        reused.reset_state();
        let second = drive(&mut reused);
        let mut fresh = crate::interp::Simulator::from_design(design);
        let from_fresh = drive(&mut fresh);
        assert_eq!(first, Some(15));
        assert_eq!(first, second, "reset_state must restore power-on state");
        assert_eq!(first, from_fresh);
    }

    #[test]
    fn broken_dut_reports_elab_error() {
        let analysis = compile("module m(output y); assign y = clk; endmodule");
        let mut model =
            |_: &BTreeMap<String, LogicVec>| BTreeMap::<String, LogicVec>::new();
        let result =
            run_testbench(&analysis, "m", &mut model, &[], &Clocking::Combinational);
        assert!(matches!(result, Err(TestbenchError::Elab(_))));
    }
}
