//! Golden-model testbench harness.
//!
//! Functional correctness (the paper's pass@k metric, Eq. 2) is measured by
//! simulating a candidate implementation against a [`ReferenceModel`] — a
//! Rust-level golden implementation of the problem — over a deterministic
//! stimulus sequence, and comparing outputs cycle by cycle. One run drives
//! one simulator over one stimulus sequence; a multi-seed check is a loop
//! of runs.
//!
//! Two entry points share one per-cycle step: [`run_testbench`] drives every
//! cycle and counts every mismatch (the §5 feedback report), and
//! [`run_until_mismatch`] stops at the first mismatching cycle (a verdict
//! needs no more).

use std::borrow::Borrow;
use std::collections::BTreeMap;

use rtlfixer_verilog::Analysis;

use crate::interp::{SimError, Simulator};
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
    /// DUT value, at the golden value's width (all-x where the DUT lacks
    /// the port).
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
    Sim(SimError),
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

impl From<SimError> for TestbenchError {
    fn from(e: SimError) -> Self {
        TestbenchError::Sim(e)
    }
}

/// One testbench run in progress: the device under test (DUT) and its
/// golden model, advanced one stimulus cycle at a time by [`Bench::step`].
/// Both entry points, [`run_testbench`] and [`run_until_mismatch`], run on
/// it.
struct Bench<'m> {
    sim: Simulator,
    model: &'m mut dyn ReferenceModel,
    clocking: &'m Clocking,
}

impl<'m> Bench<'m> {
    /// Elaborates `top`, runs its `initial` blocks and resets the model:
    /// everything that happens before cycle 0.
    fn new(
        analysis: &Analysis,
        top: &str,
        model: &'m mut dyn ReferenceModel,
        clocking: &'m Clocking,
    ) -> Result<Bench<'m>, TestbenchError> {
        let mut sim = Simulator::new(analysis, top)?;
        sim.run_initial()?;
        model.reset();
        Ok(Bench { sim, model, clocking })
    }

    /// Drives stimulus cycle `cycle` (poke `inputs`, then settle or clock),
    /// steps the golden model and compares every output it names. Returns
    /// how many outputs mismatched; the first mismatch of the run goes into
    /// `first`, which is left alone once it holds one.
    ///
    /// The golden model speaks for the problem's ports. A port the DUT does
    /// not declare as an output reads as all-x, and a DUT output of another
    /// width is zero-extended or truncated to the golden width, as a Verilog
    /// port connection would. Outputs are compared in the DUT's declaration
    /// order, then any the DUT lacks in the model's order.
    fn step(
        &mut self,
        cycle: usize,
        inputs: &BTreeMap<String, LogicVec>,
        first: &mut Option<Mismatch>,
    ) -> Result<usize, SimError> {
        for (name, value) in inputs {
            // Unknown ports are skipped: the golden stimulus may mention
            // ports the (possibly wrong) DUT does not declare.
            let _ = self.sim.poke(name, value.clone());
        }
        match self.clocking {
            Clocking::Combinational => self.sim.settle()?,
            Clocking::Sequential { clock } => self.sim.clock_cycle(clock)?,
        }
        let expected = self.model.step(inputs);
        let sim = &self.sim;
        let outputs = &sim.design().outputs;
        let declared = outputs.iter().filter_map(|port| {
            let (name, want) = expected.get_key_value(&port.name)?;
            Some((name, want, sim.peek(name)))
        });
        let missing = expected
            .iter()
            .filter(|(name, _)| !outputs.iter().any(|port| port.name == **name))
            .map(|(name, want)| (name, want, None));
        let mut mismatches = 0;
        for (port, want, got) in declared.chain(missing) {
            let got = match got {
                Some(got) if got.width() == want.width() => got,
                Some(got) => got.resize(want.width()),
                None => LogicVec::xs(want.width()),
            };
            // Equal widths, so case equality is structural equality.
            if got != *want {
                mismatches += 1;
                if first.is_none() {
                    *first = Some(Mismatch { cycle, port: port.clone(), got, want: want.clone() });
                }
            }
        }
        Ok(mismatches)
    }
}

/// Runs `model` against the DUT in `analysis` over every cycle of
/// `stimuli`, counting every mismatch: the full report §5's simulation
/// feedback renders.
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
    let mut bench = Bench::new(analysis, top, model, clocking)?;
    let mut mismatch_count = 0usize;
    let mut first_mismatch = None;
    for (cycle, inputs) in stimuli.iter().enumerate() {
        mismatch_count += bench.step(cycle, inputs, &mut first_mismatch)?;
    }
    Ok(TestResult {
        passed: mismatch_count == 0,
        cycles: stimuli.len(),
        mismatch_count,
        first_mismatch,
    })
}

/// [`run_testbench`] for a verdict: stops at the first mismatching cycle
/// and returns that cycle's first mismatch, or `None` once every cycle
/// matched.
///
/// It drives a prefix of the cycles the full run drives, in the same
/// order: it returns a mismatch exactly when [`run_testbench`] would report
/// one or fail with a [`SimError`] after one, and `None` only where the
/// full run passes, so a pass still needs every cycle. Frames are pulled
/// from `stimuli` one cycle at a time, after the DUT is set up, and none
/// past the first mismatching cycle, so a lazy iterator builds only the
/// frames the verdict reads.
///
/// # Errors
///
/// Returns [`TestbenchError`] if the DUT fails to elaborate, or fails to
/// simulate before its first mismatch.
pub fn run_until_mismatch<I>(
    analysis: &Analysis,
    top: &str,
    model: &mut dyn ReferenceModel,
    stimuli: I,
    clocking: &Clocking,
) -> Result<Option<Mismatch>, TestbenchError>
where
    I: IntoIterator,
    I::Item: Borrow<BTreeMap<String, LogicVec>>,
{
    let _simulate_span = rtlfixer_obs::span(rtlfixer_obs::kind::SIMULATE);
    let mut bench = Bench::new(analysis, top, model, clocking)?;
    let mut first = None;
    for (cycle, inputs) in stimuli.into_iter().enumerate() {
        if bench.step(cycle, inputs.borrow(), &mut first)? > 0 {
            break;
        }
    }
    Ok(first)
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

    /// A random [`LogicVec`] of `width` bits (no x bits): one draw per
    /// 64-bit limb, low limb first, with the top limb's spare bits dropped.
    pub fn next_vec(&mut self, width: u32) -> LogicVec {
        if width <= 64 {
            return LogicVec::from_u64(width, self.next_u64());
        }
        let limbs: Vec<u64> = (0..width.div_ceil(64)).map(|_| self.next_u64()).collect();
        LogicVec::from_limbs(width, &limbs)
    }
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
    fn verdict_run_stops_at_the_first_mismatching_cycle() {
        // DUT computes AND, golden wants OR: they differ only where a != b.
        let analysis = compile(
            "module orr(input a, input b, output y); assign y = a & b; endmodule",
        );
        let stimuli = vec![
            inputs(&[("a", 1, 1), ("b", 1, 1)]),
            inputs(&[("a", 1, 0), ("b", 1, 0)]),
            inputs(&[("a", 1, 1), ("b", 1, 0)]),
            inputs(&[("a", 1, 0), ("b", 1, 1)]),
            inputs(&[("a", 1, 1), ("b", 1, 1)]),
        ];
        let steps = std::cell::Cell::new(0);
        let mut model = |ins: &BTreeMap<String, LogicVec>| {
            steps.set(steps.get() + 1);
            BTreeMap::from([("y".to_owned(), ins["a"].or(&ins["b"]))])
        };
        let pulled = std::cell::Cell::new(0);
        let frames = stimuli.iter().cloned().inspect(|_| pulled.set(pulled.get() + 1));
        let first =
            run_until_mismatch(&analysis, "orr", &mut model, frames, &Clocking::Combinational)
                .unwrap();
        assert_eq!(steps.get(), 3, "cycles after the first mismatch must not run");
        assert_eq!(pulled.get(), 3, "frames after the first mismatch must not be pulled");
        let full =
            run_testbench(&analysis, "orr", &mut model, &stimuli, &Clocking::Combinational)
                .unwrap();
        assert_eq!(full.mismatch_count, 2);
        assert_eq!(first, full.first_mismatch);
        assert_eq!(first.map(|m| m.cycle), Some(2));
    }

    #[test]
    fn verdict_run_needs_every_cycle_to_pass() {
        let analysis =
            compile("module inv(input [3:0] a, output [3:0] y); assign y = ~a; endmodule");
        let steps = std::cell::Cell::new(0);
        let mut model = |ins: &BTreeMap<String, LogicVec>| {
            steps.set(steps.get() + 1);
            BTreeMap::from([("y".to_owned(), ins["a"].not())])
        };
        let stimuli: Vec<_> = (0..16).map(|i| inputs(&[("a", 4, i)])).collect();
        let first =
            run_until_mismatch(&analysis, "inv", &mut model, &stimuli, &Clocking::Combinational)
                .unwrap();
        assert_eq!(first, None);
        assert_eq!(steps.get(), 16);
    }

    #[test]
    fn outputs_are_judged_on_the_models_ports() {
        // The golden model names `y` (8 bits); the DUT's own ports do not
        // decide what is compared.
        let mut model = |ins: &BTreeMap<String, LogicVec>| {
            BTreeMap::from([("y".to_owned(), ins["a"].clone())])
        };
        let stimuli = vec![inputs(&[("a", 8, 0xA5)])];
        let run = |source: &str, model: &mut dyn ReferenceModel| {
            let analysis = compile(source);
            run_testbench(&analysis, "m", model, &stimuli, &Clocking::Combinational).unwrap()
        };
        // An internal net named `y` is not an output port: it reads as x.
        let hidden = run(
            "module m(input [7:0] a); wire [7:0] y; assign y = a; endmodule",
            &mut model,
        );
        let mm = hidden.first_mismatch.expect("a missing output mismatches");
        assert_eq!((mm.port.as_str(), mm.got), ("y", LogicVec::xs(8)));
        // A narrower port is zero-extended to the golden width.
        let narrow = run(
            "module m(input [7:0] a, output [3:0] y); assign y = a; endmodule",
            &mut model,
        );
        let mm = narrow.first_mismatch.expect("the high nibble is lost");
        assert_eq!(mm.got, LogicVec::from_u64(8, 0x05));
        // A wider port is truncated, and outputs the model does not name
        // are ignored.
        let wide = run(
            "module m(input [7:0] a, output [11:0] y, output z); \
             assign y = {4'hF, a}; assign z = 1'b1; endmodule",
            &mut model,
        );
        assert!(wide.passed, "{:?}", wide.first_mismatch);
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
        let draw = |seed| {
            let mut rng = Xorshift::new(seed);
            [8, 16, 100].map(|width| rng.next_vec(width))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// The bit-at-a-time generator `next_vec` replaced: the specification
    /// its whole-limb fill must reproduce.
    fn next_vec_by_bits(rng: &mut Xorshift, width: u32) -> LogicVec {
        let mut v = LogicVec::zeros(width);
        let mut i = 0;
        while i < width {
            let chunk = rng.next_u64();
            for k in 0..64.min(width - i) {
                if (chunk >> k) & 1 == 1 {
                    v.set_bit(i + k, crate::value::Bit::One);
                }
            }
            i += 64;
        }
        v
    }

    #[test]
    fn next_vec_matches_the_bitwise_oracle() {
        for seed in [0, 1, 7, 0xC0FFEE, 12345] {
            let (mut fast, mut oracle) = (Xorshift::new(seed), Xorshift::new(seed));
            for width in (1..=260).chain([511, 512, 513]) {
                assert_eq!(
                    fast.next_vec(width),
                    next_vec_by_bits(&mut oracle, width),
                    "seed {seed}, width {width}"
                );
            }
        }
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
