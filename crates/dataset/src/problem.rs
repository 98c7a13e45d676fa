//! Benchmark problem definitions and candidate verification.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rtlfixer_sim::testbench::{run_until_mismatch, Clocking, TestbenchError, Xorshift};
use rtlfixer_sim::value::LogicVec;
use rtlfixer_sim::{ReferenceModel, SimBackends};

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
    /// Verdicts [`check_seeded`](Problem::check_seeded) has already
    /// computed, shared by this problem's clones.
    pub verdicts: VerdictMemo,
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

/// How [`Problem::stimuli`] drives an input besides its random draw.
enum Drive {
    Random,
    /// Held high for two cycles, then pulsed every 17th cycle.
    Reset,
    /// Held high except every 4th cycle.
    Enable,
}

impl Drive {
    fn of(name: &str) -> Drive {
        let lname = name.to_lowercase();
        if lname.contains("reset") || lname == "rst" || lname.starts_with("rst_") {
            Drive::Reset
        } else if lname == "en" || lname == "enable" || lname == "we" {
            Drive::Enable
        } else {
            Drive::Random
        }
    }
}

impl Problem {
    /// Deterministic stimulus for this problem. Reset-like inputs are held
    /// high for the first two cycles then mostly low, so sequential designs
    /// start from a defined state.
    pub fn stimuli(&self, seed: u64) -> Vec<BTreeMap<String, LogicVec>> {
        self.frames(seed).collect()
    }

    /// [`stimuli`](Problem::stimuli), one frame per cycle, each built when
    /// it is pulled: a check that stops at its first mismatching cycle
    /// builds no frame after it.
    fn frames(&self, seed: u64) -> impl Iterator<Item = BTreeMap<String, LogicVec>> + '_ {
        let drives: Vec<Drive> = self.inputs.iter().map(|(name, _)| Drive::of(name)).collect();
        let first_width = self.inputs.first().map_or(0, |&(_, width)| width);
        let mut rng = Xorshift::new(seed);
        (0..self.test_cycles).map(move |cycle| {
            let mut frame = BTreeMap::new();
            // On copy cycles, the first input's draw: every input computes
            // its pattern, so input 0 fills this before any other reads it.
            let mut copied: Option<LogicVec> = None;
            for ((name, width), drive) in self.inputs.iter().zip(&drives) {
                // Every input draws every cycle, overridden or not, so each
                // value comes from the same stream position.
                let drawn = rng.next_vec(*width);
                // Structured corner patterns sharpen functional coverage
                // beyond random vectors: all-zeros, all-ones, and
                // equal-operand cycles (comparator/absdiff-style bugs only
                // show on equal inputs).
                let pattern = match cycle % 11 {
                    5 => LogicVec::zeros(*width),
                    7 => LogicVec::from_u128(*width, u128::MAX),
                    9 => {
                        let first = copied.get_or_insert_with(|| drawn.clone());
                        if *width == first_width {
                            first.clone()
                        } else {
                            drawn
                        }
                    }
                    _ => drawn,
                };
                let value = match drive {
                    // Occasional mid-run reset pulses exercise the reset
                    // path; keep them rare.
                    Drive::Reset => {
                        LogicVec::from_u64(*width, u64::from(cycle < 2 || cycle % 17 == 0))
                    }
                    // Bias enables toward 1 so the datapath moves.
                    Drive::Enable if cycle % 4 != 3 => LogicVec::from_u64(*width, 1),
                    _ => pattern,
                };
                frame.insert(name.clone(), value);
            }
            frame
        })
    }

    /// Compiles and simulates `code` against the golden model.
    pub fn check(&self, code: &str) -> Verdict {
        self.check_seeded(code, 0xC0FFEE)
    }

    /// [`check`](Problem::check) with an explicit stimulus seed.
    ///
    /// A verdict is a pure function of the source, the seed, the simulator
    /// backends and the problem, so each is computed once: the pass@k
    /// harness meets the same source again when a sample reproduces the
    /// solution or a repair converges on one, and the §5 debugger checks
    /// each bug twice. The memo follows the `RTLFIXER_CACHE` switch.
    pub fn check_seeded(&self, code: &str, seed: u64) -> Verdict {
        if !rtlfixer_cache::enabled() {
            MEMO_BYPASSED.fetch_add(1, Ordering::Relaxed);
            return self.simulate(code, seed);
        }
        let key = (seed, rtlfixer_sim::sim_backends(), rtlfixer_verilog::source_fingerprint(code));
        if let Some(verdict) = self.verdicts.get(self, &key) {
            MEMO_HITS.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
        let verdict = self.simulate(code, seed);
        self.verdicts.insert(self, key, verdict.clone());
        verdict
    }

    /// The uncached verdict: compile, elaborate and run the testbench up to
    /// its first mismatching cycle.
    fn simulate(&self, code: &str, seed: u64) -> Verdict {
        // Shared compile: the frontend runs once per source.
        let analysis = rtlfixer_verilog::compile_shared(code);
        if !analysis.is_ok() || analysis.file.module(&self.top).is_none() {
            return Verdict::CompileError;
        }
        let mut golden = (self.golden)();
        let frames = self.frames(seed);
        match run_until_mismatch(&analysis, &self.top, golden.as_mut(), frames, &self.clocking) {
            Ok(None) => Verdict::Pass,
            // A design that compiles but cannot be simulated (it oscillates)
            // is functionally wrong, not a syntax error.
            Ok(Some(_)) | Err(TestbenchError::Sim(_)) => Verdict::SimMismatch,
            Err(TestbenchError::Elab(_)) => Verdict::CompileError,
        }
    }

    /// Whether this is a clocked problem.
    pub fn is_sequential(&self) -> bool {
        matches!(self.clocking, Clocking::Sequential { .. })
    }
}

/// Key of one memoised verdict: stimulus seed, simulator backends and the
/// source's content hash.
type MemoKey = (u64, SimBackends, u128);

/// Most verdicts one problem's memo holds; a full memo is cleared
/// wholesale, like an artifact-cache shard. A Table 2 pass checks at most
/// two sources per sample.
const MEMO_CAPACITY: usize = 256;

static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static MEMO_MISSES: AtomicU64 = AtomicU64::new(0);
static MEMO_BYPASSED: AtomicU64 = AtomicU64::new(0);
static MEMO_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static MEMO_ENTRIES: AtomicUsize = AtomicUsize::new(0);

/// Hit/miss/bypass counters of every problem's verdict memo, summed over
/// the process; `entries` counts the verdicts held by live problems.
pub fn verdict_memo_stats() -> rtlfixer_cache::CacheStats {
    rtlfixer_cache::CacheStats {
        hits: MEMO_HITS.load(Ordering::Relaxed),
        misses: MEMO_MISSES.load(Ordering::Relaxed),
        bypassed: MEMO_BYPASSED.load(Ordering::Relaxed),
        evictions: MEMO_EVICTIONS.load(Ordering::Relaxed),
        entries: MEMO_ENTRIES.load(Ordering::Relaxed),
    }
}

/// A problem's memo of verdicts, shared by its clones and dropped with the
/// last of them. It answers only for the problem fields it was filled
/// under: a check by a problem whose fields differ misses, and its verdict
/// replaces the memo's contents.
#[derive(Clone, Default)]
pub struct VerdictMemo(Arc<Mutex<MemoTable>>);

#[derive(Default)]
struct MemoTable {
    /// The fields of the problem the verdicts below were computed under.
    stamp: Option<Stamp>,
    verdicts: HashMap<MemoKey, Verdict>,
}

/// Every field of a [`Problem`] a verdict depends on.
struct Stamp {
    top: String,
    inputs: Vec<(String, u32)>,
    clocking: Clocking,
    test_cycles: usize,
    /// Held, so its address cannot be reused by another model.
    golden: GoldenFactory,
}

impl Stamp {
    fn of(problem: &Problem) -> Stamp {
        Stamp {
            top: problem.top.clone(),
            inputs: problem.inputs.clone(),
            clocking: problem.clocking.clone(),
            test_cycles: problem.test_cycles,
            golden: Arc::clone(&problem.golden),
        }
    }

    fn matches(&self, problem: &Problem) -> bool {
        self.test_cycles == problem.test_cycles
            && std::ptr::addr_eq(Arc::as_ptr(&self.golden), Arc::as_ptr(&problem.golden))
            && self.top == problem.top
            && self.inputs == problem.inputs
            && self.clocking == problem.clocking
    }
}

impl MemoTable {
    fn clear(&mut self) {
        let dropped = self.verdicts.len();
        self.verdicts.clear();
        MEMO_ENTRIES.fetch_sub(dropped, Ordering::Relaxed);
        MEMO_EVICTIONS.fetch_add(dropped as u64, Ordering::Relaxed);
    }
}

impl Drop for MemoTable {
    fn drop(&mut self) {
        MEMO_ENTRIES.fetch_sub(self.verdicts.len(), Ordering::Relaxed);
    }
}

impl VerdictMemo {
    fn table(&self) -> std::sync::MutexGuard<'_, MemoTable> {
        // No simulation runs under the lock, and every update leaves the
        // table consistent, so a poisoned lock is still a valid memo.
        self.0.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn get(&self, problem: &Problem, key: &MemoKey) -> Option<Verdict> {
        let table = self.table();
        match &table.stamp {
            Some(stamp) if stamp.matches(problem) => table.verdicts.get(key).cloned(),
            _ => None,
        }
    }

    fn insert(&self, problem: &Problem, key: MemoKey, verdict: Verdict) {
        let mut table = self.table();
        if !table.stamp.as_ref().is_some_and(|stamp| stamp.matches(problem)) {
            table.clear();
            table.stamp = Some(Stamp::of(problem));
        }
        if !table.verdicts.contains_key(&key) && table.verdicts.len() >= MEMO_CAPACITY {
            table.clear();
        }
        if table.verdicts.insert(key, verdict).is_none() {
            MEMO_ENTRIES.fetch_add(1, Ordering::Relaxed);
        }
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
            verdicts: VerdictMemo::default(),
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

    #[test]
    fn a_check_pulls_frames_only_up_to_its_first_mismatch() {
        let p = inverter_problem();
        // Wrong only on the all-zeros input, which cycle 5 drives.
        let code = "module top_module(input [7:0] a, output [7:0] y);\n\
                    assign y = (a == 8'd0) ? 8'd0 : ~a;\nendmodule";
        let analysis = rtlfixer_verilog::compile(code);
        let seed = 0xC0FFEE;
        let full = rtlfixer_sim::run_testbench(
            &analysis,
            &p.top,
            (p.golden)().as_mut(),
            &p.stimuli(seed),
            &p.clocking,
        )
        .expect("simulates");
        let cycle = full.first_mismatch.expect("mismatches").cycle;
        assert!(cycle > 0, "the mismatch must leave frames unread");
        let pulled = std::cell::Cell::new(0);
        let frames = p.frames(seed).inspect(|_| pulled.set(pulled.get() + 1));
        let first =
            run_until_mismatch(&analysis, &p.top, (p.golden)().as_mut(), frames, &p.clocking)
                .expect("simulates");
        assert_eq!(first.map(|m| m.cycle), Some(cycle));
        assert_eq!(pulled.get(), cycle + 1);
        assert_eq!(p.check_seeded(code, seed), Verdict::SimMismatch);
    }

    #[test]
    fn oscillating_design_is_sim_mismatch_not_compile_error() {
        use rtlfixer_compilers::CompilerKind;
        let p = crate::suites::find_problem("human/and8").expect("exists");
        let code = p.solution.replace(
            "endmodule",
            "wire osc_n;\nassign osc_n = ~osc_n;\nendmodule",
        );
        for kind in [CompilerKind::Quartus, CompilerKind::Iverilog] {
            assert!(kind.build().compile(&code, "top_module.v").success, "{kind:?}");
        }
        assert_eq!(p.check(&code), Verdict::SimMismatch);
    }

    #[test]
    fn designs_missing_the_problems_output_are_sim_mismatch() {
        // `human/and8` wants an 8-bit `y = a & b`. Each design below keeps
        // the logic but not the port: no output, `y` renamed, `y` 4 bits.
        let p = crate::suites::find_problem("human/and8").expect("exists");
        for code in [
            "module top_module(input [7:0] a, input [7:0] b);\n\
             wire [7:0] y;\nassign y = a & b;\nendmodule",
            "module top_module(input [7:0] a, input [7:0] b, output [7:0] zz);\n\
             assign zz = a & b;\nendmodule",
            "module top_module(input [7:0] a, input [7:0] b, output [3:0] y);\n\
             assign y = a & b;\nendmodule",
        ] {
            assert!(rtlfixer_verilog::compile(code).is_ok(), "{code}");
            assert_eq!(p.check(code), Verdict::SimMismatch, "{code}");
        }
    }

    /// The stimulus builder `stimuli` replaced: a random frame per cycle
    /// drawn bit by bit, then overwritten in place by the corner patterns
    /// and the reset/enable shaping. The specification it must reproduce.
    fn stimuli_oracle(p: &Problem, seed: u64) -> Vec<BTreeMap<String, LogicVec>> {
        let mut rng = Xorshift::new(seed);
        let mut next_vec = |width: u32| {
            let mut v = LogicVec::zeros(width);
            let mut i = 0;
            while i < width {
                let chunk = rng.next_u64();
                for k in 0..64.min(width - i) {
                    if (chunk >> k) & 1 == 1 {
                        v.set_bit(i + k, rtlfixer_sim::value::Bit::One);
                    }
                }
                i += 64;
            }
            v
        };
        let mut stimuli: Vec<BTreeMap<String, LogicVec>> = (0..p.test_cycles)
            .map(|_| p.inputs.iter().map(|(name, width)| (name.clone(), next_vec(*width))).collect())
            .collect();
        for (cycle, frame) in stimuli.iter_mut().enumerate() {
            match cycle % 11 {
                5 => {
                    for (name, width) in &p.inputs {
                        frame.insert(name.clone(), LogicVec::from_u64(*width, 0));
                    }
                }
                7 => {
                    for (name, width) in &p.inputs {
                        frame.insert(name.clone(), LogicVec::from_u128(*width, u128::MAX));
                    }
                }
                9 => {
                    if let Some((first_name, first_width)) = p.inputs.first().cloned() {
                        let value = frame
                            .get(&first_name)
                            .cloned()
                            .unwrap_or_else(|| LogicVec::zeros(first_width.max(1)));
                        for (name, width) in &p.inputs {
                            if *width == first_width {
                                frame.insert(name.clone(), value.clone());
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        for (name, width) in &p.inputs {
            let lname = name.to_lowercase();
            let is_reset = lname.contains("reset") || lname == "rst" || lname.starts_with("rst_");
            let is_enable = lname == "en" || lname == "enable" || lname == "we";
            if is_reset {
                for (cycle, frame) in stimuli.iter_mut().enumerate() {
                    let value = if cycle < 2 { 1 } else { u64::from(cycle % 17 == 0) };
                    frame.insert(name.clone(), LogicVec::from_u64(*width, value));
                }
            } else if is_enable {
                for (cycle, frame) in stimuli.iter_mut().enumerate() {
                    if cycle % 4 != 3 {
                        frame.insert(name.clone(), LogicVec::from_u64(*width, 1));
                    }
                }
            }
        }
        stimuli
    }

    #[test]
    fn stimuli_match_the_oracle_on_every_suite_problem() {
        // A synthetic problem adds what the suites may lack: multi-limb
        // and >128-bit inputs, an enable and a reset that is not first.
        let mut mixed = inverter_problem();
        mixed.inputs = [("a", 8), ("b", 8), ("en", 1), ("rst_n", 1), ("w", 200), ("c", 70)]
            .map(|(name, width)| (name.to_owned(), width))
            .to_vec();
        mixed.test_cycles = 96;
        let problems = crate::suites::verilog_eval_human()
            .into_iter()
            .chain(crate::suites::verilog_eval_machine())
            .chain(crate::suites::rtllm())
            .chain([mixed]);
        for p in problems {
            for seed in [0xC0FFEE, 12345, 0, 1, 7, u64::MAX] {
                assert_eq!(p.stimuli(seed), stimuli_oracle(&p, seed), "{} seed {seed}", p.id);
            }
        }
    }
}
