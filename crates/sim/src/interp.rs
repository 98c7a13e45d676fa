//! The simulation interpreter: executes the interned execution form
//! ([`crate::lower::Kernel`]) compiled from an elaborated [`Design`], with
//! two-phase (non-blocking) sequential semantics and settle-to-fixpoint
//! combinational evaluation.
//!
//! Compared with the tree-walking interpreter it replaced, the hot loop is
//! allocation-free and event-driven:
//!
//! * Signal state lives in a dense `Vec<StateValue>` slab indexed by
//!   interned `SigId`s; procedural locals live in a reusable `Vec<LogicVec>`
//!   scratch slab indexed by `LocalId`s. No per-sweep `HashMap` clones.
//! * [`Simulator::settle`] is sensitivity-driven: every write marks the
//!   target signal dirty, and a combinational process is only re-run when a
//!   signal in its (statically computed) sensitivity set — everything it may
//!   read *or* write, including transitively through functions — was marked
//!   dirty by the previous sweep, the current sweep, or an external event
//!   (`poke`/`edge`/NBA commit). The write set is part of the sensitivity
//!   set because a read-modify-write target is an input to its own process.
//! * Fixpoint detection compares only the signals actually written during a
//!   sweep against a first-touch snapshot, which is equivalent to the old
//!   whole-state compare (untouched signals cannot differ).
//!
//! * When a process carries a compiled tape ([`crate::tape`]), execution
//!   dispatches over its flat register bytecode instead of walking the
//!   `KExpr` tree — same semantics, no per-evaluation recursion. When the
//!   input cone is x-free, the tape's two-state variant runs first, over
//!   1-, 2- or 4-limb `u64` registers; one interpreted loop
//!   ([`crate::fast`]) runs every register class.
//!
//! Setting `RTLFIXER_SIM_EVENT=0` (or `off`/`false`) disables the
//! event-driven filter and re-runs every combinational process each sweep;
//! `RTLFIXER_SIM_TAPE=0` (or `off`/`false`) disables tape execution and
//! walks the trees. Both are reference fallbacks that must produce
//! bit-identical results. `RTLFIXER_SIM_WIDE=0` builds only 1-limb
//! two-state tapes.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use rtlfixer_verilog::ast::{AssignOp, BinaryOp, CaseKind, Edge, SelectMode, UnaryOp};

use crate::elab::Design;
use crate::lower::{
    KBase, KExpr, KExprKind, KLval, KProc, KProcBody, KStmt, KVarRef, Kernel, SigId,
};
use crate::tape::{Op, Tape, TapeStats};
use crate::value::{Bit, LogicVec, ReduceOp};

/// Maximum iterations of the combinational settle loop before the design is
/// declared unstable (combinational oscillation).
const MAX_SETTLE: usize = 64;
/// Maximum iterations of any procedural loop.
pub(crate) const MAX_LOOP: usize = 65_536;
/// Maximum user-function call depth.
const MAX_CALL_DEPTH: usize = 32;

/// One stored signal: a plain vector or a memory array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateValue {
    /// Packed vector.
    Vec(LogicVec),
    /// Memory (unpacked array of words).
    Array(Vec<LogicVec>),
}

/// A resolved non-blocking write target.
#[derive(Debug, Clone)]
pub(crate) enum Target {
    Whole(SigId),
    Bits(SigId, u32, u32),
    Word(SigId, usize),
    WordBits(SigId, usize, u32, u32),
}

/// A scheduled non-blocking write.
#[derive(Debug, Clone)]
pub(crate) struct NbaWrite {
    pub(crate) target: Target,
    pub(crate) value: LogicVec,
}

/// Simulation-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Combinational logic failed to reach a fixpoint. `signals` names the
    /// nets still toggling in the final sweep (empty only if unknown).
    Unstable {
        /// Signals that changed value in the last settle sweep, sorted.
        signals: Vec<String>,
    },
    /// Referenced port does not exist.
    NoSuchPort(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Unstable { signals } => {
                write!(f, "combinational logic did not settle")?;
                if !signals.is_empty() {
                    write!(
                        f,
                        " (still toggling after {MAX_SETTLE} sweeps: {})",
                        signals.join(", ")
                    )?;
                }
                Ok(())
            }
            SimError::NoSuchPort(name) => write!(f, "no such port '{name}'"),
        }
    }
}

impl std::error::Error for SimError {}

// ---- dirty tracking ---------------------------------------------------------

/// A fixed-capacity bitset over `SigId`s.
#[derive(Debug, Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> BitSet {
        BitSet { words: vec![0; bits.div_ceil(64)] }
    }

    /// All bits set (trailing bits past `bits` are harmless: no `SigId`
    /// maps to them).
    fn all(bits: usize) -> BitSet {
        BitSet { words: vec![u64::MAX; bits.div_ceil(64)] }
    }

    fn get(&self, i: SigId) -> bool {
        (self.words[i as usize / 64] >> (i % 64)) & 1 == 1
    }

    fn set(&mut self, i: SigId) {
        self.words[i as usize / 64] |= 1u64 << (i % 64);
    }

    fn clear(&mut self, i: SigId) {
        self.words[i as usize / 64] &= !(1u64 << (i % 64));
    }

    fn clear_all(&mut self) {
        self.words.fill(0);
    }
}

/// Per-sweep change journal: `touched` records a first-touch snapshot of
/// every signal written this sweep (deduplicated through `mask`) so the
/// fixpoint check can compare exactly the slots that might have changed.
pub(crate) struct SweepLog<'a> {
    mask: &'a mut BitSet,
    touched: &'a mut Vec<(SigId, StateValue)>,
}

/// Write observer threaded through execution: every value-changing signal
/// write sets its dirty bit (scheduling dependent processes), and — during a
/// settle sweep — journals the pre-write value.
pub(crate) struct WriteLog<'a> {
    dirty: &'a mut BitSet,
    sweep: Option<SweepLog<'a>>,
}

/// Records that `id` is about to change. Must be called *before* the state
/// slot is mutated (the sweep journal snapshots the old value).
pub(crate) fn note_change(state: &[StateValue], log: &mut Option<WriteLog<'_>>, id: SigId) {
    if let Some(log) = log {
        log.dirty.set(id);
        if let Some(sweep) = &mut log.sweep {
            if !sweep.mask.get(id) {
                sweep.mask.set(id);
                sweep.touched.push((id, state[id as usize].clone()));
            }
        }
    }
}

/// Replaces `state[id]` with `new`, skipping (and not logging) no-op writes.
pub(crate) fn set_state(
    state: &mut [StateValue],
    log: &mut Option<WriteLog<'_>>,
    id: SigId,
    new: StateValue,
) {
    if state[id as usize] == new {
        return;
    }
    note_change(state, log, id);
    state[id as usize] = new;
}

// ---- the simulator ----------------------------------------------------------

/// In-process backend overrides (for A/B testing): 0 = follow the
/// environment, 1 = force off, 2 = force on.
static FORCE_EVENT: AtomicU8 = AtomicU8::new(0);
static FORCE_TAPE: AtomicU8 = AtomicU8::new(0);

/// Overrides the simulation backend selection for the current process,
/// bypassing the `RTLFIXER_SIM_EVENT` / `RTLFIXER_SIM_TAPE` environment
/// switches. `None` restores environment-driven behaviour. Intended for
/// in-process A/B invariance tests and benchmarks.
#[doc(hidden)]
pub fn force_sim_backends(event: Option<bool>, tape: Option<bool>) {
    let enc = |v: Option<bool>| match v {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    FORCE_EVENT.store(enc(event), Ordering::Relaxed);
    FORCE_TAPE.store(enc(tape), Ordering::Relaxed);
}

/// The simulation backends a run made now would use: the three switches
/// [`force_sim_backends`] and `RTLFIXER_SIM_{EVENT,TAPE,WIDE}` set.
/// Every selection gives bit-identical results; a memo of simulation
/// results keys on it so that a comparison between backends still
/// simulates under each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimBackends {
    /// Event-driven settle (off: full sweeps).
    pub event: bool,
    /// Compiled-tape execution (off: the tree walker).
    pub tape: bool,
    /// Multi-limb fast tapes (off: scalar-only).
    pub wide: bool,
}

/// Reads the current backend selection (see [`SimBackends`]).
pub fn sim_backends() -> SimBackends {
    SimBackends { event: event_driven(), tape: tape_enabled(), wide: wide_enabled() }
}

/// Returns whether the event-driven settle filter is enabled (default yes;
/// `RTLFIXER_SIM_EVENT=0|off|false` forces the full-sweep fallback).
fn event_driven() -> bool {
    static MODE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    match FORCE_EVENT.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *MODE.get_or_init(|| {
            !matches!(
                std::env::var("RTLFIXER_SIM_EVENT").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            )
        }),
    }
}

/// Returns whether compiled-tape execution is enabled (default yes;
/// `RTLFIXER_SIM_TAPE=0|off|false` forces the tree-walking kernel).
fn tape_enabled() -> bool {
    static MODE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    match FORCE_TAPE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => *MODE.get_or_init(|| {
            !matches!(
                std::env::var("RTLFIXER_SIM_TAPE").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            )
        }),
    }
}

/// Returns whether multi-limb (2/4-limb) fast tapes may be built (default
/// yes; `RTLFIXER_SIM_WIDE=0|off|false` restores the scalar-only fast
/// path). Consulted at tape build time.
pub(crate) fn wide_enabled() -> bool {
    static MODE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        !matches!(std::env::var("RTLFIXER_SIM_WIDE").as_deref(), Ok("0") | Ok("off") | Ok("false"))
    })
}

/// A cycle-level simulator over an elaborated design.
///
/// # Examples
///
/// ```
/// use rtlfixer_sim::{Simulator, value::LogicVec};
/// use rtlfixer_verilog::compile;
///
/// let analysis = compile("module inv(input [3:0] a, output [3:0] y);
///                         assign y = ~a; endmodule");
/// let mut sim = Simulator::new(&analysis, "inv")?;
/// sim.poke("a", LogicVec::from_u64(4, 0b1010))?;
/// sim.settle()?;
/// assert_eq!(sim.peek("y").unwrap().to_u64(), Some(0b0101));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    design: Arc<Design>,
    kernel: Arc<Kernel>,
    /// Signal state slab, indexed by `SigId`.
    state: Vec<StateValue>,
    /// Signals dirtied before the current sweep (previous sweep's toggles
    /// plus pending external writes). All-ones after construction/reset.
    prev_dirty: BitSet,
    /// Signals dirtied during the current sweep.
    curr_dirty: BitSet,
    /// Scratch: dedup mask for `touched`.
    touched_mask: BitSet,
    /// Scratch: first-touch snapshots of signals written this sweep.
    touched: Vec<(SigId, StateValue)>,
    /// Scratch: non-blocking assignment queue (reused across edges).
    nba: Vec<NbaWrite>,
    /// Scratch: procedural locals slab (reused across processes).
    locals: Vec<LogicVec>,
    /// Scratch buffers for tape execution (reused across processes).
    scratch: TapeScratch,
    /// Two-state fast-path runs completed without falling back.
    fast_hits: u64,
    /// Two-state fast-path runs that fell back to four-state ops.
    fast_falls: u64,
    /// Counter deltas not yet flushed to `rtlfixer-obs`.
    pending_hits: u64,
    pending_falls: u64,
}

/// Reusable register files and queues for the tape executors.
#[derive(Debug, Clone, Default)]
struct TapeScratch {
    /// Four-state virtual registers (`[0, nlocals)` alias the locals slab).
    regs: Vec<LogicVec>,
    /// Loop counters.
    ctrs: Vec<u64>,
    /// Two-state registers.
    fregs: Vec<u64>,
    /// Two-state loop counters.
    fctrs: Vec<u64>,
    /// Original cone values captured by the fast prologue.
    forig: Vec<u64>,
    /// Non-blocking writes buffered by a fast run, committed on success.
    fnba: Vec<NbaWrite>,
}

impl Simulator {
    /// Elaborates `top` and initialises all signals to zero.
    ///
    /// Elaboration goes through the process-wide
    /// [`crate::elab::elaborate_shared`] cache, so repeated simulations of
    /// the same source share one immutable [`Design`] (and its lowered
    /// kernel) and only the mutable signal state is per-simulator.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`crate::elab::ElabError`] if the design does
    /// not elaborate.
    pub fn new(
        analysis: &rtlfixer_verilog::Analysis,
        top: &str,
    ) -> Result<Simulator, crate::elab::ElabError> {
        Ok(Simulator::from_design(crate::elab::elaborate_shared(analysis, top)?))
    }

    /// Builds a simulator over an already-elaborated (shared) design, with
    /// all signals initialised to zero. The design is lowered to its kernel
    /// form on first use and the kernel is cached on the design, so further
    /// simulators over the same `Arc<Design>` skip straight to state setup.
    pub fn from_design(design: Arc<Design>) -> Simulator {
        let kernel =
            Arc::clone(design.lowered.0.get_or_init(|| Arc::new(crate::lower::lower(&design))));
        let state = Self::zero_state(&kernel);
        let n = kernel.sigs.len();
        Simulator {
            design,
            kernel,
            state,
            prev_dirty: BitSet::all(n),
            curr_dirty: BitSet::new(n),
            touched_mask: BitSet::new(n),
            touched: Vec::new(),
            nba: Vec::new(),
            locals: Vec::new(),
            scratch: TapeScratch::default(),
            fast_hits: 0,
            fast_falls: 0,
            pending_hits: 0,
            pending_falls: 0,
        }
    }

    /// Tape-compilation statistics for this design's kernel (lower-once,
    /// shared across simulators of the same design).
    pub fn tape_stats(&self) -> TapeStats {
        self.kernel.tape_stats
    }

    /// Two-state fast-path runtime counters accumulated by this simulator:
    /// `(hits, fallbacks)` — runs completed entirely in two-state mode vs
    /// runs that re-executed on the four-state ops after x/z entered the
    /// input cone.
    pub fn tape_runtime(&self) -> (u64, u64) {
        (self.fast_hits, self.fast_falls)
    }

    /// Resets every signal (and memory word) back to zero — the state a
    /// fresh simulator starts from. Re-run [`Simulator::run_initial`]
    /// afterwards to re-apply `initial` blocks.
    pub fn reset_state(&mut self) {
        self.state = Self::zero_state(&self.kernel);
        let n = self.kernel.sigs.len();
        self.prev_dirty = BitSet::all(n);
        self.curr_dirty.clear_all();
        self.touched_mask.clear_all();
        self.touched.clear();
    }

    fn zero_state(kernel: &Kernel) -> Vec<StateValue> {
        kernel
            .sigs
            .iter()
            .map(|sig| {
                if sig.def.words.is_some() {
                    StateValue::Array(vec![LogicVec::zeros(sig.def.width); sig.def.word_count()])
                } else {
                    StateValue::Vec(LogicVec::zeros(sig.def.width))
                }
            })
            .collect()
    }

    /// The elaborated design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// Sets a signal (usually a top-level input) without propagation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchPort`] for unknown names.
    pub fn poke(&mut self, name: &str, value: LogicVec) -> Result<(), SimError> {
        let &id = self
            .kernel
            .by_name
            .get(name)
            .ok_or_else(|| SimError::NoSuchPort(name.to_owned()))?;
        let width = self.kernel.sigs[id as usize].def.width;
        let mut log = Some(WriteLog { dirty: &mut self.prev_dirty, sweep: None });
        set_state(&mut self.state, &mut log, id, StateValue::Vec(value.resize(width)));
        Ok(())
    }

    /// Reads a signal's current value (vectors only).
    pub fn peek(&self, name: &str) -> Option<LogicVec> {
        let &id = self.kernel.by_name.get(name)?;
        match &self.state[id as usize] {
            StateValue::Vec(v) => Some(v.clone()),
            StateValue::Array(_) => None,
        }
    }

    /// Reads one word of a memory.
    pub fn peek_word(&self, name: &str, index: usize) -> Option<LogicVec> {
        let &id = self.kernel.by_name.get(name)?;
        match &self.state[id as usize] {
            StateValue::Array(words) => words.get(index).cloned(),
            StateValue::Vec(_) => None,
        }
    }

    /// Runs `initial` processes once (blocking semantics) and settles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if combinational logic oscillates.
    pub fn run_initial(&mut self) -> Result<(), SimError> {
        let kernel = Arc::clone(&self.kernel);
        for proc in &kernel.init {
            self.run_proc(&kernel, proc, false);
        }
        self.settle()
    }

    /// Propagates combinational logic to a fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unstable`] if no fixpoint is reached within the
    /// iteration cap (combinational loop), naming the still-toggling nets.
    pub fn settle(&mut self) -> Result<(), SimError> {
        let kernel = Arc::clone(&self.kernel);
        let event = event_driven();
        let mut last_changed: Vec<SigId> = Vec::new();
        for sweep in 0..MAX_SETTLE {
            for proc in &kernel.comb {
                let run = !event
                    || proc
                        .sens
                        .iter()
                        .any(|&s| self.prev_dirty.get(s) || self.curr_dirty.get(s));
                if run {
                    self.run_proc(&kernel, proc, true);
                }
            }
            // End-of-sweep fixpoint check over exactly the slots written
            // this sweep (equivalent to the old full-state compare).
            let touched = std::mem::take(&mut self.touched);
            let mut changed = Vec::new();
            for (id, old) in touched {
                self.touched_mask.clear(id);
                if self.state[id as usize] != old {
                    changed.push(id);
                }
            }
            if changed.is_empty() {
                self.prev_dirty.clear_all();
                self.curr_dirty.clear_all();
                rtlfixer_obs::counter_add("sim.settle_sweeps", sweep as u64 + 1);
                if self.pending_hits > 0 {
                    rtlfixer_obs::counter_add("sim.tape_fast_hits", self.pending_hits);
                    self.pending_hits = 0;
                }
                if self.pending_falls > 0 {
                    rtlfixer_obs::counter_add("sim.tape_fast_fallbacks", self.pending_falls);
                    self.pending_falls = 0;
                }
                return Ok(());
            }
            std::mem::swap(&mut self.prev_dirty, &mut self.curr_dirty);
            self.curr_dirty.clear_all();
            last_changed = changed;
        }
        let mut signals: Vec<String> =
            last_changed.iter().map(|&id| kernel.sigs[id as usize].name.clone()).collect();
        signals.sort();
        signals.dedup();
        Err(SimError::Unstable { signals })
    }

    /// Applies an edge event on `signal`: updates its value, executes every
    /// sequential process sensitive to that edge (non-blocking semantics),
    /// commits, and settles.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from settling.
    pub fn edge(&mut self, signal: &str, edge: Edge) -> Result<(), SimError> {
        let kernel = Arc::clone(&self.kernel);
        let new_val = match edge {
            Edge::Pos => 1,
            Edge::Neg => 0,
        };
        if let Some(&id) = kernel.by_name.get(signal) {
            let width = kernel.sigs[id as usize].def.width;
            let mut log = Some(WriteLog { dirty: &mut self.prev_dirty, sweep: None });
            set_state(
                &mut self.state,
                &mut log,
                id,
                StateValue::Vec(LogicVec::from_u64(width, new_val)),
            );
        }
        let mut nba = std::mem::take(&mut self.nba);
        nba.clear();
        let mut locals = std::mem::take(&mut self.locals);
        let use_tape = tape_enabled();
        for proc in &kernel.seq {
            if proc.edges.iter().any(|(e, s)| *e == edge && s == signal) {
                if use_tape {
                    if let Some(tape) = &proc.tape {
                        let mut scratch = std::mem::take(&mut self.scratch);
                        let outcome = {
                            let mut log =
                                Some(WriteLog { dirty: &mut self.prev_dirty, sweep: None });
                            run_tape_auto(
                                &kernel,
                                &mut self.state,
                                tape,
                                &mut scratch,
                                &mut Some(&mut nba),
                                &mut log,
                            )
                        };
                        self.scratch = scratch;
                        match outcome {
                            Some(true) => {
                                self.fast_hits += 1;
                                self.pending_hits += 1;
                            }
                            Some(false) => {
                                self.fast_falls += 1;
                                self.pending_falls += 1;
                            }
                            None => {}
                        }
                        continue;
                    }
                }
                locals.clear();
                locals.resize(proc.nlocals as usize, LogicVec::zeros(1));
                let mut log = Some(WriteLog { dirty: &mut self.prev_dirty, sweep: None });
                exec(
                    &kernel,
                    &mut self.state,
                    &mut locals,
                    &proc.body,
                    &mut Some(&mut nba),
                    &mut log,
                    0,
                );
            }
        }
        self.locals = locals;
        for write in nba.drain(..) {
            let mut log = Some(WriteLog { dirty: &mut self.prev_dirty, sweep: None });
            commit(&mut self.state, &mut log, write);
        }
        self.nba = nba;
        self.settle()
    }

    /// One full clock cycle: inputs should already be poked. Drives `clk`
    /// low→high (triggering posedge processes) and back low (triggering any
    /// negedge processes), settling in between.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from settling.
    pub fn clock_cycle(&mut self, clk: &str) -> Result<(), SimError> {
        rtlfixer_obs::counter_add("sim.cycles", 1);
        self.settle()?;
        self.edge(clk, Edge::Pos)?;
        self.edge(clk, Edge::Neg)
    }

    /// Runs one combinational/initial process. During a settle sweep
    /// (`sweep`), writes dirty `curr_dirty` and journal into the touched
    /// log; outside a sweep they dirty `prev_dirty` as pending events.
    fn run_proc(&mut self, kernel: &Kernel, proc: &KProc, sweep: bool) {
        if tape_enabled() {
            if let Some(tape) = &proc.tape {
                // The tape assumed a vector-valued bind target at compile
                // time; if elaboration aliased it to a memory, keep the
                // tree path (which skips the copy).
                let vec_ok = match &proc.body {
                    KProcBody::BindOut { child: Some(id), .. } => {
                        matches!(self.state[*id as usize], StateValue::Vec(_))
                    }
                    _ => true,
                };
                if vec_ok {
                    let mut scratch = std::mem::take(&mut self.scratch);
                    let outcome = {
                        let mut log = Some(if sweep {
                            WriteLog {
                                dirty: &mut self.curr_dirty,
                                sweep: Some(SweepLog {
                                    mask: &mut self.touched_mask,
                                    touched: &mut self.touched,
                                }),
                            }
                        } else {
                            WriteLog { dirty: &mut self.prev_dirty, sweep: None }
                        });
                        run_tape_auto(
                            kernel,
                            &mut self.state,
                            tape,
                            &mut scratch,
                            &mut None,
                            &mut log,
                        )
                    };
                    self.scratch = scratch;
                    match outcome {
                        Some(true) => {
                            self.fast_hits += 1;
                            self.pending_hits += 1;
                        }
                        Some(false) => {
                            self.fast_falls += 1;
                            self.pending_falls += 1;
                        }
                        None => {}
                    }
                    return;
                }
            }
        }
        let mut locals = std::mem::take(&mut self.locals);
        locals.clear();
        locals.resize(proc.nlocals as usize, LogicVec::zeros(1));
        let mut log = Some(if sweep {
            WriteLog {
                dirty: &mut self.curr_dirty,
                sweep: Some(SweepLog {
                    mask: &mut self.touched_mask,
                    touched: &mut self.touched,
                }),
            }
        } else {
            WriteLog { dirty: &mut self.prev_dirty, sweep: None }
        });
        match &proc.body {
            KProcBody::Assign { lhs, rhs } => {
                let width = lval_width(kernel, &self.state, &locals, lhs);
                let value = eval_sized(kernel, &self.state, &locals, rhs, width, 0);
                assign(kernel, &mut self.state, &mut locals, lhs, value, &mut None, &mut log);
            }
            KProcBody::Block(body) => {
                exec(kernel, &mut self.state, &mut locals, body, &mut None, &mut log, 0);
            }
            KProcBody::BindIn { child, expr } => {
                let child_width = child.map_or(1, |id| kernel.sigs[id as usize].def.width);
                let value = eval_sized(kernel, &self.state, &locals, expr, child_width, 0);
                if let Some(id) = child {
                    set_state(
                        &mut self.state,
                        &mut log,
                        *id,
                        StateValue::Vec(value.resize(child_width)),
                    );
                }
            }
            KProcBody::BindOut { lhs, child } => {
                if let Some(id) = child {
                    if let StateValue::Vec(value) = &self.state[*id as usize] {
                        let value = value.clone();
                        assign(
                            kernel,
                            &mut self.state,
                            &mut locals,
                            lhs,
                            value,
                            &mut None,
                            &mut log,
                        );
                    }
                }
            }
        }
        self.locals = locals;
    }
}

// ---- expression evaluation --------------------------------------------------

/// Evaluates `expr` against the current state.
fn eval(k: &Kernel, state: &[StateValue], locals: &[LogicVec], expr: &KExpr, depth: usize) -> LogicVec {
    match &expr.kind {
        KExprKind::Const(v) => v.clone(),
        KExprKind::Local(slot) => locals[*slot as usize].clone(),
        KExprKind::Sig(id) => match &state[*id as usize] {
            StateValue::Vec(v) => v.clone(),
            StateValue::Array(_) => LogicVec::xs(1),
        },
        KExprKind::Unary { op, operand } => {
            let v = eval(k, state, locals, operand, depth);
            eval_unary(*op, v)
        }
        KExprKind::Binary { op, lhs, rhs } => {
            let a = eval(k, state, locals, lhs, depth);
            let b = eval(k, state, locals, rhs, depth);
            eval_binary(*op, &a, &b)
        }
        KExprKind::Ternary { cond, then_expr, else_expr } => {
            let c = eval(k, state, locals, cond, depth);
            match c.truthy() {
                Some(true) => eval(k, state, locals, then_expr, depth),
                Some(false) => eval(k, state, locals, else_expr, depth),
                None => {
                    // Verilog merge semantics: equal bits survive, else x.
                    let t = eval(k, state, locals, then_expr, depth);
                    let e = eval(k, state, locals, else_expr, depth);
                    merge_arms(&t, &e)
                }
            }
        }
        KExprKind::Concat(parts) => {
            let mut acc: Option<LogicVec> = None;
            for part in parts.iter() {
                let v = eval(k, state, locals, part, depth);
                acc = Some(match acc {
                    None => v,
                    Some(hi) => hi.concat(&v),
                });
            }
            acc.unwrap_or_else(|| LogicVec::zeros(1))
        }
        KExprKind::Replicate { count, value } => {
            let n = replicate_count(&eval(k, state, locals, count, depth));
            eval(k, state, locals, value, depth).replicate(n)
        }
        KExprKind::Index { base, index } => {
            let idx = eval(k, state, locals, index, depth);
            let Some(idx) = idx.to_u64().map(|v| v as i64) else {
                return LogicVec::xs(1);
            };
            eval_index(k, state, locals, base, idx, depth)
        }
        KExprKind::Select { base, left, right, mode } => {
            eval_select(k, state, locals, base, left, right, *mode, depth)
        }
        KExprKind::Call { func, args } => call_function(k, state, locals, *func, args, depth),
        KExprKind::Clog2(arg) => {
            let v = arg.as_ref().map(|a| eval(k, state, locals, a, depth));
            clog2_val(v.as_ref())
        }
        KExprKind::Pass(arg) => arg
            .as_ref()
            .map(|a| eval(k, state, locals, a, depth))
            .unwrap_or_else(|| LogicVec::xs(1)),
    }
}

/// Evaluates `expr` under an assignment context of `want` bits, applying
/// Verilog's context-determined width rules: operands of arithmetic,
/// bitwise, shift-left and conditional operators widen to the assignment
/// width *before* the operation, so carries out of the natural width are
/// preserved (`{cout, sum} = a + b`). Self-determined contexts
/// (comparisons, reductions, concatenations, indices) fall back to [`eval`].
fn eval_sized(
    k: &Kernel,
    state: &[StateValue],
    locals: &[LogicVec],
    expr: &KExpr,
    want: u32,
    depth: usize,
) -> LogicVec {
    use BinaryOp::*;
    // Verilog context sizing: the expression is evaluated at the *maximum*
    // of the assignment width and every context-determined operand's
    // natural width (a 32-bit literal divisor must not be truncated to the
    // target's 2 bits). Natural widths were precomputed at lowering.
    let target = want.max(expr.nat);
    match &expr.kind {
        KExprKind::Binary { op, lhs, rhs } => match op {
            Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | BitXnor => {
                let a = eval_sized(k, state, locals, lhs, target, depth).resize(target);
                let b = eval_sized(k, state, locals, rhs, target, depth).resize(target);
                eval_binary(*op, &a, &b).resize(target)
            }
            Shl | AShl | Shr | AShr => {
                let a = eval_sized(k, state, locals, lhs, target, depth).resize(target);
                let b = eval(k, state, locals, rhs, depth);
                eval_binary(*op, &a, &b).resize(target)
            }
            _ => eval(k, state, locals, expr, depth).resize(target),
        },
        KExprKind::Unary { op, operand } => match op {
            UnaryOp::BitNot | UnaryOp::Neg | UnaryOp::Plus => {
                let v = eval_sized(k, state, locals, operand, target, depth).resize(target);
                match op {
                    UnaryOp::BitNot => v.not(),
                    UnaryOp::Neg => v.neg(),
                    _ => v,
                }
            }
            _ => eval(k, state, locals, expr, depth).resize(target),
        },
        KExprKind::Ternary { cond, then_expr, else_expr } => {
            let c = eval(k, state, locals, cond, depth);
            match c.truthy() {
                Some(true) => eval_sized(k, state, locals, then_expr, target, depth).resize(target),
                Some(false) => eval_sized(k, state, locals, else_expr, target, depth).resize(target),
                None => eval(k, state, locals, expr, depth).resize(target),
            }
        }
        _ => eval(k, state, locals, expr, depth).resize(target),
    }
}

/// The unary-operator arm of [`eval`], shared with the tape compiler's
/// constant folder and the tape executor.
pub(crate) fn eval_unary(op: UnaryOp, v: LogicVec) -> LogicVec {
    match op {
        UnaryOp::Plus => v,
        UnaryOp::Neg => v.neg(),
        UnaryOp::Not => match v.truthy() {
            Some(b) => LogicVec::from_u64(1, (!b) as u64),
            None => LogicVec::xs(1),
        },
        UnaryOp::BitNot => v.not(),
        UnaryOp::RedAnd => v.reduce(ReduceOp::And),
        UnaryOp::RedOr => v.reduce(ReduceOp::Or),
        UnaryOp::RedXor => v.reduce(ReduceOp::Xor),
        UnaryOp::RedNand => v.reduce(ReduceOp::And).not(),
        UnaryOp::RedNor => v.reduce(ReduceOp::Or).not(),
        UnaryOp::RedXnor => v.reduce(ReduceOp::Xor).not(),
    }
}

/// Verilog merge of an x-condition ternary: equal bits survive, else x.
pub(crate) fn merge_arms(t: &LogicVec, e: &LogicVec) -> LogicVec {
    let width = t.width().max(e.width());
    let (t, e) = (t.resize(width), e.resize(width));
    LogicVec::from_bits(
        (0..width).map(|i| if t.bit(i) == e.bit(i) { t.bit(i) } else { Bit::X }),
    )
}

/// Replication-count clamp (unknown counts default to 1).
pub(crate) fn replicate_count(v: &LogicVec) -> u32 {
    v.to_u64().unwrap_or(1).clamp(1, 4096) as u32
}

/// `$clog2` result (missing/x arguments count as 0).
pub(crate) fn clog2_val(arg: Option<&LogicVec>) -> LogicVec {
    let v = arg.and_then(|v| v.to_u64()).unwrap_or(0);
    LogicVec::from_u64(32, rtlfixer_verilog::const_eval::clog2(v as i64) as u64)
}

/// Zero-based bit index into a computed value (local / expression bases).
pub(crate) fn index_bit(v: &LogicVec, idx: i64) -> LogicVec {
    if idx >= 0 && (idx as u32) < v.width() {
        v.slice(idx as u32, idx as u32)
    } else {
        LogicVec::xs(1)
    }
}

/// `(hi_idx, lo_idx)` of a part select, before offset mapping.
pub(crate) fn select_bounds(l: i64, r: i64, mode: SelectMode) -> (i64, i64) {
    match mode {
        SelectMode::Range => (l, r),
        SelectMode::IndexedUp => (l + r - 1, l),
        SelectMode::IndexedDown => (l, l - r + 1),
    }
}

/// The generic (zero-based) part-select tail of [`eval_select`].
pub(crate) fn select_generic(v: &LogicVec, hi_idx: i64, lo_idx: i64) -> LogicVec {
    let (hi, lo) = (hi_idx.max(lo_idx), hi_idx.min(lo_idx));
    if lo < 0 {
        return LogicVec::xs((hi - lo + 1) as u32);
    }
    v.slice(hi as u32, lo as u32)
}

/// One case-label comparison.
pub(crate) fn case_hit(kind: CaseKind, s: &LogicVec, l: &LogicVec) -> bool {
    match kind {
        CaseKind::Case => s.eq_case(l).to_u64() == Some(1),
        CaseKind::Casez => s.matches_wildcard(l, false),
        CaseKind::Casex => s.matches_wildcard(l, true),
    }
}

pub(crate) fn eval_binary(op: BinaryOp, a: &LogicVec, b: &LogicVec) -> LogicVec {
    use BinaryOp::*;
    let width = a.width().max(b.width());
    match op {
        Add => a.add(b),
        Sub => a.sub(b),
        Mul | Div | Mod | Pow => {
            let (Some(x), Some(y)) = (a.to_u128(), b.to_u128()) else {
                return LogicVec::xs(width);
            };
            let result = match op {
                Mul => x.wrapping_mul(y),
                Div => {
                    if y == 0 {
                        return LogicVec::xs(width);
                    }
                    x / y
                }
                Mod => {
                    if y == 0 {
                        return LogicVec::xs(width);
                    }
                    x % y
                }
                Pow => {
                    let mut acc: u128 = 1;
                    for _ in 0..y.min(128) {
                        acc = acc.wrapping_mul(x);
                    }
                    acc
                }
                _ => unreachable!(),
            };
            LogicVec::from_u128(width, result)
        }
        BitAnd => a.and(b),
        BitOr => a.or(b),
        BitXor => a.xor(b),
        BitXnor => a.xor(b).not(),
        LogAnd => match (a.truthy(), b.truthy()) {
            (Some(false), _) | (_, Some(false)) => LogicVec::from_u64(1, 0),
            (Some(true), Some(true)) => LogicVec::from_u64(1, 1),
            _ => LogicVec::xs(1),
        },
        LogOr => match (a.truthy(), b.truthy()) {
            (Some(true), _) | (_, Some(true)) => LogicVec::from_u64(1, 1),
            (Some(false), Some(false)) => LogicVec::from_u64(1, 0),
            _ => LogicVec::xs(1),
        },
        Eq => a.eq_logic(b),
        Ne => a.eq_logic(b).not(),
        CaseEq => a.eq_case(b),
        CaseNe => a.eq_case(b).not(),
        Lt => a.lt(b),
        Gt => b.lt(a),
        Le => b.lt(a).not(),
        Ge => a.lt(b).not(),
        Shl | AShl => match b.to_u64() {
            Some(n) => a.shl(n.min(u64::from(u32::MAX)) as u32),
            None => LogicVec::xs(a.width()),
        },
        Shr => match b.to_u64() {
            Some(n) => a.shr(n.min(u64::from(u32::MAX)) as u32),
            None => LogicVec::xs(a.width()),
        },
        AShr => match b.to_u64() {
            Some(n) => a.ashr(n.min(u64::from(u32::MAX)) as u32),
            None => LogicVec::xs(a.width()),
        },
    }
}

fn eval_index(
    k: &Kernel,
    state: &[StateValue],
    locals: &[LogicVec],
    base: &KBase,
    idx: i64,
    depth: usize,
) -> LogicVec {
    match base {
        KBase::Local(slot) => {
            // Locals: raw zero-based indexing.
            index_bit(&locals[*slot as usize], idx)
        }
        KBase::Sig(id) => {
            let def = &k.sigs[*id as usize].def;
            match &state[*id as usize] {
                StateValue::Array(words) => match def.word_offset(idx) {
                    Some(slot) => words[slot].clone(),
                    None => LogicVec::xs(def.width),
                },
                StateValue::Vec(v) => match def.offset(idx) {
                    Some(off) => v.slice(off, off),
                    None => LogicVec::xs(1),
                },
            }
        }
        KBase::Expr(e) => {
            // Index on a computed expression: zero-based.
            index_bit(&eval(k, state, locals, e, depth), idx)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn eval_select(
    k: &Kernel,
    state: &[StateValue],
    locals: &[LogicVec],
    base: &KBase,
    left: &KExpr,
    right: &KExpr,
    mode: SelectMode,
    depth: usize,
) -> LogicVec {
    let l = eval(k, state, locals, left, depth).to_u64().map(|v| v as i64);
    let r = eval(k, state, locals, right, depth).to_u64().map(|v| v as i64);
    let (Some(l), Some(r)) = (l, r) else { return LogicVec::xs(1) };
    let (hi_idx, lo_idx) = select_bounds(l, r, mode);
    if let KBase::Sig(id) = base {
        let def = &k.sigs[*id as usize].def;
        if let StateValue::Vec(v) = &state[*id as usize] {
            let (hi_off, lo_off) = match (def.offset(hi_idx), def.offset(lo_idx)) {
                (Some(a), Some(b)) => (a.max(b), a.min(b)),
                _ => return LogicVec::xs((hi_idx.abs_diff(lo_idx) + 1) as u32),
            };
            return v.slice(hi_off, lo_off);
        }
    }
    let v = match base {
        KBase::Local(slot) => locals[*slot as usize].clone(),
        // Only reached for memories (vector signals returned above), which
        // evaluate to a 1-bit x like any whole-array read.
        KBase::Sig(_) => LogicVec::xs(1),
        KBase::Expr(e) => eval(k, state, locals, e, depth),
    };
    select_generic(&v, hi_idx, lo_idx)
}

fn call_function(
    k: &Kernel,
    state: &[StateValue],
    locals: &[LogicVec],
    fid: u32,
    args: &[KExpr],
    depth: usize,
) -> LogicVec {
    if depth >= MAX_CALL_DEPTH {
        return LogicVec::xs(1);
    }
    let f = &k.funcs[fid as usize];
    let mut frame = vec![LogicVec::zeros(1); f.nlocals as usize];
    for ((slot, width), arg) in f.args.iter().zip(args) {
        // Arguments are evaluated in the caller's context.
        frame[*slot as usize] = eval(k, state, locals, arg, depth).resize(*width);
    }
    frame[f.ret_slot as usize] = LogicVec::zeros(f.ret_width);
    // Functions are side-effect free in our subset: execute against a state
    // clone so stray writes cannot corrupt the design.
    let mut shadow = state.to_vec();
    exec(k, &mut shadow, &mut frame, &f.body, &mut None, &mut None, depth + 1);
    frame[f.ret_slot as usize].clone()
}

// ---- statement execution -----------------------------------------------------

fn exec(
    k: &Kernel,
    state: &mut [StateValue],
    locals: &mut [LogicVec],
    stmt: &KStmt,
    nba: &mut Option<&mut Vec<NbaWrite>>,
    log: &mut Option<WriteLog<'_>>,
    depth: usize,
) {
    match stmt {
        KStmt::Block { zero, stmts } => {
            // Entering the block re-zeroes its declarations (a fresh frame
            // in the old interpreter).
            for (slot, width) in zero.iter() {
                locals[*slot as usize] = LogicVec::zeros(*width);
            }
            for stmt in stmts.iter() {
                exec(k, state, locals, stmt, nba, log, depth);
            }
        }
        KStmt::Assign { lhs, op, rhs } => {
            let width = lval_width(k, state, locals, lhs);
            let value = eval_sized(k, state, locals, rhs, width, depth);
            match op {
                AssignOp::Blocking => {
                    assign(k, state, locals, lhs, value, &mut None, log);
                }
                AssignOp::NonBlocking => {
                    assign(k, state, locals, lhs, value, nba, log);
                }
            }
        }
        KStmt::If { cond, then_branch, else_branch } => {
            let c = eval(k, state, locals, cond, depth);
            if c.truthy() == Some(true) {
                exec(k, state, locals, then_branch, nba, log, depth);
            } else if let Some(els) = else_branch {
                exec(k, state, locals, els, nba, log, depth);
            }
        }
        KStmt::Case { kind, scrutinee, arms, default } => {
            let s = eval(k, state, locals, scrutinee, depth);
            for arm in arms.iter() {
                for label in arm.labels.iter() {
                    let l = eval(k, state, locals, label, depth);
                    if case_hit(*kind, &s, &l) {
                        exec(k, state, locals, &arm.body, nba, log, depth);
                        return;
                    }
                }
            }
            if let Some(default) = default {
                exec(k, state, locals, default, nba, log, depth);
            }
        }
        KStmt::For { decl_slot, var, init, cond, step, body } => {
            if let Some(slot) = decl_slot {
                locals[*slot as usize] = LogicVec::zeros(32);
            }
            let init_val = eval(k, state, locals, init, depth);
            write_ref(k, state, locals, log, var, init_val);
            let mut guard = 0usize;
            loop {
                let c = eval(k, state, locals, cond, depth);
                if c.truthy() != Some(true) {
                    break;
                }
                exec(k, state, locals, body, nba, log, depth);
                let next = eval(k, state, locals, step, depth);
                write_ref(k, state, locals, log, var, next);
                guard += 1;
                if guard >= MAX_LOOP {
                    break;
                }
            }
        }
        KStmt::While { cond, body } => {
            let mut guard = 0usize;
            loop {
                let c = eval(k, state, locals, cond, depth);
                if c.truthy() != Some(true) {
                    break;
                }
                exec(k, state, locals, body, nba, log, depth);
                guard += 1;
                if guard >= MAX_LOOP {
                    break;
                }
            }
        }
        KStmt::Repeat { count, body } => {
            let n = eval(k, state, locals, count, depth).to_u64().unwrap_or(0).min(MAX_LOOP as u64);
            for _ in 0..n {
                exec(k, state, locals, body, nba, log, depth);
            }
        }
        KStmt::Nop => {}
    }
}

/// Writes a plain variable: local slot or module signal.
fn write_ref(
    k: &Kernel,
    state: &mut [StateValue],
    locals: &mut [LogicVec],
    log: &mut Option<WriteLog<'_>>,
    var: &KVarRef,
    value: LogicVec,
) {
    match var {
        KVarRef::Local(slot) => {
            let width = locals[*slot as usize].width();
            locals[*slot as usize] = value.resize(width);
        }
        KVarRef::Sig(id) => {
            let width = k.sigs[*id as usize].def.width;
            set_state(state, log, *id, StateValue::Vec(value.resize(width)));
        }
        KVarRef::None => {}
    }
}

/// Width of an l-value part, for concat splitting.
fn lval_width(k: &Kernel, state: &[StateValue], locals: &[LogicVec], lhs: &KLval) -> u32 {
    match lhs {
        KLval::Whole { width, .. } | KLval::Index { width, .. } => *width,
        KLval::Select { left, right, mode, .. } => {
            let l = eval(k, state, locals, left, 0).to_u64().unwrap_or(0) as i64;
            let r = eval(k, state, locals, right, 0).to_u64().unwrap_or(0) as i64;
            match mode {
                SelectMode::Range => l.abs_diff(r) as u32 + 1,
                _ => r.max(1) as u32,
            }
        }
        KLval::Concat(parts) => parts.iter().map(|p| lval_width(k, state, locals, p)).sum(),
    }
}

/// Resolves and performs (or schedules) an assignment to `lhs`. Local
/// writes commit immediately even under `<=`; signal writes go through
/// `dispatch` (queued when `nba` is active, committed otherwise). Index and
/// select arithmetic is evaluated self-determined (depth 0), like the old
/// `resolve_target`.
fn assign(
    k: &Kernel,
    state: &mut [StateValue],
    locals: &mut [LogicVec],
    lhs: &KLval,
    value: LogicVec,
    nba: &mut Option<&mut Vec<NbaWrite>>,
    log: &mut Option<WriteLog<'_>>,
) {
    match lhs {
        KLval::Concat(parts) => {
            let total: u32 = parts.iter().map(|p| lval_width(k, state, locals, p)).sum();
            let value = value.resize(total);
            // Parts are MSB-first; slice the value top-down.
            let mut hi = total;
            for part in parts.iter() {
                let w = lval_width(k, state, locals, part);
                let lo = hi - w;
                let chunk = value.slice(hi - 1, lo);
                assign(k, state, locals, part, chunk, nba, log);
                hi = lo;
            }
        }
        KLval::Whole { target, .. } => match target {
            KVarRef::Local(slot) => {
                // Local variable: immediate write regardless of <=.
                let width = locals[*slot as usize].width();
                locals[*slot as usize] = value.resize(width);
            }
            KVarRef::Sig(id) => {
                dispatch(state, log, nba, NbaWrite { target: Target::Whole(*id), value });
            }
            KVarRef::None => {}
        },
        KLval::Index { target, index, .. } => match target {
            KVarRef::None => {}
            KVarRef::Local(slot) => {
                let Some(idx) = eval(k, state, locals, index, 0).to_u64().map(|v| v as u32) else {
                    return;
                };
                write_local_bits(locals, *slot, idx, idx, value);
            }
            KVarRef::Sig(id) => {
                let Some(idx) = eval(k, state, locals, index, 0).to_u64().map(|v| v as i64) else {
                    return;
                };
                let def = &k.sigs[*id as usize].def;
                let target = if def.words.is_some() {
                    let Some(slot) = def.word_offset(idx) else { return };
                    Target::Word(*id, slot)
                } else {
                    let Some(off) = def.offset(idx) else { return };
                    Target::Bits(*id, off, off)
                };
                dispatch(state, log, nba, NbaWrite { target, value });
            }
        },
        KLval::Select { target, word, left, right, mode } => match target {
            KVarRef::None => {}
            KVarRef::Local(slot) => {
                let l = eval(k, state, locals, left, 0).to_u64().unwrap_or(0) as i64;
                let r = eval(k, state, locals, right, 0).to_u64().unwrap_or(0) as i64;
                let (hi, lo) = match mode {
                    SelectMode::Range => (l.max(r), l.min(r)),
                    SelectMode::IndexedUp => (l + r - 1, l),
                    SelectMode::IndexedDown => (l, l - r + 1),
                };
                if lo < 0 {
                    return;
                }
                write_local_bits(locals, *slot, hi as u32, lo as u32, value);
            }
            KVarRef::Sig(id) => {
                let Some(l) = eval(k, state, locals, left, 0).to_u64().map(|v| v as i64) else {
                    return;
                };
                let Some(r) = eval(k, state, locals, right, 0).to_u64().map(|v| v as i64) else {
                    return;
                };
                let (hi_idx, lo_idx) = match mode {
                    SelectMode::Range => (l, r),
                    SelectMode::IndexedUp => (l + r - 1, l),
                    SelectMode::IndexedDown => (l, l - r + 1),
                };
                let def = &k.sigs[*id as usize].def;
                // A select on a memory word (`mem[i][3:0]`) carries the word
                // index; the common vector case has `word == None`.
                let target = if let Some(word) = word {
                    let Some(widx) = eval(k, state, locals, word, 0).to_u64().map(|v| v as i64)
                    else {
                        return;
                    };
                    let Some(slot) = def.word_offset(widx) else { return };
                    let Some(hi) = def.offset(hi_idx) else { return };
                    let Some(lo) = def.offset(lo_idx) else { return };
                    Target::WordBits(*id, slot, hi.max(lo), hi.min(lo))
                } else {
                    let Some(hi) = def.offset(hi_idx) else { return };
                    let Some(lo) = def.offset(lo_idx) else { return };
                    Target::Bits(*id, hi.max(lo), hi.min(lo))
                };
                dispatch(state, log, nba, NbaWrite { target, value });
            }
        },
    }
}

/// Updates bits `hi..=lo` of a local slot (bounds-checked like the old
/// `write_local_select`).
fn write_local_bits(locals: &mut [LogicVec], slot: u32, hi: u32, lo: u32, value: LogicVec) {
    let current = &locals[slot as usize];
    if hi < current.width() {
        let mut updated = current.clone();
        let chunk = value.resize(hi - lo + 1);
        for i in lo..=hi {
            updated.set_bit(i, chunk.bit(i - lo));
        }
        locals[slot as usize] = updated;
    }
}

/// Queues the write when non-blocking assignment is active, else commits.
fn dispatch(
    state: &mut [StateValue],
    log: &mut Option<WriteLog<'_>>,
    nba: &mut Option<&mut Vec<NbaWrite>>,
    write: NbaWrite,
) {
    match nba {
        Some(queue) => queue.push(write),
        None => commit(state, log, write),
    }
}

fn commit(state: &mut [StateValue], log: &mut Option<WriteLog<'_>>, write: NbaWrite) {
    match write.target {
        Target::Whole(id) => match &state[id as usize] {
            StateValue::Vec(old) => {
                let width = old.width();
                set_state(state, log, id, StateValue::Vec(write.value.resize(width)));
            }
            // Whole-array assignment unsupported; ignore.
            StateValue::Array(_) => {}
        },
        Target::Bits(id, hi, lo) => {
            if let StateValue::Vec(old) = &state[id as usize] {
                if hi < old.width() {
                    let mut updated = old.clone();
                    let chunk = write.value.resize(hi - lo + 1);
                    for i in lo..=hi {
                        updated.set_bit(i, chunk.bit(i - lo));
                    }
                    set_state(state, log, id, StateValue::Vec(updated));
                }
            }
        }
        Target::Word(id, slot) => {
            let new = {
                let StateValue::Array(words) = &state[id as usize] else { return };
                let Some(word) = words.get(slot) else { return };
                let new = write.value.resize(word.width());
                if *word == new {
                    return;
                }
                new
            };
            note_change(state, log, id);
            if let StateValue::Array(words) = &mut state[id as usize] {
                words[slot] = new;
            }
        }
        Target::WordBits(id, slot, hi, lo) => {
            let updated = {
                let StateValue::Array(words) = &state[id as usize] else { return };
                let Some(word) = words.get(slot) else { return };
                if hi >= word.width() {
                    return;
                }
                let mut updated = word.clone();
                let chunk = write.value.resize(hi - lo + 1);
                for i in lo..=hi {
                    updated.set_bit(i, chunk.bit(i - lo));
                }
                if updated == *word {
                    return;
                }
                updated
            };
            note_change(state, log, id);
            if let StateValue::Array(words) = &mut state[id as usize] {
                words[slot] = updated;
            }
        }
    }
}

// ---- tape execution ---------------------------------------------------------

/// Routes a tape signal write: queued when the op is non-blocking *and* an
/// NBA queue is active, committed immediately otherwise (mirroring the
/// tree walker, where non-blocking assignments in combinational context
/// commit like blocking ones).
fn tape_dispatch(
    state: &mut [StateValue],
    log: &mut Option<WriteLog<'_>>,
    nba: &mut Option<&mut Vec<NbaWrite>>,
    nb: bool,
    write: NbaWrite,
) {
    if nb {
        dispatch(state, log, nba, write);
    } else {
        commit(state, log, write);
    }
}

/// The `KBase::Sig` part-select path of [`eval_select`], over pre-evaluated
/// bounds (used by `Op::SelectSig` / `Op::SelectSigW`).
fn select_sig_value(
    k: &Kernel,
    state: &[StateValue],
    sig: SigId,
    l: Option<i64>,
    r: Option<i64>,
    mode: SelectMode,
) -> LogicVec {
    let (Some(l), Some(r)) = (l, r) else { return LogicVec::xs(1) };
    let (hi_idx, lo_idx) = select_bounds(l, r, mode);
    let def = &k.sigs[sig as usize].def;
    if let StateValue::Vec(v) = &state[sig as usize] {
        let (hi_off, lo_off) = match (def.offset(hi_idx), def.offset(lo_idx)) {
            (Some(a), Some(b)) => (a.max(b), a.min(b)),
            _ => return LogicVec::xs((hi_idx.abs_diff(lo_idx) + 1) as u32),
        };
        return v.slice(hi_off, lo_off);
    }
    // Memories: a whole-array read is a 1-bit x, selected generically.
    select_generic(&LogicVec::xs(1), hi_idx, lo_idx)
}

/// Runs `tape`, attempting the two-state fast variant first when present.
/// Returns `Some(true)` for a completed fast run, `Some(false)` when the
/// fast run aborted (x/z in the cone or a would-be-x op) and the
/// four-state ops re-ran, `None` when no fast variant exists.
fn run_tape_auto(
    k: &Kernel,
    state: &mut [StateValue],
    tape: &Tape,
    scratch: &mut TapeScratch,
    nba: &mut Option<&mut Vec<NbaWrite>>,
    log: &mut Option<WriteLog<'_>>,
) -> Option<bool> {
    if let Some(fast) = &tape.fast {
        let TapeScratch { fregs, fctrs, forig, fnba, .. } = scratch;
        let ok = match fast.limbs {
            1 => crate::fast::run_fast_tape::<1>(
                k, state, fast, tape.nctrs, fregs, fctrs, forig, fnba, nba, log,
            ),
            2 => crate::fast::run_fast_tape::<2>(
                k, state, fast, tape.nctrs, fregs, fctrs, forig, fnba, nba, log,
            ),
            _ => crate::fast::run_fast_tape::<4>(
                k, state, fast, tape.nctrs, fregs, fctrs, forig, fnba, nba, log,
            ),
        };
        if ok {
            return Some(true);
        }
        // The aborted fast run buffered everything: no state was mutated.
        run_tape(k, state, tape, &mut scratch.regs, &mut scratch.ctrs, nba, log);
        return Some(false);
    }
    run_tape(k, state, tape, &mut scratch.regs, &mut scratch.ctrs, nba, log);
    None
}

/// Executes a four-state tape. Register slots `[0, nlocals)` are the
/// procedural locals slab (handed to [`exec`] verbatim for [`Op::Tree`]
/// escapes); every op mirrors one step of the tree walker exactly, via the
/// same semantic helpers.
fn run_tape(
    k: &Kernel,
    state: &mut [StateValue],
    tape: &Tape,
    regs: &mut Vec<LogicVec>,
    ctrs: &mut Vec<u64>,
    nba: &mut Option<&mut Vec<NbaWrite>>,
    log: &mut Option<WriteLog<'_>>,
) {
    regs.clear();
    regs.resize(tape.nregs as usize, LogicVec::zeros(1));
    ctrs.clear();
    ctrs.resize(tape.nctrs as usize, 0);
    let nlocals = tape.nlocals as usize;
    let ops = &tape.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            Op::Const { dst, c } => regs[*dst as usize] = tape.consts[*c as usize].clone(),
            Op::LoadSig { dst, sig } => {
                regs[*dst as usize] = match &state[*sig as usize] {
                    StateValue::Vec(v) => v.clone(),
                    StateValue::Array(_) => LogicVec::xs(1),
                }
            }
            Op::LoadWord { dst, sig, slot } => {
                regs[*dst as usize] = match &state[*sig as usize] {
                    StateValue::Array(words) => words[*slot].clone(),
                    // A memory whose state slot was overwritten to a vector:
                    // read like an out-of-range word.
                    StateValue::Vec(_) => LogicVec::xs(k.sigs[*sig as usize].def.width),
                }
            }
            Op::Copy { dst, src } => regs[*dst as usize] = regs[*src as usize].clone(),
            Op::Unary { dst, op, src } => {
                let v = eval_unary(*op, regs[*src as usize].clone());
                regs[*dst as usize] = v;
            }
            Op::Binary { dst, op, a, b } => {
                let v = eval_binary(*op, &regs[*a as usize], &regs[*b as usize]);
                regs[*dst as usize] = v;
            }
            Op::Resize { dst, src, width } => {
                let v = regs[*src as usize].resize(*width);
                regs[*dst as usize] = v;
            }
            Op::Merge { dst, t, e } => {
                let v = merge_arms(&regs[*t as usize], &regs[*e as usize]);
                regs[*dst as usize] = v;
            }
            Op::Concat { dst, parts } => {
                let mut acc = regs[parts[0] as usize].clone();
                for &p in &parts[1..] {
                    acc = acc.concat(&regs[p as usize]);
                }
                regs[*dst as usize] = acc;
            }
            Op::ReplicateC { dst, src, count } => {
                let v = regs[*src as usize].replicate(*count);
                regs[*dst as usize] = v;
            }
            Op::ReplicateDyn { dst, count, val } => {
                let n = replicate_count(&regs[*count as usize]);
                let v = regs[*val as usize].replicate(n);
                regs[*dst as usize] = v;
            }
            Op::Slice { dst, src, hi, lo } => {
                let v = regs[*src as usize].slice(*hi, *lo);
                regs[*dst as usize] = v;
            }
            Op::SliceSig { dst, sig, hi, lo } => {
                regs[*dst as usize] = match &state[*sig as usize] {
                    StateValue::Vec(v) => v.slice(*hi, *lo),
                    StateValue::Array(_) => LogicVec::xs(*hi - *lo + 1),
                }
            }
            Op::IndexSig { dst, sig, idx } => {
                let def = &k.sigs[*sig as usize].def;
                let v = match regs[*idx as usize].to_u64().map(|v| v as i64) {
                    None => LogicVec::xs(1),
                    Some(i) => match &state[*sig as usize] {
                        StateValue::Array(words) => match def.word_offset(i) {
                            Some(slot) => words[slot].clone(),
                            None => LogicVec::xs(def.width),
                        },
                        StateValue::Vec(v) => match def.offset(i) {
                            Some(off) => v.slice(off, off),
                            None => LogicVec::xs(1),
                        },
                    },
                };
                regs[*dst as usize] = v;
            }
            Op::IndexVal { dst, base, idx } => {
                let v = match regs[*idx as usize].to_u64().map(|v| v as i64) {
                    None => LogicVec::xs(1),
                    Some(i) => index_bit(&regs[*base as usize], i),
                };
                regs[*dst as usize] = v;
            }
            Op::IndexValC { dst, base, idx } => {
                let v = index_bit(&regs[*base as usize], *idx);
                regs[*dst as usize] = v;
            }
            Op::SelectSig { dst, sig, left, right, mode } => {
                let l = regs[*left as usize].to_u64().map(|v| v as i64);
                let r = regs[*right as usize].to_u64().map(|v| v as i64);
                regs[*dst as usize] = select_sig_value(k, state, *sig, l, r, *mode);
            }
            Op::SelectSigW { dst, sig, left, span, mode } => {
                let l = regs[*left as usize].to_u64().map(|v| v as i64);
                regs[*dst as usize] = select_sig_value(k, state, *sig, l, Some(*span), *mode);
            }
            Op::SelectVal { dst, base, left, right, mode } => {
                let l = regs[*left as usize].to_u64().map(|v| v as i64);
                let r = regs[*right as usize].to_u64().map(|v| v as i64);
                let v = match (l, r) {
                    (Some(l), Some(r)) => {
                        let (hi, lo) = select_bounds(l, r, *mode);
                        select_generic(&regs[*base as usize], hi, lo)
                    }
                    _ => LogicVec::xs(1),
                };
                regs[*dst as usize] = v;
            }
            Op::SelectValW { dst, base, left, span, mode } => {
                let v = match regs[*left as usize].to_u64().map(|v| v as i64) {
                    Some(l) => {
                        let (hi, lo) = select_bounds(l, *span, *mode);
                        select_generic(&regs[*base as usize], hi, lo)
                    }
                    None => LogicVec::xs(1),
                };
                regs[*dst as usize] = v;
            }
            Op::Call { dst, func, args } => {
                let f = &k.funcs[*func as usize];
                let mut frame = vec![LogicVec::zeros(1); f.nlocals as usize];
                for (&(slot, width), &arg) in f.args.iter().zip(args.iter()) {
                    frame[slot as usize] = regs[arg as usize].resize(width);
                }
                frame[f.ret_slot as usize] = LogicVec::zeros(f.ret_width);
                // Same side-effect isolation as `call_function`.
                let mut shadow = state.to_vec();
                exec(k, &mut shadow, &mut frame, &f.body, &mut None, &mut None, 1);
                regs[*dst as usize] = frame[f.ret_slot as usize].clone();
            }
            Op::Clog2 { dst, src } => {
                let v = clog2_val(Some(&regs[*src as usize]));
                regs[*dst as usize] = v;
            }
            Op::ZeroLocal { slot, width } => regs[*slot as usize] = LogicVec::zeros(*width),
            Op::StoreLocal { slot, src, .. } => {
                // Locals resize to their *current* width, like the tree's
                // whole-local write (the baked width serves the fast path).
                let width = regs[*slot as usize].width();
                let v = regs[*src as usize].resize(width);
                regs[*slot as usize] = v;
            }
            Op::StoreLocalBits { slot, idx, src } => {
                if let Some(i) = regs[*idx as usize].to_u64().map(|v| v as u32) {
                    let value = regs[*src as usize].clone();
                    write_local_bits(regs, *slot, i, i, value);
                }
            }
            Op::StoreLocalBitsC { slot, hi, lo, src } => {
                let value = regs[*src as usize].clone();
                write_local_bits(regs, *slot, *hi, *lo, value);
            }
            Op::StoreLocalSel { slot, left, right, mode, src } => {
                let l = regs[*left as usize].to_u64().unwrap_or(0) as i64;
                let r = regs[*right as usize].to_u64().unwrap_or(0) as i64;
                let (hi, lo) = match mode {
                    SelectMode::Range => (l.max(r), l.min(r)),
                    SelectMode::IndexedUp => (l + r - 1, l),
                    SelectMode::IndexedDown => (l, l - r + 1),
                };
                if lo >= 0 {
                    let value = regs[*src as usize].clone();
                    write_local_bits(regs, *slot, hi as u32, lo as u32, value);
                }
            }
            Op::SetSigVec { sig, src, width } => {
                let v = regs[*src as usize].resize(*width);
                set_state(state, log, *sig, StateValue::Vec(v));
            }
            Op::StoreWhole { sig, src, nb } => {
                let value = regs[*src as usize].clone();
                tape_dispatch(state, log, nba, *nb, NbaWrite { target: Target::Whole(*sig), value });
            }
            Op::StoreIndexSig { sig, idx, src, nb } => {
                if let Some(i) = regs[*idx as usize].to_u64().map(|v| v as i64) {
                    let def = &k.sigs[*sig as usize].def;
                    let target = if def.words.is_some() {
                        def.word_offset(i).map(|slot| Target::Word(*sig, slot))
                    } else {
                        def.offset(i).map(|off| Target::Bits(*sig, off, off))
                    };
                    if let Some(target) = target {
                        let value = regs[*src as usize].clone();
                        tape_dispatch(state, log, nba, *nb, NbaWrite { target, value });
                    }
                }
            }
            Op::StoreBitsC { sig, hi, lo, src, nb } => {
                let value = regs[*src as usize].clone();
                tape_dispatch(
                    state,
                    log,
                    nba,
                    *nb,
                    NbaWrite { target: Target::Bits(*sig, *hi, *lo), value },
                );
            }
            Op::StoreWordC { sig, slot, src, nb } => {
                let value = regs[*src as usize].clone();
                tape_dispatch(
                    state,
                    log,
                    nba,
                    *nb,
                    NbaWrite { target: Target::Word(*sig, *slot), value },
                );
            }
            Op::StoreWordBitsC { sig, slot, hi, lo, src, nb } => {
                let value = regs[*src as usize].clone();
                tape_dispatch(
                    state,
                    log,
                    nba,
                    *nb,
                    NbaWrite { target: Target::WordBits(*sig, *slot, *hi, *lo), value },
                );
            }
            Op::StoreSelSig { sig, word, left, right, mode, src, nb } => 'store: {
                let Some(l) = regs[*left as usize].to_u64().map(|v| v as i64) else {
                    break 'store;
                };
                let Some(r) = regs[*right as usize].to_u64().map(|v| v as i64) else {
                    break 'store;
                };
                let (hi_idx, lo_idx) = match mode {
                    SelectMode::Range => (l, r),
                    SelectMode::IndexedUp => (l + r - 1, l),
                    SelectMode::IndexedDown => (l, l - r + 1),
                };
                let def = &k.sigs[*sig as usize].def;
                let target = if let Some(word) = word {
                    let Some(widx) = regs[*word as usize].to_u64().map(|v| v as i64) else {
                        break 'store;
                    };
                    let Some(slot) = def.word_offset(widx) else { break 'store };
                    let Some(hi) = def.offset(hi_idx) else { break 'store };
                    let Some(lo) = def.offset(lo_idx) else { break 'store };
                    Target::WordBits(*sig, slot, hi.max(lo), hi.min(lo))
                } else {
                    let Some(hi) = def.offset(hi_idx) else { break 'store };
                    let Some(lo) = def.offset(lo_idx) else { break 'store };
                    Target::Bits(*sig, hi.max(lo), hi.min(lo))
                };
                let value = regs[*src as usize].clone();
                tape_dispatch(state, log, nba, *nb, NbaWrite { target, value });
            }
            Op::Jump { to } => {
                pc = *to as usize;
                continue;
            }
            Op::BranchTruthy { cond, on_true, on_false, on_x } => {
                pc = match regs[*cond as usize].truthy() {
                    Some(true) => *on_true as usize,
                    Some(false) => *on_false as usize,
                    None => *on_x as usize,
                };
                continue;
            }
            Op::BranchMatch { kind, scrut, label, on_hit } => {
                if case_hit(*kind, &regs[*scrut as usize], &regs[*label as usize]) {
                    pc = *on_hit as usize;
                    continue;
                }
            }
            Op::ZeroCtr { ctr } => ctrs[*ctr as usize] = 0,
            Op::IncCtrJumpLt { ctr, limit, to } => {
                ctrs[*ctr as usize] += 1;
                if ctrs[*ctr as usize] < *limit as u64 {
                    pc = *to as usize;
                    continue;
                }
            }
            Op::RepeatInit { ctr, count } => {
                ctrs[*ctr as usize] =
                    regs[*count as usize].to_u64().unwrap_or(0).min(MAX_LOOP as u64);
            }
            Op::BranchCtrZeroDec { ctr, on_zero } => {
                if ctrs[*ctr as usize] == 0 {
                    pc = *on_zero as usize;
                    continue;
                }
                ctrs[*ctr as usize] -= 1;
            }
            Op::Tree { stmt } => {
                exec(k, state, &mut regs[..nlocals], stmt, nba, log, 0);
            }
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlfixer_verilog::compile;

    fn sim(src: &str, top: &str) -> Simulator {
        let analysis = compile(src);
        assert!(analysis.is_ok(), "{:?}", analysis.diagnostics);
        Simulator::new(&analysis, top).expect("elaborates")
    }

    fn v(width: u32, value: u64) -> LogicVec {
        LogicVec::from_u64(width, value)
    }

    #[test]
    fn combinational_inverter() {
        let mut s = sim("module inv(input [3:0] a, output [3:0] y); assign y = ~a; endmodule", "inv");
        s.poke("a", v(4, 0b1010)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("y").unwrap().to_u64(), Some(0b0101));
    }

    #[test]
    fn mux_with_ternary() {
        let mut s = sim(
            "module mux(input sel, input [7:0] a, input [7:0] b, output [7:0] y);\n\
             assign y = sel ? b : a;\nendmodule",
            "mux",
        );
        s.poke("a", v(8, 11)).unwrap();
        s.poke("b", v(8, 22)).unwrap();
        s.poke("sel", v(1, 0)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("y").unwrap().to_u64(), Some(11));
        s.poke("sel", v(1, 1)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("y").unwrap().to_u64(), Some(22));
    }

    #[test]
    fn always_star_case() {
        let mut s = sim(
            "module dec(input [1:0] s, output reg [3:0] y);\n\
             always @* begin\ncase (s)\n2'd0: y = 4'b0001;\n2'd1: y = 4'b0010;\n\
             2'd2: y = 4'b0100;\ndefault: y = 4'b1000;\nendcase\nend\nendmodule",
            "dec",
        );
        for (input, expect) in [(0, 1), (1, 2), (2, 4), (3, 8)] {
            s.poke("s", v(2, input)).unwrap();
            s.settle().unwrap();
            assert_eq!(s.peek("y").unwrap().to_u64(), Some(expect), "s={input}");
        }
    }

    #[test]
    fn dff_updates_on_posedge_only() {
        let mut s = sim(
            "module dff(input clk, input d, output reg q);\n\
             always @(posedge clk) q <= d;\nendmodule",
            "dff",
        );
        s.poke("d", v(1, 1)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("q").unwrap().to_u64(), Some(0), "no edge yet");
        s.clock_cycle("clk").unwrap();
        assert_eq!(s.peek("q").unwrap().to_u64(), Some(1));
        s.poke("d", v(1, 0)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("q").unwrap().to_u64(), Some(1), "holds between edges");
        s.clock_cycle("clk").unwrap();
        assert_eq!(s.peek("q").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn nonblocking_swap() {
        // The classic NBA test: a and b swap atomically.
        let mut s = sim(
            "module swap(input clk, output reg a, output reg b);\n\
             initial begin a = 1; b = 0; end\n\
             always @(posedge clk) begin a <= b; b <= a; end\nendmodule",
            "swap",
        );
        s.run_initial().unwrap();
        assert_eq!(s.peek("a").unwrap().to_u64(), Some(1));
        s.clock_cycle("clk").unwrap();
        assert_eq!(s.peek("a").unwrap().to_u64(), Some(0));
        assert_eq!(s.peek("b").unwrap().to_u64(), Some(1));
        s.clock_cycle("clk").unwrap();
        assert_eq!(s.peek("a").unwrap().to_u64(), Some(1));
        assert_eq!(s.peek("b").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn counter_with_sync_reset() {
        let mut s = sim(
            "module ctr(input clk, input reset, output reg [7:0] q);\n\
             always @(posedge clk) begin\n\
               if (reset) q <= 0; else q <= q + 1;\n\
             end\nendmodule",
            "ctr",
        );
        s.poke("reset", v(1, 1)).unwrap();
        s.clock_cycle("clk").unwrap();
        assert_eq!(s.peek("q").unwrap().to_u64(), Some(0));
        s.poke("reset", v(1, 0)).unwrap();
        for i in 1..=5u64 {
            s.clock_cycle("clk").unwrap();
            assert_eq!(s.peek("q").unwrap().to_u64(), Some(i));
        }
    }

    #[test]
    fn for_loop_bit_reverse() {
        let mut s = sim(
            "module rev(input [7:0] in, output reg [7:0] out);\n\
             integer i;\n\
             always @* begin\n\
               for (i = 0; i < 8; i = i + 1) out[i] = in[7 - i];\n\
             end\nendmodule",
            "rev",
        );
        s.poke("in", v(8, 0b1100_1010)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("out").unwrap().to_u64(), Some(0b0101_0011));
    }

    #[test]
    fn wide_100_bit_reverse() {
        // The paper's vector100r problem (fixed version).
        let mut s = sim(
            "module top_module(input [99:0] in, output reg [99:0] out);\n\
             integer i;\n\
             always @* begin\n\
               for (i = 0; i < 100; i = i + 1) out[i] = in[99 - i];\n\
             end\nendmodule",
            "top_module",
        );
        let input = LogicVec::from_u128(100, 0b1011);
        s.poke("in", input).unwrap();
        s.settle().unwrap();
        let out = s.peek("out").unwrap();
        assert_eq!(out.bit(99), Bit::One);
        assert_eq!(out.bit(98), Bit::One);
        assert_eq!(out.bit(97), Bit::Zero);
        assert_eq!(out.bit(96), Bit::One);
        assert_eq!(out.slice(95, 0).to_u128(), Some(0));
    }

    #[test]
    fn hierarchical_instance() {
        let mut s = sim(
            "module inv(input a, output y); assign y = ~a; endmodule\n\
             module top(input x, output z);\n\
             wire mid;\ninv u1(.a(x), .y(mid));\ninv u2(.a(mid), .y(z));\nendmodule",
            "top",
        );
        s.poke("x", v(1, 1)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("z").unwrap().to_u64(), Some(1));
        assert_eq!(s.peek("mid").unwrap().to_u64(), Some(0));
        s.poke("x", v(1, 0)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("z").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn generate_loop_xor() {
        let mut s = sim(
            "module gx(input [3:0] a, input [3:0] b, output [3:0] y);\n\
             genvar i;\ngenerate\n\
             for (i = 0; i < 4; i = i + 1) begin : g\n\
               assign y[i] = a[i] ^ b[i];\n\
             end\nendgenerate\nendmodule",
            "gx",
        );
        s.poke("a", v(4, 0b1100)).unwrap();
        s.poke("b", v(4, 0b1010)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("y").unwrap().to_u64(), Some(0b0110));
    }

    #[test]
    fn memory_write_and_read() {
        let mut s = sim(
            "module ram(input clk, input we, input [3:0] addr, input [7:0] din, output [7:0] dout);\n\
             reg [7:0] mem [0:15];\n\
             always @(posedge clk) if (we) mem[addr] <= din;\n\
             assign dout = mem[addr];\nendmodule",
            "ram",
        );
        s.poke("we", v(1, 1)).unwrap();
        s.poke("addr", v(4, 3)).unwrap();
        s.poke("din", v(8, 0x5A)).unwrap();
        s.clock_cycle("clk").unwrap();
        assert_eq!(s.peek("dout").unwrap().to_u64(), Some(0x5A));
        assert_eq!(s.peek_word("mem", 3).unwrap().to_u64(), Some(0x5A));
        s.poke("addr", v(4, 4)).unwrap();
        s.poke("we", v(1, 0)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("dout").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn function_call_popcount() {
        let mut s = sim(
            "module pc(input [7:0] a, output [3:0] y);\n\
             function [3:0] ones;\ninput [7:0] v;\ninteger i;\nbegin\n\
               ones = 0;\nfor (i = 0; i < 8; i = i + 1) ones = ones + v[i];\n\
             end\nendfunction\nassign y = ones(a);\nendmodule",
            "pc",
        );
        s.poke("a", v(8, 0b1011_0110)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("y").unwrap().to_u64(), Some(5));
    }

    #[test]
    fn concat_lvalue_assignment() {
        let mut s = sim(
            "module sp(input [7:0] a, output [3:0] hi, output [3:0] lo);\n\
             assign {hi, lo} = a;\nendmodule",
            "sp",
        );
        s.poke("a", v(8, 0xC5)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("hi").unwrap().to_u64(), Some(0xC));
        assert_eq!(s.peek("lo").unwrap().to_u64(), Some(0x5));
    }

    #[test]
    fn casez_wildcard_priority() {
        let mut s = sim(
            "module pr(input [3:0] r, output reg [1:0] y);\n\
             always @* begin\n\
               casez (r)\n\
                 4'bzzz1: y = 2'd0;\n\
                 4'bzz1z: y = 2'd1;\n\
                 4'bz1zz: y = 2'd2;\n\
                 4'b1zzz: y = 2'd3;\n\
                 default: y = 2'd0;\n\
               endcase\nend\nendmodule",
            "pr",
        );
        s.poke("r", v(4, 0b0100)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("y").unwrap().to_u64(), Some(2));
        s.poke("r", v(4, 0b0101)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("y").unwrap().to_u64(), Some(0), "priority to LSB arm");
    }

    #[test]
    fn indexed_part_select_rw() {
        let mut s = sim(
            "module ip(input [31:0] a, input [1:0] s, output [7:0] y);\n\
             assign y = a[s*8 +: 8];\nendmodule",
            "ip",
        );
        s.poke("a", v(32, 0xDDCCBBAA)).unwrap();
        for (sel, expect) in [(0u64, 0xAAu64), (1, 0xBB), (2, 0xCC), (3, 0xDD)] {
            s.poke("s", v(2, sel)).unwrap();
            s.settle().unwrap();
            assert_eq!(s.peek("y").unwrap().to_u64(), Some(expect), "sel={sel}");
        }
    }

    #[test]
    fn combinational_loop_detected() {
        let mut s = sim(
            "module osc(input a, output y);\nwire n;\nassign n = ~n | a;\nassign y = n;\nendmodule",
            "osc",
        );
        s.poke("a", v(1, 0)).unwrap();
        match s.settle() {
            Err(SimError::Unstable { signals }) => {
                assert!(
                    signals.iter().any(|n| n == "n"),
                    "oscillating net should be named: {signals:?}"
                );
            }
            other => panic!("expected Unstable, got {other:?}"),
        }
    }

    #[test]
    fn unstable_error_display_names_signals() {
        let mut s = sim(
            "module osc(input a, output y);\nwire n;\nassign n = ~n | a;\nassign y = n;\nendmodule",
            "osc",
        );
        s.poke("a", v(1, 0)).unwrap();
        let err = s.settle().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("did not settle"), "{text}");
        assert!(text.contains('n'), "should name the oscillating net: {text}");
    }

    #[test]
    fn multi_edge_async_style_reset() {
        let mut s = sim(
            "module ar(input clk, input rst_n, input d, output reg q);\n\
             always @(posedge clk or negedge rst_n)\n\
               if (!rst_n) q <= 0; else q <= d;\nendmodule",
            "ar",
        );
        s.poke("rst_n", v(1, 1)).unwrap();
        s.poke("d", v(1, 1)).unwrap();
        s.clock_cycle("clk").unwrap();
        assert_eq!(s.peek("q").unwrap().to_u64(), Some(1));
        // Async reset without a clock edge.
        s.edge("rst_n", Edge::Neg).unwrap();
        assert_eq!(s.peek("q").unwrap().to_u64(), Some(0));
    }

    #[test]
    fn shift_register_chain() {
        let mut s = sim(
            "module sr(input clk, input d, output reg [3:0] q);\n\
             always @(posedge clk) q <= {q[2:0], d};\nendmodule",
            "sr",
        );
        for bit in [1u64, 0, 1, 1] {
            s.poke("d", v(1, bit)).unwrap();
            s.clock_cycle("clk").unwrap();
        }
        assert_eq!(s.peek("q").unwrap().to_u64(), Some(0b1011));
    }

    #[test]
    fn parameterized_adder() {
        let mut s = sim(
            "module add #(parameter W = 16)(input [W-1:0] a, input [W-1:0] b, output [W-1:0] s);\n\
             assign s = a + b;\nendmodule",
            "add",
        );
        s.poke("a", v(16, 40_000)).unwrap();
        s.poke("b", v(16, 30_000)).unwrap();
        s.settle().unwrap();
        assert_eq!(s.peek("s").unwrap().to_u64(), Some((40_000 + 30_000) % 65_536));
    }

    #[test]
    fn poke_unknown_port_errors() {
        let mut s = sim("module m(input a, output y); assign y = a; endmodule", "m");
        assert!(matches!(s.poke("zz", v(1, 0)), Err(SimError::NoSuchPort(_))));
    }
}
