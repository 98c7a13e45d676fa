//! Tape compilation: lowers each kernel process one step further, from
//! [`crate::lower::KExpr`] trees into a flat register-based bytecode
//! ("tape") executed by a tight dispatch loop in [`crate::interp`] (the
//! two-state variant by [`crate::fast`]).
//!
//! The pipeline per process:
//!
//! 1. **Compilation** — statements and expressions are flattened into
//!    [`Op`]s over dense virtual registers. Registers `[0, nlocals)` alias
//!    the process's procedural locals (so the [`Op::Tree`] escape hatch can
//!    hand the register file to the tree-walking interpreter unchanged);
//!    temporaries are bump-allocated above them. Every op delegates to the
//!    *same* semantic helpers as the tree walker ([`crate::interp`]), so
//!    results are bit-identical by construction.
//! 2. **Constant folding** — pure ops whose operands are all compile-time
//!    constants are evaluated during compilation (using those same
//!    helpers); branches on constant conditions compile only the taken arm.
//! 3. **Dead-op elimination** — pure ops whose result register is never
//!    read (typically exposed by folding and dropped writes) are removed
//!    and jump targets remapped.
//! 4. **Two-state fast path** — when every value in the process's input
//!    cone has a static width of at most 256 bits and no x/z can enter it,
//!    a parallel [`FOp`] tape over a flat `u64` register file is emitted,
//!    with 1, 2 or 4 limbs per register chosen by the widest value.
//!    Its prologue verifies the cone is x-free (falling back to the
//!    four-state tape otherwise), all writes are buffered in shadow
//!    registers, and any op that *would* produce x/z (division by zero,
//!    out-of-range select) aborts cleanly before any state is mutated.
//!
//! Statement shapes outside the op set (runtime-width part-select
//! l-values, `repeat` is compiled, but e.g. exotic concat l-values) fall
//! back per-statement via [`Op::Tree`], or per-process by returning `None`
//! from [`compile_body`] (the interpreter then uses the PR 4 tree path).
//!
//! Tapes are built once per design inside [`crate::lower::lower`], which
//! [`crate::elab::elaborate`] runs before it returns (hence behind the
//! same `elaborate_shared` design cache as the kernel). The
//! `RTLFIXER_SIM_TAPE` kill switch in [`crate::interp`] governs execution
//! only, mirroring `RTLFIXER_SIM_EVENT`.

use std::collections::{BTreeMap, HashMap};

use rtlfixer_verilog::ast::{AssignOp, BinaryOp, CaseKind, SelectMode, UnaryOp};

use crate::interp::{
    case_hit, clog2_val, eval_binary, eval_unary, index_bit, merge_arms, replicate_count,
    select_bounds, select_generic, MAX_LOOP,
};
use crate::lower::{
    KArm, KBase, KExpr, KExprKind, KFunc, KLval, KProcBody, KSig, KStmt, KVarRef, LocalId, SigId,
};
use crate::value::{Bit, LogicVec};

/// Virtual register index. Registers `[0, nlocals)` alias procedural
/// locals; higher indices are compiler temporaries.
pub(crate) type VReg = u32;

/// Aggregate lowering statistics (per process, summed per kernel).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TapeStats {
    /// Processes considered for tape compilation.
    pub procs: u64,
    /// Processes that compiled to a tape.
    pub taped: u64,
    /// Processes that additionally produced a two-state fast tape.
    pub fast: u64,
    /// Four-state ops emitted (before dead-op elimination).
    pub ops_emitted: u64,
    /// Constant-folding events during compilation.
    pub ops_folded: u64,
    /// Ops removed by dead-op elimination.
    pub ops_dead: u64,
    /// Statements that fell back to embedded tree execution.
    pub tree_stmts: u64,
    /// Signals dropped from sensitivity sets (write-only targets the
    /// event filter no longer re-runs on).
    pub dead_signals: u64,
    /// Statically-bounded `for` loops fully unrolled at compile time.
    pub loops_unrolled: u64,
    /// Processes whose fast tape uses a multi-limb (>64-bit) register class.
    pub fast_wide: u64,
    /// Widest fast register class in the kernel, in 64-bit limbs per
    /// register (0 = no fast tape anywhere). Absorbed via max, not sum.
    pub limb_class: u64,
    /// Processes that compiled to a tape but were rejected for a fast
    /// variant (wide cone, unsupported ops, or a mostly-fallback mapping).
    pub fast_rejected: u64,
}

impl TapeStats {
    /// Sums `other` into `self` (`limb_class` takes the max).
    pub fn absorb(&mut self, other: &TapeStats) {
        self.procs += other.procs;
        self.taped += other.taped;
        self.fast += other.fast;
        self.ops_emitted += other.ops_emitted;
        self.ops_folded += other.ops_folded;
        self.ops_dead += other.ops_dead;
        self.tree_stmts += other.tree_stmts;
        self.dead_signals += other.dead_signals;
        self.loops_unrolled += other.loops_unrolled;
        self.fast_wide += other.fast_wide;
        self.limb_class = self.limb_class.max(other.limb_class);
        self.fast_rejected += other.fast_rejected;
    }
}

/// A compiled process: flat four-state ops plus an optional two-state
/// fast variant.
#[derive(Debug)]
pub(crate) struct Tape {
    pub(crate) ops: Box<[Op]>,
    pub(crate) consts: Box<[LogicVec]>,
    /// Total virtual registers (locals + temporaries).
    pub(crate) nregs: u32,
    /// Leading registers that alias procedural locals.
    pub(crate) nlocals: u32,
    /// Loop counters used by the tape.
    pub(crate) nctrs: u32,
    pub(crate) fast: Option<FastTape>,
    pub(crate) stats: TapeStats,
}

/// Four-state tape ops. Each mirrors one step of the tree walker exactly
/// (most delegate to the shared helpers in `interp`).
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// `regs[dst] = consts[c]`
    Const { dst: VReg, c: u32 },
    /// Whole-signal read (vectors; statically-known arrays fold to x).
    LoadSig { dst: VReg, sig: SigId },
    /// Memory word read with a constant-folded slot.
    LoadWord { dst: VReg, sig: SigId, slot: usize },
    Copy { dst: VReg, src: VReg },
    Unary { dst: VReg, op: UnaryOp, src: VReg },
    Binary { dst: VReg, op: BinaryOp, a: VReg, b: VReg },
    Resize { dst: VReg, src: VReg, width: u32 },
    /// Ternary x-merge of two arm values (`merge_arms`).
    Merge { dst: VReg, t: VReg, e: VReg },
    /// MSB-first concatenation (always ≥ 2 parts).
    Concat { dst: VReg, parts: Box<[VReg]> },
    /// Replication with a constant-folded count (≥ 1).
    ReplicateC { dst: VReg, src: VReg, count: u32 },
    /// Replication with a runtime count.
    ReplicateDyn { dst: VReg, count: VReg, val: VReg },
    /// `regs[src].slice(hi, lo)` (out-of-range bits read x).
    Slice { dst: VReg, src: VReg, hi: u32, lo: u32 },
    /// Direct slice of a vector signal's state (constant offsets).
    SliceSig { dst: VReg, sig: SigId, hi: u32, lo: u32 },
    /// Bit-index with runtime index, signal base.
    IndexSig { dst: VReg, sig: SigId, idx: VReg },
    /// Bit-index with runtime index, value base.
    IndexVal { dst: VReg, base: VReg, idx: VReg },
    /// Bit-index with constant index into a runtime-width value.
    IndexValC { dst: VReg, base: VReg, idx: i64 },
    /// Part-select with runtime bounds on a signal.
    SelectSig { dst: VReg, sig: SigId, left: VReg, right: VReg, mode: SelectMode },
    /// Indexed part-select with constant span (≥ 1) on a signal.
    SelectSigW { dst: VReg, sig: SigId, left: VReg, span: i64, mode: SelectMode },
    /// Part-select with runtime bounds on a value.
    SelectVal { dst: VReg, base: VReg, left: VReg, right: VReg, mode: SelectMode },
    /// Indexed part-select with constant span (≥ 1) on a value.
    SelectValW { dst: VReg, base: VReg, left: VReg, span: i64, mode: SelectMode },
    /// User-function call (args pre-evaluated; body tree-executed against
    /// a shadow state, exactly like `call_function`).
    Call { dst: VReg, func: u32, args: Box<[VReg]> },
    Clog2 { dst: VReg, src: VReg },
    /// Block-entry local zeroing.
    ZeroLocal { slot: VReg, width: u32 },
    /// Whole-local write (resized to the slot's width).
    StoreLocal { slot: VReg, src: VReg, width: u32 },
    /// Local bit write with runtime index.
    StoreLocalBits { slot: VReg, idx: VReg, src: VReg },
    /// Local bit-range write with constant bounds.
    StoreLocalBitsC { slot: VReg, hi: u32, lo: u32, src: VReg },
    /// Local part-select write with runtime bounds.
    StoreLocalSel { slot: VReg, left: VReg, right: VReg, mode: SelectMode, src: VReg },
    /// `set_state(sig, value.resize(width))` — for-var / bind-in writes.
    SetSigVec { sig: SigId, src: VReg, width: u32 },
    /// Whole-signal write (queued under non-blocking assignment).
    StoreWhole { sig: SigId, src: VReg, nb: bool },
    /// Signal bit write with runtime index (vector or memory word).
    StoreIndexSig { sig: SigId, idx: VReg, src: VReg, nb: bool },
    /// Signal bit-range write with constant offsets.
    StoreBitsC { sig: SigId, hi: u32, lo: u32, src: VReg, nb: bool },
    /// Memory word write with constant slot.
    StoreWordC { sig: SigId, slot: usize, src: VReg, nb: bool },
    /// Memory word bit-range write with constant offsets.
    StoreWordBitsC { sig: SigId, slot: usize, hi: u32, lo: u32, src: VReg, nb: bool },
    /// Signal part-select write with runtime bounds (and optional memory
    /// word index).
    StoreSelSig {
        sig: SigId,
        word: Option<VReg>,
        left: VReg,
        right: VReg,
        mode: SelectMode,
        src: VReg,
        nb: bool,
    },
    Jump { to: u32 },
    /// Three-way branch on truthiness (`on_x` taken when the condition
    /// contains x).
    BranchTruthy { cond: VReg, on_true: u32, on_false: u32, on_x: u32 },
    /// Case-label comparison; falls through on miss.
    BranchMatch { kind: CaseKind, scrut: VReg, label: VReg, on_hit: u32 },
    ZeroCtr { ctr: u32 },
    /// `ctr += 1; if ctr < limit jump to` — the post-body loop guard.
    IncCtrJumpLt { ctr: u32, limit: u32, to: u32 },
    /// `ctr = count.to_u64().unwrap_or(0).min(MAX_LOOP)`
    RepeatInit { ctr: u32, count: VReg },
    /// `if ctr == 0 jump on_zero else ctr -= 1`
    BranchCtrZeroDec { ctr: u32, on_zero: u32 },
    /// Escape hatch: run one statement through the tree walker (registers
    /// `[0, nlocals)` are the locals slab).
    Tree { stmt: Box<KStmt> },
}

// ---- two-state fast path ----------------------------------------------------

/// One signal in a fast tape's input/output cone.
#[derive(Debug, Clone)]
pub(crate) struct FCone {
    pub(crate) sig: SigId,
    /// Shadow register holding the signal's value during execution.
    pub(crate) reg: VReg,
    pub(crate) width: u32,
    /// Whether the epilogue must write the shadow back (if changed).
    pub(crate) written: bool,
}

/// The two-state fast variant: one [`FOp`] per four-state [`Op`] (same
/// indices, so jump targets are shared), over a flat limb-register file.
///
/// Registers are fixed-size limb groups: register `r` occupies limbs
/// `[r*limbs, (r+1)*limbs)` of the flat `u64` file. `limbs` is 1 for
/// all-≤64-bit processes (the PR-6 scalar layout, byte-identical
/// semantics) or 2/4 when the process's widest static width lands in
/// `(64, 128]` / `(128, 256]` and multi-limb mode is enabled.
#[derive(Debug)]
pub(crate) struct FastTape {
    pub(crate) ops: Box<[FOp]>,
    pub(crate) cone: Box<[FCone]>,
    pub(crate) nregs: u32,
    /// 64-bit limbs per register (1, 2 or 4).
    pub(crate) limbs: u32,
    /// Wide-constant pool: `limbs` u64s per entry, LSB limb first.
    pub(crate) wconsts: Box<[u64]>,
}

/// Two-state ops. Registers always hold values masked to their static
/// width. Any situation where the four-state op would produce x/z maps to
/// a clean fallback (`FOp::Fallback` or a runtime `return false`).
///
/// Ops carry static result widths (`w`) rather than precomputed `u64`
/// masks so the same op stream executes under any register class; the
/// executor derives limb masks from the width.
#[derive(Debug, Clone)]
pub(crate) enum FOp {
    Nop,
    /// Unconditional fallback to the four-state tape (reached only on
    /// paths the four-state op would turn into x, e.g. an x-condition
    /// merge arm — unreachable when the cone is x-free, kept defensively).
    Fallback,
    Const { dst: VReg, val: u64 },
    /// Multi-limb constant: entry `c` of [`FastTape::wconsts`] (emitted
    /// only under multi-limb register classes).
    ConstW { dst: VReg, c: u32 },
    /// Copy from a cone shadow register (signal read) or plain move.
    Copy { dst: VReg, src: VReg },
    Not { dst: VReg, src: VReg, w: u32 },
    Neg { dst: VReg, src: VReg, w: u32 },
    LogNot { dst: VReg, src: VReg },
    /// Reduction; `kind`: 0=and 1=or 2=xor, `neg` inverts.
    Reduce { dst: VReg, src: VReg, w: u32, kind: u8, neg: bool },
    Add { dst: VReg, a: VReg, b: VReg, w: u32 },
    Sub { dst: VReg, a: VReg, b: VReg, w: u32 },
    /// Product truncated to 128 bits before masking (the four-state
    /// reference multiplies through `u128`); operands are compile-time
    /// restricted to ≤ 128 bits under multi-limb classes.
    Mul { dst: VReg, a: VReg, b: VReg, w: u32 },
    /// Division; zero divisor falls back (x result in four-state), as do
    /// operands past 128 bits (the reference divides via `u128`).
    Div { dst: VReg, a: VReg, b: VReg },
    Mod { dst: VReg, a: VReg, b: VReg },
    Pow { dst: VReg, a: VReg, b: VReg, w: u32 },
    And { dst: VReg, a: VReg, b: VReg },
    Or { dst: VReg, a: VReg, b: VReg },
    Xor { dst: VReg, a: VReg, b: VReg },
    Xnor { dst: VReg, a: VReg, b: VReg, w: u32 },
    /// `a < b` (unsigned); `neg` gives `>=`.
    Lt { dst: VReg, a: VReg, b: VReg, neg: bool },
    Eq { dst: VReg, a: VReg, b: VReg, neg: bool },
    LogAnd { dst: VReg, a: VReg, b: VReg },
    LogOr { dst: VReg, a: VReg, b: VReg },
    /// Shift amounts at or past the operand width produce zero, matching
    /// `LogicVec::shl`/`shr`. Amount registers are ≤ 64 bits.
    Shl { dst: VReg, a: VReg, b: VReg, w: u32 },
    Shr { dst: VReg, a: VReg, b: VReg, w: u32 },
    Ashr { dst: VReg, a: VReg, b: VReg, w: u32 },
    Resize { dst: VReg, src: VReg, w: u32 },
    /// MSB-first concat of `(reg, width)` parts.
    Concat { dst: VReg, parts: Box<[(VReg, u32)]> },
    ReplicateC { dst: VReg, src: VReg, count: u32, w: u32 },
    /// `(src >> lo)` masked to span `w` (always in range).
    Slice { dst: VReg, src: VReg, lo: u32, w: u32 },
    /// Runtime bit index into a cone signal (out-of-range falls back).
    IndexSig { dst: VReg, shadow: VReg, sig: SigId, idx: VReg },
    /// Runtime bit index into a value of static width.
    IndexVal { dst: VReg, base: VReg, idx: VReg, basew: u32 },
    /// Indexed part-select with constant span on a cone signal.
    SelectSigW { dst: VReg, shadow: VReg, sig: SigId, left: VReg, span: u32, mode: SelectMode },
    /// Indexed part-select with constant span on a value of static width.
    SelectValW { dst: VReg, base: VReg, left: VReg, span: u32, mode: SelectMode, basew: u32 },
    Clog2 { dst: VReg, src: VReg },
    Zero { dst: VReg },
    /// Whole write into a cone shadow (`cone` = cone table index). Queued
    /// NBA values are rebuilt at the target width — `commit` resizes to it
    /// anyway, so the final state is identical to the tree's queue.
    StoreWhole { shadow: VReg, cone: u32, src: VReg, w: u32, nb: bool, sig: SigId },
    /// Constant bit-range write into a cone shadow.
    StoreBitsC { shadow: VReg, cone: u32, hi: u32, lo: u32, src: VReg, nb: bool, sig: SigId },
    /// Runtime bit write into a cone shadow (out-of-range drops, like the
    /// tree path).
    StoreIndexSig { shadow: VReg, cone: u32, idx: VReg, src: VReg, nb: bool, sig: SigId },
    StoreLocal { slot: VReg, src: VReg, w: u32 },
    StoreLocalBits { slot: VReg, idx: VReg, src: VReg, slotw: u32 },
    StoreLocalBitsC { slot: VReg, hi: u32, lo: u32, src: VReg },
    Jump { to: u32 },
    BranchTruthy { cond: VReg, on_true: u32, on_false: u32 },
    /// Masked case-label compare: hit iff `(scrut ^ cmp) & care == 0`
    /// (scrutinee ≤ 64 bits — wider constant labels fall back).
    BranchMatchC { scrut: VReg, cmp: u64, care: u64, on_hit: u32 },
    /// Runtime-label compare (x-free ⇒ plain equality for all case kinds).
    BranchMatchR { scrut: VReg, label: VReg, on_hit: u32 },
    ZeroCtr { ctr: u32 },
    IncCtrJumpLt { ctr: u32, limit: u32, to: u32 },
    RepeatInit { ctr: u32, count: VReg },
    BranchCtrZeroDec { ctr: u32, on_zero: u32 },
}

// ---- compiler ---------------------------------------------------------------

/// Compilation cap: a process emitting more ops than this (pathological
/// nesting) falls back to tree execution entirely.
const MAX_OPS: usize = 100_000;

/// Upper bound on statically-unrolled loop trips; loops running longer
/// keep the counter-guarded backedge form.
const MAX_UNROLL: usize = 64;

/// A loop variable pinned to a known constant while its body is compiled
/// (full unrolling). `val` is the value as stored (already resized to the
/// variable's width), so reads fold to exactly what the runtime would
/// load. A write to the variable from inside the body poisons the entry:
/// later reads stop folding (which is always sound — the emitted loads
/// see the same state) and the unroll attempt is abandoned.
struct Subst {
    var: KVarRef,
    val: LogicVec,
    poisoned: bool,
}

/// A compile-time value: either a known constant or a register.
#[derive(Debug, Clone)]
enum V {
    C(LogicVec),
    R(VReg),
}

struct Compiler<'k> {
    sigs: &'k [KSig],
    funcs: &'k [KFunc],
    ops: Vec<Op>,
    consts: Vec<LogicVec>,
    const_ids: HashMap<LogicVec, u32>,
    nlocals: u32,
    next_reg: u32,
    next_ctr: u32,
    width: Vec<Option<u32>>,
    stats: TapeStats,
    gave_up: bool,
    subst: Vec<Subst>,
}

impl<'k> Compiler<'k> {
    fn new(sigs: &'k [KSig], funcs: &'k [KFunc], nlocals: u32) -> Self {
        Compiler {
            sigs,
            funcs,
            ops: Vec::new(),
            consts: Vec::new(),
            const_ids: HashMap::new(),
            nlocals,
            next_reg: nlocals,
            next_ctr: 0,
            // Locals start each run as 1-bit zero vectors; ZeroLocal ops
            // update the tracked width at block entry, mirroring runtime.
            width: vec![Some(1); nlocals as usize],
            stats: TapeStats::default(),
            gave_up: false,
            subst: Vec::new(),
        }
    }

    fn subst_local(&self, slot: LocalId) -> Option<&LogicVec> {
        self.subst
            .iter()
            .rev()
            .find(|s| !s.poisoned && matches!(s.var, KVarRef::Local(l) if l == slot))
            .map(|s| &s.val)
    }

    fn subst_sig(&self, id: SigId) -> Option<&LogicVec> {
        self.subst
            .iter()
            .rev()
            .find(|s| !s.poisoned && matches!(s.var, KVarRef::Sig(v) if v == id))
            .map(|s| &s.val)
    }

    /// Marks every pinned entry for `var` stale (a write is being emitted).
    fn subst_poison(&mut self, var: &KVarRef) {
        for s in &mut self.subst {
            let hit = match (&s.var, var) {
                (KVarRef::Local(a), KVarRef::Local(b)) => a == b,
                (KVarRef::Sig(a), KVarRef::Sig(b)) => a == b,
                _ => false,
            };
            if hit {
                s.poisoned = true;
            }
        }
    }

    /// Marks every pinned entry stale (an opaque write — embedded tree
    /// statement or function call — may touch anything).
    fn subst_poison_all(&mut self) {
        for s in &mut self.subst {
            s.poisoned = true;
        }
    }

    /// The value `var` holds after writing `c` through it (whole-variable
    /// writes resize to the destination width). `None`: width unknown.
    fn stored_value(&self, var: &KVarRef, c: &LogicVec) -> Option<LogicVec> {
        match var {
            KVarRef::Local(slot) => Some(c.resize(self.width[*slot as usize]?)),
            KVarRef::Sig(id) => {
                let def = &self.sigs[*id as usize].def;
                if def.words.is_some() {
                    return None; // memory: SetSigVec overwrites the array
                }
                Some(c.resize(def.width))
            }
            KVarRef::None => None,
        }
    }

    fn fresh(&mut self, width: Option<u32>) -> VReg {
        let r = self.next_reg;
        self.next_reg += 1;
        self.width.push(width);
        r
    }

    fn emit(&mut self, op: Op) -> u32 {
        let pc = self.ops.len() as u32;
        self.ops.push(op);
        if self.ops.len() > MAX_OPS {
            self.gave_up = true;
        }
        pc
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn folded(&mut self) {
        self.stats.ops_folded += 1;
    }

    fn alloc_ctr(&mut self) -> u32 {
        let c = self.next_ctr;
        self.next_ctr += 1;
        c
    }

    fn const_id(&mut self, c: LogicVec) -> u32 {
        if let Some(&id) = self.const_ids.get(&c) {
            return id;
        }
        let id = self.consts.len() as u32;
        self.consts.push(c.clone());
        self.const_ids.insert(c, id);
        id
    }

    /// Materialises a value into a register.
    fn mat(&mut self, v: V) -> VReg {
        match v {
            V::R(r) => r,
            V::C(c) => {
                let w = c.width();
                let dst = self.fresh(Some(w));
                let id = self.const_id(c);
                self.emit(Op::Const { dst, c: id });
                dst
            }
        }
    }

    fn width_of(&self, v: &V) -> Option<u32> {
        match v {
            V::C(c) => Some(c.width()),
            V::R(r) => self.width[*r as usize],
        }
    }

    /// Writes `v` into an existing destination register (branch-arm join).
    fn move_into(&mut self, dst: VReg, v: V) {
        match v {
            V::C(c) => {
                let id = self.const_id(c);
                self.emit(Op::Const { dst, c: id });
            }
            V::R(src) => {
                self.emit(Op::Copy { dst, src });
            }
        }
    }

    /// Mirrors `.resize(target)`: folds constants, elides resizes that are
    /// statically no-ops, emits `Op::Resize` otherwise.
    fn resize_v(&mut self, v: V, target: u32) -> V {
        match v {
            V::C(c) => {
                if c.width() != target {
                    self.folded();
                }
                V::C(c.resize(target))
            }
            V::R(r) => {
                if self.width[r as usize] == Some(target) {
                    return V::R(r);
                }
                let dst = self.fresh(Some(target));
                self.emit(Op::Resize { dst, src: r, width: target });
                V::R(dst)
            }
        }
    }

    /// Binary result width per `eval_binary` (`None` = runtime-dependent).
    fn binary_width(&self, op: BinaryOp, aw: Option<u32>, bw: Option<u32>) -> Option<u32> {
        use BinaryOp::*;
        match op {
            Add | Sub | Mul | Div | Mod | Pow | BitAnd | BitOr | BitXor | BitXnor => {
                Some(aw?.max(bw?))
            }
            Shl | AShl | Shr | AShr => aw,
            _ => Some(1),
        }
    }

    /// Compiles `expr` self-determined, mirroring `interp::eval` arm for
    /// arm (constant operands fold through the same helper functions).
    fn compile_expr(&mut self, e: &KExpr) -> V {
        match &e.kind {
            KExprKind::Const(c) => V::C(c.clone()),
            KExprKind::Local(slot) => {
                if let Some(c) = self.subst_local(*slot) {
                    let c = c.clone();
                    self.folded();
                    return V::C(c);
                }
                V::R(*slot)
            }
            KExprKind::Sig(id) => {
                let def = &self.sigs[*id as usize].def;
                if def.words.is_some() {
                    // Whole-array reads are statically x (slot type is
                    // fixed at construction).
                    self.folded();
                    return V::C(LogicVec::xs(1));
                }
                if let Some(c) = self.subst_sig(*id) {
                    let c = c.clone();
                    self.folded();
                    return V::C(c);
                }
                let dst = self.fresh(Some(def.width));
                self.emit(Op::LoadSig { dst, sig: *id });
                V::R(dst)
            }
            KExprKind::Unary { op, operand } => {
                let v = self.compile_expr(operand);
                if let UnaryOp::Plus = op {
                    return v; // eval returns the operand unchanged
                }
                match v {
                    V::C(c) => {
                        self.folded();
                        V::C(eval_unary(*op, c))
                    }
                    V::R(src) => {
                        let w = match op {
                            UnaryOp::BitNot | UnaryOp::Neg => self.width[src as usize],
                            _ => Some(1),
                        };
                        let dst = self.fresh(w);
                        self.emit(Op::Unary { dst, op: *op, src });
                        V::R(dst)
                    }
                }
            }
            KExprKind::Binary { op, lhs, rhs } => {
                let a = self.compile_expr(lhs);
                let b = self.compile_expr(rhs);
                if let (V::C(ca), V::C(cb)) = (&a, &b) {
                    self.folded();
                    return V::C(eval_binary(*op, ca, cb));
                }
                let w = self.binary_width(*op, self.width_of(&a), self.width_of(&b));
                let (ra, rb) = (self.mat(a), self.mat(b));
                let dst = self.fresh(w);
                self.emit(Op::Binary { dst, op: *op, a: ra, b: rb });
                V::R(dst)
            }
            KExprKind::Ternary { cond, then_expr, else_expr } => {
                let c = self.compile_expr(cond);
                match c {
                    V::C(cv) => {
                        self.folded();
                        match cv.truthy() {
                            Some(true) => self.compile_expr(then_expr),
                            Some(false) => self.compile_expr(else_expr),
                            None => {
                                let t = self.compile_expr(then_expr);
                                let e = self.compile_expr(else_expr);
                                self.emit_merge(t, e)
                            }
                        }
                    }
                    V::R(cr) => {
                        let bt = self.emit(Op::Jump { to: 0 }); // patched below
                        let pc_t = self.here();
                        let t = self.compile_expr(then_expr);
                        let wt = self.width_of(&t);
                        let dst = self.fresh(None); // width fixed after arms
                        self.move_into(dst, t);
                        let jt = self.emit(Op::Jump { to: 0 });
                        let pc_e = self.here();
                        let ev = self.compile_expr(else_expr);
                        let we = self.width_of(&ev);
                        self.move_into(dst, ev);
                        let je = self.emit(Op::Jump { to: 0 });
                        let pc_x = self.here();
                        let t2 = self.compile_expr(then_expr);
                        let e2 = self.compile_expr(else_expr);
                        let m = self.emit_merge(t2, e2);
                        let wx = self.width_of(&m);
                        self.move_into(dst, m);
                        let end = self.here();
                        self.ops[bt as usize] = Op::BranchTruthy {
                            cond: cr,
                            on_true: pc_t,
                            on_false: pc_e,
                            on_x: pc_x,
                        };
                        self.patch_jump(jt, end);
                        self.patch_jump(je, end);
                        self.width[dst as usize] =
                            if wt.is_some() && wt == we && we == wx { wt } else { None };
                        V::R(dst)
                    }
                }
            }
            KExprKind::Concat(parts) => {
                if parts.is_empty() {
                    self.folded();
                    return V::C(LogicVec::zeros(1));
                }
                let vs: Vec<V> = parts.iter().map(|p| self.compile_expr(p)).collect();
                if parts.len() == 1 {
                    return vs.into_iter().next().unwrap();
                }
                if vs.iter().all(|v| matches!(v, V::C(_))) {
                    self.folded();
                    let mut acc: Option<LogicVec> = None;
                    for v in vs {
                        let V::C(c) = v else { unreachable!() };
                        acc = Some(match acc {
                            None => c,
                            Some(hi) => hi.concat(&c),
                        });
                    }
                    return V::C(acc.unwrap());
                }
                let mut total = Some(0u32);
                for v in &vs {
                    total = match (total, self.width_of(v)) {
                        (Some(t), Some(w)) => Some(t + w),
                        _ => None,
                    };
                }
                let regs: Vec<VReg> = vs.into_iter().map(|v| self.mat(v)).collect();
                let dst = self.fresh(total);
                self.emit(Op::Concat { dst, parts: regs.into_boxed_slice() });
                V::R(dst)
            }
            KExprKind::Replicate { count, value } => {
                let n = self.compile_expr(count);
                let v = self.compile_expr(value);
                match n {
                    V::C(nc) => {
                        let cnt = replicate_count(&nc);
                        match v {
                            V::C(vc) => {
                                self.folded();
                                V::C(vc.replicate(cnt))
                            }
                            V::R(src) => {
                                let w = self.width[src as usize].map(|w| w * cnt);
                                let dst = self.fresh(w);
                                self.emit(Op::ReplicateC { dst, src, count: cnt });
                                V::R(dst)
                            }
                        }
                    }
                    V::R(_) => {
                        let (rn, rv) = (self.mat(n), self.mat(v));
                        let dst = self.fresh(None);
                        self.emit(Op::ReplicateDyn { dst, count: rn, val: rv });
                        V::R(dst)
                    }
                }
            }
            KExprKind::Index { base, index } => self.compile_index(base, index),
            KExprKind::Select { base, left, right, mode } => {
                self.compile_select(base, left, right, *mode)
            }
            KExprKind::Call { func, args } => {
                let regs: Vec<VReg> =
                    args.iter().map(|a| { let v = self.compile_expr(a); self.mat(v) }).collect();
                // Function bodies run through their own frame but may
                // write signals; don't fold pinned variables across one.
                self.subst_poison_all();
                let ret_width = self.funcs[*func as usize].ret_width;
                let dst = self.fresh(Some(ret_width));
                self.emit(Op::Call { dst, func: *func, args: regs.into_boxed_slice() });
                V::R(dst)
            }
            KExprKind::Clog2(arg) => match arg {
                None => {
                    self.folded();
                    V::C(clog2_val(None))
                }
                Some(a) => {
                    let v = self.compile_expr(a);
                    match v {
                        V::C(c) => {
                            self.folded();
                            V::C(clog2_val(Some(&c)))
                        }
                        V::R(src) => {
                            let dst = self.fresh(Some(32));
                            self.emit(Op::Clog2 { dst, src });
                            V::R(dst)
                        }
                    }
                }
            },
            KExprKind::Pass(arg) => match arg {
                None => V::C(LogicVec::xs(1)),
                Some(a) => self.compile_expr(a),
            },
        }
    }

    /// Folds or emits a ternary x-merge.
    fn emit_merge(&mut self, t: V, e: V) -> V {
        if let (V::C(ct), V::C(ce)) = (&t, &e) {
            self.folded();
            return V::C(merge_arms(ct, ce));
        }
        let w = match (self.width_of(&t), self.width_of(&e)) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
        let (rt, re) = (self.mat(t), self.mat(e));
        let dst = self.fresh(w);
        self.emit(Op::Merge { dst, t: rt, e: re });
        V::R(dst)
    }

    /// Mirrors `eval`'s Index arm (index first; x index short-circuits).
    fn compile_index(&mut self, base: &KBase, index: &KExpr) -> V {
        let i = self.compile_expr(index);
        match i {
            V::C(ic) => {
                let Some(idx) = ic.to_u64().map(|v| v as i64) else {
                    self.folded();
                    return V::C(LogicVec::xs(1));
                };
                self.folded();
                match base {
                    KBase::Local(slot) => {
                        // Local widths are statically known.
                        let w = self.width[*slot as usize].expect("local width");
                        if idx >= 0 && (idx as u32) < w {
                            let dst = self.fresh(Some(1));
                            self.emit(Op::Slice {
                                dst,
                                src: *slot,
                                hi: idx as u32,
                                lo: idx as u32,
                            });
                            V::R(dst)
                        } else {
                            V::C(LogicVec::xs(1))
                        }
                    }
                    KBase::Sig(id) => {
                        let def = &self.sigs[*id as usize].def;
                        if def.words.is_some() {
                            match def.word_offset(idx) {
                                Some(slot) => {
                                    let dst = self.fresh(Some(def.width));
                                    self.emit(Op::LoadWord { dst, sig: *id, slot });
                                    V::R(dst)
                                }
                                None => V::C(LogicVec::xs(def.width)),
                            }
                        } else {
                            match def.offset(idx) {
                                Some(off) => {
                                    let dst = self.fresh(Some(1));
                                    self.emit(Op::SliceSig { dst, sig: *id, hi: off, lo: off });
                                    V::R(dst)
                                }
                                None => V::C(LogicVec::xs(1)),
                            }
                        }
                    }
                    KBase::Expr(eb) => {
                        let b = self.compile_expr(eb);
                        match b {
                            V::C(c) => V::C(index_bit(&c, idx)),
                            V::R(br) => match self.width[br as usize] {
                                Some(w) => {
                                    if idx >= 0 && (idx as u32) < w {
                                        let dst = self.fresh(Some(1));
                                        self.emit(Op::Slice {
                                            dst,
                                            src: br,
                                            hi: idx as u32,
                                            lo: idx as u32,
                                        });
                                        V::R(dst)
                                    } else {
                                        V::C(LogicVec::xs(1))
                                    }
                                }
                                None => {
                                    let dst = self.fresh(Some(1));
                                    self.emit(Op::IndexValC { dst, base: br, idx });
                                    V::R(dst)
                                }
                            },
                        }
                    }
                }
            }
            V::R(ir) => match base {
                KBase::Local(slot) => {
                    let dst = self.fresh(Some(1));
                    self.emit(Op::IndexVal { dst, base: *slot, idx: ir });
                    V::R(dst)
                }
                KBase::Sig(id) => {
                    let def = &self.sigs[*id as usize].def;
                    let w = if def.words.is_some() { Some(def.width) } else { Some(1) };
                    let dst = self.fresh(w);
                    self.emit(Op::IndexSig { dst, sig: *id, idx: ir });
                    V::R(dst)
                }
                KBase::Expr(eb) => {
                    let b = self.compile_expr(eb);
                    let br = self.mat(b);
                    let dst = self.fresh(Some(1));
                    self.emit(Op::IndexVal { dst, base: br, idx: ir });
                    V::R(dst)
                }
            },
        }
    }

    /// Mirrors `eval_select` (bounds first; x bounds short-circuit).
    fn compile_select(&mut self, base: &KBase, left: &KExpr, right: &KExpr, mode: SelectMode) -> V {
        let l = self.compile_expr(left);
        let r = self.compile_expr(right);
        if let (V::C(lc), V::C(rc)) = (&l, &r) {
            let (lv, rv) = (lc.to_u64().map(|v| v as i64), rc.to_u64().map(|v| v as i64));
            let (Some(lv), Some(rv)) = (lv, rv) else {
                self.folded();
                return V::C(LogicVec::xs(1));
            };
            self.folded();
            let (hi_idx, lo_idx) = select_bounds(lv, rv, mode);
            if let KBase::Sig(id) = base {
                let def = &self.sigs[*id as usize].def;
                if def.words.is_none() {
                    return match (def.offset(hi_idx), def.offset(lo_idx)) {
                        (Some(a), Some(b)) => {
                            let dst = self.fresh(Some(a.abs_diff(b) + 1));
                            self.emit(Op::SliceSig {
                                dst,
                                sig: *id,
                                hi: a.max(b),
                                lo: a.min(b),
                            });
                            V::R(dst)
                        }
                        _ => V::C(LogicVec::xs((hi_idx.abs_diff(lo_idx) + 1) as u32)),
                    };
                }
                // Memory base: the generic path sees a 1-bit x.
                return V::C(select_generic(&LogicVec::xs(1), hi_idx, lo_idx));
            }
            let bv = match base {
                KBase::Local(slot) => V::R(*slot),
                KBase::Expr(eb) => self.compile_expr(eb),
                KBase::Sig(_) => unreachable!(),
            };
            let (hi, lo) = (hi_idx.max(lo_idx), hi_idx.min(lo_idx));
            if lo < 0 {
                return V::C(LogicVec::xs((hi - lo + 1) as u32));
            }
            return match bv {
                V::C(c) => V::C(select_generic(&c, hi_idx, lo_idx)),
                V::R(br) => {
                    let dst = self.fresh(Some((hi - lo + 1) as u32));
                    self.emit(Op::Slice { dst, src: br, hi: hi as u32, lo: lo as u32 });
                    V::R(dst)
                }
            };
        }
        // Indexed select with a constant width ≥ 1: result width is static.
        if mode != SelectMode::Range {
            if let V::C(rc) = &r {
                if let Some(span) = rc.to_u64().map(|v| v as i64).filter(|&s| s >= 1) {
                    let lr = self.mat(l);
                    return match base {
                        KBase::Sig(id) => {
                            let dst = self.fresh(Some(span as u32));
                            self.emit(Op::SelectSigW { dst, sig: *id, left: lr, span, mode });
                            V::R(dst)
                        }
                        KBase::Local(slot) => {
                            let dst = self.fresh(Some(span as u32));
                            self.emit(Op::SelectValW { dst, base: *slot, left: lr, span, mode });
                            V::R(dst)
                        }
                        KBase::Expr(eb) => {
                            let b = self.compile_expr(eb);
                            let br = self.mat(b);
                            let dst = self.fresh(Some(span as u32));
                            self.emit(Op::SelectValW { dst, base: br, left: lr, span, mode });
                            V::R(dst)
                        }
                    };
                }
            }
        }
        let (lr, rr) = (self.mat(l), self.mat(r));
        match base {
            KBase::Sig(id) => {
                let dst = self.fresh(None);
                self.emit(Op::SelectSig { dst, sig: *id, left: lr, right: rr, mode });
                V::R(dst)
            }
            KBase::Local(slot) => {
                let dst = self.fresh(None);
                self.emit(Op::SelectVal { dst, base: *slot, left: lr, right: rr, mode });
                V::R(dst)
            }
            KBase::Expr(eb) => {
                let b = self.compile_expr(eb);
                let br = self.mat(b);
                let dst = self.fresh(None);
                self.emit(Op::SelectVal { dst, base: br, left: lr, right: rr, mode });
                V::R(dst)
            }
        }
    }

    fn patch_jump(&mut self, pc: u32, to: u32) {
        match &mut self.ops[pc as usize] {
            Op::Jump { to: t } => *t = to,
            _ => unreachable!("patching a non-jump"),
        }
    }

    /// Pure compile-time evaluation of a constant expression, using the
    /// same helpers as the runtime (`None` = not a compile-time constant).
    fn const_fold(&self, e: &KExpr) -> Option<LogicVec> {
        match &e.kind {
            KExprKind::Const(c) => Some(c.clone()),
            KExprKind::Local(slot) => self.subst_local(*slot).cloned(),
            KExprKind::Sig(id) => {
                let def = &self.sigs[*id as usize].def;
                if def.words.is_some() {
                    return None;
                }
                self.subst_sig(*id).cloned()
            }
            KExprKind::Unary { op, operand } => {
                Some(eval_unary(*op, self.const_fold(operand)?))
            }
            KExprKind::Binary { op, lhs, rhs } => {
                Some(eval_binary(*op, &self.const_fold(lhs)?, &self.const_fold(rhs)?))
            }
            KExprKind::Ternary { cond, then_expr, else_expr } => {
                match self.const_fold(cond)?.truthy() {
                    Some(true) => self.const_fold(then_expr),
                    Some(false) => self.const_fold(else_expr),
                    None => Some(merge_arms(
                        &self.const_fold(then_expr)?,
                        &self.const_fold(else_expr)?,
                    )),
                }
            }
            KExprKind::Concat(parts) => {
                if parts.is_empty() {
                    return Some(LogicVec::zeros(1));
                }
                let mut acc: Option<LogicVec> = None;
                for p in parts.iter() {
                    let v = self.const_fold(p)?;
                    acc = Some(match acc {
                        None => v,
                        Some(hi) => hi.concat(&v),
                    });
                }
                acc
            }
            KExprKind::Replicate { count, value } => {
                let n = replicate_count(&self.const_fold(count)?);
                Some(self.const_fold(value)?.replicate(n))
            }
            KExprKind::Clog2(arg) => match arg {
                None => Some(clog2_val(None)),
                Some(a) => Some(clog2_val(Some(&self.const_fold(a)?))),
            },
            KExprKind::Pass(arg) => match arg {
                None => Some(LogicVec::xs(1)),
                Some(a) => self.const_fold(a),
            },
            _ => None,
        }
    }

    /// Folds or emits a binary op.
    fn binary_v(&mut self, op: BinaryOp, a: V, b: V) -> V {
        if let (V::C(ca), V::C(cb)) = (&a, &b) {
            self.folded();
            return V::C(eval_binary(op, ca, cb));
        }
        let w = self.binary_width(op, self.width_of(&a), self.width_of(&b));
        let (ra, rb) = (self.mat(a), self.mat(b));
        let dst = self.fresh(w);
        self.emit(Op::Binary { dst, op, a: ra, b: rb });
        V::R(dst)
    }

    /// Mirrors `interp::eval_sized` arm for arm: result width is always
    /// `want.max(e.nat)`.
    fn compile_sized(&mut self, e: &KExpr, want: u32) -> V {
        use BinaryOp::*;
        let target = want.max(e.nat);
        match &e.kind {
            KExprKind::Binary { op, lhs, rhs } => match op {
                Add | Sub | Mul | Div | Mod | BitAnd | BitOr | BitXor | BitXnor => {
                    let a = self.compile_sized(lhs, target);
                    let a = self.resize_v(a, target);
                    let b = self.compile_sized(rhs, target);
                    let b = self.resize_v(b, target);
                    let r = self.binary_v(*op, a, b);
                    self.resize_v(r, target)
                }
                Shl | AShl | Shr | AShr => {
                    let a = self.compile_sized(lhs, target);
                    let a = self.resize_v(a, target);
                    let b = self.compile_expr(rhs);
                    let r = self.binary_v(*op, a, b);
                    self.resize_v(r, target)
                }
                _ => {
                    let v = self.compile_expr(e);
                    self.resize_v(v, target)
                }
            },
            KExprKind::Unary { op, operand } => match op {
                UnaryOp::BitNot | UnaryOp::Neg | UnaryOp::Plus => {
                    let v = self.compile_sized(operand, target);
                    let v = self.resize_v(v, target);
                    if let UnaryOp::Plus = op {
                        return v;
                    }
                    match v {
                        V::C(c) => {
                            self.folded();
                            V::C(eval_unary(*op, c))
                        }
                        V::R(src) => {
                            let dst = self.fresh(Some(target));
                            self.emit(Op::Unary { dst, op: *op, src });
                            V::R(dst)
                        }
                    }
                }
                _ => {
                    let v = self.compile_expr(e);
                    self.resize_v(v, target)
                }
            },
            KExprKind::Ternary { cond, then_expr, else_expr } => {
                let c = self.compile_expr(cond);
                match c {
                    V::C(cv) => {
                        self.folded();
                        match cv.truthy() {
                            Some(true) => {
                                let v = self.compile_sized(then_expr, target);
                                self.resize_v(v, target)
                            }
                            Some(false) => {
                                let v = self.compile_sized(else_expr, target);
                                self.resize_v(v, target)
                            }
                            None => {
                                let t = self.compile_expr(then_expr);
                                let e = self.compile_expr(else_expr);
                                let m = self.emit_merge(t, e);
                                self.resize_v(m, target)
                            }
                        }
                    }
                    V::R(cr) => {
                        let bt = self.emit(Op::Jump { to: 0 });
                        let pc_t = self.here();
                        let dst = self.fresh(Some(target));
                        let t = self.compile_sized(then_expr, target);
                        let t = self.resize_v(t, target);
                        self.move_into(dst, t);
                        let jt = self.emit(Op::Jump { to: 0 });
                        let pc_e = self.here();
                        let ev = self.compile_sized(else_expr, target);
                        let ev = self.resize_v(ev, target);
                        self.move_into(dst, ev);
                        let je = self.emit(Op::Jump { to: 0 });
                        let pc_x = self.here();
                        let t2 = self.compile_expr(then_expr);
                        let e2 = self.compile_expr(else_expr);
                        let m = self.emit_merge(t2, e2);
                        let m = self.resize_v(m, target);
                        self.move_into(dst, m);
                        let end = self.here();
                        self.ops[bt as usize] = Op::BranchTruthy {
                            cond: cr,
                            on_true: pc_t,
                            on_false: pc_e,
                            on_x: pc_x,
                        };
                        self.patch_jump(jt, end);
                        self.patch_jump(je, end);
                        V::R(dst)
                    }
                }
            }
            _ => {
                let v = self.compile_expr(e);
                self.resize_v(v, target)
            }
        }
    }

    /// Static `lval_width` (`None` = runtime-dependent select width).
    fn static_lval_width(&self, lhs: &KLval) -> Option<u32> {
        match lhs {
            KLval::Whole { width, .. } | KLval::Index { width, .. } => Some(*width),
            KLval::Select { left, right, mode, .. } => {
                let r = self.const_fold(right)?.to_u64().unwrap_or(0) as i64;
                match mode {
                    SelectMode::Range => {
                        let l = self.const_fold(left)?.to_u64().unwrap_or(0) as i64;
                        Some(l.abs_diff(r) as u32 + 1)
                    }
                    _ => Some(r.max(1) as u32),
                }
            }
            KLval::Concat(parts) => {
                let mut total = 0u32;
                for p in parts.iter() {
                    total += self.static_lval_width(p)?;
                }
                Some(total)
            }
        }
    }

    /// Compiles `assign(lhs, value)` — the value is already context-sized.
    fn compile_assign(&mut self, lhs: &KLval, value: V, nb: bool) {
        // Any write through a pinned loop variable (even a partial bit
        // write) stales its pinned constant. Poisoning up front is
        // conservative: index reads inside this same statement fall back
        // to runtime loads, which see identical state.
        match lhs {
            KLval::Whole { target, .. }
            | KLval::Index { target, .. }
            | KLval::Select { target, .. } => self.subst_poison(target),
            KLval::Concat(_) => {} // recursion below poisons per part
        }
        match lhs {
            KLval::Concat(parts) => {
                let widths: Vec<u32> =
                    parts.iter().map(|p| self.static_lval_width(p).unwrap()).collect();
                let total: u32 = widths.iter().sum();
                let value = self.resize_v(value, total);
                let mut hi = total;
                for (part, w) in parts.iter().zip(widths) {
                    let lo = hi - w;
                    let chunk = match &value {
                        V::C(c) => {
                            self.folded();
                            V::C(c.slice(hi - 1, lo))
                        }
                        V::R(src) => {
                            let dst = self.fresh(Some(w));
                            self.emit(Op::Slice { dst, src: *src, hi: hi - 1, lo });
                            V::R(dst)
                        }
                    };
                    self.compile_assign(part, chunk, nb);
                    hi = lo;
                }
            }
            KLval::Whole { target, .. } => match target {
                KVarRef::Local(slot) => {
                    let width = self.width[*slot as usize].expect("local width");
                    let src = self.mat(value);
                    self.emit(Op::StoreLocal { slot: *slot, src, width });
                }
                KVarRef::Sig(id) => {
                    let src = self.mat(value);
                    self.emit(Op::StoreWhole { sig: *id, src, nb });
                }
                KVarRef::None => {}
            },
            KLval::Index { target, index, .. } => match target {
                KVarRef::None => {}
                KVarRef::Local(slot) => match self.const_fold(index) {
                    Some(c) => {
                        self.folded();
                        // An x index drops the write (to_u64 bails).
                        if let Some(idx) = c.to_u64().map(|v| v as u32) {
                            let src = self.mat(value);
                            self.emit(Op::StoreLocalBitsC { slot: *slot, hi: idx, lo: idx, src });
                        }
                    }
                    None => {
                        let i = self.compile_expr(index);
                        let idx = self.mat(i);
                        let src = self.mat(value);
                        self.emit(Op::StoreLocalBits { slot: *slot, idx, src });
                    }
                },
                KVarRef::Sig(id) => match self.const_fold(index) {
                    Some(c) => {
                        self.folded();
                        let Some(idx) = c.to_u64().map(|v| v as i64) else { return };
                        let def = &self.sigs[*id as usize].def;
                        if def.words.is_some() {
                            let Some(slot) = def.word_offset(idx) else { return };
                            let src = self.mat(value);
                            self.emit(Op::StoreWordC { sig: *id, slot, src, nb });
                        } else {
                            let Some(off) = def.offset(idx) else { return };
                            let src = self.mat(value);
                            self.emit(Op::StoreBitsC { sig: *id, hi: off, lo: off, src, nb });
                        }
                    }
                    None => {
                        let i = self.compile_expr(index);
                        let idx = self.mat(i);
                        let src = self.mat(value);
                        self.emit(Op::StoreIndexSig { sig: *id, idx, src, nb });
                    }
                },
            },
            KLval::Select { target, word, left, right, mode } => match target {
                KVarRef::None => {}
                KVarRef::Local(slot) => {
                    let bounds = (self.const_fold(left), self.const_fold(right));
                    if let (Some(lc), Some(rc)) = bounds {
                        self.folded();
                        let l = lc.to_u64().unwrap_or(0) as i64;
                        let r = rc.to_u64().unwrap_or(0) as i64;
                        let (hi, lo) = match mode {
                            SelectMode::Range => (l.max(r), l.min(r)),
                            SelectMode::IndexedUp => (l + r - 1, l),
                            SelectMode::IndexedDown => (l, l - r + 1),
                        };
                        if lo < 0 {
                            return;
                        }
                        let src = self.mat(value);
                        self.emit(Op::StoreLocalBitsC {
                            slot: *slot,
                            hi: hi as u32,
                            lo: lo as u32,
                            src,
                        });
                    } else {
                        let l = self.compile_expr(left);
                        let lr = self.mat(l);
                        let r = self.compile_expr(right);
                        let rr = self.mat(r);
                        let src = self.mat(value);
                        self.emit(Op::StoreLocalSel {
                            slot: *slot,
                            left: lr,
                            right: rr,
                            mode: *mode,
                            src,
                        });
                    }
                }
                KVarRef::Sig(id) => {
                    let folded = (
                        self.const_fold(left),
                        self.const_fold(right),
                        word.as_ref().map(|w| self.const_fold(w)),
                    );
                    if let (Some(lc), Some(rc), wc) = folded {
                        if !matches!(wc, Some(None)) {
                            self.folded();
                            let Some(l) = lc.to_u64().map(|v| v as i64) else { return };
                            let Some(r) = rc.to_u64().map(|v| v as i64) else { return };
                            let (hi_idx, lo_idx) = select_bounds(l, r, *mode);
                            let def = &self.sigs[*id as usize].def;
                            if let Some(Some(wv)) = wc {
                                let Some(widx) = wv.to_u64().map(|v| v as i64) else { return };
                                let Some(slot) = def.word_offset(widx) else { return };
                                let Some(hi) = def.offset(hi_idx) else { return };
                                let Some(lo) = def.offset(lo_idx) else { return };
                                let src = self.mat(value);
                                self.emit(Op::StoreWordBitsC {
                                    sig: *id,
                                    slot,
                                    hi: hi.max(lo),
                                    lo: hi.min(lo),
                                    src,
                                    nb,
                                });
                            } else {
                                let Some(hi) = def.offset(hi_idx) else { return };
                                let Some(lo) = def.offset(lo_idx) else { return };
                                let src = self.mat(value);
                                self.emit(Op::StoreBitsC {
                                    sig: *id,
                                    hi: hi.max(lo),
                                    lo: hi.min(lo),
                                    src,
                                    nb,
                                });
                            }
                            return;
                        }
                    }
                    let wreg = word.as_ref().map(|w| {
                        let v = self.compile_expr(w);
                        self.mat(v)
                    });
                    let l = self.compile_expr(left);
                    let lr = self.mat(l);
                    let r = self.compile_expr(right);
                    let rr = self.mat(r);
                    let src = self.mat(value);
                    self.emit(Op::StoreSelSig {
                        sig: *id,
                        word: wreg,
                        left: lr,
                        right: rr,
                        mode: *mode,
                        src,
                        nb,
                    });
                }
            },
        }
    }

    /// Compiles `write_ref` (for-loop variable updates).
    fn compile_write_ref(&mut self, var: &KVarRef, value: V) {
        self.subst_poison(var);
        match var {
            KVarRef::Local(slot) => {
                let width = self.width[*slot as usize].expect("local width");
                let src = self.mat(value);
                self.emit(Op::StoreLocal { slot: *slot, src, width });
            }
            KVarRef::Sig(id) => {
                let width = self.sigs[*id as usize].def.width;
                let src = self.mat(value);
                self.emit(Op::SetSigVec { sig: *id, src, width });
            }
            KVarRef::None => {}
        }
    }

    /// Per-statement escape hatch: embed the tree walker.
    fn tree_stmt(&mut self, stmt: &KStmt) {
        // The embedded statement may write anything the compiler can't see.
        self.subst_poison_all();
        self.stats.tree_stmts += 1;
        self.emit(Op::Tree { stmt: Box::new(stmt.clone()) });
    }

    fn compile_stmt(&mut self, stmt: &KStmt) {
        if self.gave_up {
            return;
        }
        match stmt {
            KStmt::Block { zero, stmts } => {
                for (slot, width) in zero.iter() {
                    self.emit(Op::ZeroLocal { slot: *slot, width: *width });
                    self.width[*slot as usize] = Some(*width);
                }
                for s in stmts.iter() {
                    self.compile_stmt(s);
                }
            }
            KStmt::Assign { lhs, op, rhs } => match self.static_lval_width(lhs) {
                Some(w) => {
                    let value = self.compile_sized(rhs, w);
                    let nb = matches!(op, AssignOp::NonBlocking);
                    self.compile_assign(lhs, value, nb);
                }
                None => self.tree_stmt(stmt),
            },
            KStmt::If { cond, then_branch, else_branch } => {
                let c = self.compile_expr(cond);
                match c {
                    V::C(cv) => {
                        self.folded();
                        if cv.truthy() == Some(true) {
                            self.compile_stmt(then_branch);
                        } else if let Some(els) = else_branch {
                            self.compile_stmt(els);
                        }
                    }
                    V::R(cr) => {
                        let bt = self.emit(Op::Jump { to: 0 });
                        let pc_t = self.here();
                        self.compile_stmt(then_branch);
                        let jt = self.emit(Op::Jump { to: 0 });
                        let pc_e = self.here();
                        if let Some(els) = else_branch {
                            self.compile_stmt(els);
                        }
                        let end = self.here();
                        self.ops[bt as usize] = Op::BranchTruthy {
                            cond: cr,
                            on_true: pc_t,
                            on_false: pc_e,
                            on_x: pc_e,
                        };
                        self.patch_jump(jt, end);
                    }
                }
            }
            KStmt::Case { kind, scrutinee, arms, default } => {
                self.compile_case(*kind, scrutinee, arms, default.as_deref());
            }
            KStmt::For { decl_slot, var, init, cond, step, body } => {
                if let Some(slot) = decl_slot {
                    self.emit(Op::ZeroLocal { slot: *slot, width: 32 });
                    self.width[*slot as usize] = Some(32);
                }
                let iv = self.compile_expr(init);
                if let V::C(c0) = &iv {
                    if self.try_unroll(*decl_slot, var, c0, cond, step, body) {
                        return;
                    }
                }
                self.compile_write_ref(var, iv);
                let ctr = self.alloc_ctr();
                self.emit(Op::ZeroCtr { ctr });
                let head = self.here();
                let c = self.compile_expr(cond);
                match c {
                    V::C(cv) => {
                        self.folded();
                        if cv.truthy() != Some(true) {
                            return; // loop never entered
                        }
                        // Constant-true condition: only the MAX_LOOP guard
                        // terminates, exactly like the tree walker.
                        self.compile_stmt(body);
                        let sv = self.compile_expr(step);
                        self.compile_write_ref(var, sv);
                        self.emit(Op::IncCtrJumpLt { ctr, limit: MAX_LOOP as u32, to: head });
                    }
                    V::R(cr) => {
                        let bt = self.emit(Op::Jump { to: 0 });
                        let pc_body = self.here();
                        self.compile_stmt(body);
                        let sv = self.compile_expr(step);
                        self.compile_write_ref(var, sv);
                        self.emit(Op::IncCtrJumpLt { ctr, limit: MAX_LOOP as u32, to: head });
                        let end = self.here();
                        self.ops[bt as usize] = Op::BranchTruthy {
                            cond: cr,
                            on_true: pc_body,
                            on_false: end,
                            on_x: end,
                        };
                    }
                }
            }
            KStmt::While { cond, body } => {
                let ctr = self.alloc_ctr();
                self.emit(Op::ZeroCtr { ctr });
                let head = self.here();
                let c = self.compile_expr(cond);
                match c {
                    V::C(cv) => {
                        self.folded();
                        if cv.truthy() != Some(true) {
                            return;
                        }
                        self.compile_stmt(body);
                        self.emit(Op::IncCtrJumpLt { ctr, limit: MAX_LOOP as u32, to: head });
                    }
                    V::R(cr) => {
                        let bt = self.emit(Op::Jump { to: 0 });
                        let pc_body = self.here();
                        self.compile_stmt(body);
                        self.emit(Op::IncCtrJumpLt { ctr, limit: MAX_LOOP as u32, to: head });
                        let end = self.here();
                        self.ops[bt as usize] = Op::BranchTruthy {
                            cond: cr,
                            on_true: pc_body,
                            on_false: end,
                            on_x: end,
                        };
                    }
                }
            }
            KStmt::Repeat { count, body } => {
                let ctr = self.alloc_ctr();
                let n = self.compile_expr(count);
                let nr = self.mat(n);
                self.emit(Op::RepeatInit { ctr, count: nr });
                let head = self.here();
                let bz = self.emit(Op::Jump { to: 0 });
                self.compile_stmt(body);
                self.emit(Op::Jump { to: head });
                let end = self.here();
                self.ops[bz as usize] = Op::BranchCtrZeroDec { ctr, on_zero: end };
            }
            KStmt::Nop => {}
        }
    }

    /// Attempts to fully unroll a statically-bounded `for` loop. The init
    /// value has already folded to `c0`; the condition and step must keep
    /// folding as iterations are compiled with the loop variable pinned to
    /// its per-trip constant (see [`Subst`]). The variable writes are
    /// emitted exactly as the backedge form would (the write log and
    /// change-then-revert dirtying are observable kernel behaviour), but
    /// every read of the variable folds — turning dynamic bit selects over
    /// the index into static ops and deleting the loop-control ops. Rolls
    /// every emitted op back and returns `false` when the loop shape is
    /// dynamic, the body re-writes the variable, or the trip count exceeds
    /// [`MAX_UNROLL`].
    fn try_unroll(
        &mut self,
        decl_slot: Option<LocalId>,
        var: &KVarRef,
        c0: &LogicVec,
        cond: &KExpr,
        step: &KExpr,
        body: &KStmt,
    ) -> bool {
        match var {
            KVarRef::None => return false,
            // Signals have a fixed width, so the stored value is statically
            // known. A local's runtime width can drift from the tracked
            // width through earlier bit-writes — only the loop's own
            // freshly-zeroed declaration slot is guaranteed in sync.
            KVarRef::Local(slot) if decl_slot != Some(*slot) => return false,
            KVarRef::Local(_) | KVarRef::Sig(_) => {}
        }
        let save_ops = self.ops.len();
        let save_reg = self.next_reg;
        let save_width = self.width.clone();
        let save_ctr = self.next_ctr;
        let save_stats = self.stats;
        let save_gave = self.gave_up;
        let depth = self.subst.len();

        let ok = self.unroll_trips(var, c0, cond, step, body);

        self.subst.truncate(depth);
        if !ok {
            self.ops.truncate(save_ops);
            self.next_reg = save_reg;
            self.width = save_width;
            self.next_ctr = save_ctr;
            self.stats = save_stats;
            self.gave_up = save_gave;
        }
        ok
    }

    fn unroll_trips(
        &mut self,
        var: &KVarRef,
        c0: &LogicVec,
        cond: &KExpr,
        step: &KExpr,
        body: &KStmt,
    ) -> bool {
        let Some(mut val) = self.stored_value(var, c0) else {
            return false;
        };
        for _ in 0..=MAX_UNROLL {
            // The variable write the backedge form would emit here.
            self.compile_write_ref(var, V::C(val.clone()));
            self.subst.push(Subst { var: var.clone(), val: val.clone(), poisoned: false });
            let cv = match self.compile_expr(cond) {
                V::C(cv) => cv,
                V::R(_) => return false,
            };
            if cv.truthy() != Some(true) {
                self.subst.pop();
                self.stats.loops_unrolled += 1;
                return true; // loop exits; the final write stays
            }
            self.compile_stmt(body);
            if self.gave_up {
                return false;
            }
            let sv = match self.compile_expr(step) {
                V::C(sv) => sv,
                V::R(_) => return false,
            };
            let entry = self.subst.pop().expect("pushed above");
            if entry.poisoned {
                return false; // body wrote the loop variable
            }
            match self.stored_value(var, &sv) {
                Some(next) => val = next,
                None => return false,
            }
        }
        false // trip count exceeds MAX_UNROLL
    }

    fn compile_case(
        &mut self,
        kind: CaseKind,
        scrutinee: &KExpr,
        arms: &[KArm],
        default: Option<&KStmt>,
    ) {
        let s = self.compile_expr(scrutinee);
        if let V::C(sc) = &s {
            // Fully-static scrutinee: try to resolve the hit at compile
            // time. Any runtime label before a decision blocks folding.
            let mut all_const = true;
            'fold: {
                for arm in arms {
                    for label in arm.labels.iter() {
                        match self.const_fold(label) {
                            Some(lc) => {
                                if case_hit(kind, sc, &lc) {
                                    self.folded();
                                    self.compile_stmt(&arm.body);
                                    return;
                                }
                            }
                            None => {
                                all_const = false;
                                break 'fold;
                            }
                        }
                    }
                }
            }
            if all_const {
                self.folded();
                if let Some(d) = default {
                    self.compile_stmt(d);
                }
                return;
            }
        }
        let sr = self.mat(s);
        // Emit all label tests (labels are pure, so eager evaluation is
        // equivalent to the tree's lazy first-hit scan), then the default
        // body, then each arm body; patch hit targets last.
        let mut hits: Vec<(u32, usize)> = Vec::new(); // (branch pc, arm index)
        for (ai, arm) in arms.iter().enumerate() {
            for label in arm.labels.iter() {
                let l = self.compile_expr(label);
                let lr = self.mat(l);
                let pc = self.emit(Op::BranchMatch { kind, scrut: sr, label: lr, on_hit: 0 });
                hits.push((pc, ai));
            }
        }
        let mut end_jumps: Vec<u32> = Vec::new();
        if let Some(d) = default {
            self.compile_stmt(d);
        }
        end_jumps.push(self.emit(Op::Jump { to: 0 }));
        let mut arm_pc: Vec<u32> = Vec::with_capacity(arms.len());
        for arm in arms {
            arm_pc.push(self.here());
            self.compile_stmt(&arm.body);
            end_jumps.push(self.emit(Op::Jump { to: 0 }));
        }
        let end = self.here();
        for (pc, ai) in hits {
            if let Op::BranchMatch { on_hit, .. } = &mut self.ops[pc as usize] {
                *on_hit = arm_pc[ai];
            }
        }
        for j in end_jumps {
            self.patch_jump(j, end);
        }
    }

    // ---- dead-op elimination -------------------------------------------

    /// Pure ops produce a value and have no other effect; their result
    /// register (always a compiler temp) is the only thing downstream.
    fn pure_dst(op: &Op) -> Option<VReg> {
        match op {
            Op::Const { dst, .. }
            | Op::LoadSig { dst, .. }
            | Op::LoadWord { dst, .. }
            | Op::Copy { dst, .. }
            | Op::Unary { dst, .. }
            | Op::Binary { dst, .. }
            | Op::Resize { dst, .. }
            | Op::Merge { dst, .. }
            | Op::Concat { dst, .. }
            | Op::ReplicateC { dst, .. }
            | Op::ReplicateDyn { dst, .. }
            | Op::Slice { dst, .. }
            | Op::SliceSig { dst, .. }
            | Op::IndexSig { dst, .. }
            | Op::IndexVal { dst, .. }
            | Op::IndexValC { dst, .. }
            | Op::SelectSig { dst, .. }
            | Op::SelectSigW { dst, .. }
            | Op::SelectVal { dst, .. }
            | Op::SelectValW { dst, .. }
            | Op::Call { dst, .. }
            | Op::Clog2 { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Visits every register an op reads (including local slots whose
    /// current contents feed partial writes).
    fn op_uses(op: &Op, nlocals: u32, f: &mut dyn FnMut(VReg)) {
        match op {
            Op::Const { .. }
            | Op::LoadSig { .. }
            | Op::LoadWord { .. }
            | Op::SliceSig { .. }
            | Op::ZeroLocal { .. }
            | Op::Jump { .. }
            | Op::ZeroCtr { .. }
            | Op::IncCtrJumpLt { .. }
            | Op::BranchCtrZeroDec { .. } => {}
            Op::Copy { src, .. }
            | Op::Unary { src, .. }
            | Op::Resize { src, .. }
            | Op::ReplicateC { src, .. }
            | Op::Slice { src, .. }
            | Op::Clog2 { src, .. } => f(*src),
            Op::Binary { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Op::Merge { t, e, .. } => {
                f(*t);
                f(*e);
            }
            Op::Concat { parts, .. } => parts.iter().for_each(|&r| f(r)),
            Op::ReplicateDyn { count, val, .. } => {
                f(*count);
                f(*val);
            }
            Op::IndexSig { idx, .. } => f(*idx),
            Op::IndexVal { base, idx, .. } => {
                f(*base);
                f(*idx);
            }
            Op::IndexValC { base, .. } => f(*base),
            Op::SelectSig { left, right, .. } => {
                f(*left);
                f(*right);
            }
            Op::SelectSigW { left, .. } => f(*left),
            Op::SelectVal { base, left, right, .. } => {
                f(*base);
                f(*left);
                f(*right);
            }
            Op::SelectValW { base, left, .. } => {
                f(*base);
                f(*left);
            }
            Op::Call { args, .. } => args.iter().for_each(|&r| f(r)),
            Op::StoreLocal { slot, src, .. } => {
                f(*slot);
                f(*src);
            }
            Op::StoreLocalBits { slot, idx, src } => {
                f(*slot);
                f(*idx);
                f(*src);
            }
            Op::StoreLocalBitsC { slot, src, .. } => {
                f(*slot);
                f(*src);
            }
            Op::StoreLocalSel { slot, left, right, src, .. } => {
                f(*slot);
                f(*left);
                f(*right);
                f(*src);
            }
            Op::SetSigVec { src, .. }
            | Op::StoreWhole { src, .. }
            | Op::StoreBitsC { src, .. }
            | Op::StoreWordC { src, .. }
            | Op::StoreWordBitsC { src, .. } => f(*src),
            Op::StoreIndexSig { idx, src, .. } => {
                f(*idx);
                f(*src);
            }
            Op::StoreSelSig { word, left, right, src, .. } => {
                if let Some(w) = word {
                    f(*w);
                }
                f(*left);
                f(*right);
                f(*src);
            }
            Op::BranchTruthy { cond, .. } => f(*cond),
            Op::BranchMatch { scrut, label, .. } => {
                f(*scrut);
                f(*label);
            }
            Op::RepeatInit { count, .. } => f(*count),
            Op::Tree { .. } => (0..nlocals).for_each(f),
        }
    }

    /// Removes pure ops whose results are never consumed, then remaps
    /// every jump target onto the compacted op indices.
    fn dse(&mut self) {
        let n = self.ops.len();
        let nlocals = self.nlocals;
        let mut keep = vec![false; n];
        let mut used = vec![false; self.next_reg as usize];
        loop {
            let mut changed = false;
            for (i, kept) in keep.iter_mut().enumerate() {
                if *kept {
                    continue;
                }
                let retain = match Self::pure_dst(&self.ops[i]) {
                    Some(dst) => used[dst as usize],
                    None => true,
                };
                if retain {
                    *kept = true;
                    changed = true;
                    Self::op_uses(&self.ops[i], nlocals, &mut |r| {
                        used[r as usize] = true;
                    });
                }
            }
            if !changed {
                break;
            }
        }
        let mut map = vec![0u32; n + 1];
        let mut c = 0u32;
        for i in 0..n {
            map[i] = c;
            if keep[i] {
                c += 1;
            }
        }
        map[n] = c;
        self.stats.ops_dead = (n as u64) - u64::from(c);
        if self.stats.ops_dead == 0 {
            return;
        }
        let old = std::mem::take(&mut self.ops);
        for (i, mut op) in old.into_iter().enumerate() {
            if !keep[i] {
                continue;
            }
            match &mut op {
                Op::Jump { to } | Op::IncCtrJumpLt { to, .. } => *to = map[*to as usize],
                Op::BranchTruthy { on_true, on_false, on_x, .. } => {
                    *on_true = map[*on_true as usize];
                    *on_false = map[*on_false as usize];
                    *on_x = map[*on_x as usize];
                }
                Op::BranchMatch { on_hit, .. } => *on_hit = map[*on_hit as usize],
                Op::BranchCtrZeroDec { on_zero, .. } => *on_zero = map[*on_zero as usize],
                _ => {}
            }
            self.ops.push(op);
        }
    }

    /// Signals the tape still touches through explicit signal ops
    /// (`Op::Tree` statements keep their reads implicit, but tree ops are
    /// never dead-eliminated so they cancel out of the before/after diff).
    fn live_sigs(&self) -> std::collections::BTreeSet<SigId> {
        let mut out = std::collections::BTreeSet::new();
        for op in self.ops.iter() {
            match op {
                Op::LoadSig { sig, .. }
                | Op::LoadWord { sig, .. }
                | Op::SliceSig { sig, .. }
                | Op::IndexSig { sig, .. }
                | Op::SelectSig { sig, .. }
                | Op::SelectSigW { sig, .. }
                | Op::SetSigVec { sig, .. }
                | Op::StoreWhole { sig, .. }
                | Op::StoreIndexSig { sig, .. }
                | Op::StoreBitsC { sig, .. }
                | Op::StoreWordC { sig, .. }
                | Op::StoreWordBitsC { sig, .. }
                | Op::StoreSelSig { sig, .. } => {
                    out.insert(*sig);
                }
                _ => {}
            }
        }
        out
    }

    fn finish(mut self) -> Option<Tape> {
        if self.gave_up {
            return None;
        }
        self.stats.procs = 1;
        self.stats.ops_emitted = self.ops.len() as u64;
        let sigs_before = self.live_sigs().len();
        self.dse();
        self.stats.dead_signals = (sigs_before - self.live_sigs().len()) as u64;
        self.stats.taped = 1;
        let fast = self.build_fast();
        match &fast {
            Some(f) => {
                self.stats.fast = 1;
                self.stats.limb_class = u64::from(f.limbs);
                if f.limbs > 1 {
                    self.stats.fast_wide = 1;
                }
            }
            None => self.stats.fast_rejected = 1,
        }
        Some(Tape {
            ops: self.ops.into_boxed_slice(),
            consts: self.consts.into_boxed_slice(),
            nregs: self.next_reg,
            nlocals: self.nlocals,
            nctrs: self.next_ctr,
            fast,
            stats: self.stats,
        })
    }
}

/// `(1 << w) - 1` without overflow at 64.
pub(crate) fn bitmask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Result of baking a case label against an x-free scrutinee.
enum LabelTest {
    /// Hit iff `(scrut ^ cmp) & care == 0`.
    Masked { cmp: u64, care: u64 },
    /// Can never hit (e.g. a `case` label containing x, or a required-one
    /// bit beyond the 64-bit scrutinee).
    Never,
}

/// Bakes `matches_wildcard`/`eq_case` against a constant label, given an
/// x-free scrutinee of static width `sw` (≤ 64, zero-padded above).
fn bake_label(kind: CaseKind, sw: u32, label: &LogicVec) -> LabelTest {
    if kind == CaseKind::Case && label.has_x() {
        // eq_case compares the unknown planes too; an x-free scrutinee can
        // never equal an x-bearing label.
        return LabelTest::Never;
    }
    let lw = label.width();
    let (mut cmp, mut care) = (0u64, 0u64);
    for i in 0..sw.max(lw) {
        let b = if i < lw { label.bit(i) } else { Bit::Zero };
        if i < 64 {
            match b {
                Bit::One => {
                    cmp |= 1 << i;
                    care |= 1 << i;
                }
                Bit::Zero => care |= 1 << i,
                Bit::X => {}
            }
        } else if b == Bit::One {
            // The ≤64-bit scrutinee reads 0 here: a required 1 never hits.
            return LabelTest::Never;
        }
    }
    LabelTest::Masked { cmp, care }
}

impl<'k> Compiler<'k> {
    /// Builds the two-state variant: one `FOp` per four-state op (shared
    /// indices, shared jump targets). Unsupported shapes become
    /// `FOp::Fallback`, which aborts the fast run before any state change.
    fn build_fast(&self) -> Option<FastTape> {
        if self.ops.is_empty() {
            return None;
        }
        let nl = self.nlocals as usize;
        let nregs = self.next_reg as usize;
        // Locals must use one consistent width for their baked masks.
        let mut local_w: Vec<Option<u32>> = vec![None; nl];
        let mut conflict = vec![false; nl];
        for op in self.ops.iter() {
            let (slot, w) = match op {
                Op::ZeroLocal { slot, width } => (*slot, *width),
                Op::StoreLocal { slot, width, .. } => (*slot, *width),
                _ => continue,
            };
            match &mut local_w[slot as usize] {
                e @ None => *e = Some(w),
                Some(prev) if *prev == w => {}
                _ => conflict[slot as usize] = true,
            }
        }
        // Register facts: single-def consts (for label baking) and which
        // regs are consumed anywhere other than as a case label.
        let mut defs = vec![0u32; nregs];
        for op in self.ops.iter() {
            match (Self::pure_dst(op), op) {
                (Some(d), _) => defs[d as usize] += 1,
                (
                    None,
                    Op::ZeroLocal { slot, .. }
                    | Op::StoreLocal { slot, .. }
                    | Op::StoreLocalBits { slot, .. }
                    | Op::StoreLocalBitsC { slot, .. }
                    | Op::StoreLocalSel { slot, .. },
                ) => defs[*slot as usize] += 1,
                _ => {}
            }
        }
        let mut const_reg: Vec<Option<&LogicVec>> = vec![None; nregs];
        for op in self.ops.iter() {
            if let Op::Const { dst, c } = op {
                if defs[*dst as usize] == 1 {
                    const_reg[*dst as usize] = Some(&self.consts[*c as usize]);
                }
            }
        }
        let mut nonlabel_use = vec![false; nregs];
        for op in self.ops.iter() {
            match op {
                Op::BranchMatch { scrut, .. } => nonlabel_use[*scrut as usize] = true,
                _ => Self::op_uses(op, self.nlocals, &mut |r| nonlabel_use[r as usize] = true),
            }
        }
        // Candidate register classes: always try the single-limb (PR-6
        // scalar) layout. When multi-limb mode is enabled and some static
        // width lands in (64, 256], also try the smallest class covering
        // every such width, and keep whichever maps with fewer fallbacks
        // (a wider class never wins on a tie — scalar ops are cheaper).
        let mut maxw = 0u32;
        {
            let mut consider = |w: u32| {
                if w <= 256 {
                    maxw = maxw.max(w);
                }
            };
            for (i, lw) in local_w.iter().enumerate() {
                if !conflict[i] {
                    consider(lw.unwrap_or(1));
                }
            }
            for w in self.width.iter().flatten() {
                consider(*w);
            }
            for op in self.ops.iter() {
                let sig = match op {
                    Op::LoadSig { sig, .. }
                    | Op::SliceSig { sig, .. }
                    | Op::IndexSig { sig, .. }
                    | Op::SelectSigW { sig, .. }
                    | Op::SetSigVec { sig, .. }
                    | Op::StoreWhole { sig, .. }
                    | Op::StoreBitsC { sig, .. }
                    | Op::StoreIndexSig { sig, .. } => *sig,
                    _ => continue,
                };
                let def = &self.sigs[sig as usize].def;
                if def.words.is_none() {
                    consider(def.width);
                }
            }
        }
        let wide_class = match maxw {
            0..=64 => 1u32,
            65..=128 => 2,
            _ => 4,
        };

        // Maps the whole op stream under one register class; `None` when
        // the result would be pure overhead (wide cone, immediate fault,
        // or a mostly-fallback stream).
        type FastClass = (Vec<FOp>, Vec<FCone>, Vec<u64>, usize);
        let try_class = |limbs: u32| -> Option<FastClass> {
            let limit = 64 * limbs;
            let fw = |r: VReg| -> Option<u32> {
                let i = r as usize;
                if i < nl {
                    if conflict[i] {
                        None
                    } else {
                        Some(local_w[i].unwrap_or(1)).filter(|w| *w <= limit)
                    }
                } else {
                    self.width[i].filter(|w| *w <= limit)
                }
            };
            // Cone: every vector signal the fast ops touch, within class.
            let sig_ok = |id: SigId| {
                let def = &self.sigs[id as usize].def;
                def.words.is_none() && def.width <= limit
            };
            let mut cone_set: BTreeMap<SigId, bool> = BTreeMap::new();
            for op in self.ops.iter() {
                match op {
                    Op::LoadSig { sig, .. }
                    | Op::SliceSig { sig, .. }
                    | Op::IndexSig { sig, .. }
                    | Op::SelectSigW { sig, .. }
                        if sig_ok(*sig) =>
                    {
                        cone_set.entry(*sig).or_insert(false);
                    }
                    Op::SetSigVec { sig, .. }
                    | Op::StoreWhole { sig, .. }
                    | Op::StoreBitsC { sig, .. }
                    | Op::StoreIndexSig { sig, .. }
                        if sig_ok(*sig) =>
                    {
                        *cone_set.entry(*sig).or_insert(true) = true;
                    }
                    _ => {}
                }
            }
            if cone_set.len() > 64 {
                return None;
            }
            let cone: Vec<FCone> = cone_set
                .iter()
                .enumerate()
                .map(|(i, (&sig, &written))| {
                    let w = self.sigs[sig as usize].def.width;
                    FCone { sig, reg: self.next_reg + i as u32, width: w, written }
                })
                .collect();
            let shadow: HashMap<SigId, (VReg, u32)> =
                cone.iter().enumerate().map(|(i, c)| (c.sig, (c.reg, i as u32))).collect();
            let mut wconsts = Vec::new();
            let fops: Vec<FOp> = self
                .ops
                .iter()
                .map(|op| {
                    self.map_fast(op, limbs, &fw, &const_reg, &nonlabel_use, &shadow, &mut wconsts)
                })
                .collect();
            // A fast tape that faults immediately (or mostly) is pure
            // overhead.
            if matches!(fops[0], FOp::Fallback) {
                return None;
            }
            let falls = fops.iter().filter(|f| matches!(f, FOp::Fallback)).count();
            if falls * 2 > fops.len() {
                return None;
            }
            Some((fops, cone, wconsts, falls))
        };

        let narrow = try_class(1);
        let want_wide = wide_class > 1
            && crate::interp::wide_enabled()
            && match &narrow {
                None => true,
                Some((.., falls)) => *falls > 0,
            };
        let chosen = if want_wide {
            match (try_class(wide_class), narrow) {
                (Some(w), Some(n)) => {
                    if w.3 < n.3 {
                        Some((w, wide_class))
                    } else {
                        Some((n, 1))
                    }
                }
                (Some(w), None) => Some((w, wide_class)),
                (None, n) => n.map(|n| (n, 1)),
            }
        } else {
            narrow.map(|n| (n, 1))
        };
        let ((fops, cone, wconsts, _), limbs) = chosen?;
        Some(FastTape {
            nregs: self.next_reg + cone.len() as u32,
            ops: fops.into_boxed_slice(),
            cone: cone.into_boxed_slice(),
            limbs,
            wconsts: wconsts.into_boxed_slice(),
        })
    }

    /// Maps one four-state op onto its two-state counterpart under the
    /// given register class (`limbs` u64s per register). At `limbs == 1`
    /// the mapping is exactly the PR-6 scalar one.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn map_fast(
        &self,
        op: &Op,
        limbs: u32,
        fw: &dyn Fn(VReg) -> Option<u32>,
        const_reg: &[Option<&LogicVec>],
        nonlabel_use: &[bool],
        shadow: &HashMap<SigId, (VReg, u32)>,
        wconsts: &mut Vec<u64>,
    ) -> FOp {
        use FOp as F;
        let limit = 64 * limbs;
        match op {
            Op::Const { dst, c } => {
                let v = &self.consts[*c as usize];
                match v.to_u64() {
                    Some(raw) => F::Const { dst: *dst, val: raw },
                    None => {
                        let mut buf = [0u64; 4];
                        if limbs > 1 && v.to_limbs(&mut buf[..limbs as usize]) {
                            let entry = (wconsts.len() / limbs as usize) as u32;
                            wconsts.extend_from_slice(&buf[..limbs as usize]);
                            F::ConstW { dst: *dst, c: entry }
                        } else if nonlabel_use[*dst as usize] {
                            // x/z or over-wide constants can only serve as
                            // baked case labels; anything else falls back.
                            F::Fallback
                        } else {
                            F::Nop
                        }
                    }
                }
            }
            Op::LoadSig { dst, sig } => match shadow.get(sig) {
                Some(&(reg, _)) => F::Copy { dst: *dst, src: reg },
                None => F::Fallback,
            },
            Op::Copy { dst, src } => F::Copy { dst: *dst, src: *src },
            Op::Unary { dst, op, src } => {
                let (dst, src) = (*dst, *src);
                let red = |kind: u8, neg: bool| match fw(src) {
                    Some(w) => F::Reduce { dst, src, w, kind, neg },
                    None => F::Fallback,
                };
                match op {
                    UnaryOp::Plus => F::Copy { dst, src },
                    UnaryOp::Not => F::LogNot { dst, src },
                    UnaryOp::BitNot => match fw(src) {
                        Some(w) => F::Not { dst, src, w },
                        None => F::Fallback,
                    },
                    UnaryOp::Neg => match fw(src) {
                        Some(w) => F::Neg { dst, src, w },
                        None => F::Fallback,
                    },
                    UnaryOp::RedAnd => red(0, false),
                    UnaryOp::RedOr => red(1, false),
                    UnaryOp::RedXor => red(2, false),
                    UnaryOp::RedNand => red(0, true),
                    UnaryOp::RedNor => red(1, true),
                    UnaryOp::RedXnor => red(2, true),
                }
            }
            Op::Binary { dst, op, a, b } => self.map_fast_binary(*dst, *op, *a, *b, fw),
            Op::Resize { dst, src, width } => {
                if *width <= limit {
                    F::Resize { dst: *dst, src: *src, w: *width }
                } else {
                    F::Fallback
                }
            }
            Op::Merge { .. } => F::Fallback,
            Op::Concat { dst, parts } => {
                let mut ps = Vec::with_capacity(parts.len());
                let mut total = 0u32;
                for &r in parts.iter() {
                    let Some(w) = fw(r) else { return F::Fallback };
                    total += w;
                    ps.push((r, w));
                }
                if total <= limit {
                    F::Concat { dst: *dst, parts: ps.into_boxed_slice() }
                } else {
                    F::Fallback
                }
            }
            Op::ReplicateC { dst, src, count } => match fw(*src) {
                Some(w) if w.saturating_mul(*count) <= limit => {
                    F::ReplicateC { dst: *dst, src: *src, count: *count, w }
                }
                _ => F::Fallback,
            },
            Op::ReplicateDyn { .. } => F::Fallback,
            Op::Slice { dst, src, hi, lo } => match fw(*src) {
                // Out-of-range slice bits read x: not fast-representable.
                Some(w) if *hi < w => {
                    F::Slice { dst: *dst, src: *src, lo: *lo, w: hi - lo + 1 }
                }
                _ => F::Fallback,
            },
            Op::SliceSig { dst, sig, hi, lo } => match shadow.get(sig) {
                Some(&(reg, _)) if *hi < self.sigs[*sig as usize].def.width => {
                    F::Slice { dst: *dst, src: reg, lo: *lo, w: hi - lo + 1 }
                }
                _ => F::Fallback,
            },
            Op::IndexSig { dst, sig, idx } => match shadow.get(sig) {
                Some(&(reg, _)) => F::IndexSig { dst: *dst, shadow: reg, sig: *sig, idx: *idx },
                None => F::Fallback,
            },
            Op::IndexVal { dst, base, idx } => match fw(*base) {
                Some(w) => F::IndexVal { dst: *dst, base: *base, idx: *idx, basew: w },
                None => F::Fallback,
            },
            Op::IndexValC { .. } | Op::SelectSig { .. } | Op::SelectVal { .. } => F::Fallback,
            Op::SelectSigW { dst, sig, left, span, mode } => match shadow.get(sig) {
                Some(&(reg, _)) => F::SelectSigW {
                    dst: *dst,
                    shadow: reg,
                    sig: *sig,
                    left: *left,
                    span: *span as u32,
                    mode: *mode,
                },
                None => F::Fallback,
            },
            Op::SelectValW { dst, base, left, span, mode } => match fw(*base) {
                Some(w) => F::SelectValW {
                    dst: *dst,
                    base: *base,
                    left: *left,
                    span: *span as u32,
                    mode: *mode,
                    basew: w,
                },
                None => F::Fallback,
            },
            Op::Call { .. } | Op::Tree { .. } | Op::LoadWord { .. } => F::Fallback,
            Op::Clog2 { dst, src } => F::Clog2 { dst: *dst, src: *src },
            Op::ZeroLocal { slot, .. } => F::Zero { dst: *slot },
            Op::StoreLocal { slot, src, width } => {
                if *width <= limit {
                    F::StoreLocal { slot: *slot, src: *src, w: *width }
                } else {
                    F::Fallback
                }
            }
            Op::StoreLocalBits { slot, idx, src } => match fw(*slot) {
                Some(w) => F::StoreLocalBits { slot: *slot, idx: *idx, src: *src, slotw: w },
                None => F::Fallback,
            },
            Op::StoreLocalBitsC { slot, hi, lo, src } => match fw(*slot) {
                // Beyond-width writes are dropped by `write_local_bits`;
                // inverted ranges would panic there — let the slow path
                // reproduce that exactly.
                Some(w) if *hi >= w => F::Nop,
                Some(_) if hi >= lo => {
                    F::StoreLocalBitsC { slot: *slot, hi: *hi, lo: *lo, src: *src }
                }
                _ => F::Fallback,
            },
            Op::StoreLocalSel { .. }
            | Op::StoreWordC { .. }
            | Op::StoreWordBitsC { .. }
            | Op::StoreSelSig { .. } => F::Fallback,
            Op::SetSigVec { sig, src, width } => match shadow.get(sig) {
                Some(&(reg, ci)) => F::StoreWhole {
                    shadow: reg,
                    cone: ci,
                    src: *src,
                    w: *width,
                    nb: false,
                    sig: *sig,
                },
                None => F::Fallback,
            },
            Op::StoreWhole { sig, src, nb } => match shadow.get(sig) {
                Some(&(reg, ci)) => {
                    let w = self.sigs[*sig as usize].def.width;
                    F::StoreWhole { shadow: reg, cone: ci, src: *src, w, nb: *nb, sig: *sig }
                }
                None => F::Fallback,
            },
            Op::StoreBitsC { sig, hi, lo, src, nb } => match shadow.get(sig) {
                Some(&(reg, ci)) if *hi < self.sigs[*sig as usize].def.width => F::StoreBitsC {
                    shadow: reg,
                    cone: ci,
                    hi: *hi,
                    lo: *lo,
                    src: *src,
                    nb: *nb,
                    sig: *sig,
                },
                _ => F::Fallback,
            },
            Op::StoreIndexSig { sig, idx, src, nb } => match shadow.get(sig) {
                Some(&(reg, ci)) => F::StoreIndexSig {
                    shadow: reg,
                    cone: ci,
                    idx: *idx,
                    src: *src,
                    nb: *nb,
                    sig: *sig,
                },
                None => F::Fallback,
            },
            Op::Jump { to } => F::Jump { to: *to },
            Op::BranchTruthy { cond, on_true, on_false, .. } => {
                // An x condition is impossible over an x-free cone, so the
                // on_x arm is unreachable here.
                F::BranchTruthy { cond: *cond, on_true: *on_true, on_false: *on_false }
            }
            Op::BranchMatch { kind, scrut, label, on_hit } => {
                let Some(sw) = fw(*scrut) else { return F::Fallback };
                if sw > 64 {
                    // Wide scrutinee (multi-limb classes only): clean
                    // constant labels ride the register file via `ConstW`
                    // and compare as raw equality; x-bearing labels either
                    // can never hit (plain `case`) or need wildcard
                    // masking over >64 bits (not worth a baked form).
                    return match const_reg[*label as usize] {
                        Some(lv) if lv.has_x() => {
                            if *kind == CaseKind::Case {
                                F::Nop
                            } else {
                                F::Fallback
                            }
                        }
                        Some(lv) => {
                            let mut buf = [0u64; 4];
                            if lv.to_limbs(&mut buf[..limbs as usize]) {
                                F::BranchMatchR { scrut: *scrut, label: *label, on_hit: *on_hit }
                            } else {
                                // A set bit beyond the register class can
                                // never equal the zero-extended scrutinee.
                                F::Nop
                            }
                        }
                        None => F::BranchMatchR { scrut: *scrut, label: *label, on_hit: *on_hit },
                    };
                }
                match const_reg[*label as usize] {
                    Some(lv) => match bake_label(*kind, sw, lv) {
                        LabelTest::Never => F::Nop,
                        LabelTest::Masked { cmp, care } => {
                            F::BranchMatchC { scrut: *scrut, cmp, care, on_hit: *on_hit }
                        }
                    },
                    // Runtime labels in fast mode are x-free, where every
                    // case flavour degenerates to raw equality.
                    None => F::BranchMatchR { scrut: *scrut, label: *label, on_hit: *on_hit },
                }
            }
            Op::ZeroCtr { ctr } => F::ZeroCtr { ctr: *ctr },
            Op::IncCtrJumpLt { ctr, limit, to } => {
                F::IncCtrJumpLt { ctr: *ctr, limit: *limit, to: *to }
            }
            Op::RepeatInit { ctr, count } => F::RepeatInit { ctr: *ctr, count: *count },
            Op::BranchCtrZeroDec { ctr, on_zero } => {
                F::BranchCtrZeroDec { ctr: *ctr, on_zero: *on_zero }
            }
        }
    }

    fn map_fast_binary(
        &self,
        dst: VReg,
        op: BinaryOp,
        a: VReg,
        b: VReg,
        fw: &dyn Fn(VReg) -> Option<u32>,
    ) -> FOp {
        use BinaryOp::*;
        use FOp as F;
        let maxw = || -> Option<u32> {
            let (x, y) = (fw(a)?, fw(b)?);
            Some(x.max(y))
        };
        match op {
            Add => match maxw() {
                Some(w) => F::Add { dst, a, b, w },
                None => F::Fallback,
            },
            Sub => match maxw() {
                Some(w) => F::Sub { dst, a, b, w },
                None => F::Fallback,
            },
            Mul => match maxw() {
                Some(w) => F::Mul { dst, a, b, w },
                None => F::Fallback,
            },
            Div => F::Div { dst, a, b },
            Mod => F::Mod { dst, a, b },
            Pow => match maxw() {
                Some(w) => F::Pow { dst, a, b, w },
                None => F::Fallback,
            },
            BitAnd => F::And { dst, a, b },
            BitOr => F::Or { dst, a, b },
            BitXor => F::Xor { dst, a, b },
            BitXnor => match maxw() {
                Some(w) => F::Xnor { dst, a, b, w },
                None => F::Fallback,
            },
            LogAnd => F::LogAnd { dst, a, b },
            LogOr => F::LogOr { dst, a, b },
            Eq | CaseEq => F::Eq { dst, a, b, neg: false },
            Ne | CaseNe => F::Eq { dst, a, b, neg: true },
            Lt => F::Lt { dst, a, b, neg: false },
            Gt => F::Lt { dst, a: b, b: a, neg: false },
            Le => F::Lt { dst, a: b, b: a, neg: true },
            Ge => F::Lt { dst, a, b, neg: true },
            Shl | AShl => match fw(a) {
                Some(w) => F::Shl { dst, a, b, w },
                None => F::Fallback,
            },
            Shr => match fw(a) {
                Some(w) => F::Shr { dst, a, b, w },
                None => F::Fallback,
            },
            AShr => match fw(a) {
                Some(w) => F::Ashr { dst, a, b, w },
                None => F::Fallback,
            },
        }
    }
}

// ---- entry points -----------------------------------------------------------

fn finish_with_stats(c: Compiler<'_>) -> (Option<Tape>, TapeStats) {
    let mut fallback = c.stats;
    match c.finish() {
        Some(t) => {
            let s = t.stats;
            (Some(t), s)
        }
        None => {
            fallback.procs = 1;
            (None, fallback)
        }
    }
}

/// Compiles a combinational / initial process body into a tape (`None`
/// when the process is better left to the tree walker).
pub(crate) fn compile_proc(
    sigs: &[KSig],
    funcs: &[KFunc],
    nlocals: u32,
    body: &KProcBody,
) -> (Option<Tape>, TapeStats) {
    let mut c = Compiler::new(sigs, funcs, nlocals);
    match body {
        KProcBody::Assign { lhs, rhs } => match c.static_lval_width(lhs) {
            Some(w) => {
                let v = c.compile_sized(rhs, w);
                c.compile_assign(lhs, v, false);
            }
            None => c.tree_stmt(&KStmt::Assign {
                lhs: lhs.clone(),
                op: AssignOp::Blocking,
                rhs: rhs.clone(),
            }),
        },
        KProcBody::Block(stmt) => c.compile_stmt(stmt),
        KProcBody::BindIn { child, expr } => {
            let width = child.map_or(1, |id| sigs[id as usize].def.width);
            let v = c.compile_sized(expr, width);
            if let Some(id) = child {
                let src = c.mat(v);
                c.emit(Op::SetSigVec { sig: *id, src, width });
            }
        }
        KProcBody::BindOut { lhs, child } => {
            if let Some(id) = child {
                // Vector-valued children mirror the tree's `if let Vec`
                // guard; array children never assign (and the interpreter
                // re-checks the runtime state type before running a tape).
                if sigs[*id as usize].def.words.is_none() {
                    if c.static_lval_width(lhs).is_some() {
                        let dst = c.fresh(Some(sigs[*id as usize].def.width));
                        c.emit(Op::LoadSig { dst, sig: *id });
                        c.compile_assign(lhs, V::R(dst), false);
                    } else {
                        c.gave_up = true;
                    }
                }
            }
        }
    }
    finish_with_stats(c)
}

/// Compiles an edge-triggered process body into a tape.
pub(crate) fn compile_seq(
    sigs: &[KSig],
    funcs: &[KFunc],
    nlocals: u32,
    body: &KStmt,
) -> (Option<Tape>, TapeStats) {
    let mut c = Compiler::new(sigs, funcs, nlocals);
    c.compile_stmt(body);
    finish_with_stats(c)
}
