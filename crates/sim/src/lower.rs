//! Lowering: compiles a flattened design (elaboration's temporary process
//! list) into the interned, ID-indexed execution form ([`Kernel`]) that the
//! interpreter executes.
//!
//! The lowering pass runs once per design, inside
//! [`crate::elab::elaborate`] (so behind the `elaborate_shared` design
//! cache), and performs every piece of work the old tree-walking
//! interpreter repeated on each evaluation:
//!
//! * **Name interning** — every signal reference is resolved through the
//!   scope chain to a dense `SigId` (`u32` index into a state slab), and
//!   every procedural local to a dense `LocalId` slot in a per-process
//!   scratch vector. Local resolution is purely lexical in our subset, so
//!   it can be done statically: the lowering frame stack mirrors the
//!   runtime frame stack exactly.
//! * **Constant folding** — literals, string literals, parameters and
//!   unresolvable identifiers become [`KExprKind::Const`] values.
//! * **Natural-width precomputation** — the self-determined width of every
//!   expression ([`KExpr::nat`]) is computed once, mirroring the old
//!   `natural_width` rules bit-for-bit (including its quirks, e.g. an
//!   unresolved identifier has natural width 1 but evaluates to 32 x-bits).
//! * **Function specialisation** — user functions are lowered per
//!   `(key, bound-arg-count)` so the old zip-with-actuals arity behaviour
//!   (unbound formals fall through to signal resolution) is preserved.
//! * **Sensitivity sets** — each combinational process records the sorted
//!   set of signals it may read *or* write (including transitively through
//!   function calls). The event-driven settle loop in `interp` only re-runs
//!   a process when one of these signals toggled; writes are included
//!   because a read-modify-write target is itself an input to the process.
//!
//! Everything here is `pub(crate)`: the kernel is an internal execution
//! detail behind the unchanged public `Simulator` API.

use std::collections::{BTreeSet, HashMap};

use rtlfixer_verilog::ast::{
    AssignOp, BinaryOp, CaseKind, Edge, Expr, Item, NetKind, SelectMode, Stmt, UnaryOp,
};
use rtlfixer_verilog::const_eval;
use rtlfixer_verilog::token::Base;

use crate::elab::{Flat, FunctionDef, Proc, ProcKind, Scope, SeqProc, SigDef};
use crate::tape::{self, Tape, TapeStats};
use crate::value::{Bit, LogicVec};

/// Dense signal index into the simulator's state slab.
pub(crate) type SigId = u32;
/// Dense local-variable slot index into a process's scratch vector.
pub(crate) type LocalId = u32;

/// One interned signal: its flattened name plus definition.
#[derive(Debug)]
pub(crate) struct KSig {
    pub(crate) name: String,
    pub(crate) def: SigDef,
}

/// The lowered execution form of a design: all a [`crate::elab::Design`]
/// keeps besides its top and ports.
#[derive(Debug)]
pub(crate) struct Kernel {
    /// Signals ordered by flattened name (so IDs are deterministic).
    pub(crate) sigs: Vec<KSig>,
    /// Name → ID lookup for the public poke/peek/edge API.
    pub(crate) by_name: HashMap<String, SigId>,
    /// Combinational processes, in design order.
    pub(crate) comb: Vec<KProc>,
    /// Edge-triggered processes, in design order.
    pub(crate) seq: Vec<KSeqProc>,
    /// Initial processes, in design order.
    pub(crate) init: Vec<KProc>,
    /// Lowered user functions, specialised per bound-argument count.
    pub(crate) funcs: Vec<KFunc>,
    /// Aggregate tape-compilation statistics across all processes.
    pub(crate) tape_stats: TapeStats,
}

/// A lowered combinational or initial process.
#[derive(Debug)]
pub(crate) struct KProc {
    pub(crate) body: KProcBody,
    /// Scratch slots needed to execute the body.
    pub(crate) nlocals: u32,
    /// Sorted signals this process may read or write (incl. via functions).
    pub(crate) sens: Box<[SigId]>,
    /// Compiled bytecode tape (`None`: execute the tree body).
    pub(crate) tape: Option<Tape>,
}

/// Process payload (mirrors `ProcKind`).
#[derive(Debug)]
pub(crate) enum KProcBody {
    Assign { lhs: KLval, rhs: KExpr },
    Block(KStmt),
    BindIn { child: Option<SigId>, expr: KExpr },
    BindOut { lhs: KLval, child: Option<SigId> },
}

/// A lowered edge-triggered process. Edge matching stays string-keyed
/// against the caller-supplied signal name, exactly like the old
/// interpreter (a child instance's `u1.clk` edge never matches a top-level
/// `edge("clk", ..)` call).
#[derive(Debug)]
pub(crate) struct KSeqProc {
    pub(crate) edges: Vec<(Edge, String)>,
    pub(crate) nlocals: u32,
    pub(crate) body: KStmt,
    /// Compiled bytecode tape (`None`: execute the tree body).
    pub(crate) tape: Option<Tape>,
}

/// A lowered function, specialised to a fixed number of bound arguments.
#[derive(Debug)]
pub(crate) struct KFunc {
    /// Scratch slots for one invocation frame.
    pub(crate) nlocals: u32,
    /// `(slot, width)` per bound formal, in order.
    pub(crate) args: Box<[(LocalId, u32)]>,
    /// Slot holding the return value (named after the function; shadows a
    /// same-named argument exactly like the old frame insert did).
    pub(crate) ret_slot: LocalId,
    pub(crate) ret_width: u32,
    pub(crate) body: KStmt,
}

/// A lowered expression with its precomputed natural width.
#[derive(Debug, Clone)]
pub(crate) struct KExpr {
    /// Self-determined width per the old `natural_width` rules.
    pub(crate) nat: u32,
    pub(crate) kind: KExprKind,
}

#[derive(Debug, Clone)]
pub(crate) enum KExprKind {
    Const(LogicVec),
    Sig(SigId),
    Local(LocalId),
    Unary { op: UnaryOp, operand: Box<KExpr> },
    Binary { op: BinaryOp, lhs: Box<KExpr>, rhs: Box<KExpr> },
    Ternary { cond: Box<KExpr>, then_expr: Box<KExpr>, else_expr: Box<KExpr> },
    Concat(Box<[KExpr]>),
    Replicate { count: Box<KExpr>, value: Box<KExpr> },
    Index { base: KBase, index: Box<KExpr> },
    Select { base: KBase, left: Box<KExpr>, right: Box<KExpr>, mode: SelectMode },
    Call { func: u32, args: Box<[KExpr]> },
    Clog2(Option<Box<KExpr>>),
    /// `$signed`/`$unsigned`: passes its argument through (or 1 x-bit).
    Pass(Option<Box<KExpr>>),
}

/// The base of an index/select expression, resolved statically.
#[derive(Debug, Clone)]
pub(crate) enum KBase {
    Local(LocalId),
    Sig(SigId),
    /// Computed base (including parameters and unresolved names, which the
    /// old interpreter routed through generic evaluation).
    Expr(Box<KExpr>),
}

/// A variable reference for whole-variable writes.
#[derive(Debug, Clone)]
pub(crate) enum KVarRef {
    Local(LocalId),
    Sig(SigId),
    /// Unresolvable target: the write is dropped (old behaviour).
    None,
}

/// A lowered l-value.
#[derive(Debug, Clone)]
pub(crate) enum KLval {
    /// Whole variable. `width` is the static l-value width (slot width for
    /// locals, definition width for signals, 1 when unresolved).
    Whole { target: KVarRef, width: u32 },
    /// Single bit / memory word select. `width` keeps the old
    /// `lvalue_width` quirk: it consults signal resolution only (ignoring
    /// locals) and yields the definition width for memories, else 1.
    Index { target: KVarRef, index: Box<KExpr>, width: u32 },
    /// Part select; width is runtime-computed from `left`/`right`.
    /// `word` is the memory word index for `mem[i][hi:lo]` targets.
    Select {
        target: KVarRef,
        word: Option<Box<KExpr>>,
        left: Box<KExpr>,
        right: Box<KExpr>,
        mode: SelectMode,
    },
    Concat(Box<[KLval]>),
}

/// A lowered statement.
#[derive(Debug, Clone)]
pub(crate) enum KStmt {
    /// Entering the block zeroes its declared slots (a fresh frame in the
    /// old interpreter), then runs the statements.
    Block { zero: Box<[(LocalId, u32)]>, stmts: Box<[KStmt]> },
    Assign { lhs: KLval, op: AssignOp, rhs: KExpr },
    If { cond: KExpr, then_branch: Box<KStmt>, else_branch: Option<Box<KStmt>> },
    Case { kind: CaseKind, scrutinee: KExpr, arms: Box<[KArm]>, default: Option<Box<KStmt>> },
    For {
        /// Slot zeroed on entry when the loop declares its variable.
        decl_slot: Option<LocalId>,
        var: KVarRef,
        init: KExpr,
        cond: KExpr,
        step: KExpr,
        body: Box<KStmt>,
    },
    While { cond: KExpr, body: Box<KStmt> },
    Repeat { count: KExpr, body: Box<KStmt> },
    Nop,
}

/// One case arm.
#[derive(Debug, Clone)]
pub(crate) struct KArm {
    pub(crate) labels: Box<[KExpr]>,
    pub(crate) body: KStmt,
}

// ---- lowering pass ---------------------------------------------------------

/// A lexical frame: declared names with their slots and widths. Later
/// entries shadow earlier ones (mirroring `HashMap::insert` overwrite).
#[derive(Default)]
struct Frame {
    entries: Vec<(String, LocalId, u32)>,
}

/// Per-process lowering context: the lexical frame stack plus collected
/// signal references and function calls.
struct BodyCx<'d> {
    scope: &'d Scope,
    frames: Vec<Frame>,
    next_local: u32,
    refs: BTreeSet<SigId>,
    calls: BTreeSet<u32>,
}

impl<'d> BodyCx<'d> {
    fn new(scope: &'d Scope) -> Self {
        BodyCx { scope, frames: Vec::new(), next_local: 0, refs: BTreeSet::new(), calls: BTreeSet::new() }
    }

    fn alloc(&mut self) -> LocalId {
        let id = self.next_local;
        self.next_local += 1;
        id
    }

    fn lookup_local(&self, name: &str) -> Option<(LocalId, u32)> {
        for frame in self.frames.iter().rev() {
            for (n, slot, width) in frame.entries.iter().rev() {
                if n == name {
                    return Some((*slot, *width));
                }
            }
        }
        None
    }
}

/// A lowered process before its sensitivity set is finalised (function
/// reference sets are only complete after the transitive-closure pass).
struct ProtoProc {
    body: KProcBody,
    nlocals: u32,
    refs: BTreeSet<SigId>,
    calls: BTreeSet<u32>,
}

struct Lowering<'d> {
    /// The flattened design's functions, lowered on first call.
    functions: &'d HashMap<String, FunctionDef<'d>>,
    sigs: Vec<KSig>,
    by_name: HashMap<String, SigId>,
    funcs: Vec<KFunc>,
    /// Signals each function references directly (closed transitively later).
    func_refs: Vec<BTreeSet<SigId>>,
    /// Functions each function calls directly.
    func_calls: Vec<BTreeSet<u32>>,
    /// `(key, bound-arg-count)` → function ID.
    func_ids: HashMap<(String, usize), u32>,
    /// [`Lowering::resolve_sig`]'s candidate name, reused across calls.
    candidate: String,
}

/// Lowers a flattened design, consuming it. Infallible: unresolvable
/// constructs lower to the same do-nothing / x-valued behaviour the old
/// interpreter produced at runtime.
pub(crate) fn lower(flat: Flat<'_>) -> Kernel {
    let Flat { signals, comb, seq, init, functions } = flat;
    let mut signals: Vec<(String, SigDef)> = signals.into_iter().collect();
    signals.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let mut sigs = Vec::with_capacity(signals.len());
    let mut by_name = HashMap::with_capacity(signals.len());
    for (name, def) in signals {
        by_name.insert(name.clone(), sigs.len() as SigId);
        sigs.push(KSig { name, def });
    }

    let mut lw = Lowering {
        functions: &functions,
        sigs,
        by_name,
        funcs: Vec::new(),
        func_refs: Vec::new(),
        func_calls: Vec::new(),
        func_ids: HashMap::new(),
        candidate: String::new(),
    };

    let comb: Vec<ProtoProc> = comb.iter().map(|p| lw.lower_proc(p)).collect();
    let init: Vec<ProtoProc> = init.iter().map(|p| lw.lower_proc(p)).collect();
    let seq: Vec<KSeqProc> = seq.into_iter().map(|p| lw.lower_seq(p)).collect();

    // Close function reference sets over the call graph (A calls B calls C:
    // C's signals reach A after two iterations).
    loop {
        let mut changed = false;
        for i in 0..lw.func_calls.len() {
            let callees: Vec<u32> = lw.func_calls[i].iter().copied().collect();
            for c in callees {
                if c as usize == i {
                    continue;
                }
                let add: Vec<SigId> = lw.func_refs[c as usize]
                    .iter()
                    .copied()
                    .filter(|s| !lw.func_refs[i].contains(s))
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    lw.func_refs[i].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }

    let finish = |proto: ProtoProc, lw: &Lowering<'_>| -> KProc {
        let mut sens = proto.refs;
        for c in &proto.calls {
            sens.extend(lw.func_refs[*c as usize].iter().copied());
        }
        KProc {
            body: proto.body,
            nlocals: proto.nlocals,
            sens: sens.into_iter().collect(),
            tape: None,
        }
    };
    let comb: Vec<KProc> = comb.into_iter().map(|p| finish(p, &lw)).collect();
    let init: Vec<KProc> = init.into_iter().map(|p| finish(p, &lw)).collect();

    let mut kernel =
        Kernel { sigs: lw.sigs, by_name: lw.by_name, comb, seq, init, funcs: lw.funcs, tape_stats: TapeStats::default() };

    // Tape compilation runs after the kernel is assembled (it borrows the
    // signal/function tables immutably) and attaches in a second phase.
    let mut stats = TapeStats::default();
    let absorb = |t: (Option<Tape>, TapeStats), stats: &mut TapeStats| {
        stats.absorb(&t.1);
        t.0
    };
    let comb_tapes: Vec<Option<Tape>> = kernel
        .comb
        .iter()
        .map(|p| absorb(tape::compile_proc(&kernel.sigs, &kernel.funcs, p.nlocals, &p.body), &mut stats))
        .collect();
    let init_tapes: Vec<Option<Tape>> = kernel
        .init
        .iter()
        .map(|p| absorb(tape::compile_proc(&kernel.sigs, &kernel.funcs, p.nlocals, &p.body), &mut stats))
        .collect();
    let seq_tapes: Vec<Option<Tape>> = kernel
        .seq
        .iter()
        .map(|p| absorb(tape::compile_seq(&kernel.sigs, &kernel.funcs, p.nlocals, &p.body), &mut stats))
        .collect();
    for (p, t) in kernel.comb.iter_mut().zip(comb_tapes) {
        p.tape = t;
    }
    for (p, t) in kernel.init.iter_mut().zip(init_tapes) {
        p.tape = t;
    }
    for (p, t) in kernel.seq.iter_mut().zip(seq_tapes) {
        p.tape = t;
    }
    kernel.tape_stats = stats;
    kernel
}

impl<'d> Lowering<'d> {
    /// Replicates the old `resolve_signal` scope-chain walk over interned
    /// names: `scope_prefix + name`, stripping one generate-scope segment
    /// at a time down to `module_prefix`. Each candidate name is spelled
    /// into one reused buffer; the prefixes are leading slices of
    /// `scope_prefix`.
    fn resolve_sig(&mut self, scope: &Scope, name: &str) -> Option<SigId> {
        let full = scope.scope_prefix.as_str();
        let mut prefix = full;
        loop {
            self.candidate.clear();
            self.candidate.push_str(prefix);
            self.candidate.push_str(name);
            if let Some(&id) = self.by_name.get(&self.candidate) {
                return Some(id);
            }
            if prefix == scope.module_prefix {
                return None;
            }
            let trimmed = &prefix[..prefix.len() - 1]; // drop trailing '.'
            prefix = match trimmed.rfind('.') {
                Some(pos) => &full[..pos + 1],
                None => "",
            };
            if prefix.len() < scope.module_prefix.len() {
                return None;
            }
        }
    }

    fn lower_proc(&mut self, proc: &Proc<'_>) -> ProtoProc {
        let mut cx = BodyCx::new(&proc.scope);
        let body = match &proc.kind {
            ProcKind::Assign { lhs, rhs } => {
                let klhs = self.lower_lval(&mut cx, lhs);
                let krhs = self.lower_expr(&mut cx, rhs);
                KProcBody::Assign { lhs: klhs, rhs: krhs }
            }
            ProcKind::Init { name, rhs } => {
                let klhs = self.lower_whole_lval(&mut cx, name);
                let krhs = self.lower_expr(&mut cx, rhs);
                KProcBody::Assign { lhs: klhs, rhs: krhs }
            }
            ProcKind::Block(stmt) => KProcBody::Block(self.lower_stmt(&mut cx, stmt)),
            ProcKind::BindIn { child, expr } => {
                let id = self.by_name.get(child).copied();
                if let Some(id) = id {
                    cx.refs.insert(id); // write target
                }
                KProcBody::BindIn { child: id, expr: self.lower_expr(&mut cx, expr) }
            }
            ProcKind::BindOut { lhs, child } => {
                let id = self.by_name.get(child).copied();
                if let Some(id) = id {
                    cx.refs.insert(id); // read source
                }
                KProcBody::BindOut { lhs: self.lower_lval(&mut cx, lhs), child: id }
            }
        };
        ProtoProc { body, nlocals: cx.next_local, refs: cx.refs, calls: cx.calls }
    }

    fn lower_seq(&mut self, proc: SeqProc<'_>) -> KSeqProc {
        let mut cx = BodyCx::new(&proc.scope);
        let body = self.lower_stmt(&mut cx, proc.body);
        KSeqProc { edges: proc.edges, nlocals: cx.next_local, body, tape: None }
    }

    /// Lowers a function for a given bound-argument count, interning it.
    /// The ID is registered before the body is lowered so recursion
    /// terminates.
    fn intern_func(
        &mut self,
        key: &str,
        func: &'d FunctionDef<'d>,
        nbound: usize,
        call_name: &str,
    ) -> u32 {
        if let Some(&id) = self.func_ids.get(&(key.to_owned(), nbound)) {
            return id;
        }
        let fid = self.funcs.len() as u32;
        self.funcs.push(KFunc {
            nlocals: 0,
            args: Box::new([]),
            ret_slot: 0,
            ret_width: func.width,
            body: KStmt::Nop,
        });
        self.func_refs.push(BTreeSet::new());
        self.func_calls.push(BTreeSet::new());
        self.func_ids.insert((key.to_owned(), nbound), fid);

        let mut cx = BodyCx::new(&func.scope);
        let mut frame = Frame::default();
        let mut args = Vec::with_capacity(nbound);
        for &(arg_name, width) in func.args.iter().take(nbound) {
            let slot = cx.alloc();
            frame.entries.push((arg_name.to_owned(), slot, width));
            args.push((slot, width));
        }
        // The return variable is keyed by the (unprefixed) call name and
        // inserted after the arguments, shadowing a same-named argument —
        // exactly like the old frame insert.
        let ret_slot = cx.alloc();
        frame.entries.push((call_name.to_owned(), ret_slot, func.width));
        cx.frames.push(frame);
        let body = self.lower_stmt(&mut cx, func.body);
        cx.frames.pop();

        self.funcs[fid as usize] = KFunc {
            nlocals: cx.next_local,
            args: args.into_boxed_slice(),
            ret_slot,
            ret_width: func.width,
            body,
        };
        self.func_refs[fid as usize] = cx.refs;
        self.func_calls[fid as usize] = cx.calls;
        fid
    }

    /// The old `natural_width` Index quirk: the base identifier is resolved
    /// through signal resolution only (locals are *not* consulted), and the
    /// width is the definition width for memories, else 1.
    fn index_nat(&mut self, cx: &BodyCx<'_>, base: &Expr) -> u32 {
        if let Some(name) = base.as_ident() {
            if let Some(id) = self.resolve_sig(cx.scope, name) {
                let def = &self.sigs[id as usize].def;
                if def.words.is_some() {
                    return def.width;
                }
            }
        }
        1
    }

    /// Lowers an index/select base: locals first, then signals, then the
    /// generic expression path (which covers parameters and unresolved
    /// names) — the exact order of the old `eval_index`/`eval_select`.
    fn lower_base(&mut self, cx: &mut BodyCx<'_>, base: &Expr) -> KBase {
        if let Some(name) = base.as_ident() {
            if let Some((slot, _)) = cx.lookup_local(name) {
                return KBase::Local(slot);
            }
            if let Some(id) = self.resolve_sig(cx.scope, name) {
                cx.refs.insert(id);
                return KBase::Sig(id);
            }
        }
        KBase::Expr(Box::new(self.lower_expr(cx, base)))
    }

    fn lower_expr(&mut self, cx: &mut BodyCx<'_>, expr: &Expr) -> KExpr {
        use BinaryOp::*;
        match expr {
            Expr::Ident { name, .. } => {
                if let Some((slot, width)) = cx.lookup_local(name) {
                    return KExpr { nat: width, kind: KExprKind::Local(slot) };
                }
                if let Some(value) = cx.scope.params.get(name) {
                    return KExpr {
                        nat: 32,
                        kind: KExprKind::Const(LogicVec::from_u64(32, *value as u64)),
                    };
                }
                if let Some(id) = self.resolve_sig(cx.scope, name) {
                    cx.refs.insert(id);
                    return KExpr {
                        nat: self.sigs[id as usize].def.width,
                        kind: KExprKind::Sig(id),
                    };
                }
                // Unresolved: evaluates to 32 x-bits, natural width 1.
                KExpr { nat: 1, kind: KExprKind::Const(LogicVec::xs(32)) }
            }
            Expr::Literal { size, base, digits, .. } => {
                let width = size.unwrap_or(32);
                let radix = base.map_or(10, Base::radix);
                KExpr { nat: width, kind: KExprKind::Const(LogicVec::from_digits(width, digits, radix)) }
            }
            Expr::Str { value, .. } => {
                let width = (8 * value.len().max(1)) as u32;
                let mut acc = LogicVec::zeros(width);
                for (i, byte) in value.bytes().rev().enumerate() {
                    for k in 0..8 {
                        if (byte >> k) & 1 == 1 {
                            acc = acc.with_bit((i * 8) as u32 + k, Bit::One);
                        }
                    }
                }
                KExpr { nat: width, kind: KExprKind::Const(acc) }
            }
            Expr::Unary { op, operand, .. } => {
                let o = self.lower_expr(cx, operand);
                let nat = match op {
                    UnaryOp::BitNot | UnaryOp::Neg | UnaryOp::Plus => o.nat,
                    _ => 1,
                };
                KExpr { nat, kind: KExprKind::Unary { op: *op, operand: Box::new(o) } }
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                let a = self.lower_expr(cx, lhs);
                let b = self.lower_expr(cx, rhs);
                let nat = match op {
                    Add | Sub | Mul | Div | Mod | Pow | BitAnd | BitOr | BitXor | BitXnor => {
                        a.nat.max(b.nat)
                    }
                    Shl | AShl | Shr | AShr => a.nat,
                    _ => 1,
                };
                KExpr { nat, kind: KExprKind::Binary { op: *op, lhs: Box::new(a), rhs: Box::new(b) } }
            }
            Expr::Ternary { cond, then_expr, else_expr, .. } => {
                let c = self.lower_expr(cx, cond);
                let t = self.lower_expr(cx, then_expr);
                let e = self.lower_expr(cx, else_expr);
                KExpr {
                    nat: t.nat.max(e.nat),
                    kind: KExprKind::Ternary {
                        cond: Box::new(c),
                        then_expr: Box::new(t),
                        else_expr: Box::new(e),
                    },
                }
            }
            Expr::Concat { parts, .. } => {
                let mut kparts = Vec::with_capacity(parts.len());
                for part in parts {
                    kparts.push(self.lower_expr(cx, part));
                }
                let nat = kparts.iter().map(|p| p.nat).sum();
                KExpr { nat, kind: KExprKind::Concat(kparts.into_boxed_slice()) }
            }
            Expr::Replicate { count, value, .. } => {
                let n = self.lower_expr(cx, count);
                let v = self.lower_expr(cx, value);
                KExpr {
                    nat: 1, // evaluated self-determined anyway
                    kind: KExprKind::Replicate { count: Box::new(n), value: Box::new(v) },
                }
            }
            Expr::Index { base, index, .. } => {
                let nat = self.index_nat(cx, base);
                let kbase = self.lower_base(cx, base);
                let kindex = self.lower_expr(cx, index);
                KExpr { nat, kind: KExprKind::Index { base: kbase, index: Box::new(kindex) } }
            }
            Expr::Select { base, left, right, mode, .. } => {
                let kbase = self.lower_base(cx, base);
                let l = self.lower_expr(cx, left);
                let r = self.lower_expr(cx, right);
                KExpr {
                    nat: 1, // conservative; evaluated self-determined
                    kind: KExprKind::Select {
                        base: kbase,
                        left: Box::new(l),
                        right: Box::new(r),
                        mode: *mode,
                    },
                }
            }
            Expr::Call { name, args, .. } => {
                let functions = self.functions;
                let key = format!("{}{name}", cx.scope.module_prefix);
                let Some(func) = functions.get(&key) else {
                    // Missing function: 1 x-bit, natural width 1.
                    return KExpr { nat: 1, kind: KExprKind::Const(LogicVec::xs(1)) };
                };
                // Only the formals with matching actuals are bound; surplus
                // actuals are dropped and unbound formals fall through to
                // signal resolution inside the body (old zip behaviour).
                let nbound = args.len().min(func.args.len());
                let fid = self.intern_func(&key, func, nbound, name);
                cx.calls.insert(fid);
                let mut kargs = Vec::with_capacity(nbound);
                for arg in &args[..nbound] {
                    kargs.push(self.lower_expr(cx, arg));
                }
                KExpr {
                    nat: func.width,
                    kind: KExprKind::Call { func: fid, args: kargs.into_boxed_slice() },
                }
            }
            Expr::SysCall { name, args, .. } => match name.as_str() {
                "clog2" => {
                    let arg = args.first().map(|a| Box::new(self.lower_expr(cx, a)));
                    KExpr { nat: 32, kind: KExprKind::Clog2(arg) }
                }
                "signed" | "unsigned" => {
                    let arg = args.first().map(|a| Box::new(self.lower_expr(cx, a)));
                    KExpr { nat: 32, kind: KExprKind::Pass(arg) }
                }
                "time" | "random" => {
                    KExpr { nat: 32, kind: KExprKind::Const(LogicVec::zeros(32)) }
                }
                _ => KExpr { nat: 32, kind: KExprKind::Const(LogicVec::xs(32)) },
            },
        }
    }

    fn lower_stmt(&mut self, cx: &mut BodyCx<'_>, stmt: &Stmt) -> KStmt {
        match stmt {
            Stmt::Block { decls, stmts, .. } => {
                let mut frame = Frame::default();
                let mut zero = Vec::new();
                for item in decls {
                    if let Item::Net { kind, range, decls, .. } = item {
                        for decl in decls {
                            let width = match range {
                                Some(r) => {
                                    let msb =
                                        const_eval::eval(&r.msb, &cx.scope.params).unwrap_or(0);
                                    let lsb =
                                        const_eval::eval(&r.lsb, &cx.scope.params).unwrap_or(0);
                                    msb.abs_diff(lsb) as u32 + 1
                                }
                                None => {
                                    if *kind == NetKind::Integer {
                                        32
                                    } else {
                                        1
                                    }
                                }
                            };
                            let slot = cx.alloc();
                            frame.entries.push((decl.name.clone(), slot, width));
                            zero.push((slot, width));
                        }
                    }
                }
                cx.frames.push(frame);
                let mut body = Vec::with_capacity(stmts.len());
                for s in stmts {
                    body.push(self.lower_stmt(cx, s));
                }
                cx.frames.pop();
                KStmt::Block { zero: zero.into_boxed_slice(), stmts: body.into_boxed_slice() }
            }
            Stmt::Assign { lhs, op, rhs, .. } => {
                let klhs = self.lower_lval(cx, lhs);
                let krhs = self.lower_expr(cx, rhs);
                KStmt::Assign { lhs: klhs, op: *op, rhs: krhs }
            }
            Stmt::If { cond, then_branch, else_branch, .. } => KStmt::If {
                cond: self.lower_expr(cx, cond),
                then_branch: Box::new(self.lower_stmt(cx, then_branch)),
                else_branch: else_branch.as_ref().map(|e| Box::new(self.lower_stmt(cx, e))),
            },
            Stmt::Case { kind, scrutinee, arms, default, .. } => {
                let kscrutinee = self.lower_expr(cx, scrutinee);
                let mut karms = Vec::with_capacity(arms.len());
                for arm in arms {
                    let mut labels = Vec::with_capacity(arm.labels.len());
                    for label in &arm.labels {
                        labels.push(self.lower_expr(cx, label));
                    }
                    karms.push(KArm {
                        labels: labels.into_boxed_slice(),
                        body: self.lower_stmt(cx, &arm.body),
                    });
                }
                KStmt::Case {
                    kind: *kind,
                    scrutinee: kscrutinee,
                    arms: karms.into_boxed_slice(),
                    default: default.as_ref().map(|d| Box::new(self.lower_stmt(cx, d))),
                }
            }
            Stmt::For { var, decl, init, cond, step, body, .. } => {
                let mut frame = Frame::default();
                let decl_slot = if decl.is_some() {
                    let slot = cx.alloc();
                    frame.entries.push((var.clone(), slot, 32));
                    Some(slot)
                } else {
                    None
                };
                cx.frames.push(frame);
                let var_ref = if let Some((slot, _)) = cx.lookup_local(var) {
                    KVarRef::Local(slot)
                } else if let Some(id) = self.resolve_sig(cx.scope, var) {
                    cx.refs.insert(id); // write target
                    KVarRef::Sig(id)
                } else {
                    KVarRef::None
                };
                let init = self.lower_expr(cx, init);
                let cond = self.lower_expr(cx, cond);
                let step = self.lower_expr(cx, step);
                let body = Box::new(self.lower_stmt(cx, body));
                cx.frames.pop();
                KStmt::For { decl_slot, var: var_ref, init, cond, step, body }
            }
            Stmt::While { cond, body, .. } => KStmt::While {
                cond: self.lower_expr(cx, cond),
                body: Box::new(self.lower_stmt(cx, body)),
            },
            Stmt::Repeat { count, body, .. } => KStmt::Repeat {
                count: self.lower_expr(cx, count),
                body: Box::new(self.lower_stmt(cx, body)),
            },
            Stmt::SysCall { .. } | Stmt::Null(_) => KStmt::Nop,
        }
    }

    fn lower_lval(&mut self, cx: &mut BodyCx<'_>, lhs: &Expr) -> KLval {
        match lhs {
            Expr::Concat { parts, .. } => {
                let mut kparts = Vec::with_capacity(parts.len());
                for part in parts {
                    kparts.push(self.lower_lval(cx, part));
                }
                KLval::Concat(kparts.into_boxed_slice())
            }
            Expr::Ident { name, .. } => self.lower_whole_lval(cx, name),
            Expr::Index { base, index, .. } => {
                let width = self.index_nat(cx, base);
                let target = self.lval_target(cx, lhs, base, &mut None);
                KLval::Index { target, index: Box::new(self.lower_expr(cx, index)), width }
            }
            Expr::Select { base, left, right, mode, .. } => {
                let mut word = None;
                let target = self.lval_target(cx, lhs, base, &mut Some(&mut word));
                KLval::Select {
                    target,
                    word,
                    left: Box::new(self.lower_expr(cx, left)),
                    right: Box::new(self.lower_expr(cx, right)),
                    mode: *mode,
                }
            }
            // Exotic l-values resolve no target and have width 1.
            _ => KLval::Whole { target: KVarRef::None, width: 1 },
        }
    }

    /// A whole-variable l-value: a local, else a signal, else nothing.
    fn lower_whole_lval(&mut self, cx: &mut BodyCx<'_>, name: &str) -> KLval {
        if let Some((slot, width)) = cx.lookup_local(name) {
            return KLval::Whole { target: KVarRef::Local(slot), width };
        }
        if let Some(id) = self.resolve_sig(cx.scope, name) {
            cx.refs.insert(id); // write target
            return KLval::Whole {
                target: KVarRef::Sig(id),
                width: self.sigs[id as usize].def.width,
            };
        }
        KLval::Whole { target: KVarRef::None, width: 1 }
    }

    /// Resolves the write target for an index/select l-value, mirroring
    /// `resolve_target` + `write_local_select`: the *root* identifier picks
    /// local vs signal, but a local is only writable when the base is the
    /// identifier itself (nested bases were silently dropped). For signal
    /// part-selects with a `mem[i][hi:lo]` shape, the word index expression
    /// is captured into `word`.
    fn lval_target(
        &mut self,
        cx: &mut BodyCx<'_>,
        lhs: &Expr,
        base: &Expr,
        word: &mut Option<&mut Option<Box<KExpr>>>,
    ) -> KVarRef {
        let Some(root) = lhs.lvalue_root() else {
            return KVarRef::None;
        };
        let root = root.to_owned();
        if cx.lookup_local(&root).is_some() {
            return match base.as_ident().and_then(|n| cx.lookup_local(n)) {
                Some((slot, _)) => KVarRef::Local(slot),
                None => KVarRef::None,
            };
        }
        if let Some(id) = self.resolve_sig(cx.scope, &root) {
            cx.refs.insert(id); // write target
            if let Some(word) = word.as_mut() {
                if let Expr::Index { index, .. } = base {
                    **word = Some(Box::new(self.lower_expr(cx, index)));
                }
            }
            return KVarRef::Sig(id);
        }
        KVarRef::None
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    /// The scope walk as first written, one `format!` per candidate: the
    /// oracle of [`Lowering::resolve_sig`].
    fn resolve_by_format(
        by_name: &HashMap<String, SigId>,
        scope: &Scope,
        name: &str,
    ) -> Option<SigId> {
        let mut prefix = scope.scope_prefix.clone();
        loop {
            if let Some(&id) = by_name.get(&format!("{prefix}{name}")) {
                return Some(id);
            }
            if prefix == scope.module_prefix {
                return None;
            }
            let trimmed = &prefix[..prefix.len() - 1];
            prefix = match trimmed.rfind('.') {
                Some(pos) => prefix[..pos + 1].to_owned(),
                None => String::new(),
            };
            if prefix.len() < scope.module_prefix.len() {
                return None;
            }
        }
    }

    fn scope(module_prefix: &str, scope_prefix: &str) -> Scope {
        Scope {
            module_prefix: module_prefix.to_owned(),
            scope_prefix: scope_prefix.to_owned(),
            params: Arc::default(),
        }
    }

    #[test]
    fn nested_generate_scopes_resolve_innermost_first_and_stop_at_the_instance() {
        let names = ["x", "w", "t", "outer[0].x", "outer[0].inner[1].x", "u.x", "u.c[0].t"];
        let functions = HashMap::new();
        let mut lw = Lowering {
            functions: &functions,
            sigs: Vec::new(),
            by_name: names
                .iter()
                .enumerate()
                .map(|(id, n)| ((*n).to_owned(), id as SigId))
                .collect(),
            funcs: Vec::new(),
            func_refs: Vec::new(),
            func_calls: Vec::new(),
            func_ids: HashMap::new(),
            candidate: String::new(),
        };
        let id = |name: &str| names.iter().position(|n| *n == name).map(|id| id as SigId);
        let cases = [
            // The innermost generate scope shadows the enclosing ones.
            (scope("", "outer[0].inner[1]."), "x", id("outer[0].inner[1].x")),
            (scope("", "outer[0].inner[0]."), "x", id("outer[0].x")),
            // With no generate-scope declaration, lookup falls back to the
            // module scope.
            (scope("", "outer[1].inner[1]."), "x", id("x")),
            (scope("", "outer[0].inner[1]."), "w", id("w")),
            (scope("", ""), "x", id("x")),
            // Inside the child instance `u` the walk ends at `u.`: the top
            // module's `t` and `w` are out of reach.
            (scope("u.", "u.c[0]."), "t", id("u.c[0].t")),
            (scope("u.", "u.c[1]."), "t", None),
            (scope("u.", "u.c[1]."), "x", id("u.x")),
            (scope("u.", "u."), "w", None),
            (scope("", "outer[0]."), "missing", None),
        ];
        for (scope, name, expected) in &cases {
            assert_eq!(
                lw.resolve_sig(scope, name),
                *expected,
                "{name} in {:?}",
                scope.scope_prefix
            );
            assert_eq!(resolve_by_format(&lw.by_name, scope, name), *expected);
        }
    }
}
