//! Generic two-state fast-tape executor over `L`-limb registers.
//!
//! PR 6 introduced the scalar (`u64`) fast path; this module generalises
//! it over a compile-time register class: register `r` occupies limbs
//! `[r*L, (r+1)*L)` of the flat `fregs` file. `L = 1` is required to be
//! bit-identical to the original scalar loop (monomorphisation folds the
//! limb loops away); `L = 2` / `L = 4` keep 65–256-bit arithmetic on the
//! fast stream.
//!
//! The fallback contract is unchanged: any situation where the four-state
//! tape would produce x/z — an x in the input cone, a zero divisor, an
//! out-of-range select, or a *value* that the tree's `to_u64`/`to_u128`
//! narrowing would reject (upper limbs set where a scalar is needed) —
//! returns `false` strictly before any state mutation, and the caller
//! re-runs the four-state ops. Where the tree instead *drops* a write
//! (`to_u64`-guarded store indices), the fast path drops it too.
//!
//! Runaway loops are fast-forwarded: a loop that never exits on its own
//! condition runs to the `MAX_LOOP` cap, and once its back-edge state
//! repeats, whole periods of it are skipped (see [`probe_loop`]).

use rtlfixer_verilog::const_eval::clog2;

use crate::interp::{note_change, set_state, select_bounds, NbaWrite, StateValue, Target, WriteLog, MAX_LOOP};
use crate::lower::Kernel;
use crate::tape::{bitmask, FOp, FastTape, VReg};
use crate::value::LogicVec;
use crate::wide;

/// Reads register `r` by value.
#[inline(always)]
fn rd<const L: usize>(fregs: &[u64], r: VReg) -> [u64; L] {
    let mut out = [0u64; L];
    out.copy_from_slice(&fregs[r as usize * L..r as usize * L + L]);
    out
}

/// Writes register `r`.
#[inline(always)]
fn wr<const L: usize>(fregs: &mut [u64], r: VReg, v: [u64; L]) {
    fregs[r as usize * L..r as usize * L + L].copy_from_slice(&v);
}

/// Narrows a register to `u64` exactly like the tree's `to_u64`: `None`
/// when any upper limb is set.
#[inline(always)]
fn scal<const L: usize>(v: &[u64; L]) -> Option<u64> {
    if v[1..].iter().any(|&l| l != 0) {
        None
    } else {
        Some(v[0])
    }
}

/// Narrows a register to `u128` exactly like the tree's `to_u128`.
#[inline(always)]
fn scal128<const L: usize>(v: &[u64; L]) -> Option<u128> {
    if v.len() > 2 && v[2..].iter().any(|&l| l != 0) {
        return None;
    }
    let hi = if L > 1 { v[1] } else { 0 };
    Some(u128::from(v[0]) | u128::from(hi) << 64)
}

/// Spreads a `u128` across limbs (zero above), mirroring `from_u128`.
#[inline(always)]
fn from_u128<const L: usize>(x: u128) -> [u64; L] {
    let mut out = [0u64; L];
    out[0] = x as u64;
    if L > 1 {
        out[1] = (x >> 64) as u64;
    }
    out
}

/// Loads the input cone into shadow registers, recording originals in
/// `forig` (stride `L`). Returns `false` on any x/z or over-wide value.
#[inline]
fn load_cone<const L: usize>(
    state: &[StateValue],
    fast: &FastTape,
    fregs: &mut [u64],
    forig: &mut Vec<u64>,
) -> bool {
    for c in fast.cone.iter() {
        let base = c.reg as usize * L;
        let ok = match &state[c.sig as usize] {
            StateValue::Vec(v) => v.to_limbs(&mut fregs[base..base + L]),
            StateValue::Array(_) => false,
        };
        if !ok {
            return false;
        }
        forig.extend_from_slice(&fregs[base..base + L]);
    }
    true
}

/// Epilogue: commits changed cone shadows (and bare dirty marks for
/// change-then-revert writes), reproducing the tree walker's `set_state`
/// skip/dirty behaviour.
#[inline]
fn commit_cone<const L: usize>(
    state: &mut [StateValue],
    fast: &FastTape,
    fregs: &[u64],
    forig: &[u64],
    sticky: u64,
    log: &mut Option<WriteLog<'_>>,
) {
    for (i, c) in fast.cone.iter().enumerate() {
        if !c.written {
            continue;
        }
        let raw = rd::<L>(fregs, c.reg);
        if raw != forig[i * L..(i + 1) * L] {
            set_state(state, log, c.sig, StateValue::Vec(LogicVec::from_limbs(c.width, &raw)));
        } else if sticky & (1 << i) != 0 {
            note_change(state, log, c.sig);
        }
    }
}

/// Back-edge count at which a loop instance starts to be probed for a
/// repeating state. Loops that end on their own condition stay below it
/// (the longest in the corpus runs 100 trips), so they never pay for a
/// probe.
const PROBE_TRIPS: u64 = 1024;

/// Brent cycle detection for the current instance of one loop (keyed by
/// its counter). The snapshot is the fast tape's whole execution state at
/// the loop's back edge when the counter read `at`.
#[derive(Default)]
struct LoopProbe {
    ctr: usize,
    at: u64,
    /// Trips after `at` before the snapshot moves forward (a power of two).
    power: u64,
    regs: Vec<u64>,
    ctrs: Vec<u64>,
    sticky: u64,
    nba: usize,
}

/// Probes the loop whose counter `ctr` has just reached `PROBE_TRIPS` or
/// more while staying below `limit`, i.e. the back edge is taken.
///
/// The fast tape reads real state only in `load_cone` and buffers every
/// write (cone shadows, `sticky`, `fnba`) until `commit_cone`, so the
/// registers, the other counters, `sticky` and `fnba.len()` determine the
/// rest of the run; this loop's own counter is read only by this back edge.
/// When that state repeats after λ trips, every later trip replays the same
/// period with the loop condition true, so the loop can only end at the
/// cap. The counter then advances by the largest multiple of λ that keeps
/// it below `limit`, and the remaining trips (at most λ) run normally. A
/// loop that queues deferred NBA writes grows `fnba`, so its state never
/// repeats and it is never skipped.
#[cold]
#[inline(never)]
fn probe_loop(
    probes: &mut Vec<LoopProbe>,
    ctr: usize,
    limit: u64,
    fregs: &[u64],
    fctrs: &mut [u64],
    sticky: u64,
    nba: usize,
) {
    let n = fctrs[ctr];
    let i = probes.iter().position(|p| p.ctr == ctr).unwrap_or_else(|| {
        probes.push(LoopProbe { ctr, ..LoopProbe::default() });
        probes.len() - 1
    });
    let p = &mut probes[i];
    // Every instance counts up from zero, so it reaches `PROBE_TRIPS`
    // exactly once: that is where a snapshot of an earlier instance of the
    // same loop is discarded (a new probe has `power` 0).
    let restart = n == PROBE_TRIPS || p.power == 0;
    if !restart {
        let lam = n - p.at;
        let same = p.sticky == sticky
            && p.nba == nba
            && p.regs == fregs
            && p.ctrs[..ctr] == fctrs[..ctr]
            && p.ctrs[ctr + 1..] == fctrs[ctr + 1..];
        if same {
            let skip = (limit - 1 - n) / lam * lam;
            if skip > 0 {
                fctrs[ctr] = n + skip;
                rtlfixer_obs::counter_add("sim.loop_fast_forwards", 1);
            }
            return;
        }
        if lam < p.power {
            return;
        }
    }
    p.at = n;
    p.power = if restart { 1 } else { p.power * 2 };
    p.regs.clear();
    p.regs.extend_from_slice(fregs);
    p.ctrs.clear();
    p.ctrs.extend_from_slice(fctrs);
    p.sticky = sticky;
    p.nba = nba;
}

/// Executes a two-state fast tape over `L`-limb registers. Returns
/// `false` — strictly before any real state mutation — when the input
/// cone holds x/z or an op would produce it; the caller then re-runs the
/// four-state tape. Signal writes are buffered in cone shadow registers
/// (non-blocking ones in `fnba` when an NBA queue is active) and
/// committed by the epilogue, reproducing the tree walker's `set_state`
/// skip/dirty behaviour including change-then-revert dirtying.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub(crate) fn run_fast_tape<const L: usize>(
    k: &Kernel,
    state: &mut [StateValue],
    fast: &FastTape,
    nctrs: u32,
    fregs: &mut Vec<u64>,
    fctrs: &mut Vec<u64>,
    forig: &mut Vec<u64>,
    fnba: &mut Vec<NbaWrite>,
    nba: &mut Option<&mut Vec<NbaWrite>>,
    log: &mut Option<WriteLog<'_>>,
) -> bool {
    fregs.clear();
    fregs.resize(fast.nregs as usize * L, 0);
    fctrs.clear();
    fctrs.resize(nctrs as usize, 0);
    forig.clear();
    fnba.clear();
    if !load_cone::<L>(state, fast, fregs, forig) {
        return false;
    }
    // Non-blocking writes defer only when an NBA queue is active (edge
    // context); in combinational context the tree commits them immediately.
    let defer = nba.is_some();
    // Bit i set: cone signal i was written with a differing value at some
    // point (change-then-revert still dirties, like repeated `set_state`).
    let mut sticky: u64 = 0;
    let mut probes: Vec<LoopProbe> = Vec::new();
    let ops = &fast.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            FOp::Nop => {}
            FOp::Fallback => return false,
            FOp::Const { dst, val } => wr(fregs, *dst, wide::from_u64::<L>(*val)),
            FOp::ConstW { dst, c } => {
                let base = *c as usize * L;
                let mut v = [0u64; L];
                v.copy_from_slice(&fast.wconsts[base..base + L]);
                wr(fregs, *dst, v);
            }
            FOp::Copy { dst, src } => {
                let v = rd::<L>(fregs, *src);
                wr(fregs, *dst, v);
            }
            FOp::Not { dst, src, w } => {
                let v = wide::not(rd::<L>(fregs, *src), *w);
                wr(fregs, *dst, v);
            }
            FOp::Neg { dst, src, w } => {
                let v = wide::neg(rd::<L>(fregs, *src), *w);
                wr(fregs, *dst, v);
            }
            FOp::LogNot { dst, src } => {
                let z = wide::is_zero(rd::<L>(fregs, *src));
                wr(fregs, *dst, wide::from_u64::<L>(z as u64));
            }
            FOp::Reduce { dst, src, w, kind, neg } => {
                let r = rd::<L>(fregs, *src);
                let bit = match kind {
                    0 => wide::eq(r, wide::ones(*w)),
                    1 => !wide::is_zero(r),
                    _ => wide::parity(r),
                };
                wr(fregs, *dst, wide::from_u64::<L>((bit != *neg) as u64));
            }
            FOp::Add { dst, a, b, w } => {
                let v = wide::add(rd::<L>(fregs, *a), rd::<L>(fregs, *b), *w);
                wr(fregs, *dst, v);
            }
            FOp::Sub { dst, a, b, w } => {
                let v = wide::sub(rd::<L>(fregs, *a), rd::<L>(fregs, *b), *w);
                wr(fregs, *dst, v);
            }
            FOp::Mul { dst, a, b, w } => {
                // The reference multiplies through u128 (`eval_binary`), so
                // the wide product is the u128-truncated one; operands past
                // 128 bits would read x there and bail here.
                let (Some(x), Some(y)) =
                    (scal128(&rd::<L>(fregs, *a)), scal128(&rd::<L>(fregs, *b)))
                else {
                    return false;
                };
                wr(fregs, *dst, wide::mask(from_u128::<L>(x.wrapping_mul(y)), *w));
            }
            FOp::Div { dst, a, b } => {
                let (Some(x), Some(y)) =
                    (scal128(&rd::<L>(fregs, *a)), scal128(&rd::<L>(fregs, *b)))
                else {
                    return false;
                };
                if y == 0 {
                    return false;
                }
                wr(fregs, *dst, from_u128::<L>(x / y));
            }
            FOp::Mod { dst, a, b } => {
                let (Some(x), Some(y)) =
                    (scal128(&rd::<L>(fregs, *a)), scal128(&rd::<L>(fregs, *b)))
                else {
                    return false;
                };
                if y == 0 {
                    return false;
                }
                wr(fregs, *dst, from_u128::<L>(x % y));
            }
            FOp::Pow { dst, a, b, w } => {
                let (Some(x), Some(y)) =
                    (scal128(&rd::<L>(fregs, *a)), scal128(&rd::<L>(fregs, *b)))
                else {
                    return false;
                };
                let mut acc: u128 = 1;
                for _ in 0..y.min(128) {
                    acc = acc.wrapping_mul(x);
                }
                wr(fregs, *dst, wide::mask(from_u128::<L>(acc), *w));
            }
            FOp::And { dst, a, b } => {
                let v = wide::and(rd::<L>(fregs, *a), rd::<L>(fregs, *b));
                wr(fregs, *dst, v);
            }
            FOp::Or { dst, a, b } => {
                let v = wide::or(rd::<L>(fregs, *a), rd::<L>(fregs, *b));
                wr(fregs, *dst, v);
            }
            FOp::Xor { dst, a, b } => {
                let v = wide::xor(rd::<L>(fregs, *a), rd::<L>(fregs, *b));
                wr(fregs, *dst, v);
            }
            FOp::Xnor { dst, a, b, w } => {
                let v = wide::not(wide::xor(rd::<L>(fregs, *a), rd::<L>(fregs, *b)), *w);
                wr(fregs, *dst, v);
            }
            FOp::Lt { dst, a, b, neg } => {
                let lt = wide::lt(rd::<L>(fregs, *a), rd::<L>(fregs, *b));
                wr(fregs, *dst, wide::from_u64::<L>((lt != *neg) as u64));
            }
            FOp::Eq { dst, a, b, neg } => {
                let eq = wide::eq(rd::<L>(fregs, *a), rd::<L>(fregs, *b));
                wr(fregs, *dst, wide::from_u64::<L>((eq != *neg) as u64));
            }
            FOp::LogAnd { dst, a, b } => {
                let t = !wide::is_zero(rd::<L>(fregs, *a)) && !wide::is_zero(rd::<L>(fregs, *b));
                wr(fregs, *dst, wide::from_u64::<L>(t as u64));
            }
            FOp::LogOr { dst, a, b } => {
                let t = !wide::is_zero(rd::<L>(fregs, *a)) || !wide::is_zero(rd::<L>(fregs, *b));
                wr(fregs, *dst, wide::from_u64::<L>(t as u64));
            }
            FOp::Shl { dst, a, b, w } => {
                let Some(n) = scal(&rd::<L>(fregs, *b)) else { return false };
                let v = wide::shl(rd::<L>(fregs, *a), n, *w);
                wr(fregs, *dst, v);
            }
            FOp::Shr { dst, a, b, w } => {
                let Some(n) = scal(&rd::<L>(fregs, *b)) else { return false };
                let v = wide::shr(rd::<L>(fregs, *a), n, *w);
                wr(fregs, *dst, v);
            }
            FOp::Ashr { dst, a, b, w } => {
                let Some(n) = scal(&rd::<L>(fregs, *b)) else { return false };
                let v = wide::ashr(rd::<L>(fregs, *a), n, *w);
                wr(fregs, *dst, v);
            }
            FOp::Resize { dst, src, w } => {
                let v = wide::mask(rd::<L>(fregs, *src), *w);
                wr(fregs, *dst, v);
            }
            FOp::Concat { dst, parts } => {
                let mut acc = [0u64; L];
                for &(r, w) in parts.iter() {
                    acc = wide::or(wide::shl_raw(acc, w), rd::<L>(fregs, r));
                }
                wr(fregs, *dst, acc);
            }
            FOp::ReplicateC { dst, src, count, w } => {
                let v = rd::<L>(fregs, *src);
                let mut acc = [0u64; L];
                for _ in 0..*count {
                    acc = wide::or(wide::shl_raw(acc, *w), v);
                }
                wr(fregs, *dst, acc);
            }
            FOp::Slice { dst, src, lo, w } => {
                let v = wide::extract(rd::<L>(fregs, *src), *lo, *w);
                wr(fregs, *dst, v);
            }
            FOp::IndexSig { dst, shadow, sig, idx } => {
                let Some(i) = scal(&rd::<L>(fregs, *idx)) else { return false };
                let Some(off) = k.sigs[*sig as usize].def.offset(i as i64) else {
                    return false;
                };
                let b = wide::bit(rd::<L>(fregs, *shadow), off);
                wr(fregs, *dst, wide::from_u64::<L>(b));
            }
            FOp::IndexVal { dst, base, idx, basew } => {
                let Some(i) = scal(&rd::<L>(fregs, *idx)) else { return false };
                if i >= u64::from(*basew) {
                    return false;
                }
                let b = wide::bit(rd::<L>(fregs, *base), i as u32);
                wr(fregs, *dst, wide::from_u64::<L>(b));
            }
            FOp::SelectSigW { dst, shadow, sig, left, span, mode } => {
                let Some(l) = scal(&rd::<L>(fregs, *left)) else { return false };
                let (hi_idx, lo_idx) = select_bounds(l as i64, *span as i64, *mode);
                let def = &k.sigs[*sig as usize].def;
                let (Some(a), Some(b)) = (def.offset(hi_idx), def.offset(lo_idx)) else {
                    return false;
                };
                let v = wide::extract(rd::<L>(fregs, *shadow), a.min(b), *span);
                wr(fregs, *dst, v);
            }
            FOp::SelectValW { dst, base, left, span, mode, basew } => {
                let Some(l) = scal(&rd::<L>(fregs, *left)) else { return false };
                let (hi_idx, lo_idx) = select_bounds(l as i64, *span as i64, *mode);
                if lo_idx < 0 || hi_idx >= i64::from(*basew) {
                    return false;
                }
                let v = wide::extract(rd::<L>(fregs, *base), lo_idx as u32, *span);
                wr(fregs, *dst, v);
            }
            FOp::Clog2 { dst, src } => {
                // The tree's clog2_val reads `to_u64().unwrap_or(0)`.
                let v = scal(&rd::<L>(fregs, *src)).unwrap_or(0);
                wr(fregs, *dst, wide::from_u64::<L>(clog2(v as i64) as u64 & bitmask(32)));
            }
            FOp::Zero { dst } => wr(fregs, *dst, [0u64; L]),
            FOp::StoreWhole { shadow, cone, src, w, nb, sig } => {
                let raw = wide::mask(rd::<L>(fregs, *src), *w);
                if *nb && defer {
                    fnba.push(NbaWrite {
                        target: Target::Whole(*sig),
                        value: LogicVec::from_limbs(*w, &raw),
                    });
                } else if rd::<L>(fregs, *shadow) != raw {
                    sticky |= 1 << *cone;
                    wr(fregs, *shadow, raw);
                }
            }
            FOp::StoreBitsC { shadow, cone, hi, lo, src, nb, sig } => {
                let span = *hi - *lo + 1;
                let chunk = wide::mask(rd::<L>(fregs, *src), span);
                if *nb && defer {
                    fnba.push(NbaWrite {
                        target: Target::Bits(*sig, *hi, *lo),
                        value: LogicVec::from_limbs(span, &chunk),
                    });
                } else {
                    let cur = rd::<L>(fregs, *shadow);
                    let new = wide::insert(cur, *lo, span, chunk);
                    if new != cur {
                        sticky |= 1 << *cone;
                        wr(fregs, *shadow, new);
                    }
                }
            }
            FOp::StoreIndexSig { shadow, cone, idx, src, nb, sig } => {
                // Out-of-range (or over-wide) indices drop the write, like
                // the tree path's `to_u64`-guarded assign.
                if let Some(i) = scal(&rd::<L>(fregs, *idx)) {
                    if let Some(off) = k.sigs[*sig as usize].def.offset(i as i64) {
                        let b = rd::<L>(fregs, *src)[0] & 1;
                        if *nb && defer {
                            fnba.push(NbaWrite {
                                target: Target::Bits(*sig, off, off),
                                value: LogicVec::from_u64(1, b),
                            });
                        } else {
                            let cur = rd::<L>(fregs, *shadow);
                            let new = wide::insert(cur, off, 1, wide::from_u64::<L>(b));
                            if new != cur {
                                sticky |= 1 << *cone;
                                wr(fregs, *shadow, new);
                            }
                        }
                    }
                }
            }
            FOp::StoreLocal { slot, src, w } => {
                let v = wide::mask(rd::<L>(fregs, *src), *w);
                wr(fregs, *slot, v);
            }
            FOp::StoreLocalBits { slot, idx, src, slotw } => {
                // The truncating cast matches the tree's `v as u32`.
                if let Some(i) = scal(&rd::<L>(fregs, *idx)) {
                    let i = i as u32;
                    if i < *slotw {
                        let b = rd::<L>(fregs, *src)[0] & 1;
                        let cur = rd::<L>(fregs, *slot);
                        wr(fregs, *slot, wide::insert(cur, i, 1, wide::from_u64::<L>(b)));
                    }
                }
            }
            FOp::StoreLocalBitsC { slot, hi, lo, src } => {
                let span = *hi - *lo + 1;
                let chunk = wide::mask(rd::<L>(fregs, *src), span);
                let cur = rd::<L>(fregs, *slot);
                wr(fregs, *slot, wide::insert(cur, *lo, span, chunk));
            }
            FOp::Jump { to } => {
                pc = *to as usize;
                continue;
            }
            FOp::BranchTruthy { cond, on_true, on_false } => {
                let t = !wide::is_zero(rd::<L>(fregs, *cond));
                pc = if t { *on_true } else { *on_false } as usize;
                continue;
            }
            FOp::BranchMatchC { scrut, cmp, care, on_hit } => {
                // Scrutinee is compile-time restricted to ≤ 64 bits.
                if (rd::<L>(fregs, *scrut)[0] ^ cmp) & care == 0 {
                    pc = *on_hit as usize;
                    continue;
                }
            }
            FOp::BranchMatchR { scrut, label, on_hit } => {
                if rd::<L>(fregs, *scrut) == rd::<L>(fregs, *label) {
                    pc = *on_hit as usize;
                    continue;
                }
            }
            FOp::ZeroCtr { ctr } => fctrs[*ctr as usize] = 0,
            FOp::IncCtrJumpLt { ctr, limit, to } => {
                let c = *ctr as usize;
                fctrs[c] += 1;
                if fctrs[c] < u64::from(*limit) {
                    if fctrs[c] >= PROBE_TRIPS {
                        probe_loop(&mut probes, c, u64::from(*limit), fregs, fctrs, sticky, fnba.len());
                    }
                    pc = *to as usize;
                    continue;
                }
            }
            FOp::RepeatInit { ctr, count } => {
                // The tree reads the count via `to_u64().unwrap_or(0)`.
                let v = scal(&rd::<L>(fregs, *count)).unwrap_or(0);
                fctrs[*ctr as usize] = v.min(MAX_LOOP as u64);
            }
            FOp::BranchCtrZeroDec { ctr, on_zero } => {
                if fctrs[*ctr as usize] == 0 {
                    pc = *on_zero as usize;
                    continue;
                }
                fctrs[*ctr as usize] -= 1;
            }
        }
        pc += 1;
    }
    commit_cone::<L>(state, fast, fregs, forig, sticky, log);
    if let Some(queue) = nba {
        queue.append(fnba);
    } else {
        fnba.clear();
    }
    true
}
