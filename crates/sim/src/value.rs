//! Arbitrary-width 4-state logic vectors.
//!
//! [`LogicVec`] stores a value of `width` bits in 64-bit limbs, with a
//! parallel *unknown* mask: a bit whose mask bit is set holds `x` (or `z`,
//! which this simulator folds into `x` except for case-equality wildcards,
//! which are tracked per-literal by the interpreter). Benchmark designs go
//! up to 256 bits (`conwaylife`), so widths are unbounded — but the
//! overwhelming majority are 64 bits or narrower, so those live in a
//! single inline limb pair (`Repr::Small`) and never touch the heap.
//!
//! Two representation invariants hold everywhere (constructors normalise):
//!
//! * `width <= 64` ⇔ `Repr::Small`, so the derived `PartialEq`/`Hash`
//!   never compare across representations;
//! * `val & unk == 0` and bits ≥ `width` are clear in both planes, so equal
//!   logical values are limb-identical.

use std::fmt;

/// One 4-state bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bit {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    X,
}

/// Limb storage: inline for widths ≤ 64, boxed limbs beyond.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Small { val: u64, unk: u64 },
    Wide { val: Box<[u64]>, unk: Box<[u64]> },
}

/// An arbitrary-width 4-state logic vector.
///
/// # Examples
///
/// ```
/// use rtlfixer_sim::value::LogicVec;
///
/// let a = LogicVec::from_u64(8, 0b1010_0110);
/// assert_eq!(a.bit(1), rtlfixer_sim::value::Bit::One);
/// assert_eq!(a.to_u64(), Some(0b1010_0110));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: u32,
    repr: Repr,
}

fn limbs_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

/// Mask for the occupied bits of the top limb of a `width`-bit vector.
fn top_mask(width: u32) -> u64 {
    u64::MAX >> ((limbs_for(width) as u32) * 64 - width)
}

impl LogicVec {
    /// All-zero vector of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn zeros(width: u32) -> Self {
        assert!(width > 0, "zero-width vector");
        let repr = if width <= 64 {
            Repr::Small { val: 0, unk: 0 }
        } else {
            let n = limbs_for(width);
            Repr::Wide { val: vec![0; n].into(), unk: vec![0; n].into() }
        };
        LogicVec { width, repr }
    }

    /// All-`x` vector of `width` bits.
    pub fn xs(width: u32) -> Self {
        let mut v = Self::zeros(width);
        for limb in v.planes_mut().1 {
            *limb = u64::MAX;
        }
        v.normalize();
        v
    }

    /// Vector holding the low `width` bits of `value`.
    pub fn from_u64(width: u32, value: u64) -> Self {
        let mut v = Self::zeros(width);
        v.planes_mut().0[0] = value;
        v.normalize();
        v
    }

    /// Vector holding the low `width` bits of `value` (u128 convenience).
    pub fn from_u128(width: u32, value: u128) -> Self {
        let mut v = Self::zeros(width);
        let val = v.planes_mut().0;
        val[0] = value as u64;
        if val.len() > 1 {
            val[1] = (value >> 64) as u64;
        }
        v.normalize();
        v
    }

    /// Builds a vector from bits, LSB first.
    pub fn from_bits<I: IntoIterator<Item = Bit>>(bits: I) -> Self {
        let bits: Vec<Bit> = bits.into_iter().collect();
        assert!(!bits.is_empty(), "zero-width vector");
        let mut v = Self::zeros(bits.len() as u32);
        let (val, unk) = v.planes_mut();
        for (i, bit) in bits.iter().enumerate() {
            match bit {
                Bit::Zero => {}
                Bit::One => val[i / 64] |= 1 << (i % 64),
                Bit::X => unk[i / 64] |= 1 << (i % 64),
            }
        }
        v
    }

    /// Value limbs, LSB first. Bits ≥ `width` are always zero.
    #[inline]
    fn val(&self) -> &[u64] {
        match &self.repr {
            Repr::Small { val, .. } => std::slice::from_ref(val),
            Repr::Wide { val, .. } => val,
        }
    }

    /// Unknown-mask limbs; set bit = x.
    #[inline]
    fn unk(&self) -> &[u64] {
        match &self.repr {
            Repr::Small { unk, .. } => std::slice::from_ref(unk),
            Repr::Wide { unk, .. } => unk,
        }
    }

    /// Both limb planes, mutably.
    #[inline]
    fn planes_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        match &mut self.repr {
            Repr::Small { val, unk } => {
                (std::slice::from_mut(val), std::slice::from_mut(unk))
            }
            Repr::Wide { val, unk } => (val, unk),
        }
    }

    /// Whether sign extension applies in [`LogicVec::resize_signed`].
    fn msb_bit(&self) -> Bit {
        self.bit(self.width - 1)
    }

    /// Parses digit text in `radix` (2, 8, 10 or 16), with `x`/`z`/`?`
    /// digits mapping whole digit positions to unknown. `width` clips or
    /// zero-extends.
    pub fn from_digits(width: u32, digits: &str, radix: u32) -> Self {
        if radix == 10 {
            // x/z in decimal are all-or-nothing.
            if digits.chars().any(|c| matches!(c, 'x' | 'z' | '?')) {
                return Self::xs(width);
            }
            let mut acc = Self::zeros(width.max(64));
            for c in digits.chars() {
                let d = c.to_digit(10).unwrap_or(0) as u64;
                acc = acc.mul_small(10).add_small(d);
            }
            return acc.resize(width);
        }
        let bits_per = match radix {
            2 => 1,
            8 => 3,
            16 => 4,
            _ => 1,
        };
        let mut bits: Vec<Bit> = Vec::new();
        for c in digits.chars().rev() {
            if matches!(c, 'x' | 'z' | '?') {
                for _ in 0..bits_per {
                    bits.push(Bit::X);
                }
            } else {
                let d = c.to_digit(radix).unwrap_or(0);
                for k in 0..bits_per {
                    bits.push(if (d >> k) & 1 == 1 { Bit::One } else { Bit::Zero });
                }
            }
        }
        if bits.is_empty() {
            bits.push(Bit::Zero);
        }
        let parsed = Self::from_bits(bits);
        parsed.resize(width)
    }

    fn mul_small(&self, m: u64) -> Self {
        let mut out = Self::zeros(self.width);
        let mut carry: u128 = 0;
        {
            let (oval, ounk) = out.planes_mut();
            for (limb, &v) in oval.iter_mut().zip(self.val()) {
                let prod = v as u128 * m as u128 + carry;
                *limb = prod as u64;
                carry = prod >> 64;
            }
            ounk.copy_from_slice(self.unk());
        }
        out.normalize();
        out
    }

    fn add_small(&self, a: u64) -> Self {
        let mut out = self.clone();
        let mut carry = a as u128;
        for limb in out.planes_mut().0 {
            let sum = *limb as u128 + carry;
            *limb = sum as u64;
            carry = sum >> 64;
            if carry == 0 {
                break;
            }
        }
        out.normalize();
        out
    }

    /// Bit width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether any bit is unknown.
    #[inline]
    pub fn has_x(&self) -> bool {
        match &self.repr {
            Repr::Small { unk, .. } => *unk != 0,
            Repr::Wide { unk, .. } => unk.iter().any(|&l| l != 0),
        }
    }

    /// The value as `u64` if it fits and has no unknown bits.
    pub fn to_u64(&self) -> Option<u64> {
        if self.has_x() {
            return None;
        }
        let val = self.val();
        if val.iter().skip(1).any(|&l| l != 0) {
            return None;
        }
        Some(val[0])
    }

    /// The value as `u128` if it fits and has no unknown bits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.has_x() {
            return None;
        }
        let val = self.val();
        if val.iter().skip(2).any(|&l| l != 0) {
            return None;
        }
        let lo = val[0] as u128;
        let hi = val.get(1).copied().unwrap_or(0) as u128;
        Some(lo | (hi << 64))
    }

    /// Copies the value limbs (LSB first) into `out`, zero-filling any
    /// excess slots. Returns `false` — leaving `out` unspecified — if any
    /// bit is unknown or the value has set bits beyond `out`'s capacity.
    ///
    /// This is the bridge onto the multi-limb two-state fast path: a
    /// register class of `L` limbs calls `to_limbs` with an `L`-slot
    /// buffer, and a `false` return routes the activation to the
    /// four-state fallback.
    pub fn to_limbs(&self, out: &mut [u64]) -> bool {
        if self.has_x() {
            return false;
        }
        let val = self.val();
        if val.len() > out.len() && val[out.len()..].iter().any(|&l| l != 0) {
            return false;
        }
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = val.get(i).copied().unwrap_or(0);
        }
        true
    }

    /// Builds an x-free vector of `width` bits from value limbs (LSB
    /// first). Missing limbs read as zero; bits at or above `width` are
    /// masked off, so a fast-path register (always masked to its static
    /// width) round-trips exactly.
    pub fn from_limbs(width: u32, limbs: &[u64]) -> Self {
        let mut v = Self::zeros(width);
        {
            let val = v.planes_mut().0;
            for (i, slot) in val.iter_mut().enumerate() {
                *slot = limbs.get(i).copied().unwrap_or(0);
            }
        }
        v.normalize();
        v
    }

    /// The bit at `idx` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= width`.
    #[inline]
    pub fn bit(&self, idx: u32) -> Bit {
        assert!(idx < self.width, "bit {idx} out of range for width {}", self.width);
        let (limb, off) = (idx as usize / 64, idx % 64);
        if (self.unk()[limb] >> off) & 1 == 1 {
            Bit::X
        } else if (self.val()[limb] >> off) & 1 == 1 {
            Bit::One
        } else {
            Bit::Zero
        }
    }

    /// Sets the bit at `idx` in place.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= width`.
    #[inline]
    pub fn set_bit(&mut self, idx: u32, bit: Bit) {
        assert!(idx < self.width, "bit {idx} out of range for width {}", self.width);
        let (limb, off) = (idx as usize / 64, idx % 64);
        let (val, unk) = self.planes_mut();
        val[limb] &= !(1 << off);
        unk[limb] &= !(1 << off);
        match bit {
            Bit::Zero => {}
            Bit::One => val[limb] |= 1 << off,
            Bit::X => unk[limb] |= 1 << off,
        }
    }

    /// Returns a copy with the bit at `idx` set to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= width`.
    pub fn with_bit(&self, idx: u32, bit: Bit) -> Self {
        let mut out = self.clone();
        out.set_bit(idx, bit);
        out
    }

    /// Zero-extends or truncates to `new_width`.
    pub fn resize(&self, new_width: u32) -> Self {
        if new_width == self.width {
            return self.clone();
        }
        let mut out = Self::zeros(new_width);
        {
            let (oval, ounk) = out.planes_mut();
            let limbs = oval.len().min(self.val().len());
            oval[..limbs].copy_from_slice(&self.val()[..limbs]);
            ounk[..limbs].copy_from_slice(&self.unk()[..limbs]);
        }
        out.normalize();
        out
    }

    /// Sign-extends (replicating the MSB) or truncates to `new_width`.
    pub fn resize_signed(&self, new_width: u32) -> Self {
        if new_width <= self.width {
            return self.resize(new_width);
        }
        let msb = self.msb_bit();
        let mut out = self.resize(new_width);
        out.fill_from(self.width, msb);
        out
    }

    /// Sets every bit at position ≥ `start` to `bit`, in place.
    fn fill_from(&mut self, start: u32, bit: Bit) {
        if start >= self.width {
            return;
        }
        let width = self.width;
        let (val, unk) = self.planes_mut();
        for limb in (start as usize / 64)..val.len() {
            // Mask of the filled positions inside this limb.
            let lo = (limb as u32) * 64;
            let from = start.saturating_sub(lo).min(64);
            if from >= 64 {
                continue;
            }
            let mask = (u64::MAX << from) & mask_upto(width, lo);
            val[limb] &= !mask;
            unk[limb] &= !mask;
            match bit {
                Bit::Zero => {}
                Bit::One => val[limb] |= mask,
                Bit::X => unk[limb] |= mask,
            }
        }
    }

    /// Extracts bits `[hi:lo]` (inclusive) as a new vector.
    ///
    /// Out-of-range positions read as `x`, matching Verilog semantics for
    /// out-of-bounds part selects.
    pub fn slice(&self, hi: u32, lo: u32) -> Self {
        assert!(hi >= lo, "inverted slice [{hi}:{lo}]");
        let width = hi - lo + 1;
        let mut out = Self::zeros(width);
        {
            let (oval, ounk) = out.planes_mut();
            shift_right_into(self.val(), lo, oval);
            shift_right_into(self.unk(), lo, ounk);
        }
        out.normalize();
        // Positions past the source width read as x.
        out.fill_from(self.width.saturating_sub(lo), Bit::X);
        out
    }

    /// Concatenates `self` (more significant) with `low` (less significant).
    pub fn concat(&self, low: &LogicVec) -> Self {
        let width = self.width + low.width;
        let mut out = Self::zeros(width);
        {
            let (oval, ounk) = out.planes_mut();
            oval[..low.val().len()].copy_from_slice(low.val());
            ounk[..low.unk().len()].copy_from_slice(low.unk());
            or_shifted_left(self.val(), low.width, oval);
            or_shifted_left(self.unk(), low.width, ounk);
        }
        out.normalize();
        out
    }

    /// Repeats `self` `count` times (`{count{self}}`).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn replicate(&self, count: u32) -> Self {
        assert!(count > 0, "zero replication");
        let mut out = self.clone();
        for _ in 1..count {
            out = out.concat(self);
        }
        out
    }

    fn normalize(&mut self) {
        let width = self.width;
        let mask = top_mask(width);
        let (val, unk) = self.planes_mut();
        if let Some(last) = val.last_mut() {
            *last &= mask;
        }
        if let Some(last) = unk.last_mut() {
            *last &= mask;
        }
    }

    /// Limb-parallel binary bitwise op: `f(av, au, bv, bu) -> (val, unk)`
    /// over zero-extended operands at the wider width.
    #[inline]
    fn bitwise(&self, other: &LogicVec, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) -> Self {
        let width = self.width.max(other.width);
        let mut out = Self::zeros(width);
        {
            let (oval, ounk) = out.planes_mut();
            for i in 0..oval.len() {
                let av = self.val().get(i).copied().unwrap_or(0);
                let au = self.unk().get(i).copied().unwrap_or(0);
                let bv = other.val().get(i).copied().unwrap_or(0);
                let bu = other.unk().get(i).copied().unwrap_or(0);
                let (v, u) = f(av, au, bv, bu);
                oval[i] = v;
                ounk[i] = u;
            }
        }
        out.normalize();
        out
    }

    /// Bitwise AND with 4-state semantics (`0 & x = 0`).
    pub fn and(&self, other: &LogicVec) -> Self {
        self.bitwise(other, |av, au, bv, bu| {
            // A bit is known-0 when neither value nor unknown is set.
            let known0 = (!av & !au) | (!bv & !bu);
            ((av & bv), (au | bu) & !known0)
        })
    }

    /// Bitwise OR with 4-state semantics (`1 | x = 1`).
    pub fn or(&self, other: &LogicVec) -> Self {
        self.bitwise(other, |av, au, bv, bu| {
            let known1 = av | bv;
            (known1, (au | bu) & !known1)
        })
    }

    /// Bitwise XOR (any x poisons the bit).
    pub fn xor(&self, other: &LogicVec) -> Self {
        self.bitwise(other, |av, au, bv, bu| {
            let unk = au | bu;
            ((av ^ bv) & !unk, unk)
        })
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Self {
        let mut out = Self::zeros(self.width);
        {
            let (oval, ounk) = out.planes_mut();
            for i in 0..oval.len() {
                oval[i] = !(self.val()[i] | self.unk()[i]);
                ounk[i] = self.unk()[i];
            }
        }
        out.normalize();
        out
    }

    /// Addition, modulo `2^width` of the wider operand. Any x → all x.
    pub fn add(&self, other: &LogicVec) -> Self {
        let width = self.width.max(other.width);
        if self.has_x() || other.has_x() {
            return Self::xs(width);
        }
        let mut out = Self::zeros(width);
        {
            let oval = out.planes_mut().0;
            let mut carry = 0u128;
            for (i, limb) in oval.iter_mut().enumerate() {
                let a = self.val().get(i).copied().unwrap_or(0);
                let b = other.val().get(i).copied().unwrap_or(0);
                let sum = a as u128 + b as u128 + carry;
                *limb = sum as u64;
                carry = sum >> 64;
            }
        }
        out.normalize();
        out
    }

    /// Subtraction (two's complement), modulo `2^width`. Any x → all x.
    pub fn sub(&self, other: &LogicVec) -> Self {
        let width = self.width.max(other.width);
        if self.has_x() || other.has_x() {
            return Self::xs(width);
        }
        let mut out = Self::zeros(width);
        {
            let oval = out.planes_mut().0;
            let mut borrow = 0u64;
            for (i, limb) in oval.iter_mut().enumerate() {
                let a = self.val().get(i).copied().unwrap_or(0);
                let b = other.val().get(i).copied().unwrap_or(0);
                let (d1, b1) = a.overflowing_sub(b);
                let (d2, b2) = d1.overflowing_sub(borrow);
                *limb = d2;
                borrow = (b1 | b2) as u64;
            }
        }
        out.normalize();
        out
    }

    /// Two's-complement negation.
    pub fn neg(&self) -> Self {
        LogicVec::zeros(self.width).sub(self)
    }

    /// Unsigned comparison: `self < other` as a 1-bit vector; x-poisoned.
    pub fn lt(&self, other: &LogicVec) -> Self {
        if self.has_x() || other.has_x() {
            return Self::xs(1);
        }
        let limbs = limbs_for(self.width.max(other.width));
        for i in (0..limbs).rev() {
            let a = self.val().get(i).copied().unwrap_or(0);
            let b = other.val().get(i).copied().unwrap_or(0);
            if a != b {
                return Self::from_u64(1, (a < b) as u64);
            }
        }
        Self::from_u64(1, 0)
    }

    /// Logical equality (`==`): x-poisoned.
    pub fn eq_logic(&self, other: &LogicVec) -> Self {
        if self.has_x() || other.has_x() {
            return Self::xs(1);
        }
        self.eq_case(other)
    }

    /// Case equality (`===`): x compares as a literal value.
    pub fn eq_case(&self, other: &LogicVec) -> Self {
        let limbs = limbs_for(self.width.max(other.width));
        let eq = (0..limbs).all(|i| {
            self.val().get(i).copied().unwrap_or(0) == other.val().get(i).copied().unwrap_or(0)
                && self.unk().get(i).copied().unwrap_or(0)
                    == other.unk().get(i).copied().unwrap_or(0)
        });
        Self::from_u64(1, eq as u64)
    }

    /// Reduction AND/OR/XOR. Returns a 1-bit vector.
    pub fn reduce(&self, op: ReduceOp) -> Self {
        let bit = match op {
            ReduceOp::And => {
                // Any known-0 bit within the width forces 0 (`0 & x = 0`).
                let any_zero = self
                    .val()
                    .iter()
                    .zip(self.unk())
                    .enumerate()
                    .any(|(i, (&v, &u))| (v | u) != mask_limb(self.width, i));
                if any_zero {
                    Bit::Zero
                } else if self.has_x() {
                    Bit::X
                } else {
                    Bit::One
                }
            }
            ReduceOp::Or => {
                // Any known-1 bit forces 1 (`1 | x = 1`).
                if self.val().iter().any(|&v| v != 0) {
                    Bit::One
                } else if self.has_x() {
                    Bit::X
                } else {
                    Bit::Zero
                }
            }
            ReduceOp::Xor => {
                if self.has_x() {
                    Bit::X
                } else {
                    let ones: u32 = self.val().iter().map(|v| v.count_ones()).sum();
                    if ones % 2 == 1 {
                        Bit::One
                    } else {
                        Bit::Zero
                    }
                }
            }
        };
        LogicVec::from_bits([bit])
    }

    /// Logical shift left by `n`.
    pub fn shl(&self, n: u32) -> Self {
        let mut out = Self::zeros(self.width);
        if n < self.width {
            let (oval, ounk) = out.planes_mut();
            or_shifted_left(self.val(), n, oval);
            or_shifted_left(self.unk(), n, ounk);
        }
        out.normalize();
        out
    }

    /// Logical shift right by `n`.
    pub fn shr(&self, n: u32) -> Self {
        let mut out = Self::zeros(self.width);
        if n < self.width {
            let (oval, ounk) = out.planes_mut();
            shift_right_into(self.val(), n, oval);
            shift_right_into(self.unk(), n, ounk);
        }
        out.normalize();
        out
    }

    /// Arithmetic shift right by `n`, replicating the MSB.
    pub fn ashr(&self, n: u32) -> Self {
        let msb = self.bit(self.width - 1);
        let mut out = self.shr(n);
        out.fill_from(self.width.saturating_sub(n), msb);
        out
    }

    /// Whether the vector is "truthy" (any bit is 1). `None` if no bit is 1
    /// but some are x.
    pub fn truthy(&self) -> Option<bool> {
        if self.val().iter().any(|&v| v != 0) {
            return Some(true);
        }
        if self.has_x() {
            None
        } else {
            Some(false)
        }
    }

    /// Wildcard match for `casez`/`casex`: positions where `label` has an x
    /// (which is how `z`/`?` digits parse) are ignored; for `casex`, x bits
    /// in the scrutinee are ignored too.
    pub fn matches_wildcard(&self, label: &LogicVec, scrutinee_wild: bool) -> bool {
        let limbs = limbs_for(self.width.max(label.width));
        (0..limbs).all(|i| {
            let av = self.val().get(i).copied().unwrap_or(0);
            let au = self.unk().get(i).copied().unwrap_or(0);
            let bv = label.val().get(i).copied().unwrap_or(0);
            let bu = label.unk().get(i).copied().unwrap_or(0);
            let mut mismatch = ((av ^ bv) | (au ^ bu)) & !bu;
            if scrutinee_wild {
                mismatch &= !au;
            }
            mismatch == 0
        })
    }
}

/// Mask of the in-width bits of limb `i` of a `width`-bit vector.
fn mask_limb(width: u32, i: usize) -> u64 {
    if i + 1 < limbs_for(width) {
        u64::MAX
    } else {
        top_mask(width)
    }
}

/// Mask of bits of the limb starting at absolute position `lo` that lie
/// below `width`.
fn mask_upto(width: u32, lo: u32) -> u64 {
    if width >= lo + 64 {
        u64::MAX
    } else if width <= lo {
        0
    } else {
        u64::MAX >> (64 - (width - lo))
    }
}

/// `out = src >> n` across limb boundaries (zero fill; `out` may be shorter
/// or longer than `src`).
fn shift_right_into(src: &[u64], n: u32, out: &mut [u64]) {
    let limb_shift = (n / 64) as usize;
    let bit_shift = n % 64;
    for (i, limb) in out.iter_mut().enumerate() {
        let lo = src.get(i + limb_shift).copied().unwrap_or(0);
        let hi = src.get(i + limb_shift + 1).copied().unwrap_or(0);
        *limb = if bit_shift == 0 { lo } else { (lo >> bit_shift) | (hi << (64 - bit_shift)) };
    }
}

/// `out |= src << n` across limb boundaries; bits shifted past `out` drop.
fn or_shifted_left(src: &[u64], n: u32, out: &mut [u64]) {
    let limb_shift = (n / 64) as usize;
    let bit_shift = n % 64;
    for (i, &limb) in src.iter().enumerate() {
        if limb == 0 {
            continue;
        }
        if let Some(dst) = out.get_mut(i + limb_shift) {
            *dst |= limb << bit_shift;
        }
        if bit_shift != 0 {
            if let Some(dst) = out.get_mut(i + limb_shift + 1) {
                *dst |= limb >> (64 - bit_shift);
            }
        }
    }
}

/// Reduction operator selector for [`LogicVec::reduce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `&v`
    And,
    /// `|v`
    Or,
    /// `^v`
    Xor,
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b", self.width)?;
        for i in (0..self.width).rev() {
            match self.bit(i) {
                Bit::Zero => write!(f, "0")?,
                Bit::One => write!(f, "1")?,
                Bit::X => write!(f, "x")?,
            }
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_u64() {
        let v = LogicVec::from_u64(16, 0xBEEF);
        assert_eq!(v.to_u64(), Some(0xBEEF));
        assert_eq!(v.width(), 16);
        assert!(!v.has_x());
    }

    #[test]
    fn truncation_on_construction() {
        let v = LogicVec::from_u64(4, 0xFF);
        assert_eq!(v.to_u64(), Some(0xF));
    }

    #[test]
    fn wide_vectors() {
        let v = LogicVec::from_u128(100, 1u128 << 99);
        assert_eq!(v.bit(99), Bit::One);
        assert_eq!(v.bit(98), Bit::Zero);
        assert_eq!(v.to_u64(), None); // too wide
        assert_eq!(v.to_u128(), Some(1u128 << 99));
    }

    #[test]
    fn from_digits_bases() {
        assert_eq!(LogicVec::from_digits(8, "ff", 16).to_u64(), Some(255));
        assert_eq!(LogicVec::from_digits(8, "1010", 2).to_u64(), Some(10));
        assert_eq!(LogicVec::from_digits(8, "17", 8).to_u64(), Some(15));
        assert_eq!(LogicVec::from_digits(8, "200", 10).to_u64(), Some(200));
        assert_eq!(LogicVec::from_digits(32, "4000000000", 10).to_u64(), Some(4_000_000_000));
    }

    #[test]
    fn from_digits_with_x() {
        let v = LogicVec::from_digits(4, "1x0z", 2);
        assert_eq!(v.bit(3), Bit::One);
        assert_eq!(v.bit(2), Bit::X);
        assert_eq!(v.bit(1), Bit::Zero);
        assert_eq!(v.bit(0), Bit::X);
        assert!(v.has_x());
        assert_eq!(v.to_u64(), None);
    }

    #[test]
    fn hex_x_covers_four_bits() {
        let v = LogicVec::from_digits(8, "fx", 16);
        assert_eq!(v.slice(7, 4).to_u64(), Some(0xF));
        assert!(v.slice(3, 0).has_x());
    }

    #[test]
    fn bitwise_truth_tables() {
        let x = LogicVec::xs(1);
        let one = LogicVec::from_u64(1, 1);
        let zero = LogicVec::from_u64(1, 0);
        assert_eq!(zero.and(&x), zero); // 0 & x = 0
        assert_eq!(one.or(&x), one); // 1 | x = 1
        assert!(one.and(&x).has_x()); // 1 & x = x
        assert!(zero.or(&x).has_x()); // 0 | x = x
        assert!(one.xor(&x).has_x());
        assert!(x.not().has_x());
    }

    #[test]
    fn add_sub_wraparound() {
        let a = LogicVec::from_u64(8, 250);
        let b = LogicVec::from_u64(8, 10);
        assert_eq!(a.add(&b).to_u64(), Some(4)); // wraps mod 256
        assert_eq!(b.sub(&a).to_u64(), Some(16)); // 10 - 250 mod 256
        assert_eq!(a.sub(&b).to_u64(), Some(240));
    }

    #[test]
    fn add_across_limbs() {
        let a = LogicVec::from_u128(100, u64::MAX as u128);
        let b = LogicVec::from_u64(100, 1);
        assert_eq!(a.add(&b).to_u128(), Some(1u128 << 64));
    }

    #[test]
    fn neg_is_twos_complement() {
        let a = LogicVec::from_u64(8, 1);
        assert_eq!(a.neg().to_u64(), Some(255));
    }

    #[test]
    fn comparisons() {
        let a = LogicVec::from_u64(8, 5);
        let b = LogicVec::from_u64(8, 9);
        assert_eq!(a.lt(&b).to_u64(), Some(1));
        assert_eq!(b.lt(&a).to_u64(), Some(0));
        assert_eq!(a.eq_logic(&a.clone()).to_u64(), Some(1));
        assert_eq!(a.eq_logic(&b).to_u64(), Some(0));
    }

    #[test]
    fn comparison_with_x_is_x() {
        let a = LogicVec::from_u64(4, 5);
        let x = LogicVec::xs(4);
        assert!(a.lt(&x).has_x());
        assert!(a.eq_logic(&x).has_x());
        // but case equality is exact
        assert_eq!(x.eq_case(&LogicVec::xs(4)).to_u64(), Some(1));
        assert_eq!(a.eq_case(&x).to_u64(), Some(0));
    }

    #[test]
    fn slices_and_concat() {
        let v = LogicVec::from_u64(8, 0b1100_0101);
        assert_eq!(v.slice(3, 0).to_u64(), Some(0b0101));
        assert_eq!(v.slice(7, 4).to_u64(), Some(0b1100));
        let joined = v.slice(7, 4).concat(&v.slice(3, 0));
        assert_eq!(joined, v);
    }

    #[test]
    fn out_of_range_slice_reads_x() {
        let v = LogicVec::from_u64(4, 0b1111);
        let s = v.slice(5, 3);
        assert_eq!(s.bit(0), Bit::One);
        assert_eq!(s.bit(1), Bit::X);
        assert_eq!(s.bit(2), Bit::X);
    }

    #[test]
    fn replicate_width_and_pattern() {
        let v = LogicVec::from_u64(2, 0b10);
        let r = v.replicate(3);
        assert_eq!(r.width(), 6);
        assert_eq!(r.to_u64(), Some(0b101010));
    }

    #[test]
    fn reductions() {
        let v = LogicVec::from_u64(4, 0b1111);
        assert_eq!(v.reduce(ReduceOp::And).to_u64(), Some(1));
        assert_eq!(v.reduce(ReduceOp::Xor).to_u64(), Some(0));
        let w = LogicVec::from_u64(4, 0b0111);
        assert_eq!(w.reduce(ReduceOp::And).to_u64(), Some(0));
        assert_eq!(w.reduce(ReduceOp::Or).to_u64(), Some(1));
        assert_eq!(w.reduce(ReduceOp::Xor).to_u64(), Some(1));
    }

    #[test]
    fn reduction_short_circuits_x() {
        // 0 & x is still 0; 1 | x is still 1.
        let v = LogicVec::from_bits([Bit::Zero, Bit::X]);
        assert_eq!(v.reduce(ReduceOp::And).to_u64(), Some(0));
        let w = LogicVec::from_bits([Bit::One, Bit::X]);
        assert_eq!(w.reduce(ReduceOp::Or).to_u64(), Some(1));
        assert!(w.reduce(ReduceOp::Xor).has_x());
    }

    #[test]
    fn shifts() {
        let v = LogicVec::from_u64(8, 0b0001_1000);
        assert_eq!(v.shl(2).to_u64(), Some(0b0110_0000));
        assert_eq!(v.shr(3).to_u64(), Some(0b0000_0011));
        let s = LogicVec::from_u64(4, 0b1000);
        assert_eq!(s.ashr(2).to_u64(), Some(0b1110));
        assert_eq!(s.shr(2).to_u64(), Some(0b0010));
        assert_eq!(v.shl(64).to_u64(), Some(0));
    }

    #[test]
    fn resize_signed_extends_msb() {
        let v = LogicVec::from_u64(4, 0b1010);
        assert_eq!(v.resize_signed(8).to_u64(), Some(0b1111_1010));
        assert_eq!(v.resize(8).to_u64(), Some(0b0000_1010));
        let p = LogicVec::from_u64(4, 0b0010);
        assert_eq!(p.resize_signed(8).to_u64(), Some(0b0000_0010));
    }

    #[test]
    fn truthiness() {
        assert_eq!(LogicVec::from_u64(4, 0).truthy(), Some(false));
        assert_eq!(LogicVec::from_u64(4, 2).truthy(), Some(true));
        assert_eq!(LogicVec::xs(4).truthy(), None);
        // A 1 anywhere wins even with x elsewhere.
        let v = LogicVec::from_bits([Bit::One, Bit::X]);
        assert_eq!(v.truthy(), Some(true));
    }

    #[test]
    fn wildcard_matching_casez() {
        // Label 4'b1?0? ignores positions with x (z/? parse as x).
        let label = LogicVec::from_digits(4, "1z0z", 2);
        assert!(LogicVec::from_u64(4, 0b1000).matches_wildcard(&label, false));
        assert!(LogicVec::from_u64(4, 0b1101).matches_wildcard(&label, false));
        assert!(!LogicVec::from_u64(4, 0b0000).matches_wildcard(&label, false));
        assert!(!LogicVec::from_u64(4, 0b1110).matches_wildcard(&label, false));
    }

    #[test]
    fn display_format() {
        let v = LogicVec::from_digits(4, "1x01", 2);
        assert_eq!(v.to_string(), "4'b1x01");
    }

    #[test]
    #[should_panic(expected = "zero-width")]
    fn zero_width_panics() {
        let _ = LogicVec::zeros(0);
    }

    #[test]
    fn limb_allocation_at_width_edges() {
        // Widths straddling the 64-bit limb boundaries: 1, 63, 64, 65, 256.
        for (width, limbs) in [(1u32, 1usize), (63, 1), (64, 1), (65, 2), (256, 4)] {
            assert_eq!(limbs_for(width), limbs, "width {width}");
        }
    }

    #[test]
    fn limb_round_trips_at_boundaries() {
        for width in [65u32, 128, 129, 256] {
            // A pattern touching the top and bottom limb of each class.
            let mut v = LogicVec::zeros(width);
            v.set_bit(0, Bit::One);
            v.set_bit(width - 1, Bit::One);
            if width > 64 {
                v.set_bit(64, Bit::One);
            }
            let mut limbs = [0u64; 4];
            assert!(v.to_limbs(&mut limbs), "width {width}");
            assert_eq!(LogicVec::from_limbs(width, &limbs), v, "width {width}");
        }
        // Small widths land in Repr::Small and round-trip through one slot.
        let small = LogicVec::from_u64(17, 0x1_ABCD);
        let mut one = [0u64; 1];
        assert!(small.to_limbs(&mut one));
        assert_eq!(one[0], 0x1_ABCD);
        assert_eq!(LogicVec::from_limbs(17, &one), small);
    }

    #[test]
    fn to_limbs_rejects_x_and_overflow() {
        let mut buf = [0u64; 2];
        assert!(!LogicVec::xs(65).to_limbs(&mut buf));
        // 129-bit value with bit 128 set does not fit two limbs...
        let mut tall = LogicVec::zeros(129);
        tall.set_bit(128, Bit::One);
        assert!(!tall.to_limbs(&mut buf));
        // ...but the same vector with only low bits set does.
        let mut low = LogicVec::zeros(129);
        low.set_bit(3, Bit::One);
        assert!(low.to_limbs(&mut buf));
        assert_eq!(buf, [8, 0]);
    }

    #[test]
    fn from_limbs_masks_excess_bits() {
        // Bits at or above `width` in the limb data are dropped, and the
        // result stays representation-normal (width <= 64 => Small).
        let v = LogicVec::from_limbs(65, &[u64::MAX, u64::MAX, u64::MAX, u64::MAX]);
        assert_eq!(v.bit(64), Bit::One);
        assert_eq!(v.to_u128(), Some((1u128 << 65) - 1));
        let s = LogicVec::from_limbs(8, &[0xFFFF]);
        assert_eq!(s.to_u64(), Some(0xFF));
        assert_eq!(s, LogicVec::from_u64(8, 0xFF));
    }

    #[test]
    fn width_edge_round_trips() {
        for width in [1u32, 63, 64, 65, 256] {
            // Zeros: all bits readable, none set, no x.
            let zeros = LogicVec::zeros(width);
            assert_eq!(zeros.width(), width);
            assert!(!zeros.has_x(), "width {width}");
            assert_eq!(zeros.bit(width - 1), Bit::Zero, "width {width}");

            // The top bit sets and reads back; lower bits stay clear.
            let mut top = LogicVec::zeros(width);
            top.set_bit(width - 1, Bit::One);
            assert_eq!(top.bit(width - 1), Bit::One, "width {width}");
            if width > 1 {
                assert_eq!(top.bit(width - 2), Bit::Zero, "width {width}");
            }

            // NOT flips every bit including across limb boundaries.
            let inverted = top.not();
            assert_eq!(inverted.bit(width - 1), Bit::Zero, "width {width}");
            if width > 1 {
                assert_eq!(inverted.bit(0), Bit::One, "width {width}");
            }

            // All-x round trip.
            let xs = LogicVec::xs(width);
            assert!(xs.has_x(), "width {width}");
            assert_eq!(xs.bit(width - 1), Bit::X, "width {width}");
            assert_eq!(xs.to_u64(), None, "width {width}");
        }
        // to_u64 works exactly up to 64 bits of value.
        assert_eq!(LogicVec::from_u64(63, u64::MAX >> 1).to_u64(), Some(u64::MAX >> 1));
        assert_eq!(LogicVec::from_u64(64, u64::MAX).to_u64(), Some(u64::MAX));
        let mut wide = LogicVec::zeros(65);
        wide.set_bit(64, Bit::One);
        assert_eq!(wide.bit(64), Bit::One);
        assert_eq!(wide.bit(63), Bit::Zero);
    }
}
