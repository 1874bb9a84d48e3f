//! Deterministic JSON fragment writers for the JSON-lines sink.
//!
//! The obs crate sits below `mcs-model` in the dependency graph, so it
//! cannot use `mcs_model::json`; the handful of primitives the ledger and
//! the journal need live here instead, appending bytes to a `Vec<u8>`.
//!
//! Determinism contract: the same value always renders to the same bytes,
//! so two runs of the same seeded workload produce byte-identical event
//! streams — the property the `obs-smoke` CI job diffs for. Numbers go
//! through an in-tree shortest round-trip writer ([`push_num`]): Ryū's
//! digit generation (Adams, *Ryū: Fast Float-to-String Conversion*,
//! PLDI 2018) over tables derived at compile time, laid out the way Rust's
//! `f64` `Display` lays them out. What pins the bytes is this module's
//! code and the workspace's std-equality tests (`tests/float_writer.rs`),
//! which compare it with `format!("{v}")` over every power of two and ten,
//! constructed rounding ties, subnormals and seeded random bit patterns.
//! The ledger emit renders through a `NumMemo`, which replays the bytes
//! it rendered for the same bits before: a 255k-event ledger renders
//! 583k non-integral values with only 24k distinct bit patterns.

/// Appends a JSON string literal (quoted, escaped).
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    out.push(b'"');
    // Text without a byte to escape — every name the ledger writes — is
    // copied whole.
    let plain = bytes
        .iter()
        .position(|&b| b < 0x20 || b == b'"' || b == b'\\')
        .unwrap_or(bytes.len());
    out.extend_from_slice(&bytes[..plain]);
    for &b in &bytes[plain..] {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xf)]);
            }
            b => out.push(b),
        }
    }
    out.push(b'"');
}

/// Appends `n` in decimal.
pub fn push_u64(out: &mut Vec<u8>, n: u64) {
    let mut buf = [0u8; 20];
    let start = format_u64(n, &mut buf);
    out.extend_from_slice(&buf[start..]);
}

/// Appends `v` exactly as `format!("{v}")` renders it — fixed notation,
/// the shortest digits that read back as `v`, `-0` for −0.0 — or `null`
/// for a non-finite value (the ledger's infeasible or not-offered
/// options).
pub fn push_num(out: &mut Vec<u8>, v: f64) {
    if !push_null_or_int(out, v) {
        push_shortest(out, v);
    }
}

/// [`push_num`]'s cheap cases: `null` for a non-finite `v`, the integer's
/// digits for an integral `v` below 2^53 (where the shortest digits are
/// the integer's). Returns false, having appended nothing, for any other
/// value.
fn push_null_or_int(out: &mut Vec<u8>, v: f64) -> bool {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return true;
    }
    let abs = v.abs();
    let int = abs as u64;
    if abs < 9e15 && int as f64 == abs {
        if v.is_sign_negative() {
            out.push(b'-');
        }
        push_u64(out, int);
        return true;
    }
    false
}

/// [`push_num`] for a finite `v` that [`push_null_or_int`] declined: Ryū's
/// shortest digits, laid out as `Display` lays them out.
fn push_shortest(out: &mut Vec<u8>, v: f64) {
    if v.is_sign_negative() {
        out.push(b'-');
    }
    let (mantissa, exponent) = shortest(v.abs().to_bits());
    let mut buf = [0u8; 20];
    let start = format_u64(mantissa, &mut buf);
    let digits = &buf[start..];
    // `v = 0.digits · 10^point`, placed as std's `Display` places it.
    let point = digits.len() as i32 + exponent;
    if exponent >= 0 {
        out.extend_from_slice(digits);
        out.resize(out.len() + exponent as usize, b'0');
    } else if point > 0 {
        let (int, frac) = digits.split_at(point as usize);
        out.extend_from_slice(int);
        out.push(b'.');
        out.extend_from_slice(frac);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + point.unsigned_abs() as usize, b'0');
        out.extend_from_slice(digits);
    }
}

/// Text bytes a [`NumMemo`] entry holds: a slot is 32 bytes.
const MEMO_TEXT: usize = 23;

/// A direct-mapped memo of [`push_num`]'s renderings, for emits that
/// render the same values many times (a ledger's request times and unit
/// costs). It is keyed by the full bits, so `-0` and `0` never share an
/// entry. Only values that need Ryū's digits enter it: `null`s and
/// integers are cheaper to write than to look up, and a rendering longer
/// than an entry is written each time.
pub(crate) struct NumMemo {
    slots: Vec<MemoSlot>,
    /// `64 − log₂(slots)`: the multiply-shift hash keeps the top bits.
    shift: u32,
}

#[derive(Clone, Copy)]
struct MemoSlot {
    /// The rendered value's bits. An empty slot holds a NaN's, which no
    /// rendered value has.
    bits: u64,
    len: u8,
    text: [u8; MEMO_TEXT],
}

impl NumMemo {
    /// A memo of `slots` entries of 32 bytes: 0 for none, or a power of
    /// two from 2 on.
    pub(crate) fn new(slots: usize) -> Self {
        assert!(
            slots == 0 || (slots >= 2 && slots.is_power_of_two()),
            "a memo has 0 or 2^k slots, not {slots}"
        );
        let empty = MemoSlot {
            bits: u64::MAX,
            len: 0,
            text: [0; MEMO_TEXT],
        };
        NumMemo {
            slots: vec![empty; slots],
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// Appends exactly what [`push_num`] appends for `v`.
    pub(crate) fn push(&mut self, out: &mut Vec<u8>, v: f64) {
        if push_null_or_int(out, v) {
            return;
        }
        if self.slots.is_empty() {
            return push_shortest(out, v);
        }
        let bits = v.to_bits();
        let index = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift;
        let slot = &mut self.slots[index as usize];
        if slot.bits == bits {
            out.extend_from_slice(&slot.text[..usize::from(slot.len)]);
            return;
        }
        let start = out.len();
        push_shortest(out, v);
        let text = &out[start..];
        if let Some(entry) = slot.text.get_mut(..text.len()) {
            entry.copy_from_slice(text);
            slot.len = text.len() as u8;
            slot.bits = bits;
        }
    }
}

/// `"00"`, `"01"`, …, `"99"`: two digits per division.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes `n`'s decimal digits at the end of `buf` and returns where they
/// start.
fn format_u64(mut n: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    // Eight digits at a time: four independent pairs in 32-bit arithmetic.
    while n >= 100_000_000 {
        let low = (n % 100_000_000) as u32;
        n /= 100_000_000;
        let (hi4, lo4) = (low / 10_000, low % 10_000);
        at -= 8;
        for (k, part) in [hi4 / 100, hi4 % 100, lo4 / 100, lo4 % 100]
            .into_iter()
            .enumerate()
        {
            let pair = part as usize * 2;
            buf[at + 2 * k..at + 2 * k + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
    }
    let mut n = n as u32;
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// Bit width of the [`POW5_INV`] and [`POW5`] multipliers.
const POW5_BITS: i32 = 125;

/// `⌊2^j / 5^q⌋ + 1` with `j = bitlen(5^q) − 1 + 125`, for `q < 342`:
/// the multipliers that divide by `10^q` when the binary exponent is
/// non-negative (Ryū's `DOUBLE_POW5_INV_SPLIT`).
static POW5_INV: [u128; 342] = pow5_inv_table();

/// The top 125 bits of `5^i` (`⌊5^i / 2^(bitlen(5^i) − 125)⌋`, shifted up
/// while `5^i` is shorter), for `i < 326`: the multipliers for a negative
/// binary exponent (Ryū's `DOUBLE_POW5_SPLIT`).
static POW5: [u128; 326] = pow5_table();

/// A 960-bit unsigned integer, least significant limb first: room for
/// `2^959` and for `5^341 < 2^792`.
type Big = [u64; 15];

const fn big_one_shl(bit: u32) -> Big {
    let mut x = [0; 15];
    x[(bit / 64) as usize] = 1 << (bit % 64);
    x
}

const fn big_bit_len(x: &Big) -> u32 {
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * (i as u32 + 1) - x[i].leading_zeros();
        }
    }
    0
}

/// Bits `shift .. shift + 128` of `x`.
const fn big_window(x: &Big, shift: u32) -> u128 {
    let mut out = 0u128;
    let mut part = 0;
    while part < 2 {
        let bit = shift + 64 * part;
        let limb = (bit / 64) as usize;
        let off = bit % 64;
        let lo = if limb < x.len() { x[limb] } else { 0 };
        let hi = if limb + 1 < x.len() { x[limb + 1] } else { 0 };
        let word = ((hi as u128) << 64 | lo as u128) >> off;
        out |= (word as u64 as u128) << (64 * part);
        part += 1;
    }
    out
}

const fn big_mul5(x: &mut Big) {
    let mut carry = 0u128;
    let mut i = 0;
    while i < x.len() {
        let t = x[i] as u128 * 5 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
}

const fn big_div5(x: &mut Big) {
    let mut rem = 0u128;
    let mut i = x.len();
    while i > 0 {
        i -= 1;
        let t = rem << 64 | x[i] as u128;
        x[i] = (t / 5) as u64;
        rem = t % 5;
    }
}

const fn pow5_table() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow = big_one_shl(0);
    let mut i = 0;
    while i < table.len() {
        let len = big_bit_len(&pow);
        table[i] = if len <= POW5_BITS as u32 {
            big_window(&pow, 0) << (POW5_BITS as u32 - len)
        } else {
            big_window(&pow, len - POW5_BITS as u32)
        };
        big_mul5(&mut pow);
        i += 1;
    }
    table
}

const fn pow5_inv_table() -> [u128; 342] {
    const TOP: u32 = 959;
    let mut table = [0; 342];
    let mut pow = big_one_shl(0);
    // ⌊2^959 / 5^q⌋; shifting it right by 959 − j gives ⌊2^j / 5^q⌋.
    let mut inv = big_one_shl(TOP);
    let mut q = 0;
    while q < table.len() {
        let j = big_bit_len(&pow) - 1 + POW5_BITS as u32;
        table[q] = big_window(&inv, TOP - j) + 1;
        big_mul5(&mut pow);
        big_div5(&mut inv);
        q += 1;
    }
    table
}

/// `⌈log₂ 5^e⌉` (1 for `e = 0`), for `0 ≤ e ≤ 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `⌊log₁₀ 2^e⌋`, for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `⌊log₁₀ 5^e⌋`, for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether `5^p` divides `v`.
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    for _ in 0..p {
        if !v.is_multiple_of(5) {
            return false;
        }
        v /= 5;
    }
    true
}

/// `⌊m · mul / 2^shift⌋` for a 64-bit `m` and a 126-bit `mul`, with
/// `shift ≥ 64`.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let lo = (m as u128) * (mul as u64 as u128);
    let hi = (m as u128) * (mul >> 64);
    (((lo >> 64) + hi) >> (shift - 64)) as u64
}

/// Ryū's `d2d` for a positive finite `f64` given by its bits: the shortest
/// `mantissa · 10^exponent` that reads back as the same `f64`; of two
/// equally short candidates the one closer to it, and on an exact tie the
/// larger one. That last rule is std's (Dragon4's); Ryū rounds the tie
/// to even, so its trailing-zero tracking of the scaled value is gone.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = (bits >> 52) as u32 & 0x7ff;
    // Two extra bits make the interval bounds integers.
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - 1023 - 52 - 2)
    } else {
        (
            ieee_mantissa | 1 << 52,
            ieee_exponent as i32 - 1023 - 52 - 2,
        )
    };
    // Bounds that round to an even mantissa read back as this value.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    // The gap below a power of two is half as wide.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mp = mv + 2;
    let mm = mv - 1 - mm_shift;

    // The interval `(mm, mp) · 2^e2` scaled by `10^-e10` and truncated.
    let (e10, mut vr, mut vp, mut vm);
    // Whether `vm` was exact, i.e. the lower bound is itself a short
    // decimal (tracked only when `accept_bounds` lets it be the result).
    let mut vm_exact = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        let mul = POW5_INV[q as usize];
        let shift = -e2 + q as i32 + POW5_BITS + pow5_bits(q as i32) - 1;
        (vr, vp, vm) = (
            mul_shift(mv, mul, shift),
            mul_shift(mp, mul, shift),
            mul_shift(mm, mul, shift),
        );
        e10 = q as i32;
        // The scaled bounds are exact when 5^q divides mm or mp (only one
        // of mm, mv and mp can be a multiple of 5); an excluded upper
        // bound that is exact steps down.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_exact = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        let i = -e2 - q as i32;
        let mul = POW5[i as usize];
        let shift = q as i32 - (pow5_bits(i) - POW5_BITS);
        (vr, vp, vm) = (
            mul_shift(mv, mul, shift),
            mul_shift(mp, mul, shift),
            mul_shift(mm, mul, shift),
        );
        e10 = q as i32 + e2;
        if q <= 1 {
            // The scaled bounds are exact when 2^q divides mm or mp: mm
            // has a trailing zero bit exactly when mm_shift is 1, and mp
            // always has one, so an excluded upper bound steps down.
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter candidate, in
    // chunks of 8, 4, 2 and 1 (the drop count is the largest that keeps
    // `vp / 10^r > vm / 10^r`). Only the top dropped digit decides the
    // rounding: at least 5 means the dropped part is at least half.
    let mut removed = 0;
    let mut top_removed = 0;
    for (digits, scale) in [(8, 100_000_000), (4, 10_000), (2, 100), (1, 10)] {
        while vp / scale > vm / scale {
            vm_exact &= vm.is_multiple_of(scale);
            top_removed = vr % scale / (scale / 10);
            vr /= scale;
            vp /= scale;
            vm /= scale;
            removed += digits;
        }
    }
    if vm_exact {
        // The exact lower bound may be shorter still.
        while vm.is_multiple_of(10) {
            top_removed = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // Round up when vr fell out of the interval or the dropped part is at
    // least half; an exact half rounds up, as in std.
    let round_up = (vr == vm && !vm_exact) || top_removed >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(v: f64) -> String {
        let mut s = Vec::new();
        push_num(&mut s, v);
        String::from_utf8(s).unwrap()
    }

    #[test]
    fn strings_are_escaped() {
        let mut s = Vec::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}\u{1f}é");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\\u001fé\"".as_bytes());
    }

    #[test]
    fn numbers_round_trip_and_infinities_are_null() {
        let rendered: Vec<String> = [1.5, 3.0, f64::INFINITY, f64::NAN]
            .into_iter()
            .map(num)
            .collect();
        assert_eq!(rendered, ["1.5", "3", "null", "null"]);
    }

    /// Regression: every non-finite `f64` must render as `null` — `NaN`,
    /// `inf` and `-inf` are not JSON tokens, and a single such fragment
    /// would make a whole journal/ledger line unparsable downstream.
    #[test]
    fn every_non_finite_value_is_null_and_finite_edges_stay_numbers() {
        for v in [
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX * 2.0, // overflows to +inf
        ] {
            assert_eq!(num(v), "null", "non-finite {v} must encode as null");
        }
        for v in [f64::MAX, f64::MIN_POSITIVE, 5e-324, -0.0] {
            assert_eq!(num(v), format!("{v}"));
        }
    }

    #[test]
    fn integers_use_digit_pairs() {
        for n in [0, 7, 10, 99, 100, 12_345, u32::MAX as u64, u64::MAX] {
            let mut s = Vec::new();
            push_u64(&mut s, n);
            assert_eq!(s, n.to_string().as_bytes());
        }
    }

    /// `5^i` as a [`Big`], by repeated multiplication.
    fn big_pow5(i: usize) -> Big {
        let mut p = big_one_shl(0);
        for _ in 0..i {
            big_mul5(&mut p);
        }
        p
    }

    /// `x · m` for a [`Big`] and a `u128`, as 32-bit schoolbook limbs —
    /// a different operation from the division that built the table.
    fn big_mul(x: &Big, m: u128) -> Vec<u32> {
        let xs: Vec<u32> = x
            .iter()
            .flat_map(|&l| [l as u32, (l >> 32) as u32])
            .collect();
        let ms: Vec<u32> = (0..4).map(|k| (m >> (32 * k)) as u32).collect();
        let mut out = vec![0u32; xs.len() + ms.len() + 1];
        for (i, &a) in xs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in ms.iter().enumerate() {
                let t = a as u64 * b as u64 + out[i + j] as u64 + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + ms.len()] = carry as u32;
        }
        out
    }

    /// Compares two little-endian limb vectors as numbers.
    fn cmp_limbs(a: &[u32], b: &[u32]) -> std::cmp::Ordering {
        let len = a.len().max(b.len());
        let at = |v: &[u32], i: usize| v.get(i).copied().unwrap_or(0);
        (0..len)
            .rev()
            .map(|i| at(a, i).cmp(&at(b, i)))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    fn pow2_limbs(bit: u32) -> Vec<u32> {
        let mut v = vec![0u32; bit as usize / 32 + 1];
        v[bit as usize / 32] = 1 << (bit % 32);
        v
    }

    /// The tables against their definitions, checked by multiplication:
    /// `(inv − 1)·5^q ≤ 2^j < inv·5^q` and `p·2^s ≤ 5^i < (p + 1)·2^s` with
    /// `p` exactly 125 bits wide; plus the first rows as Ryū publishes
    /// them.
    #[test]
    fn tables_match_their_definitions() {
        use std::cmp::Ordering::{Greater, Less};
        for (q, &inv) in POW5_INV.iter().enumerate() {
            let pow = big_pow5(q);
            let j = big_bit_len(&pow) - 1 + POW5_BITS as u32;
            let two_j = pow2_limbs(j);
            assert_ne!(cmp_limbs(&big_mul(&pow, inv - 1), &two_j), Greater, "q={q}");
            assert_eq!(cmp_limbs(&big_mul(&pow, inv), &two_j), Greater, "q={q}");
        }
        for (i, &p) in POW5.iter().enumerate() {
            assert_eq!(128 - p.leading_zeros(), POW5_BITS as u32, "i={i}");
            let pow = big_pow5(i);
            let len = big_bit_len(&pow);
            if len <= POW5_BITS as u32 {
                let shifted = big_window(&pow, 0) << (POW5_BITS as u32 - len);
                assert_eq!(p, shifted, "i={i}");
                continue;
            }
            let s = len - POW5_BITS as u32;
            let pow_limbs = big_mul(&pow, 1);
            let below = big_mul(&big_one_shl(s), p);
            let above = big_mul(&big_one_shl(s), p + 1);
            assert_ne!(cmp_limbs(&below, &pow_limbs), Greater, "i={i}");
            assert_eq!(cmp_limbs(&pow_limbs, &above), Less, "i={i}");
        }
        let row = |hi: u64, lo: u64| (hi as u128) << 64 | lo as u128;
        assert_eq!(POW5_INV[0], row(2305843009213693952, 1));
        assert_eq!(POW5_INV[1], row(1844674407370955161, 11068046444225730970));
        assert_eq!(POW5[0], row(1152921504606846976, 0));
        assert_eq!(POW5[1], row(1441151880758558720, 0));
    }

    #[test]
    fn ties_round_up_as_std_does() {
        let v = f64::from_bits(0x4317_9085_685d_83c9);
        assert_eq!(num(v), "1658206780088562.3");
        assert_eq!(num(v), format!("{v}"));
    }

    /// Two slots, so most values evict each other; each value is pushed
    /// twice in a row (a hit when it was stored) and again after the rest
    /// (a miss or a stale slot).
    #[test]
    fn a_memo_renders_what_push_num_renders() {
        let values = [
            0.1,
            -0.1,
            6.4,
            0.0,
            -0.0,
            3.0,
            f64::NAN,
            f64::from_bits(f64::NAN.to_bits() | 1),
            f64::NEG_INFINITY,
            1e300,
            5e-324,
            -2.5e-7,
            1658206780088562.3,
            1.0 / 3.0,
        ];
        for slots in [0, 2, 1024] {
            let mut memo = NumMemo::new(slots);
            let mut memoised = Vec::new();
            let mut plain = Vec::new();
            for &v in values.iter().chain(&values).flat_map(|v| [v, v]) {
                memo.push(&mut memoised, v);
                memoised.push(b',');
                push_num(&mut plain, v);
                plain.push(b',');
            }
            assert_eq!(String::from_utf8(memoised), String::from_utf8(plain));
        }
    }
}
