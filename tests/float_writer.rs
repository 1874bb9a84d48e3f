//! The ledger's number writer, `mcs_obs::jsonl::push_num`, renders every
//! finite `f64` exactly as `format!("{v}")` does and every non-finite one
//! as `null`. Ledger and journal bytes rest on this equality, so it is
//! checked where the digit generator and the layout are most likely to
//! slip:
//!
//! * seeded random bit patterns (both signs, every exponent);
//! * every power of two from 2⁻¹⁰⁷⁴ to 2¹⁰²³ and every power of ten from
//!   1e-323 to 1e308, each with its ±1-ulp neighbours;
//! * subnormals, the integers 0..=10⁵, values around 2⁵³ and 9·10¹⁵ (the
//!   integral fast path's edge) and `k/100` decimals;
//! * exact ties between two shortest candidates, `n + 0.25` and
//!   `n + 0.75` for `n` in [2⁵⁰, 2⁵¹): std rounds them up where Ryū would
//!   round to even;
//! * −0.0, `f64::MAX`, `MIN_POSITIVE`, 5e-324, NaN and ±∞.
//!
//! The `#[ignore]`d sweep repeats this at scale in release mode:
//! `cargo test --release --test float_writer -- --ignored`.

use std::fmt::Write as _;

use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::obs::jsonl::push_num;

/// Reused buffers for one comparison after another.
#[derive(Default)]
struct Checker {
    ours: Vec<u8>,
    std: String,
    checked: usize,
}

impl Checker {
    fn check(&mut self, v: f64) {
        self.ours.clear();
        push_num(&mut self.ours, v);
        self.std.clear();
        if v.is_finite() {
            write!(self.std, "{v}").unwrap();
        } else {
            self.std.push_str("null");
        }
        assert!(
            self.ours == self.std.as_bytes(),
            "bits {:#018x}: wrote {:?}, std {:?}",
            v.to_bits(),
            String::from_utf8_lossy(&self.ours),
            self.std
        );
        self.checked += 1;
    }

    /// `v` and its neighbours one ulp below and above (same sign).
    fn check_with_neighbours(&mut self, v: f64) {
        let bits = v.to_bits();
        self.check(v);
        self.check(f64::from_bits(bits + 1));
        if bits & !(1 << 63) != 0 {
            self.check(f64::from_bits(bits - 1));
        }
    }
}

/// `2^e` for `-1074 ≤ e ≤ 1023`, built from its bits.
fn pow2(e: i32) -> f64 {
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1 << (e + 1074))
    }
}

/// `n + 0.25` or `n + 0.75` for `n` in [2⁵⁰, 2⁵¹), where the spacing of
/// doubles is 0.25: two one-decimal candidates are 0.05 away on each side.
fn tie(rng: &mut Rng) -> f64 {
    let n = (1u64 << 50) + rng.gen_range(0..1u64 << 50);
    n as f64 + if rng.gen_bool(0.5) { 0.25 } else { 0.75 }
}

#[test]
fn random_bit_patterns_match_std() {
    let mut rng = Rng::seed_from_u64(0xF10A_75EE);
    let mut c = Checker::default();
    while c.checked < 200_000 {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            c.check(v);
        }
    }
}

#[test]
fn powers_of_two_and_ten_and_their_neighbours_match_std() {
    let mut c = Checker::default();
    for e in -1074..=1023 {
        c.check_with_neighbours(pow2(e));
        c.check_with_neighbours(-pow2(e));
    }
    for e in -323..=308 {
        let v: f64 = format!("1e{e}").parse().unwrap();
        c.check_with_neighbours(v);
    }
    assert_eq!(c.checked, 2 * 3 * 2098 + 3 * 632);
}

#[test]
fn subnormals_integers_and_short_decimals_match_std() {
    let mut rng = Rng::seed_from_u64(0x5AB0);
    let mut c = Checker::default();
    for bits in (1..=2_000).chain((1u64 << 52) - 2_000..1 << 52) {
        c.check(f64::from_bits(bits));
    }
    for _ in 0..20_000 {
        c.check(f64::from_bits(rng.gen_range(1..1u64 << 52)));
    }
    for n in 0..=100_000u32 {
        c.check(f64::from(n));
    }
    for edge in [2f64.powi(53), 9e15] {
        for d in 0..2_000 {
            c.check(f64::from_bits(edge.to_bits() - d));
            c.check(f64::from_bits(edge.to_bits() + d));
        }
    }
    for k in 0..=100_000u32 {
        c.check(f64::from(k) / 100.0);
        c.check(-f64::from(k) / 100.0);
    }
}

#[test]
fn exact_ties_round_up_as_std_does() {
    let mut rng = Rng::seed_from_u64(0x71E5);
    let mut c = Checker::default();
    for _ in 0..20_000 {
        c.check(tie(&mut rng));
    }
    let pinned = f64::from_bits(0x4317_9085_685d_83c9);
    assert_eq!(pinned, 1_658_206_780_088_562.0 + 0.25);
    c.check(pinned);
    let mut out = Vec::new();
    push_num(&mut out, pinned);
    assert_eq!(out, b"1658206780088562.3");
}

#[test]
fn edge_values_match_std_and_non_finite_is_null() {
    let mut c = Checker::default();
    for v in [
        -0.0,
        0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        -5e-324,
    ] {
        c.check(v);
    }
    let mut out = Vec::new();
    push_num(&mut out, -0.0);
    assert_eq!(out, b"-0");
    for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        out.clear();
        push_num(&mut out, v);
        assert_eq!(out, b"null", "{v}");
    }
}

/// 5·10⁷ values in release mode: 10⁷ constructed ties, 2·10⁷ random bit
/// patterns, 10⁷ random short decimals `m / 10^d` (the shape of costs and
/// times) and 10⁷ random reals in [0, 1000).
#[test]
#[ignore = "release-mode sweep; run with --release -- --ignored"]
fn release_sweep_matches_std() {
    let mut rng = Rng::seed_from_u64(0x5EEB_2026);
    let mut c = Checker::default();
    for _ in 0..10_000_000 {
        c.check(tie(&mut rng));
    }
    while c.checked < 30_000_000 {
        let v = f64::from_bits(rng.next_u64());
        if v.is_finite() {
            c.check(v);
        }
    }
    for _ in 0..10_000_000 {
        let m = rng.gen_range(0..10_000_000u32);
        let d = rng.gen_range(0..8u32);
        c.check(f64::from(m) / 10f64.powi(d as i32));
    }
    for _ in 0..10_000_000 {
        c.check(rng.gen_f64() * 1000.0);
    }
    assert_eq!(c.checked, 50_000_000);
}
