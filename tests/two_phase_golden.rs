//! Bit-level goldens of the two-phase registry rows. For `dp_greedy` at
//! package-size caps of 2 and 3, `multi`, `windowed` and
//! `package_served`, on the Section V-C running example (μ = λ = 1,
//! α = 0.8, θ = 0.4) and on the three committed trace fixtures (the
//! workspace defaults), each case pins the total's bits, the ledger's
//! event count and an FNV-1a-64 digest of its JSONL bytes.
//!
//! A change that moves any of them changes a number the system reports:
//! it lists each old → new value in CHANGES.md.

use dp_greedy_suite::dp_greedy::paper_example;
use dp_greedy_suite::engine::{find, RunContext};
use dp_greedy_suite::model::defaults::default_model;
use dp_greedy_suite::model::RequestSeq;
use dp_greedy_suite::trace::io::TraceFile;

/// `(input, row, max_group, total bits, ledger events, FNV-1a-64 of the
/// JSONL)`.
#[rustfmt::skip]
const GOLDEN: [(&str, &str, usize, u64, usize, u64); 20] = [
    ("paper", "dp_greedy", 2, 0x402deb851eb851ec, 7, 0xff0c70b155a14d92),
    ("paper", "dp_greedy", 3, 0x402deb851eb851ec, 7, 0xff0c70b155a14d92),
    ("paper", "multi", 2, 0x402deb851eb851ec, 7, 0xaa3e7dd1ef945b1e),
    ("paper", "windowed", 2, 0x40283d70a3d70a3e, 10, 0xbc5470409ccfce23),
    ("paper", "package_served", 2, 0x402c7ae147ae147b, 8, 0x7f141a1517d60530),
    ("taxi_s1_200", "dp_greedy", 2, 0x40a0179f9f9f9f9f, 523, 0xfe316fb7120b743b),
    ("taxi_s1_200", "dp_greedy", 3, 0x40a0179f9f9f9f9e, 523, 0xdcf7ce212f0a72f1),
    ("taxi_s1_200", "multi", 2, 0x40a0179f9f9f9f9e, 523, 0xdf7ecc9b92663e6d),
    ("taxi_s1_200", "windowed", 2, 0x409f64c5c5c5c5c8, 567, 0x5001949940e87230),
    ("taxi_s1_200", "package_served", 2, 0x40a096e68019b348, 520, 0x4fbddd41e40c3f1e),
    ("taxi_s42_150_t16", "dp_greedy", 2, 0x40a36ec3905d29f8, 623, 0xdf6bcb9dd7da7a21),
    ("taxi_s42_150_t16", "dp_greedy", 3, 0x40a36ec3905d29f8, 623, 0xe4789ab414cdd70d),
    ("taxi_s42_150_t16", "multi", 2, 0x40a36ec3905d29f8, 623, 0x0e0085d6189887e9),
    ("taxi_s42_150_t16", "windowed", 2, 0x40a3759ace013468, 657, 0x6f67e65160e3f4a0),
    ("taxi_s42_150_t16", "package_served", 2, 0x40a43109d6a3703d, 616, 0x3d93db64b0d5c341),
    ("taxi_s7_300", "dp_greedy", 2, 0x40a760cb986531fc, 825, 0xee009d16d1eb98e1),
    ("taxi_s7_300", "dp_greedy", 3, 0x40a760cb986531fc, 825, 0xee009d16d1eb98e1),
    ("taxi_s7_300", "multi", 2, 0x40a760cb986531fc, 825, 0xdec56d784274be71),
    ("taxi_s7_300", "windowed", 2, 0x40a73a6194c7fb30, 817, 0xf53bee8ed003c610),
    ("taxi_s7_300", "package_served", 2, 0x40a8255e2af7c48a, 816, 0xb71517520d6fb6d3),
];

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The sequence and context of a golden input: the running example at
/// the paper's parameters, or a fixture at the workspace defaults.
fn input(name: &str) -> (RequestSeq, RunContext) {
    if name == "paper" {
        return (paper_example::paper_sequence(), RunContext::paper_example());
    }
    let path = format!("{}/fixtures/traces/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let seq = TraceFile::load(&path).expect("fixture").sequence;
    (seq, RunContext::new(default_model()))
}

#[test]
fn two_phase_rows_keep_their_total_bits_event_counts_and_ledger_bytes() {
    let mut got = Vec::new();
    for &(name, row, max_group, ..) in &GOLDEN {
        let (seq, ctx) = input(name);
        let ctx = ctx.with_max_group(max_group);
        let solution = find(row).expect("registered").solve(&seq, &ctx);
        let ledger = solution.ledger();
        let digest = fnv1a64(ledger.to_jsonl_string().as_bytes());
        got.push((
            name,
            row,
            max_group,
            solution.total_cost.to_bits(),
            ledger.len(),
            digest,
        ));
    }
    let table: String = got
        .iter()
        .map(|(name, row, k, bits, events, digest)| {
            format!("    ({name:?}, {row:?}, {k}, {bits:#018x}, {events}, {digest:#018x}),\n")
        })
        .collect();
    assert_eq!(got, GOLDEN, "measured:\n{table}");
}
