//! Property test: no similarity surface in this crate can emit a
//! non-finite value, for any valid request sequence.
//!
//! The dangerous corner is a zero union — `|d_a| + |d_b| − |(d_a,d_b)|
//! = 0` — which is reachable whenever the item universe is larger than
//! the set of items the trace actually touches: two never-requested
//! items divide 0/0 without the guard in `jaccard_from_counts`. The
//! generator here deliberately over-sizes the universe so every run
//! exercises that corner, then sweeps every backend (the dense reference,
//! its matrix, the compressed pair table, the `pairs_above` candidates,
//! streaming) over every pair.

use mcs_correlation::{
    pairs_above, CoOccurrence, JaccardMatrix, PairTable, PairwiseSimilarity, StreamingCooccurrence,
};
use mcs_model::request::{RequestSeq, RequestSeqBuilder};
use mcs_model::rng::Rng;
use mcs_model::ItemId;

/// A valid sequence over a `k`-item universe of which only the first
/// `used` items can ever be requested (`used < k` leaves silent items).
fn sequence(seed: u64, n: usize, k: u32, used: u32) -> RequestSeq {
    assert!(used >= 1 && used <= k);
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = RequestSeqBuilder::new(4, k);
    let mut t = 0.0;
    for _ in 0..n {
        t += 0.05 + rng.gen_f64();
        let first = rng.gen_range(0u32..used);
        let mut items = vec![first];
        // Multi-item requests create co-occurrence; duplicates filtered.
        for _ in 0..rng.gen_range(0u32..3) {
            let next = rng.gen_range(0u32..used);
            if !items.contains(&next) {
                items.push(next);
            }
        }
        b = b.push(rng.gen_range(0u32..4), t, items);
    }
    b.build().unwrap()
}

fn assert_finite(backend: &str, seq_label: &str, a: ItemId, b: ItemId, v: f64) {
    assert!(
        v.is_finite(),
        "{backend} on {seq_label}: similarity({a:?}, {b:?}) = {v} is not finite"
    );
    assert!(
        (0.0..=1.0).contains(&v),
        "{backend} on {seq_label}: similarity({a:?}, {b:?}) = {v} outside [0, 1]"
    );
}

#[test]
fn no_similarity_surface_emits_non_finite_values() {
    let shapes = [
        // (n, k, used): over-sized universes keep zero-union pairs alive.
        (0usize, 5u32, 1u32),
        (1, 6, 1),
        (40, 8, 3),
        (200, 16, 7),
        (500, 24, 24),
        (300, 32, 2),
    ];
    for (case, &(n, k, used)) in shapes.iter().enumerate() {
        let seq = sequence(0xF1D0 + case as u64, n, k, used);
        let label = format!("seq(n={n}, k={k}, used={used})");

        let dense = CoOccurrence::from_sequence(&seq);
        let table = PairTable::from_sequence(&seq);
        let matrix = JaccardMatrix::from_sequence(&seq);
        let mut streaming = StreamingCooccurrence::new(0.9);
        for r in seq.requests() {
            streaming.observe(r);
        }

        for a in 0..k {
            for b in 0..k {
                let (a, b) = (ItemId(a), ItemId(b));
                assert_finite("dense", &label, a, b, dense.jaccard(a, b));
                assert_finite("table", &label, a, b, table.jaccard(a, b));
                assert_finite("matrix", &label, a, b, matrix.get(a, b));
                assert_finite("streaming", &label, a, b, streaming.jaccard(a, b));
                assert_finite(
                    "table-trait",
                    &label,
                    a,
                    b,
                    PairwiseSimilarity::similarity(&table, a, b),
                );
            }
        }

        // Candidate enumerations must be finite too — they feed the
        // matching stage's total-order sort directly.
        for (backend, pairs) in [
            ("pairs_above", pairs_above(&seq, f64::NEG_INFINITY)),
            ("matrix.pairs", matrix.pairs()),
            ("streaming.pairs", streaming.pairs()),
        ] {
            for (a, b, v) in pairs {
                assert_finite(backend, &label, a, b, v);
            }
        }
    }
}

/// The guarded division itself, pinned at the extreme: a universe where
/// *no* item is ever requested (every pair divides 0/0 unguarded).
#[test]
fn all_silent_universe_is_all_zeros() {
    let seq = RequestSeqBuilder::new(2, 6)
        .push(0u32, 1.0, [0u32])
        .build()
        .unwrap();
    let dense = CoOccurrence::from_sequence(&seq);
    let table = PairTable::from_sequence(&seq);
    let below_zero = pairs_above(&seq, -1.0);
    assert_eq!(below_zero.len(), 6 * 5 / 2);
    assert!(below_zero.iter().all(|&(_, _, j)| j == 0.0));
    for a in 1..6 {
        for b in 1..6 {
            if a == b {
                continue;
            }
            let (a, b) = (ItemId(a), ItemId(b));
            assert_eq!(dense.jaccard(a, b), 0.0);
            assert_eq!(table.jaccard(a, b), 0.0);
        }
    }
}
