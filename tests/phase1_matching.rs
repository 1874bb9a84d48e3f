//! Identity sweep for Phase 1's threshold filtering, its row-walk pair
//! structures and the dense reference's matrix fill.
//!
//! * `pairs_above`, at the default split and at 1, 2, 3 and 7 shards,
//!   emits exactly the matrix's pairs with `J > θ`, each `J` with the bits
//!   of `CoOccurrence::jaccard`, and packing them equals
//!   `greedy_matching` over the matrix and the sort-everything reference,
//!   for `θ ∈ {−0.5, 0, 0.3, 0.99, 1, NaN}`.
//! * Every `PairTable` lookup, observed or not and in either order, has
//!   the bits of `CoOccurrence::jaccard`, and `adaptive_theta` from the
//!   sequence totals equals its value from the reference's sums.
//! * `greedy_matching` and `greedy_matching_from_pairs`, which sort only
//!   the pairs strictly above `θ`, equal a reference that sorts every
//!   pair and skips the ones at or below `θ` while accepting — for
//!   `θ ∈ {−0.5, 0, 0.3, 0.99, 1}`, with NaN similarities and tied values
//!   mixed into the pair lists.
//! * `JaccardMatrix::from_cooccurrence`, which evaluates each `i < j` pair
//!   once and mirrors it, equals the per-entry `CoOccurrence::jaccard`
//!   matrix bit for bit.
//! * `StreamingCooccurrence::pairs_above`, which walks the stored pairs
//!   once against a dense count table, lists exactly the stored pairs
//!   whose `jaccard` is above `θ`, with its bits; packing that list
//!   equals packing every stored pair's `jaccard` sorted, and `pairs()`
//!   equals the reference's full sorted list — on decayed streams deep
//!   enough to renormalise the lazy scale.
//! * `top_pairs(seq, n)`, which holds only `n` rows, equals the first `n`
//!   rows of `pair_spectrum` for `n ∈ {0, 1, 8, more than all pairs}` —
//!   on sequences with tied similarities and never-requested items.

use dp_greedy_suite::correlation::matching::greedy_matching_from_pairs;
use dp_greedy_suite::correlation::{
    adaptive_theta, greedy_matching, pairs_above, pairs_above_sharded, CoOccurrence, JaccardMatrix,
    Packing, PairTable, StreamingCooccurrence,
};
use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::{ItemId, Request, RequestSeq, RequestSeqBuilder, ServerId};
use dp_greedy_suite::trace::stats::{pair_spectrum, top_pairs};

const THETAS: [f64; 5] = [-0.5, 0.0, 0.3, 0.99, 1.0];

/// A valid sequence over a `k`-item universe of which only the first
/// `used` items are ever requested, so zero-union pairs exist.
fn sequence(seed: u64, n: usize, k: u32, used: u32) -> RequestSeq {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = RequestSeqBuilder::new(4, k);
    let mut t = 0.0;
    for _ in 0..n {
        t += 0.05 + rng.gen_f64();
        let first = rng.gen_range(0..used);
        let mut items = vec![first];
        for _ in 0..rng.gen_range(0..4u32) {
            let next = (first + rng.gen_range(0..3u32)) % used;
            if !items.contains(&next) {
                items.push(next);
            }
        }
        b = b.push(rng.gen_range(0..4u32), t, items);
    }
    b.build().unwrap()
}

/// The matching as specified: sort every pair — NaN included, under the
/// total order — by descending similarity and ascending `(i, j)`, then
/// accept each pair strictly above `θ` whose items are both unpacked.
fn sort_everything(mut pairs: Vec<(ItemId, ItemId, f64)>, items: u32, theta: f64) -> Packing {
    pairs.sort_by(|x, y| y.2.total_cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
    let mut flagged = vec![false; items as usize];
    let mut chosen = Vec::new();
    for (a, b, j) in pairs {
        if j > theta && !flagged[a.index()] && !flagged[b.index()] {
            flagged[a.index()] = true;
            flagged[b.index()] = true;
            chosen.push((a, b));
        }
    }
    let singletons = (0..items)
        .map(ItemId)
        .filter(|it| !flagged[it.index()])
        .collect();
    Packing::new(chosen, singletons, theta)
}

fn shapes() -> Vec<(usize, u32, u32)> {
    // (n, k, used)
    vec![
        (0, 3, 1),
        (1, 2, 2),
        (50, 8, 5),
        (300, 24, 24),
        (600, 60, 40),
        (900, 150, 150),
    ]
}

#[test]
fn top_pairs_are_the_head_of_the_pair_spectrum() {
    for (seed, &(n, k, used)) in shapes().iter().enumerate() {
        let seq = sequence(0x70_9A + seed as u64, n, k, used);
        let spectrum = pair_spectrum(&seq);
        for take in [0, 1, 8, spectrum.len() + 3] {
            assert_eq!(
                top_pairs(&seq, take),
                spectrum[..take.min(spectrum.len())],
                "n={n} k={k} used={used} take={take}"
            );
        }
    }
}

#[test]
fn matrix_matching_equals_the_sort_everything_reference() {
    for (case, (n, k, used)) in shapes().into_iter().enumerate() {
        let seq = sequence(0x7E7A + case as u64, n, k, used);
        let matrix = JaccardMatrix::from_sequence(&seq);
        for theta in THETAS {
            assert_eq!(
                greedy_matching(&matrix, theta),
                sort_everything(matrix.pairs(), k, theta),
                "n={n}, k={k}, used={used}, θ={theta}"
            );
        }
    }
}

/// A packing with `θ` compared by its bits, so NaN thresholds compare.
fn content(p: &Packing) -> (Vec<(ItemId, ItemId)>, Vec<ItemId>, u64) {
    (p.pairs.clone(), p.singletons.clone(), p.theta.to_bits())
}

#[test]
fn pairs_above_equals_the_matrix_filter_and_packs_like_it() {
    // One extra shape long enough for the default split across threads.
    let shapes = shapes().into_iter().chain([(4200, 40, 36)]);
    for (case, (n, k, used)) in shapes.enumerate() {
        let seq = sequence(0xAB0E + case as u64, n, k, used);
        let co = CoOccurrence::from_sequence(&seq);
        let matrix = JaccardMatrix::from_cooccurrence(&co);
        for theta in THETAS.into_iter().chain([f64::NAN]) {
            let at = format!("n={n}, k={k}, used={used}, θ={theta}");
            let mut expected: Vec<_> = matrix.pairs().into_iter().filter(|p| p.2 > theta).collect();
            expected.sort_by_key(|&(a, b, _)| (a, b));
            let reference = content(&greedy_matching(&matrix, theta));
            assert_eq!(
                reference,
                content(&sort_everything(matrix.pairs(), k, theta)),
                "{at}"
            );
            let runs = [1, 2, 3, 7]
                .map(|shards| pairs_above_sharded(&seq, theta, shards))
                .into_iter()
                .chain([pairs_above(&seq, theta)]);
            for emitted in runs {
                for &(a, b, j) in &emitted {
                    assert_eq!(
                        j.to_bits(),
                        co.jaccard(a, b).to_bits(),
                        "{at}, ({a:?}, {b:?})"
                    );
                }
                let packing = greedy_matching_from_pairs(emitted.clone(), k, theta);
                assert_eq!(content(&packing), reference, "{at}");
                let mut emitted = emitted;
                emitted.sort_by_key(|&(a, b, _)| (a, b));
                assert_eq!(bits(&emitted), bits(&expected), "{at}");
            }
        }
    }
}

#[test]
fn pair_table_lookups_and_adaptive_theta_equal_the_dense_reference() {
    for (case, (n, k, used)) in shapes().into_iter().enumerate() {
        let seq = sequence(0x7AB1 + case as u64, n, k, used);
        let co = CoOccurrence::from_sequence(&seq);
        let table = PairTable::from_sequence(&seq);
        let mut observed = 0;
        let mut pair_sum = 0;
        for a in (0..k).map(ItemId) {
            for b in (0..k).map(ItemId) {
                assert_eq!(table.pair_count(a, b), co.pair_count(a, b));
                assert_eq!(
                    table.jaccard(a, b).to_bits(),
                    co.jaccard(a, b).to_bits(),
                    "n={n}, k={k}, used={used}, ({a:?}, {b:?})"
                );
                if a < b {
                    observed += usize::from(co.pair_count(a, b) > 0);
                    pair_sum += co.pair_count(a, b);
                }
            }
        }
        assert_eq!(table.observed_pairs(), observed);
        let item_sum: usize = (0..k).map(|i| co.count(ItemId(i))).sum();
        assert_eq!(seq.total_item_accesses(), item_sum);
        assert_eq!(seq.total_pair_events(), pair_sum);
        assert_eq!(
            adaptive_theta(seq.total_item_accesses(), seq.total_pair_events(), 0.8).to_bits(),
            adaptive_theta(item_sum, pair_sum, 0.8).to_bits()
        );
    }
}

#[test]
fn pair_list_matching_equals_the_reference_with_nan_and_ties() {
    for seed in 0..12u64 {
        let mut rng = Rng::seed_from_u64(0xA1 + seed);
        let k = rng.gen_range(2..40u32);
        let mut pairs = Vec::new();
        for _ in 0..rng.gen_range(0..300u32) {
            let a = rng.gen_range(0..k - 1);
            let b = rng.gen_range(a + 1..k);
            // Coarse values force ties; a few NaNs and out-of-[0, 1]
            // values exercise the filter's edges.
            let similarity = match rng.gen_range(0..10u32) {
                0 => f64::NAN,
                1 => -f64::NAN,
                2 => -0.25,
                3 => 1.0,
                _ => f64::from(rng.gen_range(0..9u32)) / 8.0,
            };
            pairs.push((ItemId(a), ItemId(b), similarity));
        }
        for theta in THETAS {
            let mut shuffled = pairs.clone();
            rng.shuffle(&mut shuffled);
            let packing = greedy_matching_from_pairs(shuffled.clone(), k, theta);
            assert_eq!(
                packing,
                sort_everything(pairs.clone(), k, theta),
                "seed {seed}, θ={theta}"
            );
            assert_eq!(packing, sort_everything(shuffled, k, theta));
            assert_eq!(packing.total_items(), k as usize);
        }
    }
}

#[test]
fn triangle_filled_matrix_equals_per_entry_jaccard_bit_for_bit() {
    for (case, (n, k, used)) in shapes().into_iter().enumerate() {
        let seq = sequence(0x1ACC + case as u64, n, k, used);
        let co = CoOccurrence::from_sequence(&seq);
        let matrix = JaccardMatrix::from_cooccurrence(&co);
        assert_eq!(matrix.items(), k as usize);
        for a in (0..k).map(ItemId) {
            for b in (0..k).map(ItemId) {
                assert_eq!(
                    matrix.get(a, b).to_bits(),
                    co.jaccard(a, b).to_bits(),
                    "n={n}, k={k}, used={used}, ({a:?}, {b:?})"
                );
            }
        }
    }
}

/// Streams over `k` items of which the first `used` are requested, at
/// decays from none to deep; decay 0.05 over 300+ requests drives the
/// lazy scale below 1e-200 and through its renormalisation several times.
/// Every seventh request lists its items unsorted or repeated, which
/// stores keys `observe` never stores for sorted input.
fn decayed_stream(seed: u64) -> (StreamingCooccurrence, u32) {
    let mut rng = Rng::seed_from_u64(seed);
    let decay = [1.0, 0.9, 0.5, 0.05][(seed % 4) as usize];
    let k = rng.gen_range(2..50u32);
    let used = rng.gen_range(1..=k);
    let mut stream = StreamingCooccurrence::new(decay);
    for i in 0..rng.gen_range(0..700usize) {
        let first = rng.gen_range(0..used);
        let mut items = vec![ItemId(first)];
        for _ in 0..rng.gen_range(0..4u32) {
            // Mostly near neighbours, so similarities spread over [0, 1].
            let next = ItemId((first + rng.gen_range(0..4u32)) % used);
            if i % 7 == 3 || !items.contains(&next) {
                items.push(next);
            }
        }
        if i % 7 != 3 {
            items.sort_unstable();
        }
        stream.observe(&Request {
            server: ServerId(0),
            time: i as f64 + 1.0,
            items,
        });
    }
    (stream, k)
}

#[test]
fn streaming_pairs_above_theta_equal_jaccard_on_every_stored_pair() {
    let mut renormalised = false;
    for seed in 0..48u64 {
        let (stream, k) = decayed_stream(0x57EA + seed);
        let snap = stream.snapshot();
        renormalised |= snap.observed as f64 * snap.decay.log10() < -200.0;
        let everything: Vec<(ItemId, ItemId, f64)> = snap
            .pair_counts
            .iter()
            .map(|&(a, b, _)| (a, b, stream.jaccard(a, b)))
            .collect();
        let mut sorted: Vec<_> = everything
            .iter()
            .copied()
            .filter(|p| !p.2.is_nan())
            .collect();
        sorted.sort_by(|x, y| y.2.total_cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        assert_eq!(bits(&stream.pairs()), bits(&sorted), "seed {seed}: pairs()");
        for theta in THETAS {
            let above = stream.pairs_above(theta);
            let expected: Vec<_> = everything.iter().copied().filter(|p| p.2 > theta).collect();
            assert_eq!(bits(&above), bits(&expected), "seed {seed}, θ={theta}");
            assert_eq!(
                greedy_matching_from_pairs(above, k, theta),
                sort_everything(everything.clone(), k, theta),
                "seed {seed}, θ={theta}"
            );
        }
    }
    assert!(renormalised, "no stream reached the renormalisation branch");
}

fn bits(pairs: &[(ItemId, ItemId, f64)]) -> Vec<(ItemId, ItemId, u64)> {
    pairs.iter().map(|&(a, b, j)| (a, b, j.to_bits())).collect()
}
