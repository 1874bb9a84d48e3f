//! Greedy threshold matching — Algorithm 1, lines 7–27.
//!
//! Pairs with `J > θ` are sorted by descending Jaccard similarity and
//! greedily accepted when neither item is already packed
//! (`package_flag`); leftover items are served individually. Ties are
//! broken by ascending item indices so the packing is deterministic.

use crate::jaccard::JaccardMatrix;
use mcs_model::ItemId;

/// The outcome of Phase 1: disjoint packed pairs plus unpacked singletons —
/// the paper's `package_list`.
#[derive(Debug, Clone, PartialEq)]
pub struct Packing {
    /// Packed pairs `(d_i, d_j)` with `i < j`, in acceptance order
    /// (descending similarity).
    pub pairs: Vec<(ItemId, ItemId)>,
    /// Items served individually, ascending.
    pub singletons: Vec<ItemId>,
    /// The threshold `θ` used.
    pub theta: f64,
}

impl Packing {
    /// Builds a packing from its pair and singleton lists. Pairs must be
    /// disjoint (each item in at most one pair), as Phase 1 guarantees.
    pub fn new(pairs: Vec<(ItemId, ItemId)>, singletons: Vec<ItemId>, theta: f64) -> Self {
        Packing {
            pairs,
            singletons,
            theta,
        }
    }

    /// Total number of items covered (sanity: equals `k`).
    pub fn total_items(&self) -> usize {
        self.pairs.len() * 2 + self.singletons.len()
    }
}

/// Runs the greedy threshold matching of Algorithm 1 over a Jaccard matrix.
///
/// A pair is packed when its similarity is **strictly** greater than
/// `theta` (line 16: `Jaccard(key) > θ`) and neither member is already
/// flagged. Only the upper triangle's pairs above `θ` are collected and
/// sorted — `O(k² + c log c)` for `c` candidates — since a pair at or
/// below `θ` can never be accepted.
pub fn greedy_matching(matrix: &JaccardMatrix, theta: f64) -> Packing {
    let k = matrix.items() as u32;
    let mut candidates = Vec::new();
    for a in (0..k).map(ItemId) {
        for b in (a.0 + 1..k).map(ItemId) {
            let similarity = matrix.get(a, b);
            if similarity > theta {
                candidates.push((a, b, similarity));
            }
        }
    }
    pack(candidates, k, theta)
}

/// The same greedy matching over an explicit pair-similarity list — the
/// entry point for streaming/decayed statistics
/// ([`crate::StreamingCooccurrence::pairs`]) where no dense matrix exists.
pub fn greedy_matching_from_pairs(
    mut pairs: Vec<(ItemId, ItemId, f64)>,
    items: u32,
    theta: f64,
) -> Packing {
    // Only pairs strictly above θ can ever be accepted, so drop the rest
    // before sorting. The filter also drops NaN similarities (degenerate
    // inputs, e.g. decayed counts gone non-finite): they carry no
    // ordering information and could otherwise land anywhere in the
    // sort, making the packing depend on the input permutation.
    pairs.retain(|p| p.2 > theta);
    pack(pairs, items, theta)
}

/// Greedily accepts `candidates` — every one already strictly above `θ` —
/// in descending similarity, ascending `(i, j)` on ties, skipping pairs
/// with an already-flagged member.
fn pack(mut candidates: Vec<(ItemId, ItemId, f64)>, items: u32, theta: f64) -> Packing {
    candidates.sort_by(|x, y| y.2.total_cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));

    let k = items as usize;
    let mut flagged = vec![false; k];
    let mut chosen = Vec::new();
    for (a, b, _) in candidates {
        if !flagged[a.index()] && !flagged[b.index()] {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::CoOccurrence;
    use mcs_model::{RequestSeq, RequestSeqBuilder};

    fn matrix_of(seq: &RequestSeq) -> JaccardMatrix {
        JaccardMatrix::from_cooccurrence(&CoOccurrence::from_sequence(seq))
    }

    /// Four items: (d1,d2) strongly correlated, (d3,d4) weakly, d3/d4 also
    /// somewhat correlated with d1.
    fn seq4() -> RequestSeq {
        RequestSeqBuilder::new(2, 4)
            .push(0u32, 1.0, [0, 1])
            .push(1u32, 2.0, [0, 1])
            .push(0u32, 3.0, [0, 1, 2])
            .push(1u32, 4.0, [2, 3])
            .push(0u32, 5.0, [0])
            .push(1u32, 6.0, [3])
            .build()
            .unwrap()
    }

    #[test]
    fn paper_example_packs_d1_d2_at_theta_04() {
        // J = 3/7 ≈ 0.4286 > θ = 0.4 → packed (Section V-C step 3).
        let seq = RequestSeqBuilder::new(4, 2)
            .push(1u32, 0.5, [0])
            .push(2u32, 0.8, [0, 1])
            .push(3u32, 1.1, [1])
            .push(0u32, 1.4, [0, 1])
            .push(1u32, 2.6, [0])
            .push(1u32, 3.2, [1])
            .push(2u32, 4.0, [0, 1])
            .build()
            .unwrap();
        let p = greedy_matching(&matrix_of(&seq), 0.4);
        assert_eq!(p.pairs, vec![(ItemId(0), ItemId(1))]);
        assert!(p.singletons.is_empty());
        assert_eq!(p.total_items(), 2);
    }

    #[test]
    fn threshold_is_strict() {
        // With θ = J exactly, the pair must NOT be packed (line 16 uses >).
        let seq = RequestSeqBuilder::new(4, 2)
            .push(1u32, 0.5, [0])
            .push(2u32, 0.8, [0, 1])
            .push(3u32, 1.1, [1])
            .push(0u32, 1.4, [0, 1])
            .push(1u32, 2.6, [0])
            .push(1u32, 3.2, [1])
            .push(2u32, 4.0, [0, 1])
            .build()
            .unwrap();
        let p = greedy_matching(&matrix_of(&seq), 3.0 / 7.0);
        assert!(p.pairs.is_empty());
        assert_eq!(p.singletons.len(), 2);
    }

    #[test]
    fn greedy_packs_best_pairs_first_and_disjointly() {
        let m = matrix_of(&seq4());
        let p = greedy_matching(&m, 0.1);
        // (d1,d2): J = 3/4; best pair, packed first. d3's best remaining
        // partner is d4: both {req 3}, union {2,3,5} → 1/3 > 0.1.
        assert_eq!(
            p.pairs,
            vec![(ItemId(0), ItemId(1)), (ItemId(2), ItemId(3))]
        );
        assert!(p.singletons.is_empty());
    }

    #[test]
    fn high_threshold_packs_nothing() {
        let p = greedy_matching(&matrix_of(&seq4()), 0.9);
        assert!(p.pairs.is_empty());
        assert_eq!(p.singletons.len(), 4);
    }

    #[test]
    fn packing_covers_every_item_exactly_once() {
        for theta in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let p = greedy_matching(&matrix_of(&seq4()), theta);
            assert_eq!(p.total_items(), 4, "theta={theta}");
            let mut seen: Vec<ItemId> = p
                .pairs
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .chain(p.singletons.iter().copied())
                .collect();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 4);
        }
    }

    #[test]
    fn nan_similarities_are_dropped_deterministically() {
        // A NaN pair must never pack and must not perturb the ordering of
        // the finite pairs, whatever position it arrives in.
        let finite = vec![
            (ItemId(0), ItemId(1), 0.9),
            (ItemId(2), ItemId(3), 0.5),
            (ItemId(4), ItemId(5), 0.7),
        ];
        let reference = greedy_matching_from_pairs(finite.clone(), 6, 0.1);
        assert_eq!(
            reference.pairs,
            vec![
                (ItemId(0), ItemId(1)),
                (ItemId(4), ItemId(5)),
                (ItemId(2), ItemId(3))
            ]
        );
        for pos in 0..=finite.len() {
            let mut with_nan = finite.clone();
            with_nan.insert(pos, (ItemId(1), ItemId(2), f64::NAN));
            let p = greedy_matching_from_pairs(with_nan, 6, 0.1);
            assert_eq!(p, reference, "NaN at position {pos}");
        }
    }

    #[test]
    fn single_item_universe_is_a_singleton() {
        let seq = RequestSeqBuilder::new(1, 1)
            .push(0u32, 1.0, [0])
            .build()
            .unwrap();
        let p = greedy_matching(&matrix_of(&seq), 0.3);
        assert!(p.pairs.is_empty());
        assert_eq!(p.singletons, vec![ItemId(0)]);
    }
}
