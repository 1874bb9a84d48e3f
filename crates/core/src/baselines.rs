//! Per-pair costs of the comparison algorithms of the paper's evaluation
//! (Section VI), for the per-pair figures (Figs. 11 and 13) and
//! Theorem 1's ratio check. The whole-sequence baselines are the engine
//! registry's `optimal`, `greedy` and `package_served` rows.
//!
//! * **Optimal** (non-packing): every item is served individually by the
//!   optimal off-line algorithm of \[6\] — "this algorithm has the best
//!   results, and can be used as a yardstick". One extreme of Fig. 13
//!   (no packing ability at all).
//! * **Package_Served**: requests containing `d_i`, `d_j` or both are
//!   *always* served by shipping the package, i.e. the optimal off-line
//!   algorithm runs over the union of the pair's requests at package rates
//!   (`2αμ`, `2αλ`). The other extreme of Fig. 13 (maximal packing).

use mcs_model::{CostModel, ItemId, RequestSeq};
use mcs_offline::{optimal, OptimalOutcome};

/// Package_Served for one pair: the optimal off-line algorithm over the
/// *union* of the pair's requests at package rates — its cost and the
/// schedule the engine's `package_served` row emits.
pub fn package_served_pair(
    seq: &RequestSeq,
    a: ItemId,
    b: ItemId,
    model: &CostModel,
) -> OptimalOutcome {
    optimal(&seq.union_trace(a, b), &model.scaled_for_package())
}

/// Per-item optimal cost of one pair served individually (the Optimal
/// yardstick restricted to the pair) — `C_1opt + C_2opt`.
pub fn optimal_pair(seq: &RequestSeq, a: ItemId, b: ItemId, model: &CostModel) -> f64 {
    optimal(&seq.item_trace(a), model).cost + optimal(&seq.item_trace(b), model).cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{approx_eq, RequestSeqBuilder};

    fn paper_sequence() -> RequestSeq {
        RequestSeqBuilder::new(4, 2)
            .push(1u32, 0.5, [0])
            .push(2u32, 0.8, [0, 1])
            .push(3u32, 1.1, [1])
            .push(0u32, 1.4, [0, 1])
            .push(1u32, 2.6, [0])
            .push(1u32, 3.2, [1])
            .push(2u32, 4.0, [0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn package_served_pair_scales_with_alpha() {
        let seq = paper_sequence();
        // Package_Served cost is linear in 2α (uniform rate scaling).
        let lo = CostModel::new(1.0, 1.0, 0.4).unwrap();
        let hi = CostModel::new(1.0, 1.0, 0.8).unwrap();
        let c_lo = package_served_pair(&seq, ItemId(0), ItemId(1), &lo).cost;
        let c_hi = package_served_pair(&seq, ItemId(0), ItemId(1), &hi).cost;
        assert!(approx_eq(c_hi, 2.0 * c_lo));
    }
}
