//! The comparison algorithms of the paper's evaluation (Section VI).
//!
//! * **Optimal** (non-packing): every item is served individually by the
//!   optimal off-line algorithm of \[6\] — "this algorithm has the best
//!   results, and can be used as a yardstick". One extreme of Fig. 13
//!   (no packing ability at all).
//! * **Package_Served**: requests containing `d_i`, `d_j` or both are
//!   *always* served by shipping the package, i.e. the optimal off-line
//!   algorithm runs over the union of the pair's requests at package rates
//!   (`2αμ`, `2αλ`). The other extreme of Fig. 13 (maximal packing).
//! * **Greedy** (non-packing): every item served by the simple greedy of
//!   Fig. 4 — the ablation baseline quantifying what the DP contributes.

use mcs_correlation::matching::greedy_matching_from_pairs;
use mcs_correlation::pairs_above;
use mcs_model::{CostModel, ItemId, RequestSeq};
use mcs_offline::{greedy::greedy, optimal};

/// Summary of a baseline run over a full request sequence.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Baseline name (for experiment tables).
    pub name: &'static str,
    /// Total cost across all items.
    pub total_cost: f64,
    /// `Σ|d_i|` — the `ave_cost` denominator.
    pub total_accesses: usize,
    /// Per-item (or per-commodity) cost contributions.
    pub per_item: Vec<(ItemId, f64)>,
}

impl BaselineReport {
    /// Cost per item access.
    pub fn ave_cost(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_cost / self.total_accesses as f64
        }
    }
}

/// The non-packing Optimal baseline: per-item optimal off-line caching.
pub fn optimal_non_packing(seq: &RequestSeq, model: &CostModel) -> BaselineReport {
    let mut per_item = Vec::with_capacity(seq.items() as usize);
    let mut total = 0.0;
    for i in 0..seq.items() {
        let item = ItemId(i);
        let c = optimal(&seq.item_trace(item), model).cost;
        total += c;
        per_item.push((item, c));
    }
    BaselineReport {
        name: "Optimal",
        total_cost: total,
        total_accesses: seq.total_item_accesses(),
        per_item,
    }
}

/// The non-packing simple-greedy baseline (ablation): per-item Fig.-4
/// greedy.
pub fn greedy_non_packing(seq: &RequestSeq, model: &CostModel) -> BaselineReport {
    let mut per_item = Vec::with_capacity(seq.items() as usize);
    let mut total = 0.0;
    for i in 0..seq.items() {
        let item = ItemId(i);
        let c = greedy(&seq.item_trace(item), model).cost;
        total += c;
        per_item.push((item, c));
    }
    BaselineReport {
        name: "Greedy",
        total_cost: total,
        total_accesses: seq.total_item_accesses(),
        per_item,
    }
}

/// Package_Served cost for one pair: the optimal off-line algorithm over
/// the *union* of the pair's requests at package rates.
pub fn package_served_pair(seq: &RequestSeq, a: ItemId, b: ItemId, model: &CostModel) -> f64 {
    let union = seq.union_trace(a, b);
    optimal(&union, &model.scaled_for_package()).cost
}

/// Per-item optimal cost of one pair served individually (the Optimal
/// yardstick restricted to the pair) — `C_1opt + C_2opt`.
pub fn optimal_pair(seq: &RequestSeq, a: ItemId, b: ItemId, model: &CostModel) -> f64 {
    optimal(&seq.item_trace(a), model).cost + optimal(&seq.item_trace(b), model).cost
}

/// The Package_Served baseline over a full sequence: Phase-1 matching at
/// `theta`, then every matched pair is always-packed; leftovers are served
/// individually by the optimal off-line algorithm.
pub fn package_served(seq: &RequestSeq, model: &CostModel, theta: f64) -> BaselineReport {
    let packing = greedy_matching_from_pairs(pairs_above(seq, theta), seq.items(), theta);

    let mut per_item = Vec::new();
    let mut total = 0.0;
    for &(a, b) in &packing.pairs {
        let c = package_served_pair(seq, a, b, model);
        total += c;
        // Attribute the joint cost to the lower item id for reporting.
        per_item.push((a, c));
        per_item.push((b, 0.0));
    }
    for &item in &packing.singletons {
        let c = optimal(&seq.item_trace(item), model).cost;
        total += c;
        per_item.push((item, c));
    }
    per_item.sort_by_key(|&(i, _)| i);
    BaselineReport {
        name: "Package_Served",
        total_cost: total,
        total_accesses: seq.total_item_accesses(),
        per_item,
    }
}

mcs_model::impl_to_json!(BaselineReport {
    name,
    total_cost,
    total_accesses,
    per_item
});

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
    fn optimal_baseline_sums_per_item_optima() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let r = optimal_non_packing(&seq, &model);
        assert_eq!(r.per_item.len(), 2);
        assert!(approx_eq(
            r.total_cost,
            r.per_item.iter().map(|&(_, c)| c).sum::<f64>()
        ));
        assert!(approx_eq(
            r.total_cost,
            optimal_pair(&seq, ItemId(0), ItemId(1), &model)
        ));
        assert_eq!(r.total_accesses, 10);
    }

    #[test]
    fn greedy_baseline_is_at_least_optimal() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let o = optimal_non_packing(&seq, &model);
        let g = greedy_non_packing(&seq, &model);
        assert!(g.total_cost >= o.total_cost - 1e-9);
        assert!(g.total_cost <= 2.0 * o.total_cost + 1e-9);
    }

    #[test]
    fn package_served_pair_scales_with_alpha() {
        let seq = paper_sequence();
        // Package_Served cost is linear in 2α (uniform rate scaling).
        let lo = CostModel::new(1.0, 1.0, 0.4).unwrap();
        let hi = CostModel::new(1.0, 1.0, 0.8).unwrap();
        let c_lo = package_served_pair(&seq, ItemId(0), ItemId(1), &lo);
        let c_hi = package_served_pair(&seq, ItemId(0), ItemId(1), &hi);
        assert!(approx_eq(c_hi, 2.0 * c_lo));
    }

    #[test]
    fn tiny_alpha_makes_package_served_win() {
        // With α → small the always-pack extreme must beat per-item optimal
        // (Fig. 13, α = 0.2 panel).
        let seq = paper_sequence();
        let model = CostModel::new(1.0, 1.0, 0.2).unwrap();
        let ps = package_served(&seq, &model, 0.3);
        let opt = optimal_non_packing(&seq, &model);
        assert!(ps.total_cost < opt.total_cost);
    }

    #[test]
    fn large_alpha_makes_package_served_lose() {
        // With α = 1 there is no discount: always-packing pays double rates
        // on the union trace and must lose (Fig. 13, α = 0.8 trend).
        let seq = paper_sequence();
        let model = CostModel::new(1.0, 1.0, 1.0).unwrap();
        let ps = package_served(&seq, &model, 0.3);
        let opt = optimal_non_packing(&seq, &model);
        assert!(ps.total_cost > opt.total_cost);
    }

    #[test]
    fn package_served_with_prohibitive_theta_equals_optimal() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let ps = package_served(&seq, &model, 0.99);
        let opt = optimal_non_packing(&seq, &model);
        assert!(approx_eq(ps.total_cost, opt.total_cost));
    }

    #[test]
    fn reports_expose_ave_cost() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let r = optimal_non_packing(&seq, &model);
        assert!(approx_eq(r.ave_cost(), r.total_cost / 10.0));
    }
}
