//! The optimal off-line cost alone, in one `O(n log n)` sweep.
//!
//! The long-interval edge into node `i+1` costs `w_i = μ·len_i − λ` from
//! any entry node `j ∈ [a_i, i]`, so
//!
//! ```text
//! dist[i+1] = min( bridge(dist[i]),  min_{a_i ≤ j ≤ i} dist[j] + w_i )
//! ```
//!
//! and the inner `min` is a range-minimum query over the prefix of `dist`
//! already final. This is the recurrence [`crate::optimal::optimal`]
//! solves too, with the same rounding (`w_i` first, then the sum), so the
//! two costs are bit-identical; this sweep skips the entry nodes and the
//! schedule. It stays as the cost-only check of `optimal` that
//! `tests/covering_dp.rs` and the end-to-end benchmark run.

use crate::optimal::MinTree;
use mcs_model::request::{Predecessor, SingleItemTrace};
use mcs_model::{approx_le, CostModel};

/// Computes the optimal off-line cost in `O(n log n)`.
///
/// Returns the same bits as [`crate::optimal::optimal`]'s cost; does not
/// reconstruct a schedule.
pub fn optimal_fast_cost(trace: &SingleItemTrace, model: &CostModel) -> f64 {
    let _span = mcs_obs::span("offline.optimal_fast");
    let n = trace.len();
    if n == 0 {
        return 0.0;
    }
    let mu = model.mu();
    let lambda = model.lambda();

    let mut boundary = Vec::with_capacity(n + 1);
    boundary.push(0.0_f64);
    boundary.extend(trace.points.iter().map(|p| p.time));

    let preds = trace.predecessors();
    let pred_node: Vec<Option<usize>> = preds
        .iter()
        .map(|p| match p {
            Predecessor::Origin => Some(0),
            Predecessor::Request(j) => Some(j + 1),
            Predecessor::None => None,
        })
        .collect();
    let interval_len = |i: usize| boundary[i + 1] - boundary[pred_node[i].expect("has pred")];

    // Classification and short coverage via a difference array (O(n)).
    let mut is_short = vec![false; n];
    let mut cover_diff = vec![0i32; n + 1];
    let mut base = 0.0;
    for i in 0..n {
        match pred_node[i] {
            Some(a) if approx_le(mu * interval_len(i), lambda) => {
                is_short[i] = true;
                base += mu * interval_len(i);
                cover_diff[a] += 1;
                cover_diff[i + 1] -= 1;
            }
            _ => base += lambda,
        }
    }
    let mut short_cover = vec![false; n];
    let mut acc = 0;
    for (j, cov) in short_cover.iter_mut().enumerate() {
        acc += cover_diff[j];
        *cov = acc > 0;
    }

    // Forward sweep with RMQ over the final dist values, kept in the
    // tree's leaves.
    let mut dist = MinTree::new(n + 1);
    dist.set(0, 0.0);
    for j in 0..n {
        // Long edge into node j+1: request j's interval, entered anywhere
        // in [pred_node[j], j].
        let mut best = f64::INFINITY;
        if let Some(a) = pred_node[j] {
            if !is_short[j] {
                best = dist.min(a, j) + (mu * interval_len(j) - lambda);
            }
        }
        // Bridge edge from node j.
        let w = if short_cover[j] {
            0.0
        } else {
            mu * (boundary[j + 1] - boundary[j])
        };
        best = best.min(dist.get(j) + w);
        dist.set(j + 1, best);
    }

    base + dist.get(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::approx_eq;

    #[test]
    fn matches_the_paper_subproblem() {
        let trace = SingleItemTrace::from_pairs(4, &[(0.8, 2), (1.4, 0), (4.0, 2)]);
        let pkg = CostModel::paper_example().scaled_for_package();
        assert!(approx_eq(optimal_fast_cost(&trace, &pkg), 8.96));
    }

    #[test]
    fn empty_and_single() {
        let model = CostModel::paper_example();
        assert_eq!(
            optimal_fast_cost(&SingleItemTrace::from_pairs(2, &[]), &model),
            0.0
        );
        assert!(approx_eq(
            optimal_fast_cost(&SingleItemTrace::from_pairs(2, &[(0.8, 1)]), &model),
            1.8
        ));
    }
}
