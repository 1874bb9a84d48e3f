//! Multi-item extension experiment: how much does packing *more than two*
//! items buy, as a function of the discount factor α?
//!
//! The workload is a bundle-correlated sequence (news text + picture +
//! video, the paper's introduction scenario): `bundles` item-triples, each
//! accessed together with probability `q` and partially otherwise, plus
//! independent background items. We compare:
//!
//! * **pairwise DP_Greedy** (the paper's algorithm — at most 2 items/package),
//! * **multi-item DP_Greedy** with unbounded groups (the future-work
//!   extension; the registry's `multi` row), and
//! * the non-packing **Optimal** yardstick (the `optimal` row).

use dp_greedy::two_phase::{dp_greedy, DpGreedyConfig};
use mcs_engine::{find, RunContext};
use mcs_model::par::par_map;
use mcs_model::rng::Rng;
use mcs_model::{CostModel, RequestSeq, RequestSeqBuilder};

use crate::table::{fmt_f, Table};

/// One α measurement.
#[derive(Debug, Clone, Copy)]
pub struct MultiRow {
    /// Discount factor.
    pub alpha: f64,
    /// Pairwise DP_Greedy `ave_cost`.
    pub pairwise: f64,
    /// Unbounded multi-item DP_Greedy `ave_cost`.
    pub multi: f64,
    /// Non-packing optimal `ave_cost`.
    pub optimal: f64,
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct MultiExp {
    /// Rows per α.
    pub rows: Vec<MultiRow>,
    /// Number of requests in the generated bundle workload.
    pub requests: usize,
}

/// Generates the bundle workload: `bundles` triples over `servers`
/// servers, `n` requests, co-access probability `q`.
pub fn bundle_workload(servers: u32, bundles: u32, n: usize, q: f64, seed: u64) -> RequestSeq {
    let items = bundles * 3;
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = RequestSeqBuilder::new(servers, items);
    let mut t = 0.0_f64;
    for _ in 0..n {
        t += 0.05 + rng.gen_f64() * 0.2;
        let bundle = rng.gen_range(0..bundles);
        let base = bundle * 3;
        let server = rng.gen_range(0..servers);
        let items: Vec<u32> = if rng.gen_f64() < q {
            vec![base, base + 1, base + 2]
        } else {
            // A partial access: one or two of the bundle members.
            match rng.gen_range(0u32..4) {
                0 => vec![base],
                1 => vec![base + 1],
                2 => vec![base + 2],
                _ => {
                    let skip = rng.gen_range(0..3);
                    (0..3).filter(|&k| k != skip).map(|k| base + k).collect()
                }
            }
        };
        b = b.push(server, t, items);
    }
    b.build().expect("bundle workload is valid")
}

/// Runs the sweep over α.
pub fn run(seed: u64) -> MultiExp {
    let seq = bundle_workload(12, 3, 900, 0.6, seed);
    let requests = seq.len();
    let alphas = [0.2, 0.4, 0.6, 0.8];
    let multi = find("multi").expect("registered");
    let optimal = find("optimal").expect("registered");
    let rows: Vec<MultiRow> = par_map(&alphas, |&alpha| {
        let model = CostModel::new(2.0, 4.0, alpha).expect("valid");
        let ctx = RunContext::new(model).with_theta(0.3);
        let pairwise = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.3), 2);
        MultiRow {
            alpha,
            pairwise: pairwise.ave_cost(),
            multi: multi.solve(&seq, &ctx).ave_cost(),
            optimal: optimal.solve(&seq, &ctx).ave_cost(),
        }
    });
    MultiExp { rows, requests }
}

impl MultiExp {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Multi-item extension — bundle workload ({} requests, 3-item bundles, μ = 2, λ = 4)",
                self.requests
            ),
            &["alpha", "pairwise DP_Greedy", "multi-item DP_Greedy", "Optimal"],
        );
        for r in &self.rows {
            t.push(vec![
                fmt_f(r.alpha),
                fmt_f(r.pairwise),
                fmt_f(r.multi),
                fmt_f(r.optimal),
            ]);
        }
        t
    }
}

mcs_model::impl_to_json!(MultiRow {
    alpha,
    pairwise,
    multi,
    optimal
});
mcs_model::impl_to_json!(MultiExp { rows, requests });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_workload_is_deterministic_and_valid() {
        let a = bundle_workload(6, 2, 200, 0.5, 3);
        let b = bundle_workload(6, 2, 200, 0.5, 3);
        assert_eq!(a, b);
        assert_eq!(a.items(), 6);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn multi_item_beats_pairwise_on_bundles_at_low_alpha() {
        let e = run(11);
        // α = 0.2: shipping whole triples is nearly free; the unbounded
        // grouping must beat the pair-limited algorithm.
        let low = e.rows.iter().find(|r| r.alpha == 0.2).unwrap();
        assert!(
            low.multi < low.pairwise,
            "multi {} should beat pairwise {} at α=0.2",
            low.multi,
            low.pairwise
        );
        // Both packers beat the non-packing optimal at low α.
        assert!(low.pairwise < low.optimal);
        // Optimal is α-invariant.
        let hi = e.rows.iter().find(|r| r.alpha == 0.8).unwrap();
        assert!((hi.optimal - low.optimal).abs() < 1e-9);
    }
}
