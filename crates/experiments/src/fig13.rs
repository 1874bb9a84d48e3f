//! E6 / Fig. 13 — impact of the discount factor `α`.
//!
//! For `α ∈ {0.2, 0.4, 0.6, 0.8}` and every designed item pair (x-axis:
//! measured Jaccard similarity), compare three algorithms per the paper:
//!
//! * **Package_Served** — always pack (one extreme);
//! * **Optimal** — never pack (the other extreme);
//! * **DP_Greedy** — selective packing.
//!
//! Expected shape: at small `α` packing is nearly free, Package_Served and
//! DP_Greedy win everywhere and Optimal is worst; as `α` grows
//! Package_Served deteriorates while DP_Greedy tracks the better of the
//! two extremes thanks to its selective packing.

use dp_greedy::baselines::{optimal_pair, package_served_pair};
use dp_greedy::two_phase::{dp_greedy_pair, DpGreedyConfig};
use mcs_engine::solvers::package_parts;
use mcs_engine::{Commodity, SolutionPart};
use mcs_model::par::par_map;
use mcs_model::{CostModel, ItemId};
use mcs_trace::workload::{generate, WorkloadConfig};

use crate::parts_breakdown;
use crate::table::{fmt_f, Table};

/// One (α, pair) measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig13Row {
    /// Discount factor.
    pub alpha: f64,
    /// First item.
    pub a: u32,
    /// Second item.
    pub b: u32,
    /// Measured Jaccard similarity.
    pub jaccard: f64,
    /// Package_Served per-access cost.
    pub package_served: f64,
    /// Optimal (non-packing) per-access cost.
    pub optimal: f64,
    /// DP_Greedy per-access cost.
    pub dp_greedy: f64,
    /// Cache share of the DP_Greedy per-access cost (decision ledger).
    pub dpg_cache: f64,
    /// Transfer share of the DP_Greedy per-access cost.
    pub dpg_transfer: f64,
    /// Package-delivery share of the DP_Greedy per-access cost.
    pub dpg_package: f64,
}

/// Output of the Fig. 13 experiment.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// All rows, grouped by α then ascending Jaccard.
    pub rows: Vec<Fig13Row>,
}

/// The paper's α grid.
pub const ALPHAS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// The threshold DP_Greedy packs above (the paper's `θ = 0.3`).
pub const THETA: f64 = 0.3;

/// Runs the experiment over the designed pairs with `μ = 2`, `λ = 4`.
pub fn run(config: &WorkloadConfig) -> Fig13 {
    let seq = generate(config);
    let k = seq.items();
    let pairs: Vec<(u32, u32)> = (0..k / 2).map(|p| (2 * p, 2 * p + 1)).collect();

    let combos: Vec<(f64, u32, u32)> = ALPHAS
        .iter()
        .flat_map(|&alpha| pairs.iter().map(move |&(i, j)| (alpha, i, j)))
        .collect();
    let mut rows: Vec<Fig13Row> = par_map(&combos, |&(alpha, i, j)| {
        let seq = &seq;
        let model = CostModel::new(2.0, 4.0, alpha).expect("valid");
        let (a, b) = (ItemId(i), ItemId(j));
        let pv = seq.pair_view(a, b);
        let accesses = (pv.count_a() + pv.count_b()) as f64;
        if accesses == 0.0 {
            return None;
        }
        let optimal = optimal_pair(seq, a, b, &model) / accesses;
        // Selective packing per Algorithm 1: Phase 2 only runs
        // on pairs whose similarity strictly exceeds θ; below
        // it DP_Greedy serves both items individually.
        let mut parts = Vec::new();
        let dp_greedy = if pv.jaccard() > THETA {
            let report = dp_greedy_pair(seq, a, b, &DpGreedyConfig::new(model).with_theta(THETA));
            let total = report.total();
            package_parts(report, &model, 0.0, &mut parts);
            total / accesses
        } else {
            // Unpacked: both items served by their own optimal schedules.
            for item in [a, b] {
                parts.push(SolutionPart::Schedule {
                    phase: "offline",
                    subject: Commodity::Item(item.0),
                    schedule: mcs_offline::optimal(&seq.item_trace(item), &model).schedule,
                    mu: model.mu(),
                    lambda: model.lambda(),
                });
            }
            optimal
        };
        let breakdown = parts_breakdown(parts);
        Some(Fig13Row {
            alpha,
            a: i,
            b: j,
            jaccard: pv.jaccard(),
            package_served: package_served_pair(seq, a, b, &model).cost / accesses,
            optimal,
            dp_greedy,
            dpg_cache: breakdown.cache / accesses,
            dpg_transfer: breakdown.transfer / accesses,
            dpg_package: breakdown.package_delivery / accesses,
        })
    })
    .into_iter()
    .flatten()
    .collect();
    rows.sort_by(|x, y| {
        x.alpha
            .partial_cmp(&y.alpha)
            .unwrap()
            .then(x.jaccard.partial_cmp(&y.jaccard).unwrap())
    });
    Fig13 { rows }
}

impl Fig13 {
    /// Renders the grouped table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 13 — ave_cost vs α (θ = 0.3, μ = 2, λ = 4)",
            &[
                "alpha",
                "pair",
                "jaccard",
                "Package_Served",
                "Optimal",
                "DP_Greedy",
                "dpg_cache",
                "dpg_transfer",
                "dpg_pkg",
            ],
        );
        for r in &self.rows {
            t.push(vec![
                fmt_f(r.alpha),
                format!("(d{}, d{})", r.a + 1, r.b + 1),
                fmt_f(r.jaccard),
                fmt_f(r.package_served),
                fmt_f(r.optimal),
                fmt_f(r.dp_greedy),
                fmt_f(r.dpg_cache),
                fmt_f(r.dpg_transfer),
                fmt_f(r.dpg_package),
            ]);
        }
        t
    }

    /// Mean per-algorithm cost at one α (averaged over pairs).
    pub fn mean_at(&self, alpha: f64) -> Option<(f64, f64, f64)> {
        let rows: Vec<&Fig13Row> = self
            .rows
            .iter()
            .filter(|r| (r.alpha - alpha).abs() < 1e-9)
            .collect();
        if rows.is_empty() {
            return None;
        }
        let n = rows.len() as f64;
        Some((
            rows.iter().map(|r| r.package_served).sum::<f64>() / n,
            rows.iter().map(|r| r.optimal).sum::<f64>() / n,
            rows.iter().map(|r| r.dp_greedy).sum::<f64>() / n,
        ))
    }
}

mcs_model::impl_to_json!(Fig13Row {
    alpha,
    a,
    b,
    jaccard,
    package_served,
    optimal,
    dp_greedy,
    dpg_cache,
    dpg_transfer,
    dpg_package
});
mcs_model::impl_to_json!(Fig13 { rows });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, DEFAULT_SEED};

    fn small_run() -> Fig13 {
        let mut cfg = paper_workload(DEFAULT_SEED);
        cfg.steps = 800;
        run(&cfg)
    }

    #[test]
    fn small_alpha_favours_packing_large_alpha_punishes_it() {
        let f = small_run();
        let (ps02, opt02, dpg02) = f.mean_at(0.2).unwrap();
        let (ps08, opt08, dpg08) = f.mean_at(0.8).unwrap();
        // α = 0.2: packing nearly free → Package_Served beats Optimal and
        // DP_Greedy tracks it.
        assert!(ps02 < opt02, "α=0.2: PS {ps02} should beat Optimal {opt02}");
        assert!(
            dpg02 < opt02,
            "α=0.2: DPG {dpg02} should beat Optimal {opt02}"
        );
        // Package_Served deteriorates as α grows; Optimal is α-invariant
        // for its own cost (no packing) so the gap must shrink or flip.
        assert!(ps08 > ps02);
        assert!((opt08 - opt02).abs() < 1e-9, "Optimal is α-independent");
        // DP_Greedy is never the worst of the three on average.
        assert!(dpg08 <= ps08.max(opt08) + 1e-9);
        assert!(dpg02 <= ps02.max(opt02) + 1e-9);
    }

    #[test]
    fn breakdown_columns_sum_to_the_dp_greedy_cost() {
        let f = small_run();
        for r in &f.rows {
            let sum = r.dpg_cache + r.dpg_transfer + r.dpg_package;
            assert!(
                (sum - r.dp_greedy).abs() < 1e-9,
                "α={} pair ({},{}): breakdown {} != dp_greedy {}",
                r.alpha,
                r.a,
                r.b,
                sum,
                r.dp_greedy
            );
        }
    }

    #[test]
    fn package_served_cost_grows_monotonically_with_alpha() {
        let f = small_run();
        let means: Vec<f64> = ALPHAS.iter().map(|&a| f.mean_at(a).unwrap().0).collect();
        for w in means.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "PS mean must grow with α: {means:?}");
        }
    }
}
