//! E4 / Fig. 11 — impact of the Jaccard similarity on DP_Greedy.
//!
//! For every item pair of the workload, we measure the per-pair `ave_cost`
//! of DP_Greedy (the pair packed, Phase 2 applied) against the Optimal
//! yardstick (both items served individually by the optimal off-line
//! algorithm). The paper's finding: DP_Greedy improves with the pair's
//! Jaccard similarity, with break-even around `J ≈ 0.3` — which is exactly
//! why its experiments set `θ = 0.3`.

use dp_greedy::baselines::optimal_pair;
use dp_greedy::two_phase::{dp_greedy_pair, DpGreedyConfig};
use mcs_engine::solvers::package_parts;
use mcs_model::par::par_map;
use mcs_model::{CostModel, ItemId};
use mcs_trace::workload::{generate, WorkloadConfig};

use crate::parts_breakdown;
use crate::table::{fmt_f, Table};

/// One pair measurement.
#[derive(Debug, Clone, Copy)]
pub struct Fig11Row {
    /// First item of the pair.
    pub a: u32,
    /// Second item.
    pub b: u32,
    /// Measured Jaccard similarity.
    pub jaccard: f64,
    /// DP_Greedy `ave_cost` over the pair's accesses.
    pub dp_greedy: f64,
    /// Optimal (non-packing) `ave_cost` over the same accesses.
    pub optimal: f64,
    /// Cache share of the DP_Greedy per-access cost (decision ledger).
    pub dpg_cache: f64,
    /// Transfer share of the DP_Greedy per-access cost.
    pub dpg_transfer: f64,
    /// Package-delivery share of the DP_Greedy per-access cost.
    pub dpg_package: f64,
}

/// Output of the Fig. 11 experiment.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Rows sorted by ascending Jaccard.
    pub rows: Vec<Fig11Row>,
    /// Estimated break-even Jaccard (first J where DP_Greedy wins for all
    /// higher-J pairs), if any.
    pub break_even: Option<f64>,
}

/// Runs the experiment with the paper's `α = 0.8` and the Fig.-12-family
/// rates at the peak ratio `ρ = 2` (`μ = 2`, `λ = 4`, `λ + μ = 6`).
pub fn run(config: &WorkloadConfig) -> Fig11 {
    let seq = generate(config);
    let model = CostModel::new(2.0, 4.0, 0.8).expect("valid model");
    let dpg_config = DpGreedyConfig::new(model).with_theta(0.3);

    let k = seq.items();
    let pairs: Vec<(u32, u32)> = (0..k)
        .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
        .collect();

    let mut rows: Vec<Fig11Row> = par_map(&pairs, |&(i, j)| {
        let (a, b) = (ItemId(i), ItemId(j));
        let pv = seq.pair_view(a, b);
        let accesses = pv.count_a() + pv.count_b();
        if accesses == 0 {
            return None;
        }
        let report = dp_greedy_pair(&seq, a, b, &dpg_config);
        let opt = optimal_pair(&seq, a, b, &model);
        let total = report.total();
        let mut parts = Vec::new();
        package_parts(report, &model, 0.0, &mut parts);
        let breakdown = parts_breakdown(parts);
        let per_access = 1.0 / accesses as f64;
        Some(Fig11Row {
            a: i,
            b: j,
            jaccard: pv.jaccard(),
            dp_greedy: total * per_access,
            optimal: opt * per_access,
            dpg_cache: breakdown.cache * per_access,
            dpg_transfer: breakdown.transfer * per_access,
            dpg_package: breakdown.package_delivery * per_access,
        })
    })
    .into_iter()
    .flatten()
    .collect();
    rows.sort_by(|x, y| x.jaccard.partial_cmp(&y.jaccard).unwrap());

    // Break-even: smallest J such that every row with J' >= J has
    // dp_greedy <= optimal.
    let mut break_even = None;
    for (idx, row) in rows.iter().enumerate() {
        if rows[idx..].iter().all(|r| r.dp_greedy <= r.optimal + 1e-12) {
            break_even = Some(row.jaccard);
            break;
        }
    }

    Fig11 { rows, break_even }
}

impl Fig11 {
    /// Renders the measurement table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 11 — ave_cost vs Jaccard similarity (θ = 0.3, α = 0.8, μ = 2, λ = 4)",
            &[
                "pair",
                "jaccard",
                "DP_Greedy",
                "Optimal",
                "winner",
                "dpg_cache",
                "dpg_transfer",
                "dpg_pkg",
            ],
        );
        for r in &self.rows {
            t.push(vec![
                format!("(d{}, d{})", r.a + 1, r.b + 1),
                fmt_f(r.jaccard),
                fmt_f(r.dp_greedy),
                fmt_f(r.optimal),
                if r.dp_greedy <= r.optimal {
                    "DP_Greedy".into()
                } else {
                    "Optimal".into()
                },
                fmt_f(r.dpg_cache),
                fmt_f(r.dpg_transfer),
                fmt_f(r.dpg_package),
            ]);
        }
        if let Some(be) = self.break_even {
            let mut row = vec!["break-even".into(), fmt_f(be)];
            row.extend(std::iter::repeat_n("-".to_string(), 6));
            t.push(row);
        }
        t
    }
}

mcs_model::impl_to_json!(Fig11Row {
    a,
    b,
    jaccard,
    dp_greedy,
    optimal,
    dpg_cache,
    dpg_transfer,
    dpg_package
});
mcs_model::impl_to_json!(Fig11 { rows, break_even });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, DEFAULT_SEED};

    #[test]
    fn dp_greedy_wins_at_high_jaccard_and_not_at_low() {
        let f = run(&paper_workload(DEFAULT_SEED));
        assert!(f.rows.len() >= 10);
        // Highest-J pair: DP_Greedy must beat Optimal (the Fig. 11 trend).
        let hi = f.rows.last().unwrap();
        assert!(
            hi.dp_greedy < hi.optimal,
            "at J={} DP_Greedy {} should beat Optimal {}",
            hi.jaccard,
            hi.dp_greedy,
            hi.optimal
        );
        // The gain at the top exceeds the gain at the bottom: the curve has
        // the paper's downward-relative trend.
        let lo = &f.rows[0];
        let gain_hi = hi.optimal - hi.dp_greedy;
        let gain_lo = lo.optimal - lo.dp_greedy;
        assert!(
            gain_hi > gain_lo,
            "gain should grow with J: hi {gain_hi} vs lo {gain_lo}"
        );
    }

    #[test]
    fn break_even_exists_in_a_plausible_band() {
        let f = run(&paper_workload(DEFAULT_SEED));
        let be = f.break_even.expect("a break-even Jaccard should exist");
        // The paper reports ≈ 0.3 on its dataset; accept a generous band
        // for the synthetic one (the in-tree PRNG's workload lands its
        // break-even a little above the old generator's).
        assert!(
            (0.1..=0.65).contains(&be),
            "break-even {be} out of plausible band"
        );
    }
}
