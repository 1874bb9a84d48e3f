//! E5 / Fig. 12 — impact of the ratio `ρ = λ/μ` under `λ + μ = 6`.
//!
//! The paper sweeps `ρ` from 0.2 to 5.0 while pinning `λ + μ = 6` and
//! observes a parabola-like `ave_cost` curve peaking around `ρ ≈ 2`
//! (`μ = 2, λ = 4`): at the extremes the algorithm can lean entirely on
//! the cheap operation, in the middle neither caching nor transferring is
//! favourable; the first request of each server always needs a transfer,
//! which tilts the peak right of `ρ = 1`.

use mcs_engine::{find, RunContext};
use mcs_model::defaults::{DEFAULT_ALPHA, DEFAULT_THETA, RATE_SUM};
use mcs_model::par::par_map;
use mcs_model::CostModelBuilder;
use mcs_trace::workload::{generate, WorkloadConfig};

use crate::table::{fmt_f, Table};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Row {
    /// `ρ = λ/μ`.
    pub rho: f64,
    /// Resulting `μ`.
    pub mu: f64,
    /// Resulting `λ`.
    pub lambda: f64,
    /// DP_Greedy `ave_cost` over the whole sequence.
    pub dp_greedy: f64,
    /// Optimal (non-packing) `ave_cost`.
    pub optimal: f64,
    /// Cache share of the DP_Greedy per-access cost (decision ledger).
    pub dpg_cache: f64,
    /// Transfer share of the DP_Greedy per-access cost.
    pub dpg_transfer: f64,
    /// Package-delivery share of the DP_Greedy per-access cost.
    pub dpg_package: f64,
}

/// Output of the Fig. 12 experiment.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// Sweep rows, ascending `ρ`.
    pub rows: Vec<Fig12Row>,
}

/// The paper's sweep grid: 0.2 – 5.0.
pub fn default_rhos() -> Vec<f64> {
    let mut v: Vec<f64> = (1..=25).map(|i| i as f64 * 0.2).collect();
    v.insert(0, 0.2_f64);
    v.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
    v
}

/// Runs the sweep with the paper's two contenders (DP_Greedy against the
/// non-packing Optimal), resolved from the engine registry (points in
/// parallel).
pub fn run(config: &WorkloadConfig, rhos: &[f64]) -> Fig12 {
    let solver = find("dp_greedy").expect("dp_greedy is registered");
    let baseline = find("optimal").expect("optimal is registered");
    let seq = generate(config);
    let rows: Vec<Fig12Row> = par_map(rhos, |&rho| {
        let model = CostModelBuilder::new()
            .from_rho(rho, RATE_SUM)
            .alpha(DEFAULT_ALPHA)
            .build()
            .expect("valid model");
        let ctx = RunContext::new(model).with_theta(DEFAULT_THETA);
        let sol = solver.solve(&seq, &ctx);
        let opt = baseline.solve(&seq, &ctx);
        let breakdown = sol.ledger().breakdown();
        let per_access = if sol.total_accesses == 0 {
            0.0
        } else {
            1.0 / sol.total_accesses as f64
        };
        Fig12Row {
            rho,
            mu: model.mu(),
            lambda: model.lambda(),
            dp_greedy: sol.ave_cost(),
            optimal: opt.ave_cost(),
            dpg_cache: breakdown.cache * per_access,
            dpg_transfer: breakdown.transfer * per_access,
            dpg_package: breakdown.package_delivery * per_access,
        }
    });
    Fig12 { rows }
}

impl Fig12 {
    /// The `ρ` at which DP_Greedy's `ave_cost` peaks.
    pub fn peak_rho(&self) -> f64 {
        self.rows
            .iter()
            .max_by(|a, b| a.dp_greedy.partial_cmp(&b.dp_greedy).unwrap())
            .map(|r| r.rho)
            .unwrap_or(0.0)
    }

    /// Renders the sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 12 — ave_cost vs ρ = λ/μ (λ + μ = 6, θ = 0.3, α = 0.8)",
            &[
                "rho",
                "mu",
                "lambda",
                "DP_Greedy",
                "Optimal",
                "dpg_cache",
                "dpg_transfer",
                "dpg_pkg",
            ],
        );
        for r in &self.rows {
            t.push(vec![
                fmt_f(r.rho),
                fmt_f(r.mu),
                fmt_f(r.lambda),
                fmt_f(r.dp_greedy),
                fmt_f(r.optimal),
                fmt_f(r.dpg_cache),
                fmt_f(r.dpg_transfer),
                fmt_f(r.dpg_package),
            ]);
        }
        t
    }
}

mcs_model::impl_to_json!(Fig12Row {
    rho,
    mu,
    lambda,
    dp_greedy,
    optimal,
    dpg_cache,
    dpg_transfer,
    dpg_package
});
mcs_model::impl_to_json!(Fig12 { rows });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, DEFAULT_SEED};

    fn small_sweep() -> Fig12 {
        let mut cfg = paper_workload(DEFAULT_SEED);
        cfg.steps = 800; // keep the test quick
        run(&cfg, &[0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0])
    }

    #[test]
    fn curve_is_parabola_like_with_interior_peak() {
        let f = small_sweep();
        let first = f.rows.first().unwrap().dp_greedy;
        let last = f.rows.last().unwrap().dp_greedy;
        let peak = f.rows.iter().map(|r| r.dp_greedy).fold(0.0_f64, f64::max);
        assert!(peak > first && peak > last, "peak must be interior");
        let peak_rho = f.peak_rho();
        assert!(
            (0.5..=4.0).contains(&peak_rho),
            "peak at ρ={peak_rho}, expected an interior peak (paper: ≈2)"
        );
    }

    #[test]
    fn breakdown_columns_sum_to_the_dp_greedy_ave_cost() {
        let f = small_sweep();
        for r in &f.rows {
            let sum = r.dpg_cache + r.dpg_transfer + r.dpg_package;
            assert!(
                (sum - r.dp_greedy).abs() < 1e-9,
                "ρ={}: breakdown {} != ave_cost {}",
                r.rho,
                sum,
                r.dp_greedy
            );
        }
    }

    #[test]
    fn dp_greedy_never_loses_to_optimal_on_average_here() {
        // With θ = 0.3 the packed pairs all have J above break-even, so the
        // full-sequence ave_cost of DP_Greedy should not exceed Optimal's
        // at any ρ (Fig. 12 shows DP_Greedy below Optimal throughout).
        let f = small_sweep();
        for r in &f.rows {
            assert!(
                r.dp_greedy <= r.optimal * 1.05 + 1e-9,
                "ρ={}: DP_Greedy {} ≫ Optimal {}",
                r.rho,
                r.dp_greedy,
                r.optimal
            );
        }
    }
}
