//! Robustness experiment — DP_Greedy fleets under injected faults.
//!
//! The paper's evaluation assumes a perfectly reliable edge fleet. This
//! experiment measures how gracefully the *plans* it produces degrade
//! when that assumption breaks: for every point of a
//! fault-rate × `θ` × `α` grid we run DP_Greedy on the city workload,
//! push every explicit schedule through the degraded replay engine of
//! `mcs-sim` under a seeded [`FaultPlan`], and record the degradation
//! ratio (cost under faults over fault-free cost) together with the
//! recovery metrics of [`mcs_sim::FaultReport`].
//!
//! Two findings worth looking for in the table:
//!
//! * degradation grows with the fault rate but stays *bounded* — the
//!   repair policy (retry, origin fallback, re-cache) never drops a
//!   request, so the worst case is the all-origin service bound;
//! * tighter packing (lower `θ`, lower `α`) concentrates more service
//!   onto shared package copies, so the same fault rate degrades packed
//!   plans slightly more than unpacked ones — robustness is part of the
//!   packing trade-off.

use mcs_engine::{find, RunContext};
use mcs_model::fault::FaultPlan;
use mcs_model::par::par_map;
use mcs_model::CostModel;
use mcs_sim::fleet::chaos_solution;
use mcs_trace::workload::{generate, WorkloadConfig};

use crate::table::{fmt_f, Table};

/// One grid point of the sweep.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Crash arrivals per server per unit time.
    pub fault_rate: f64,
    /// Packing threshold `θ`.
    pub theta: f64,
    /// Package discount `α`.
    pub alpha: f64,
    /// Fault-free replayed cost of the explicit schedules.
    pub fault_free: f64,
    /// Cost accrued under the fault plan.
    pub degraded: f64,
    /// `degraded / fault_free`.
    pub degradation_ratio: f64,
    /// Fraction of requests served by a repair or fallback path.
    pub degraded_fraction: f64,
    /// Mean time from copy loss to re-cache.
    pub mean_time_to_repair: f64,
    /// Copies destroyed by crashes.
    pub copies_lost: usize,
    /// Transfer retries paid for.
    pub retries: usize,
}

/// Output of the robustness experiment.
#[derive(Debug, Clone)]
pub struct ChaosExp {
    /// One row per grid point, in sweep order (rate-major).
    pub rows: Vec<ChaosRow>,
}

/// Fault rates swept (crash arrivals per server per unit time; `0` is
/// the control row proving the fault-free path is exact).
pub const FAULT_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.1];
/// Packing thresholds swept.
pub const THETAS: [f64; 2] = [0.1, 0.3];
/// Package discounts swept.
pub const ALPHAS: [f64; 2] = [0.5, 0.8];

/// Mean crash-outage duration used by every plan of the sweep.
const MEAN_OUTAGE: f64 = 2.0;

/// Runs the sweep under the Fig.-11 rates (`μ = 2`, `λ = 4`) for the
/// registry's `dp_greedy` solver.
///
/// `fault_seed` derives every grid point's [`FaultPlan`]; a fixed seed
/// makes the whole table reproducible.
pub fn run(config: &WorkloadConfig, fault_seed: u64) -> ChaosExp {
    let solver = find("dp_greedy").expect("dp_greedy is registered");
    let seq = generate(config);
    let horizon = seq.horizon();

    let mut grid = Vec::new();
    for &fault_rate in &FAULT_RATES {
        for &theta in &THETAS {
            for &alpha in &ALPHAS {
                grid.push((fault_rate, theta, alpha));
            }
        }
    }

    let rows = par_map(&grid, |&(fault_rate, theta, alpha)| {
        let model = CostModel::new(2.0, 4.0, alpha).expect("valid model");
        let ctx = RunContext::new(model).with_theta(theta);
        // One plan per grid point, derived from the sweep seed and the
        // point's coordinates so rows don't share crash times.
        let plan = FaultPlan::random(
            fault_seed
                ^ (fault_rate * 1000.0) as u64
                ^ ((theta * 100.0) as u64) << 16
                ^ ((alpha * 100.0) as u64) << 32,
            seq.servers(),
            horizon,
            fault_rate,
            MEAN_OUTAGE,
            fault_rate, // transfer failures injected at the crash rate
        );
        let chaos = chaos_solution(&seq, &solver.solve(&seq, &ctx), &model, &plan)
            .expect("dp_greedy solutions replay");
        ChaosRow {
            fault_rate,
            theta,
            alpha,
            fault_free: chaos.fault_free_cost,
            degraded: chaos.degraded_cost,
            degradation_ratio: chaos.degradation_ratio,
            degraded_fraction: chaos.fault.degraded_fraction(),
            mean_time_to_repair: chaos.fault.mean_time_to_repair,
            copies_lost: chaos.fault.copies_lost,
            retries: chaos.fault.retries,
        }
    });

    ChaosExp { rows }
}

impl ChaosExp {
    /// Worst degradation ratio across the grid.
    pub fn worst_ratio(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.degradation_ratio)
            .fold(0.0, f64::max)
    }

    /// Renders the sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Robustness — DP_Greedy degradation under injected faults (μ = 2, λ = 4)",
            &[
                "fault rate",
                "theta",
                "alpha",
                "fault-free",
                "degraded",
                "ratio",
                "deg. req.",
                "MTTR",
                "lost",
                "retries",
            ],
        );
        for r in &self.rows {
            t.push(vec![
                fmt_f(r.fault_rate),
                fmt_f(r.theta),
                fmt_f(r.alpha),
                fmt_f(r.fault_free),
                fmt_f(r.degraded),
                fmt_f(r.degradation_ratio),
                format!("{:.1}%", 100.0 * r.degraded_fraction),
                fmt_f(r.mean_time_to_repair),
                r.copies_lost.to_string(),
                r.retries.to_string(),
            ]);
        }
        t
    }
}

mcs_model::impl_to_json!(ChaosRow {
    fault_rate,
    theta,
    alpha,
    fault_free,
    degraded,
    degradation_ratio,
    degraded_fraction,
    mean_time_to_repair,
    copies_lost,
    retries
});
mcs_model::impl_to_json!(ChaosExp { rows });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, DEFAULT_SEED};

    fn small_workload() -> WorkloadConfig {
        let mut cfg = paper_workload(DEFAULT_SEED);
        cfg.steps = 400;
        cfg
    }

    #[test]
    fn zero_fault_rows_are_exact_and_faulty_rows_degrade() {
        let e = run(&small_workload(), 7);
        assert_eq!(
            e.rows.len(),
            FAULT_RATES.len() * THETAS.len() * ALPHAS.len()
        );
        let mut saw_loss = false;
        for r in &e.rows {
            assert!(r.fault_free > 0.0, "grid point should have explicit cost");
            if r.fault_rate == 0.0 {
                assert_eq!(
                    r.degradation_ratio, 1.0,
                    "θ={} α={}: control row must be exact",
                    r.theta, r.alpha
                );
                assert_eq!(r.copies_lost, 0);
                assert_eq!(r.degraded_fraction, 0.0);
            } else {
                assert!(r.degradation_ratio > 0.0 && r.degradation_ratio.is_finite());
                saw_loss |= r.copies_lost > 0;
            }
        }
        assert!(saw_loss, "the faulty rows should lose at least one copy");
        assert!(e.table().rows.len() == e.rows.len());
    }

    #[test]
    fn the_sweep_is_deterministic_for_a_fixed_seed() {
        let a = run(&small_workload(), 7);
        let b = run(&small_workload(), 7);
        for (x, y) in a.rows.iter().zip(b.rows.iter()) {
            assert_eq!(x.degraded.to_bits(), y.degraded.to_bits());
            assert_eq!(x.copies_lost, y.copies_lost);
            assert_eq!(x.retries, y.retries);
        }
    }
}
