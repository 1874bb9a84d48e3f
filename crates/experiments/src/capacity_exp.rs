//! Cost-oriented vs capacity-oriented caching — the paper's framing claim.
//!
//! "The data caching strategy in the cloud is often cost-oriented, instead
//! of capacity-oriented as in classical caching problem." This experiment
//! prices classical slot-managed caching (LRU / GreedyDual at several
//! capacities) in the paper's monetary model and compares it against the
//! cost-oriented algorithms (per-item Optimal and DP_Greedy) on the same
//! city workload.

use mcs_engine::{find, RunContext};
use mcs_model::par::par_map;
use mcs_model::CostModel;
use mcs_online::capacity::{capacity_run, EvictionPolicy};
use mcs_trace::workload::{generate, WorkloadConfig};

use crate::table::{fmt_f, Table};

/// One capacity point.
#[derive(Debug, Clone, Copy)]
pub struct CapacityRow {
    /// Slots per edge server.
    pub capacity: usize,
    /// LRU total monetary cost.
    pub lru: f64,
    /// GreedyDual total monetary cost.
    pub greedy_dual: f64,
    /// LRU hit ratio over item accesses.
    pub lru_hit_ratio: f64,
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct CapacityExp {
    /// Capacity sweep rows.
    pub rows: Vec<CapacityRow>,
    /// Cost-oriented references on the same workload.
    pub optimal: f64,
    /// DP_Greedy total.
    pub dp_greedy: f64,
}

/// Runs the sweep under `μ = 2`, `λ = 4`, with the registry's `optimal`
/// and `dp_greedy` as the cost-oriented references.
pub fn run(config: &WorkloadConfig) -> CapacityExp {
    let optimal = find("optimal").expect("optimal is registered");
    let dp_greedy = find("dp_greedy").expect("dp_greedy is registered");
    let seq = generate(config);
    let model = CostModel::new(2.0, 4.0, 0.8).expect("valid");
    let accesses = seq.total_item_accesses() as f64;

    let rows: Vec<CapacityRow> = par_map(&[1usize, 2, 4, 8], |&capacity| {
        let lru = capacity_run(&seq, &model, capacity, EvictionPolicy::Lru);
        let gd = capacity_run(&seq, &model, capacity, EvictionPolicy::GreedyDual);
        CapacityRow {
            capacity,
            lru: lru.cost,
            greedy_dual: gd.cost,
            lru_hit_ratio: lru.hits as f64 / accesses,
        }
    });

    let ctx = RunContext::new(model).with_theta(0.3);
    CapacityExp {
        rows,
        optimal: optimal.solve(&seq, &ctx).total_cost,
        dp_greedy: dp_greedy.solve(&seq, &ctx).total_cost,
    }
}

impl CapacityExp {
    /// Best capacity-oriented cost across the sweep.
    pub fn best_capacity_cost(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| [r.lru, r.greedy_dual])
            .fold(f64::INFINITY, f64::min)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Cost-oriented vs capacity-oriented caching (μ = 2, λ = 4)",
            &["strategy", "capacity", "total cost", "hit ratio"],
        );
        for r in &self.rows {
            t.push(vec![
                "LRU".into(),
                r.capacity.to_string(),
                fmt_f(r.lru),
                fmt_f(r.lru_hit_ratio),
            ]);
            t.push(vec![
                "GreedyDual".into(),
                r.capacity.to_string(),
                fmt_f(r.greedy_dual),
                "-".into(),
            ]);
        }
        t.push(vec![
            "Optimal (cost-oriented)".into(),
            "∞".into(),
            fmt_f(self.optimal),
            "-".into(),
        ]);
        t.push(vec![
            "DP_Greedy (cost-oriented)".into(),
            "∞".into(),
            fmt_f(self.dp_greedy),
            "-".into(),
        ]);
        t
    }
}

mcs_model::impl_to_json!(CapacityRow {
    capacity,
    lru,
    greedy_dual,
    lru_hit_ratio
});
mcs_model::impl_to_json!(CapacityExp {
    rows,
    optimal,
    dp_greedy
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, DEFAULT_SEED};

    #[test]
    fn cost_oriented_beats_every_capacity_point() {
        let mut cfg = paper_workload(DEFAULT_SEED);
        cfg.steps = 500;
        let e = run(&cfg);
        assert_eq!(e.rows.len(), 4);
        let best_cap = e.best_capacity_cost();
        assert!(
            e.optimal < best_cap,
            "Optimal {} should beat best capacity-oriented {best_cap}",
            e.optimal
        );
        assert!(
            e.dp_greedy < e.optimal,
            "DP_Greedy beats Optimal on this workload"
        );
        // Hit ratio improves with capacity.
        for w in e.rows.windows(2) {
            assert!(w[0].lru_hit_ratio <= w[1].lru_hit_ratio + 1e-9);
        }
    }
}
