//! Replication-value experiment: multi-copy optimal vs the single-copy
//! regime of the earlier literature (\[7\], \[8\]).
//!
//! The paper's model allows free replication ("a transfer operation often
//! implies a replication"); its predecessors studied a single migrating
//! copy. This experiment quantifies, per item of the city workload, what
//! replication is worth — and how far the always-migrate heuristic (the
//! upper end of \[8\]'s `1 + C/S` analysis) falls behind.

use mcs_model::par::par_map_range;
use mcs_model::{CostModel, ItemId};
use mcs_offline::optimal;
use mcs_offline::single_copy::{single_copy_always_migrate, single_copy_optimal};
use mcs_trace::workload::{generate, WorkloadConfig};

use crate::table::{fmt_f, Table};

/// Per-item measurement.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationRow {
    /// The item.
    pub item: u32,
    /// Requests in the item's trace.
    pub requests: usize,
    /// Multi-copy optimal cost (the paper's substrate).
    pub multi_copy: f64,
    /// Single-copy optimal cost.
    pub single_copy: f64,
    /// Always-migrate heuristic cost.
    pub always_migrate: f64,
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct ReplicationExp {
    /// One row per item.
    pub rows: Vec<ReplicationRow>,
}

/// Runs the experiment under `μ = 2`, `λ = 4`.
pub fn run(config: &WorkloadConfig) -> ReplicationExp {
    let seq = generate(config);
    let model = CostModel::new(2.0, 4.0, 0.8).expect("valid");
    let rows: Vec<ReplicationRow> = par_map_range(seq.items() as usize, |i| {
        let i = i as u32;
        let trace = seq.item_trace(ItemId(i));
        ReplicationRow {
            item: i,
            requests: trace.len(),
            multi_copy: optimal(&trace, &model).cost,
            single_copy: single_copy_optimal(&trace, &model).cost,
            always_migrate: single_copy_always_migrate(&trace, &model),
        }
    });
    ReplicationExp { rows }
}

impl ReplicationExp {
    /// Aggregate savings of replication over the single-copy optimum.
    pub fn replication_saving(&self) -> f64 {
        let multi: f64 = self.rows.iter().map(|r| r.multi_copy).sum();
        let single: f64 = self.rows.iter().map(|r| r.single_copy).sum();
        if single == 0.0 {
            0.0
        } else {
            1.0 - multi / single
        }
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Replication value — multi-copy vs single-copy substrates (μ = 2, λ = 4)",
            &[
                "item",
                "n",
                "multi-copy opt",
                "single-copy opt",
                "always-migrate",
            ],
        );
        for r in &self.rows {
            t.push(vec![
                format!("d{}", r.item + 1),
                r.requests.to_string(),
                fmt_f(r.multi_copy),
                fmt_f(r.single_copy),
                fmt_f(r.always_migrate),
            ]);
        }
        t.push(vec![
            "saving".into(),
            "-".into(),
            fmt_f(self.replication_saving()),
            "-".into(),
            "-".into(),
        ]);
        t
    }
}

mcs_model::impl_to_json!(ReplicationRow {
    item,
    requests,
    multi_copy,
    single_copy,
    always_migrate
});
mcs_model::impl_to_json!(ReplicationExp { rows });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, DEFAULT_SEED};

    #[test]
    fn replication_strictly_helps_on_the_city_workload() {
        let mut cfg = paper_workload(DEFAULT_SEED);
        cfg.steps = 500;
        let e = run(&cfg);
        assert_eq!(e.rows.len(), 10);
        for r in &e.rows {
            assert!(r.multi_copy <= r.single_copy + 1e-9, "item d{}", r.item + 1);
            assert!(
                r.single_copy <= r.always_migrate + 1e-9,
                "item d{}",
                r.item + 1
            );
        }
        assert!(
            e.replication_saving() > 0.0,
            "expected positive saving, got {}",
            e.replication_saving()
        );
    }
}
