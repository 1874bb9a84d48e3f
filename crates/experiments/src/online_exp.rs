//! E10 — competitive ratios of the on-line policies on the city workload.
//!
//! Each item's trace (its taxi's requests) is served on-line by
//! ski-rental, always-transfer and cache-everywhere; the table reports the
//! measured competitive ratio of each against the off-line optimum.

use mcs_model::par::{par_map, par_map_range};
use mcs_model::{CostModel, ItemId};
use mcs_online::extremes::{always_transfer, cache_everywhere};
use mcs_online::harness::competitive_ratio;
use mcs_online::online_dpg::{online_dp_greedy, OnlineDpgConfig};
use mcs_online::ski_rental::ski_rental;
use mcs_trace::workload::{generate, WorkloadConfig};

use crate::table::{fmt_f, Table};

/// Ratios for one item trace.
#[derive(Debug, Clone, Copy)]
pub struct OnlineRow {
    /// The item.
    pub item: u32,
    /// Requests in the item's trace.
    pub requests: usize,
    /// Off-line optimal cost.
    pub offline: f64,
    /// Ski-rental competitive ratio.
    pub ski_rental: f64,
    /// Always-transfer ratio.
    pub always_transfer: f64,
    /// Cache-everywhere ratio.
    pub cache_everywhere: f64,
}

/// Whole-sequence comparison of correlation-aware vs blind on-line
/// serving at one α.
#[derive(Debug, Clone, Copy)]
pub struct OnlineDpgRow {
    /// Discount factor.
    pub alpha: f64,
    /// On-line DP_Greedy total cost.
    pub online_dpg: f64,
    /// Package transfers it batched.
    pub package_transfers: usize,
    /// Correlation-blind per-item ski-rental total.
    pub blind: f64,
}

/// Output of the on-line experiment.
#[derive(Debug, Clone)]
pub struct OnlineExp {
    /// One row per item.
    pub rows: Vec<OnlineRow>,
    /// Whole-sequence on-line DP_Greedy comparison per α.
    pub dpg_rows: Vec<OnlineDpgRow>,
}

/// Runs the experiment under `μ = λ = 3`.
pub fn run(config: &WorkloadConfig) -> OnlineExp {
    let seq = generate(config);
    let model = CostModel::new(3.0, 3.0, 0.8).expect("valid");
    let rows: Vec<OnlineRow> = par_map_range(seq.items() as usize, |i| {
        let i = i as u32;
        let trace = seq.item_trace(ItemId(i));
        let sr = competitive_ratio(&trace, &model, ski_rental);
        let at = competitive_ratio(&trace, &model, always_transfer);
        let ce = competitive_ratio(&trace, &model, cache_everywhere);
        OnlineRow {
            item: i,
            requests: trace.len(),
            offline: sr.offline,
            ski_rental: sr.ratio,
            always_transfer: at.ratio,
            cache_everywhere: ce.ratio,
        }
    });

    let dpg_rows: Vec<OnlineDpgRow> = par_map(&[0.3, 0.5, 0.8], |&alpha| {
        let model = CostModel::new(3.0, 3.0, alpha).expect("valid");
        let out = online_dp_greedy(
            &seq,
            &OnlineDpgConfig {
                model,
                theta: 0.3,
                refresh_every: 100,
                decay: 1.0,
            },
        );
        let blind: f64 = (0..seq.items())
            .map(|i| ski_rental(&seq.item_trace(ItemId(i)), &model).cost)
            .sum();
        OnlineDpgRow {
            alpha,
            online_dpg: out.cost,
            package_transfers: out.package_transfers,
            blind,
        }
    });

    OnlineExp { rows, dpg_rows }
}

impl OnlineExp {
    /// Worst ski-rental ratio across items.
    pub fn worst_ski_rental(&self) -> f64 {
        self.rows.iter().map(|r| r.ski_rental).fold(0.0, f64::max)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "E10 — on-line competitive ratios vs off-line optimum (μ = λ = 3)",
            &[
                "item",
                "n",
                "offline cost",
                "ski-rental",
                "always-transfer",
                "cache-everywhere",
            ],
        );
        for r in &self.rows {
            t.push(vec![
                format!("d{}", r.item + 1),
                r.requests.to_string(),
                fmt_f(r.offline),
                fmt_f(r.ski_rental),
                fmt_f(r.always_transfer),
                fmt_f(r.cache_everywhere),
            ]);
        }
        t.push(vec![
            "worst".into(),
            "-".into(),
            "-".into(),
            fmt_f(self.worst_ski_rental()),
            "-".into(),
            "-".into(),
        ]);
        t
    }

    /// Renders the on-line DP_Greedy comparison table.
    pub fn dpg_table(&self) -> Table {
        let mut t = Table::new(
            "On-line DP_Greedy vs correlation-blind ski-rental (whole sequence)",
            &[
                "alpha",
                "online DP_Greedy",
                "pkg transfers",
                "blind ski-rental",
                "saving",
            ],
        );
        for r in &self.dpg_rows {
            t.push(vec![
                fmt_f(r.alpha),
                fmt_f(r.online_dpg),
                r.package_transfers.to_string(),
                fmt_f(r.blind),
                format!("{:+.1}%", 100.0 * (1.0 - r.online_dpg / r.blind)),
            ]);
        }
        t
    }
}

mcs_model::impl_to_json!(OnlineRow {
    item,
    requests,
    offline,
    ski_rental,
    always_transfer,
    cache_everywhere
});
mcs_model::impl_to_json!(OnlineDpgRow {
    alpha,
    online_dpg,
    package_transfers,
    blind
});
mcs_model::impl_to_json!(OnlineExp { rows, dpg_rows });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, DEFAULT_SEED};

    #[test]
    fn ski_rental_stays_three_competitive_on_the_city_workload() {
        let mut cfg = paper_workload(DEFAULT_SEED);
        cfg.steps = 800;
        let e = run(&cfg);
        assert_eq!(e.rows.len(), 10);
        for r in &e.rows {
            assert!(r.ski_rental >= 1.0 - 1e-9);
            assert!(
                r.ski_rental <= 3.0 + 1e-9,
                "item d{} ratio {}",
                r.item + 1,
                r.ski_rental
            );
        }
        // The hedge should beat at least one extreme on average.
        let mean_sr: f64 = e.rows.iter().map(|r| r.ski_rental).sum::<f64>() / e.rows.len() as f64;
        let mean_at: f64 =
            e.rows.iter().map(|r| r.always_transfer).sum::<f64>() / e.rows.len() as f64;
        let mean_ce: f64 =
            e.rows.iter().map(|r| r.cache_everywhere).sum::<f64>() / e.rows.len() as f64;
        assert!(mean_sr <= mean_at.max(mean_ce) + 1e-9);
    }

    #[test]
    fn online_dpg_saves_over_blind_at_low_alpha() {
        let mut cfg = paper_workload(DEFAULT_SEED);
        cfg.steps = 600;
        let e = run(&cfg);
        let low = e.dpg_rows.iter().find(|r| r.alpha == 0.3).unwrap();
        assert!(
            low.online_dpg < low.blind,
            "α=0.3: online DPG {} should beat blind {}",
            low.online_dpg,
            low.blind
        );
        assert!(low.package_transfers > 0);
        // The table renders.
        assert!(e.dpg_table().rows.len() == e.dpg_rows.len());
    }
}
