//! Correlation-drift experiment: global vs windowed packing.
//!
//! The paper's Phase 1 fixes one packing from the whole predicted
//! sequence. When the correlation structure *drifts* — an item changes
//! partners mid-trace — any single packing mis-serves part of the trace,
//! because packings are disjoint and the drifting item can only be packed
//! with one partner. The windowed variant
//! ([`dp_greedy::windowed`]) re-runs both phases per time window.
//!
//! Workload: item `d1` co-occurs with `d2` in the first half and with
//! `d3` in the second; `d4`/`d5` are stationary background. We compare
//! global DP_Greedy, windowed DP_Greedy (one window per phase), and the
//! non-packing Optimal across α, on both the drifting and a stationary
//! control workload.

use dp_greedy::two_phase::DpGreedyConfig;
use dp_greedy::windowed::{dp_greedy_windowed, WindowedConfig};
use mcs_engine::{find, RunContext};
use mcs_model::par::par_map;
use mcs_model::rng::Rng;
use mcs_model::{CostModel, RequestSeq, RequestSeqBuilder};

use crate::table::{fmt_f, Table};

/// One α measurement on one workload kind.
#[derive(Debug, Clone, Copy)]
pub struct DriftRow {
    /// Discount factor.
    pub alpha: f64,
    /// True for the drifting workload, false for the stationary control.
    pub drifting: bool,
    /// Global DP_Greedy `ave_cost`.
    pub global: f64,
    /// Windowed DP_Greedy `ave_cost`.
    pub windowed: f64,
    /// Non-packing optimal `ave_cost`.
    pub optimal: f64,
}

/// Experiment output.
#[derive(Debug, Clone)]
pub struct DriftExp {
    /// All rows.
    pub rows: Vec<DriftRow>,
    /// The phase boundary used as the window length.
    pub window: f64,
}

/// Builds the workload. `drifting = false` keeps `d1`–`d2` for both
/// halves (the control).
pub fn drift_workload(n: usize, drifting: bool, seed: u64) -> (RequestSeq, f64) {
    let mut rng = Rng::seed_from_u64(seed);
    let servers = 8u32;
    let mut b = RequestSeqBuilder::new(servers, 5);
    let mut t = 0.0_f64;
    let half = n / 2;
    for i in 0..n {
        t += 0.05 + rng.gen_f64() * 0.15;
        let server = rng.gen_range(0..servers);
        let partner = if drifting && i >= half { 2u32 } else { 1u32 };
        let items: Vec<u32> = match rng.gen_range(0u32..10) {
            0..=5 => vec![0, partner], // the active bundle
            6 => vec![0],              // lone d1
            7 => vec![partner],        // lone partner
            8 => vec![3],              // background
            _ => vec![4],              // background
        };
        b = b.push(server, t, items);
    }
    let seq = b.build().expect("drift workload is valid");
    // The phase boundary time (window length for the windowed run).
    let boundary = seq.get(half.min(seq.len() - 1)).time;
    (seq, boundary)
}

/// Runs the sweep with the registry's `dp_greedy` as the global packer
/// and `optimal` as the non-packing yardstick. The windowed column
/// re-runs DP_Greedy per phase-boundary window (the drift-adaptive
/// variant under test); it is pinned to the workload's phase boundary,
/// which the registry's fixed quarter-horizon `windowed` solver cannot
/// express.
pub fn run(seed: u64) -> DriftExp {
    let global = find("dp_greedy").expect("dp_greedy is registered");
    let optimal = find("optimal").expect("optimal is registered");
    let alphas = [0.3, 0.5, 0.8];
    let mut window = 0.0;
    let mut rows = Vec::new();
    for drifting in [true, false] {
        let (seq, boundary) = drift_workload(800, drifting, seed);
        window = boundary;
        let batch: Vec<DriftRow> = par_map(&alphas, |&alpha| {
            let model = CostModel::new(2.0, 4.0, alpha).expect("valid");
            let ctx = RunContext::new(model).with_theta(0.3);
            let windowed = dp_greedy_windowed(
                &seq,
                &WindowedConfig {
                    inner: DpGreedyConfig::new(model).with_theta(0.3),
                    window: boundary,
                },
                2,
            );
            DriftRow {
                alpha,
                drifting,
                global: global.solve(&seq, &ctx).ave_cost(),
                windowed: windowed.ave_cost(),
                optimal: optimal.solve(&seq, &ctx).ave_cost(),
            }
        });
        rows.extend(batch);
    }
    DriftExp { rows, window }
}

impl DriftExp {
    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Correlation drift — global vs windowed packing (window = {:.1}, θ = 0.3, μ = 2, λ = 4)",
                self.window
            ),
            &["workload", "alpha", "global DP_Greedy", "windowed DP_Greedy", "Optimal"],
        );
        for r in &self.rows {
            t.push(vec![
                if r.drifting { "drifting" } else { "stationary" }.into(),
                fmt_f(r.alpha),
                fmt_f(r.global),
                fmt_f(r.windowed),
                fmt_f(r.optimal),
            ]);
        }
        t
    }
}

mcs_model::impl_to_json!(DriftRow {
    alpha,
    drifting,
    global,
    windowed,
    optimal
});
mcs_model::impl_to_json!(DriftExp { rows, window });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_deterministic_and_drifts() {
        let (a, _) = drift_workload(400, true, 3);
        let (b, _) = drift_workload(400, true, 3);
        assert_eq!(a, b);
        // First half correlates (0,1); second half correlates (0,2).
        let half_t = a.get(a.len() / 2).time;
        let early = a
            .requests()
            .iter()
            .filter(|r| r.time <= half_t)
            .filter(|r| r.contains(mcs_model::ItemId(0)) && r.contains(mcs_model::ItemId(1)))
            .count();
        let late = a
            .requests()
            .iter()
            .filter(|r| r.time > half_t)
            .filter(|r| r.contains(mcs_model::ItemId(0)) && r.contains(mcs_model::ItemId(2)))
            .count();
        assert!(early > 50);
        assert!(late > 50);
    }

    #[test]
    fn windowed_wins_on_drift_not_on_stationary() {
        let e = run(7);
        for alpha in [0.3, 0.5] {
            let drift = e
                .rows
                .iter()
                .find(|r| r.drifting && (r.alpha - alpha).abs() < 1e-9)
                .unwrap();
            assert!(
                drift.windowed < drift.global,
                "α={alpha}: windowed {} should beat global {} under drift",
                drift.windowed,
                drift.global
            );
        }
        // On the stationary control the global packing is right; windowing
        // adds restart overhead, less the storage between windows it leaves
        // unpaid (allow a tiny tolerance).
        for r in e.rows.iter().filter(|r| !r.drifting) {
            assert!(
                r.global <= r.windowed * 1.02 + 1e-9,
                "stationary α={}: global {} vs windowed {}",
                r.alpha,
                r.global,
                r.windowed
            );
        }
    }
}
