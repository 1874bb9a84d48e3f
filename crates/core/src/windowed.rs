//! Windowed DP_Greedy: re-evaluating correlations over time.
//!
//! The paper computes one Jaccard matrix over the whole (predicted)
//! sequence. Real correlations drift — taxi pairs separate, news bundles
//! go stale — and a packing decided on day one can be wrong by day three.
//! This module slices the sequence into consecutive time windows and runs
//! both phases per window, so the packing adapts to the current
//! correlation structure. [`dp_greedy_windowed`] is the only loop over
//! windows: the engine's `windowed` row and the drift experiment
//! (`mcs-experiments::drift_exp`) both call it.
//!
//! Windows are served independently: each window restarts every item
//! from a fresh copy at the origin server at its start, the standing
//! assumption of the off-line model applied per window. So storage
//! between windows goes unpaid, and the windowed cost is *not* an upper
//! bound on a stateful implementation that carries copies across windows.
//! It can even fall below what any feasible schedule of the whole
//! sequence costs: on the paper's running example the engine's `windowed`
//! row (quarter-horizon windows) totals 12.12, below Lemma 1's lower bound
//! α·OPT = 0.8 × 15.20 = 12.16.

use mcs_model::{Request, RequestSeq, RequestSeqBuilder};

use crate::two_phase::{dp_greedy, DpGreedyConfig, DpGreedyReport};

/// Configuration of a windowed run.
#[derive(Debug, Clone, Copy)]
pub struct WindowedConfig {
    /// Inner per-window configuration.
    pub inner: DpGreedyConfig,
    /// Window length in time units (> 0).
    pub window: f64,
}

/// Aggregate windowed report.
#[derive(Debug, Clone)]
pub struct WindowedReport {
    /// Per window, in time order: its start time and the report of both
    /// phases over its slice, whose times are relative to that start.
    pub windows: Vec<(f64, DpGreedyReport)>,
    /// Total cost across windows.
    pub total_cost: f64,
    /// Total item accesses.
    pub total_accesses: usize,
}

impl WindowedReport {
    /// The `ave_cost` metric.
    pub fn ave_cost(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_cost / self.total_accesses as f64
        }
    }

    /// True if any two consecutive windows chose different packings —
    /// i.e. the algorithm actually adapted.
    pub fn adapted(&self) -> bool {
        self.windows
            .windows(2)
            .any(|w| w[0].1.packing.packages != w[1].1.packing.packages)
    }
}

/// Slices a sequence into windows of `window` time units, rebasing each
/// window's times to start at the window boundary (times stay positive
/// relative to the window's origin placement). Returns
/// `(window_start, rebased_slice)` pairs; empty windows are skipped.
pub fn slice_windows(seq: &RequestSeq, window: f64) -> Vec<(f64, RequestSeq)> {
    assert!(window > 0.0, "window must be positive");
    let mut out = Vec::new();
    let horizon = seq.horizon();
    let mut start = 0.0;
    while start < horizon {
        let end = start + window;
        let in_window: Vec<&Request> = seq
            .requests()
            .iter()
            .filter(|r| r.time > start && r.time <= end)
            .collect();
        if !in_window.is_empty() {
            let mut b = RequestSeqBuilder::new(seq.servers(), seq.items());
            for r in &in_window {
                b = b.push(r.server, r.time - start, r.items.iter().map(|i| i.0));
            }
            out.push((start, b.build().expect("window slice inherits validity")));
        }
        start = end;
    }
    out
}

/// Runs DP_Greedy ([`dp_greedy`] at the package-size cap `max_group`; 2
/// is the paper's pairwise algorithm) independently per window, summing
/// the window totals in time order.
pub fn dp_greedy_windowed(
    seq: &RequestSeq,
    config: &WindowedConfig,
    max_group: usize,
) -> WindowedReport {
    let mut windows = Vec::new();
    let mut total_cost = 0.0;
    for (start, slice) in slice_windows(seq, config.window) {
        let report = dp_greedy(&slice, &config.inner, max_group);
        total_cost += report.total_cost;
        windows.push((start, report));
    }
    WindowedReport {
        windows,
        total_cost,
        total_accesses: seq.total_item_accesses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{CostModel, ItemId};

    /// Two phases: items (0,1) correlated early, items (0,2) correlated
    /// late — a drifting workload a single global packing cannot fit.
    fn drifting_sequence() -> RequestSeq {
        let mut b = RequestSeqBuilder::new(3, 3);
        let mut t = 0.0;
        for i in 0..12 {
            t += 0.4;
            b = b.push((i % 3) as u32, t, [0, 1]);
        }
        for i in 0..12 {
            t += 0.4;
            b = b.push((i % 3) as u32, t, [0, 2]);
        }
        b.build().unwrap()
    }

    #[test]
    fn windows_adapt_their_packing() {
        let seq = drifting_sequence();
        let model = CostModel::new(1.0, 1.0, 0.5).unwrap();
        let cfg = WindowedConfig {
            inner: DpGreedyConfig::new(model).with_theta(0.3),
            window: 4.9, // splits the two phases into separate windows
        };
        let report = dp_greedy_windowed(&seq, &cfg, 2);
        assert!(report.windows.len() >= 2);
        assert!(report.adapted(), "packing should change across windows");
        let pair = |a, b| vec![ItemId(a), ItemId(b)];
        assert_eq!(report.windows[0].1.packing.packages, vec![pair(0, 1)]);
        let last = &report.windows.last().unwrap().1.packing.packages;
        assert!(last.contains(&pair(0, 2)));
    }

    #[test]
    fn windowed_can_beat_global_packing_on_drift() {
        // The global Phase 1 sees J(0,1) == J(0,2) == 0.5 and can pack only
        // one of them (they share item 0), mis-serving one phase entirely;
        // windowed packs each phase right. With a strong discount the
        // adaptive run must win despite per-window origin restarts... the
        // restart overhead is small here (copies re-ship once per window).
        let seq = drifting_sequence();
        let model = CostModel::new(0.2, 1.0, 0.3).unwrap();
        let global = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.3), 2);
        let windowed = dp_greedy_windowed(
            &seq,
            &WindowedConfig {
                inner: DpGreedyConfig::new(model).with_theta(0.3),
                window: 4.9,
            },
            2,
        );
        assert!(
            windowed.total_cost < global.total_cost,
            "windowed {} should beat global {}",
            windowed.total_cost,
            global.total_cost
        );
    }

    #[test]
    fn single_giant_window_matches_global() {
        let seq = drifting_sequence();
        let model = CostModel::new(1.0, 1.0, 0.5).unwrap();
        let global = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.3), 2);
        let windowed = dp_greedy_windowed(
            &seq,
            &WindowedConfig {
                inner: DpGreedyConfig::new(model).with_theta(0.3),
                window: 1e6,
            },
            2,
        );
        assert!((windowed.total_cost - global.total_cost).abs() < 1e-9);
        assert_eq!(windowed.windows.len(), 1);
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut b = RequestSeqBuilder::new(2, 2);
        b = b.push(0u32, 0.5, [0]);
        b = b.push(1u32, 10.5, [1]);
        let seq = b.build().unwrap();
        let model = CostModel::new(1.0, 1.0, 0.5).unwrap();
        let report = dp_greedy_windowed(
            &seq,
            &WindowedConfig {
                inner: DpGreedyConfig::new(model),
                window: 1.0,
            },
            2,
        );
        assert_eq!(report.windows.len(), 2);
        assert_eq!(report.windows[0].1.total_accesses, 1);
        assert_eq!(report.windows[1].1.total_accesses, 1);
    }

    #[test]
    fn accesses_survive_slicing() {
        let seq = drifting_sequence();
        let model = CostModel::new(1.0, 1.0, 0.5).unwrap();
        let report = dp_greedy_windowed(
            &seq,
            &WindowedConfig {
                inner: DpGreedyConfig::new(model),
                window: 3.0,
            },
            2,
        );
        let sliced: usize = slice_windows(&seq, 3.0).iter().map(|w| w.1.len()).sum();
        assert_eq!(sliced, seq.len());
        let accessed: usize = report.windows.iter().map(|w| w.1.total_accesses).sum();
        assert_eq!(accessed, seq.total_item_accesses());
        assert_eq!(report.total_accesses, seq.total_item_accesses());
        // Every window's packages list their members ascending.
        for (_, w) in &report.windows {
            for members in &w.packing.packages {
                assert!(members.windows(2).all(|m| m[0] < m[1]));
            }
        }
    }
}
