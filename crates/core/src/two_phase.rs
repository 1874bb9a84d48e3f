//! The DP_Greedy two-phase algorithm (Algorithm 1 of the paper).
//!
//! * **Phase 1**: find the item pairs whose Jaccard similarity (Eq. 4/5)
//!   strictly exceeds the threshold `θ` and greedily pack disjoint ones,
//!   most similar first.
//! * **Phase 2**: for each packed pair, serve the co-requests with the
//!   optimal off-line algorithm of \[6\] under package rates (`2αμ`, `2αλ`),
//!   and each single-item request with the three-arm greedy of
//!   Observation 2. Unpacked items are served individually by the optimal
//!   off-line algorithm.
//!
//! The headline metric is the paper's `ave_cost` (Algorithm 1, line 50):
//! total cost divided by the total number of item accesses `Σ|d_i|`.

use mcs_correlation::matching::greedy_matching_from_pairs;
use mcs_correlation::{pairs_above, Packing};
use mcs_model::par::{par_map_with_threads, threads_for};
use mcs_model::{CostModel, ItemId, RequestSeq, Schedule};
use mcs_offline::optimal;

use crate::singleton_greedy::{singleton_greedy, PairItemEvent, SingletonGreedyOutcome};

/// Availability policy of the package-delivery arm (Observation 2's `2αλ`
/// option) in the singleton greedy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PackageAvailability {
    /// The paper's Observation 1: the package is available at any time
    /// instance (default, faithful to the paper).
    #[default]
    Always,
    /// Only while the package copy provably exists under our optimal
    /// package schedule — up to the last co-request.
    UntilLastCoRequest,
    /// Never — ablation mode degenerating the three-arm greedy to the
    /// simple two-arm greedy of Fig. 4.
    Never,
}

/// Configuration of a DP_Greedy run.
#[derive(Debug, Clone, Copy)]
pub struct DpGreedyConfig {
    /// The homogeneous cost model `(μ, λ, α)`.
    pub model: CostModel,
    /// Correlation threshold `θ` (the paper's experiments use 0.3).
    pub theta: f64,
    /// Package-arm availability policy.
    pub package_availability: PackageAvailability,
}

impl DpGreedyConfig {
    /// Paper defaults: `θ = 0.3`, faithful package availability.
    pub fn new(model: CostModel) -> Self {
        DpGreedyConfig {
            model,
            theta: 0.3,
            package_availability: PackageAvailability::Always,
        }
    }

    /// Sets the correlation threshold.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Restricts the package arm to the window where the package copy
    /// provably exists.
    pub fn strict(mut self) -> Self {
        self.package_availability = PackageAvailability::UntilLastCoRequest;
        self
    }

    /// Disables the package arm entirely (ablation).
    pub fn without_package_arm(mut self) -> Self {
        self.package_availability = PackageAvailability::Never;
        self
    }
}

/// Cost report for one packed pair.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// First item (lower id).
    pub a: ItemId,
    /// Second item.
    pub b: ItemId,
    /// Jaccard similarity of the pair over the input sequence.
    pub jaccard: f64,
    /// `C_12` — package DP cost over the co-requests (already includes the
    /// `2α` scaling).
    pub package_cost: f64,
    /// `C_1'` — three-arm greedy cost over `a`-only requests.
    pub a_singleton_cost: f64,
    /// `C_2'` — three-arm greedy cost over `b`-only requests.
    pub b_singleton_cost: f64,
    /// Number of item accesses attributed to this pair: `|d_a| + |d_b|`.
    pub accesses: usize,
    /// The package DP's explicit schedule over the co-requests (validated
    /// against the co-request trace in tests).
    pub package_schedule: Schedule,
    /// Arm-level detail for item `a`.
    pub a_greedy: SingletonGreedyOutcome,
    /// Arm-level detail for item `b`.
    pub b_greedy: SingletonGreedyOutcome,
}

impl PairReport {
    /// `C_12 + C_1' + C_2'`.
    pub fn total(&self) -> f64 {
        self.package_cost + self.a_singleton_cost + self.b_singleton_cost
    }

    /// Per-access cost of this pair — the y-axis of Figs. 11–13.
    pub fn ave_cost(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total() / self.accesses as f64
        }
    }
}

/// Cost report for an unpacked item (served by the optimal off-line
/// algorithm individually).
#[derive(Debug, Clone)]
pub struct SingletonReport {
    /// The item.
    pub item: ItemId,
    /// Optimal off-line cost over the item's requests.
    pub cost: f64,
    /// `|d_i]` — requests containing the item.
    pub accesses: usize,
    /// The optimal schedule (validated in tests).
    pub schedule: Schedule,
}

/// Full DP_Greedy output.
#[derive(Debug, Clone)]
pub struct DpGreedyReport {
    /// Phase 1 outcome.
    pub packing: Packing,
    /// Per-pair Phase 2 reports.
    pub pairs: Vec<PairReport>,
    /// Per-unpacked-item reports.
    pub singletons: Vec<SingletonReport>,
    /// Total cost across all items.
    pub total_cost: f64,
    /// `Σ|d_i|` — the `ave_cost` denominator.
    pub total_accesses: usize,
}

impl DpGreedyReport {
    /// The paper's `ave_cost` metric (Algorithm 1, line 50).
    pub fn ave_cost(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_cost / self.total_accesses as f64
        }
    }
}

/// Builds the per-item event list of a packed pair: every request
/// containing the item, flagged by partner co-occurrence. `both` and
/// `only` are the pair's co-requests and the item's singleton requests
/// from [`RequestSeq::pair_view`] (ascending and disjoint), merged here
/// into time order.
fn pair_item_events(seq: &RequestSeq, both: &[usize], only: &[usize]) -> Vec<PairItemEvent> {
    let mut events = Vec::with_capacity(both.len() + only.len());
    let (mut i, mut j) = (0, 0);
    while i < both.len() || j < only.len() {
        let is_co = j == only.len() || (i < both.len() && both[i] < only[j]);
        let index = if is_co { both[i] } else { only[j] };
        if is_co {
            i += 1;
        } else {
            j += 1;
        }
        let r = seq.get(index);
        events.push(PairItemEvent {
            time: r.time,
            server: r.server,
            is_co,
        });
    }
    events
}

/// Runs Phase 2 for one packed pair, independent of Phase 1 (used directly
/// by the per-pair experiments of Figs. 11–13).
pub fn dp_greedy_pair(
    seq: &RequestSeq,
    a: ItemId,
    b: ItemId,
    config: &DpGreedyConfig,
) -> PairReport {
    let pv = seq.pair_view(a, b);
    let co_trace = seq.trace_of(&pv.both);

    // Package DP over co-requests at package rates — Algorithm 1 line 40.
    let pkg_model = config.model.scaled_for_package();
    let pkg = optimal(&co_trace, &pkg_model);

    // Package availability horizon for the greedy's third arm.
    let horizon = match config.package_availability {
        PackageAvailability::Never => Some(f64::NEG_INFINITY),
        _ if co_trace.is_empty() => {
            // No co-requests → no package exists; the arm is never
            // available even in faithful mode.
            Some(f64::NEG_INFINITY)
        }
        PackageAvailability::UntilLastCoRequest => {
            Some(co_trace.points.last().map_or(f64::NEG_INFINITY, |p| p.time))
        }
        PackageAvailability::Always => None,
    };

    let a_events = pair_item_events(seq, &pv.both, &pv.only_a);
    let b_events = pair_item_events(seq, &pv.both, &pv.only_b);
    let a_greedy = singleton_greedy(&a_events, &config.model, horizon);
    let b_greedy = singleton_greedy(&b_events, &config.model, horizon);

    PairReport {
        a,
        b,
        jaccard: pv.jaccard(),
        package_cost: pkg.cost,
        a_singleton_cost: a_greedy.cost,
        b_singleton_cost: b_greedy.cost,
        accesses: pv.count_a() + pv.count_b(),
        package_schedule: pkg.schedule,
        a_greedy,
        b_greedy,
    }
}

/// Runs the complete DP_Greedy algorithm (both phases) on a request
/// sequence.
///
/// ```
/// use dp_greedy::two_phase::{dp_greedy, DpGreedyConfig};
/// use dp_greedy::paper_example::{paper_model, paper_sequence};
///
/// let report = dp_greedy(&paper_sequence(), &DpGreedyConfig::new(paper_model()).with_theta(0.4));
/// assert!((report.total_cost - 14.96).abs() < 1e-9); // the paper's §V-C total
/// assert_eq!(report.total_accesses, 10);
/// ```
pub fn dp_greedy(seq: &RequestSeq, config: &DpGreedyConfig) -> DpGreedyReport {
    // Phase 1.
    let candidates = mcs_obs::time_phase("dpg.phase1.jaccard", || pairs_above(seq, config.theta));
    let packing = mcs_obs::time_phase("dpg.phase1.match", || {
        greedy_matching_from_pairs(candidates, seq.items(), config.theta)
    });
    mcs_obs::counter_add("dpg.pairs_packed", packing.pairs.len() as u64);
    mcs_obs::counter_add("dpg.items_unpacked", packing.singletons.len() as u64);

    // Phase 2. Every packed pair's subsequence and every unpacked item's
    // trace is independent, so both loops fan out over worker threads
    // from `PARALLEL_THRESHOLD` requests on (`mcs_model::par::threads_for`;
    // `MCS_THREADS=1` forces serial). The map preserves input order and
    // the cost totals are summed in that same order afterwards, so the
    // report — schedules, ledger events, and float totals — is
    // bit-identical to a serial run.
    let threads = threads_for(seq.len());
    let pairs = {
        let _span = mcs_obs::span("dpg.phase2.pairs");
        par_map_with_threads(&packing.pairs, threads, |&(a, b)| {
            dp_greedy_pair(seq, a, b, config)
        })
    };
    let singletons = {
        let _span = mcs_obs::span("dpg.phase2.singletons");
        par_map_with_threads(&packing.singletons, threads, |&item| {
            let trace = seq.item_trace(item);
            let out = optimal(&trace, &config.model);
            SingletonReport {
                item,
                cost: out.cost,
                accesses: trace.len(),
                schedule: out.schedule,
            }
        })
    };
    let mut total_cost = 0.0;
    for report in &pairs {
        total_cost += report.total();
    }
    for s in &singletons {
        total_cost += s.cost;
    }

    DpGreedyReport {
        packing,
        pairs,
        singletons,
        total_cost,
        total_accesses: seq.total_item_accesses(),
    }
}

mcs_model::impl_to_json!(PairReport {
    a,
    b,
    jaccard,
    package_cost,
    a_singleton_cost,
    b_singleton_cost,
    accesses,
    package_schedule,
    a_greedy,
    b_greedy
});
mcs_model::impl_to_json!(SingletonReport {
    item,
    cost,
    accesses,
    schedule
});
mcs_model::impl_to_json!(DpGreedyReport {
    packing,
    pairs,
    singletons,
    total_cost,
    total_accesses
});

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{approx_eq, RequestSeqBuilder};

    fn paper_sequence() -> RequestSeq {
        RequestSeqBuilder::new(4, 2)
            .push(1u32, 0.5, [0])
            .push(2u32, 0.8, [0, 1])
            .push(3u32, 1.1, [1])
            .push(0u32, 1.4, [0, 1])
            .push(1u32, 2.6, [0])
            .push(1u32, 3.2, [1])
            .push(2u32, 4.0, [0, 1])
            .build()
            .unwrap()
    }

    fn paper_config() -> DpGreedyConfig {
        DpGreedyConfig::new(CostModel::paper_example()).with_theta(0.4)
    }

    /// The headline check: Section V-C's schedule total of
    /// 8.96 + 3.1 + 2.9 = 14.96.
    #[test]
    fn reproduces_the_running_example_total() {
        let report = dp_greedy(&paper_sequence(), &paper_config());
        assert_eq!(report.packing.pairs, vec![(ItemId(0), ItemId(1))]);
        let pair = &report.pairs[0];
        assert!(approx_eq(pair.jaccard, 3.0 / 7.0));
        assert!(
            approx_eq(pair.package_cost, 8.96),
            "C12 = {}",
            pair.package_cost
        );
        assert!(
            approx_eq(pair.a_singleton_cost, 3.1),
            "C1' = {}",
            pair.a_singleton_cost
        );
        assert!(
            approx_eq(pair.b_singleton_cost, 2.9),
            "C2' = {}",
            pair.b_singleton_cost
        );
        assert!(
            approx_eq(report.total_cost, 14.96),
            "total = {}",
            report.total_cost
        );
        assert_eq!(report.total_accesses, 10);
        assert!(approx_eq(report.ave_cost(), 1.496));
    }

    #[test]
    fn package_schedule_is_feasible() {
        let report = dp_greedy(&paper_sequence(), &paper_config());
        let co = paper_sequence().package_trace(ItemId(0), ItemId(1));
        report.pairs[0].package_schedule.validate(&co).unwrap();
        let pkg_model = CostModel::paper_example().scaled_for_package();
        let replayed = report.pairs[0]
            .package_schedule
            .cost(pkg_model.mu(), pkg_model.lambda())
            .total;
        assert!(approx_eq(replayed, report.pairs[0].package_cost));
    }

    #[test]
    fn high_theta_degenerates_to_per_item_optimal() {
        let seq = paper_sequence();
        let config = paper_config().with_theta(0.99);
        let report = dp_greedy(&seq, &config);
        assert!(report.pairs.is_empty());
        assert_eq!(report.singletons.len(), 2);
        let o0 = optimal(&seq.item_trace(ItemId(0)), &CostModel::paper_example()).cost;
        let o1 = optimal(&seq.item_trace(ItemId(1)), &CostModel::paper_example()).cost;
        assert!(approx_eq(report.total_cost, o0 + o1));
    }

    #[test]
    fn singleton_schedules_are_feasible() {
        let seq = paper_sequence();
        let config = paper_config().with_theta(0.99);
        let report = dp_greedy(&seq, &config);
        for s in &report.singletons {
            let trace = seq.item_trace(s.item);
            s.schedule.validate(&trace).unwrap();
        }
    }

    #[test]
    fn strict_mode_never_cheapens_the_result() {
        let seq = paper_sequence();
        let faithful = dp_greedy(&seq, &paper_config());
        let strict = dp_greedy(&seq, &paper_config().strict());
        assert!(strict.total_cost >= faithful.total_cost - 1e-9);
        // On the running example the last co-request is at 4.0, after every
        // singleton, so strict mode changes nothing.
        assert!(approx_eq(strict.total_cost, faithful.total_cost));
    }

    #[test]
    fn pair_without_corequests_disables_the_package_arm() {
        // d1 and d2 never co-occur; force Phase 2 on them directly.
        let seq = RequestSeqBuilder::new(2, 2)
            .push(1u32, 1.0, [0])
            .push(1u32, 2.0, [1])
            .build()
            .unwrap();
        let report = dp_greedy_pair(
            &seq,
            ItemId(0),
            ItemId(1),
            &DpGreedyConfig::new(CostModel::paper_example()),
        );
        assert_eq!(report.package_cost, 0.0);
        assert!(report
            .a_greedy
            .choices
            .iter()
            .chain(report.b_greedy.choices.iter())
            .all(|c| c.arm != crate::singleton_greedy::Arm::Package));
    }

    #[test]
    fn three_item_sequence_mixes_pairs_and_singletons() {
        // d1,d2 highly correlated; d3 independent.
        let seq = RequestSeqBuilder::new(3, 3)
            .push(0u32, 1.0, [0, 1])
            .push(1u32, 2.0, [0, 1])
            .push(2u32, 3.0, [2])
            .push(0u32, 4.0, [0, 1])
            .push(2u32, 5.0, [2])
            .build()
            .unwrap();
        let config = DpGreedyConfig::new(CostModel::paper_example()).with_theta(0.3);
        let report = dp_greedy(&seq, &config);
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(report.singletons.len(), 1);
        assert_eq!(report.singletons[0].item, ItemId(2));
        assert_eq!(report.total_accesses, 8);
        assert!(report.total_cost > 0.0);
        // Pair accesses + singleton accesses == total.
        assert_eq!(
            report.pairs[0].accesses + report.singletons[0].accesses,
            report.total_accesses
        );
    }

    #[test]
    fn ave_cost_of_empty_sequence_is_zero() {
        let seq = RequestSeqBuilder::new(2, 2).build().unwrap();
        let report = dp_greedy(&seq, &DpGreedyConfig::new(CostModel::paper_example()));
        assert_eq!(report.total_cost, 0.0);
        assert_eq!(report.ave_cost(), 0.0);
    }
}
