//! Multi-item packages — the extension the paper sketches as future work
//! ("it can be naturally extended to the case where multiple data items
//! could be packed").
//!
//! Phase 1 generalises to agglomerative grouping
//! ([`mcs_correlation::grouping`]); Phase 2 generalises per group `G` of
//! size `g ≥ 2` with the Table-II rates `α·g·μ` / `α·g·λ`:
//!
//! * requests containing **all** of `G` are served by the optimal off-line
//!   DP at group rates (the direct analogue of Algorithm 1 line 40);
//! * a request containing a proper non-empty subset `S ⊂ G` is served by
//!   the cheaper of (a) each item individually via its two greedy arms
//!   (cache from `r_{p(i)}` / transfer from `r_{i−1}`), or (b) **one**
//!   shared group delivery at `α·g·λ` that drops the whole package at the
//!   server and serves every item of `S` at once — the generalisation of
//!   Observation 2's third arm (for `|S| = 1` and `g = 2` this reduces
//!   exactly to the paper's three-arm greedy, which the tests assert).
//!
//! Groups of size 1 are served by the optimal off-line algorithm
//! individually, as in the pairwise algorithm.
//!
//! This module is Phase 2 only ([`dp_greedy_packages`]). The engine's
//! `dpg_k` solver runs both phases above K = 2, Phase 1 being
//! [`mcs_correlation::agglomerative_packages`] over a
//! [`mcs_correlation::PairTable`]; its `multi` row is the same pipeline
//! at K = ∞.

use std::collections::HashMap;

use mcs_correlation::PackageSet;
use mcs_model::par::par_map;
use mcs_model::{CostModel, ItemId, RequestSeq, Schedule, ServerId, TimePoint};
use mcs_offline::optimal;

use crate::two_phase::SingletonReport;

/// Cost report for one multi-item group.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Group members, ascending.
    pub items: Vec<ItemId>,
    /// DP cost over full-group co-requests at `α·g` rates.
    pub package_cost: f64,
    /// Greedy cost over partial-subset requests.
    pub partial_cost: f64,
    /// Number of group deliveries chosen by the greedy.
    pub group_deliveries: usize,
    /// Item accesses attributed to this group.
    pub accesses: usize,
    /// The group DP's schedule over full co-requests.
    pub package_schedule: Schedule,
}

impl GroupReport {
    /// Total group cost.
    pub fn total(&self) -> f64 {
        self.package_cost + self.partial_cost
    }
}

/// Full multi-item report.
#[derive(Debug, Clone)]
pub struct MultiItemReport {
    /// Reports for packages of size ≥ 2.
    pub groups: Vec<GroupReport>,
    /// Per-unpacked-item optimal costs and schedules.
    pub singletons: Vec<SingletonReport>,
    /// Total cost.
    pub total_cost: f64,
    /// `Σ|d_i|`.
    pub total_accesses: usize,
}

/// Serves one group's requests (Phase 2, group-generalised).
fn serve_group(seq: &RequestSeq, group: &[ItemId], model: &CostModel) -> GroupReport {
    let g = group.len() as u32;
    let group_model = model.scaled_for_package_k(g);
    let delivery = group_model.lambda(); // α·g·λ per shipment
    let mu = model.mu();
    let lambda = model.lambda();

    // Full-group co-requests → DP at group rates.
    let co_points: Vec<(TimePoint, ServerId)> = seq
        .requests()
        .iter()
        .filter(|r| group.iter().all(|&d| r.contains(d)))
        .map(|r| (r.time, r.server))
        .collect();
    let co_trace = mcs_model::request::SingleItemTrace {
        servers: seq.servers(),
        points: co_points
            .iter()
            .map(|&(time, server)| mcs_model::request::TracePoint { time, server })
            .collect(),
    };
    let pkg = optimal(&co_trace, &group_model);
    let package_available = !co_trace.is_empty();

    // Partial-subset requests → request-level greedy.
    let mut last_at: HashMap<(ItemId, ServerId), TimePoint> = HashMap::new();
    let mut last_any: HashMap<ItemId, TimePoint> = HashMap::new();
    for &d in group {
        last_at.insert((d, ServerId::ORIGIN), 0.0);
        last_any.insert(d, 0.0);
    }

    let mut partial_cost = 0.0;
    let mut group_deliveries = 0usize;
    let mut accesses = 0usize;

    for r in seq.requests() {
        let in_group: Vec<ItemId> = group.iter().copied().filter(|&d| r.contains(d)).collect();
        if in_group.is_empty() {
            continue;
        }
        accesses += in_group.len();
        let full = in_group.len() == group.len();
        if !full {
            // Individual arms per item of S.
            let individual: f64 = in_group
                .iter()
                .map(|&d| {
                    let d_arm = last_at
                        .get(&(d, r.server))
                        .map_or(f64::INFINITY, |&tp| mu * (r.time - tp));
                    let tr_arm = lambda + mu * (r.time - last_any[&d]);
                    d_arm.min(tr_arm)
                })
                .sum();
            // One shared group delivery serves every item of S.
            if package_available && delivery < individual {
                partial_cost += delivery;
                group_deliveries += 1;
            } else {
                partial_cost += individual;
            }
        }
        // Either way, every requested group item now has a copy here.
        for &d in &in_group {
            last_at.insert((d, r.server), r.time);
            last_any.insert(d, r.time);
        }
    }

    GroupReport {
        items: group.to_vec(),
        package_cost: pkg.cost,
        partial_cost,
        group_deliveries,
        accesses,
        package_schedule: pkg.schedule,
    }
}

/// Phase 2 over an already-computed [`PackageSet`] — the package-generic
/// serving core of the engine's `multi` and `dpg_k` solvers. Packages
/// and singletons are each served independently across worker threads
/// via [`par_map`] (order-preserving, so reports and the in-order cost
/// sums are deterministic for any `MCS_THREADS`).
pub fn dp_greedy_packages(
    seq: &RequestSeq,
    packages: &PackageSet,
    model: &CostModel,
) -> MultiItemReport {
    let groups: Vec<GroupReport> = par_map(&packages.packages, |g| serve_group(seq, g, model));
    let singletons: Vec<SingletonReport> = par_map(&packages.singletons, |&item| {
        let trace = seq.item_trace(item);
        let out = optimal(&trace, model);
        SingletonReport {
            item,
            cost: out.cost,
            accesses: trace.len(),
            schedule: out.schedule,
        }
    });
    let total_cost = groups.iter().map(GroupReport::total).sum::<f64>()
        + singletons.iter().map(|s| s.cost).sum::<f64>();
    MultiItemReport {
        groups,
        singletons,
        total_cost,
        total_accesses: seq.total_item_accesses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_phase::{dp_greedy, DpGreedyConfig};
    use mcs_correlation::{agglomerative_packages, PairTable};
    use mcs_model::{approx_eq, RequestSeqBuilder};

    /// Both phases of the K-package pipeline: the agglomerative K-matcher
    /// at `theta` and cap `max_group`, then [`dp_greedy_packages`].
    fn k_packages(
        seq: &RequestSeq,
        model: CostModel,
        theta: f64,
        max_group: usize,
    ) -> MultiItemReport {
        let packages = agglomerative_packages(&PairTable::from_sequence(seq), theta, max_group);
        dp_greedy_packages(seq, &packages, &model)
    }

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

    /// A bundle workload: items {0,1,2} always together, item 3 alone.
    fn bundle_sequence() -> RequestSeq {
        let mut b = RequestSeqBuilder::new(4, 4);
        let mut t = 0.0;
        for &srv in &[1u32, 2, 3, 1, 2, 0, 3, 2] {
            t += 0.5;
            b = b.push(srv, t, [0, 1, 2]);
        }
        for &srv in &[3u32, 1] {
            t += 0.9;
            b = b.push(srv, t, [3]);
        }
        // A few partial accesses of the bundle.
        for &(srv, it) in &[(2u32, 0u32), (3, 1), (1, 2)] {
            t += 0.4;
            b = b.push(srv, t, [it]);
        }
        b.build().unwrap()
    }

    #[test]
    fn max_group_two_matches_pairwise_dp_greedy_on_the_paper_example() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let multi = k_packages(&seq, model, 0.4, 2);
        let pair = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.4));
        assert!(
            approx_eq(multi.total_cost, pair.total_cost),
            "multi {} vs pairwise {}",
            multi.total_cost,
            pair.total_cost
        );
        assert!(approx_eq(multi.total_cost, 14.96));
    }

    #[test]
    fn bundle_is_grouped_as_a_trio() {
        let seq = bundle_sequence();
        let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
        let report = k_packages(&seq, model, 0.3, usize::MAX);
        assert_eq!(report.groups.len(), 1);
        assert_eq!(
            report.groups[0].items,
            vec![ItemId(0), ItemId(1), ItemId(2)]
        );
        assert_eq!(report.singletons.len(), 1);
        assert_eq!(report.singletons[0].item, ItemId(3));
    }

    #[test]
    fn trio_package_beats_pairwise_on_low_alpha_bundles() {
        // With a strong discount, shipping the trio as one package must
        // beat the best the pairwise algorithm can do (it can pack at most
        // two of the three correlated items).
        let seq = bundle_sequence();
        let model = CostModel::new(1.0, 1.0, 0.4).unwrap();
        let multi = k_packages(&seq, model, 0.3, usize::MAX);
        let pair = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.3));
        assert!(
            multi.total_cost < pair.total_cost + 1e-9,
            "multi {} should beat pairwise {}",
            multi.total_cost,
            pair.total_cost
        );
    }

    #[test]
    fn group_schedule_is_feasible() {
        let seq = bundle_sequence();
        let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
        let report = k_packages(&seq, model, 0.3, usize::MAX);
        let group = &report.groups[0];
        // Rebuild the co-trace and validate.
        let co: Vec<(f64, u32)> = seq
            .requests()
            .iter()
            .filter(|r| group.items.iter().all(|&d| r.contains(d)))
            .map(|r| (r.time, r.server.0))
            .collect();
        let trace = mcs_model::request::SingleItemTrace::from_pairs(seq.servers(), &co);
        group.package_schedule.validate(&trace).unwrap();
    }

    #[test]
    fn shared_delivery_is_charged_once_for_multi_item_partials() {
        // A request for two of three bundle items far from any copy: one
        // α·g·λ delivery must beat two individual transfers when α is low.
        let mut b = RequestSeqBuilder::new(3, 3);
        b = b.push(1u32, 1.0, [0, 1, 2]); // establish the package at s2
        b = b.push(2u32, 10.0, [0, 1]); // partial far away
        let seq = b.build().unwrap();
        let model = CostModel::new(1.0, 1.0, 0.3).unwrap();
        let report = k_packages(&seq, model, 0.2, usize::MAX);
        let group = &report.groups[0];
        assert_eq!(group.group_deliveries, 1);
        // Delivery cost α·3·λ = 0.9 vs 2 transfers (2·(9μ... the transfer
        // arm is λ + μ·Δt each, far larger).
        assert!(approx_eq(group.partial_cost, 0.9));
    }

    #[test]
    fn accesses_are_conserved() {
        let seq = bundle_sequence();
        let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
        let report = k_packages(&seq, model, 0.3, usize::MAX);
        let attributed: usize = report.groups.iter().map(|g| g.accesses).sum::<usize>()
            + report
                .singletons
                .iter()
                .map(|s| seq.count_containing(s.item))
                .sum::<usize>();
        assert_eq!(attributed, report.total_accesses);
    }
}
