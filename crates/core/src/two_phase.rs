//! The DP_Greedy two-phase algorithm (Algorithm 1 of the paper).
//!
//! * **Phase 1** ([`pack`]): find the item pairs whose Jaccard similarity
//!   (Eq. 4/5) strictly exceeds the threshold `θ` and greedily pack
//!   disjoint ones, most similar first. Above a package-size cap of 2 the
//!   agglomerative K-matcher packs larger packages, the extension the
//!   paper sketches; this is the only step the cap changes.
//! * **Phase 2** ([`dp_greedy_package`]): for each package of `g` items,
//!   serve the co-requests with the optimal off-line algorithm of \[6\]
//!   under package rates (`αgμ`, `αgλ`; `2αμ`, `2αλ` for a pair), and each
//!   member's other requests with the three-arm greedy of Observation 2,
//!   delivering the package at `αgλ`. Unpacked items are served
//!   individually by the optimal off-line algorithm.
//!
//! [`dp_greedy`] composes the two at any cap; the engine's `dp_greedy`,
//! `multi` and `windowed` rows all run it, and the windowed
//! variant ([`crate::windowed`]) runs it once per window.
//!
//! The headline metric is the paper's `ave_cost` (Algorithm 1, line 50):
//! total cost divided by the total number of item accesses `Σ|d_i|`.

use mcs_correlation::matching::greedy_matching_from_pairs;
use mcs_correlation::{agglomerative_packages, pairs_above, PackageSet, Packing, PairTable};
use mcs_model::par::{par_map_with_threads, threads_for};
use mcs_model::{CostModel, ItemId, RequestSeq, Schedule, TimePoint};
use mcs_offline::optimal;

use crate::singleton_greedy::{
    singleton_greedy, Arm, ArmChoice, PairItemEvent, SingletonGreedyOutcome,
};

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

impl PackageAvailability {
    /// The package arm's horizon in [`singleton_greedy`] for a package
    /// whose last co-request is at `last_co`: `None` where the arm is
    /// open at any time, `Some(t)` where it is open up to `t`. A package
    /// without co-requests never exists, so its arm is closed in every
    /// mode.
    pub fn horizon(self, last_co: Option<TimePoint>) -> Option<TimePoint> {
        match (self, last_co) {
            (PackageAvailability::Never, _) | (_, None) => Some(f64::NEG_INFINITY),
            (PackageAvailability::UntilLastCoRequest, last) => last,
            (PackageAvailability::Always, _) => None,
        }
    }
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

/// Cost report for one package of `g ≥ 2` items, a pair at `g = 2`.
#[derive(Debug, Clone)]
pub struct PackageReport {
    /// The members, ascending.
    pub members: Vec<ItemId>,
    /// Package DP cost over the co-requests, at `αgμ`/`αgλ` (`C_12` for a
    /// pair).
    pub package_cost: f64,
    /// The package DP's schedule over the co-requests.
    pub package_schedule: Schedule,
    /// Per member, in member order: its choices at the partial requests
    /// it was served at on its own (`C_1'`, `C_2'` for a pair).
    pub members_greedy: Vec<SingletonGreedyOutcome>,
    /// The shared deliveries at `αgλ`, in time order (none for a pair).
    pub deliveries: Vec<ArmChoice>,
    /// Item accesses attributed to the package: `Σ |d_m|`.
    pub accesses: usize,
}

impl PackageReport {
    /// The package DP's cost, then each member's greedy cost, then the
    /// shared deliveries, summed in that order: `C_12 + C_1' + C_2'` for
    /// a pair.
    pub fn total(&self) -> f64 {
        let members = self.members_greedy.iter().map(|m| m.cost);
        let deliveries = self.deliveries.iter().map(|d| d.cost);
        let parts = members.chain(deliveries);
        parts.fold(self.package_cost, |t, c| t + c)
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
    pub packing: PackageSet,
    /// Per-package Phase 2 reports, in packing order.
    pub packages: Vec<PackageReport>,
    /// Per-unpacked-item reports.
    pub singletons: Vec<SingletonReport>,
    /// Total cost across all items: the packages' totals, then the
    /// unpacked items' costs, summed in that order.
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

/// Phase 2 for the pair `(a, b)` alone, independent of Phase 1:
/// [`dp_greedy_package`] on `[a, b]`.
pub fn dp_greedy_pair(
    seq: &RequestSeq,
    a: ItemId,
    b: ItemId,
    config: &DpGreedyConfig,
) -> PackageReport {
    dp_greedy_package(seq, &[a, b], config)
}

/// Runs Phase 2 for one package of `g ≥ 2` items (ascending): the
/// package DP over its co-requests ([`RequestSeq::co_requests`]) at the
/// rates of `g` items (`αgμ`, `αgλ`: Algorithm 1 line 40 for a pair),
/// each member's three-arm choices over its posting list with the
/// package delivered at `αgλ`, and `share_deliveries`, which couples the
/// members at partial requests holding two or more of them (a pair has
/// none: a request holding both members is a co-request).
pub fn dp_greedy_package(
    seq: &RequestSeq,
    members: &[ItemId],
    config: &DpGreedyConfig,
) -> PackageReport {
    let g = members.len() as u32;
    let co = seq.co_requests(members);
    let co_trace = seq.trace_of(&co);
    let pkg = optimal(&co_trace, &config.model.scaled_for_package_k(g));
    let last_co = co_trace.points.last().map(|p| p.time);
    let horizon = config.package_availability.horizon(last_co);
    let delivery = config.model.transfer_cost_package(g);
    let mut members_greedy: Vec<_> = members
        .iter()
        .map(|&m| {
            let events = member_events(seq, seq.posting_list(m), &co);
            singleton_greedy(&events, seq.servers(), &config.model, delivery, horizon)
        })
        .collect();
    let deliveries = share_deliveries(seq, members, &mut members_greedy);
    PackageReport {
        members: members.to_vec(),
        package_cost: pkg.cost,
        package_schedule: pkg.schedule,
        members_greedy,
        deliveries,
        accesses: members.iter().map(|&m| seq.count_containing(m)).sum(),
    }
}

/// A member's events: every request in its posting list, flagged when it
/// is one of the package's co-requests `co` (a subset of the list, both
/// ascending).
fn member_events(seq: &RequestSeq, postings: &[u32], co: &[usize]) -> Vec<PairItemEvent> {
    let mut co = co.iter().peekable();
    postings
        .iter()
        .map(|&index| {
            let index = index as usize;
            let r = seq.get(index);
            PairItemEvent {
                time: r.time,
                server: r.server,
                is_co: co.next_if_eq(&&index).is_some(),
            }
        })
        .collect()
}

/// Couples the members at every partial request holding two or more of
/// them: one delivery of the whole package serves them all when it is
/// strictly cheaper than each member's cheaper of cache and transfer,
/// summed in member order, and replaces their choices; its option costs
/// are every member by cache and every member by transfer. Otherwise each
/// keeps its choice, which is then that cheaper arm (were the package
/// strictly cheaper for one member alone, it would be for all). Returns
/// the deliveries in time order.
fn share_deliveries(
    seq: &RequestSeq,
    members: &[ItemId],
    greedy: &mut [SingletonGreedyOutcome],
) -> Vec<ArmChoice> {
    // A partial request holds at most g − 1 members, so only a package of
    // three or more can couple two of them.
    if members.len() < 3 {
        return Vec::new();
    }
    // (request, member, choice) for every choice, by request then member.
    let mut at: Vec<(u32, usize, usize)> = Vec::new();
    for (m, (&member, out)) in members.iter().zip(greedy.iter()).enumerate() {
        let postings = seq.posting_list(member);
        let choices = out.choices.iter().enumerate();
        at.extend(choices.map(|(c, choice)| (postings[choice.event_index], m, c)));
    }
    at.sort_unstable();

    let mut deliveries = Vec::new();
    // Per member, the ascending indices of its choices a delivery replaced.
    let mut shared = vec![Vec::new(); members.len()];
    for request in at.chunk_by(|x, y| x.0 == y.0).filter(|r| r.len() > 1) {
        let (mut individual, mut cache, mut transfer) = (0.0, 0.0, 0.0);
        for &(_, m, c) in request {
            let [d, tr, _] = greedy[m].choices[c].option_costs;
            individual += d.min(tr);
            cache += d;
            transfer += tr;
        }
        let (index, m, c) = request[0];
        let first = greedy[m].choices[c];
        let package = first.option_costs[2];
        if package < individual {
            deliveries.push(ArmChoice {
                event_index: index as usize,
                time: first.time,
                arm: Arm::Package,
                cost: package,
                option_costs: [cache, transfer, package],
            });
            for &(_, m, c) in request {
                shared[m].push(c);
            }
        }
    }
    for (out, shared) in greedy.iter_mut().zip(shared) {
        let mut shared = shared.into_iter().peekable();
        let mut c = 0;
        let mut choices = std::mem::take(&mut out.choices);
        choices.retain(|_| {
            let keep = shared.next_if_eq(&c).is_none();
            c += 1;
            keep
        });
        *out = SingletonGreedyOutcome::from_choices(choices);
    }
    deliveries
}

/// Phase 1 of Algorithm 1: the pairs whose Jaccard similarity strictly
/// exceeds `theta`, greedily packed most similar first, in acceptance
/// order.
pub fn pair_packing(seq: &RequestSeq, theta: f64) -> Packing {
    let candidates = mcs_obs::time_phase("dpg.phase1.jaccard", || pairs_above(seq, theta));
    let packing = mcs_obs::time_phase("dpg.phase1.match", || {
        greedy_matching_from_pairs(candidates, seq.items(), theta)
    });
    mcs_obs::counter_add("dpg.pairs_packed", packing.pairs.len() as u64);
    mcs_obs::counter_add("dpg.items_unpacked", packing.singletons.len() as u64);
    packing
}

/// Phase 1 at a package-size cap of `max_group`: [`pair_packing`] up to 2,
/// its pairs in acceptance order, and above it the agglomerative
/// K-matcher ([`agglomerative_packages`] over a [`PairTable`]), its
/// packages sorted.
pub fn pack(seq: &RequestSeq, theta: f64, max_group: usize) -> PackageSet {
    if max_group <= 2 {
        let packing = pair_packing(seq, theta);
        let pairs = packing.pairs.iter().map(|&(a, b)| vec![a, b]).collect();
        PackageSet::new(pairs, packing.singletons, theta)
    } else {
        agglomerative_packages(&PairTable::from_sequence(seq), theta, max_group)
    }
}

/// Runs the complete DP_Greedy algorithm on a request sequence, the one
/// place the two phases are composed: Phase 1 packs at the package-size
/// cap `max_group` ([`pack`]; 2 is the paper's pairwise algorithm), and
/// Phase 2 serves each package ([`dp_greedy_package`]) and each unpacked
/// item (the optimal off-line algorithm), fanned out over
/// `mcs_model::par::threads_for` workers.
///
/// ```
/// use dp_greedy::two_phase::{dp_greedy, DpGreedyConfig};
/// use dp_greedy::paper_example::{paper_model, paper_sequence};
///
/// let config = DpGreedyConfig::new(paper_model()).with_theta(0.4);
/// let report = dp_greedy(&paper_sequence(), &config, 2);
/// assert!((report.total_cost - 14.96).abs() < 1e-9); // the paper's §V-C total
/// assert_eq!(report.total_accesses, 10);
/// ```
pub fn dp_greedy(seq: &RequestSeq, config: &DpGreedyConfig, max_group: usize) -> DpGreedyReport {
    let packing = pack(seq, config.theta, max_group);
    let threads = threads_for(seq.len());
    let packages = {
        let _span = mcs_obs::span("dpg.phase2.pairs");
        par_map_with_threads(&packing.packages, threads, |members| {
            dp_greedy_package(seq, members, config)
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
    // The maps keep input order and the costs are summed in it, packages
    // first, so the report — schedules, ledger events and float totals —
    // is bit-identical to a serial run.
    let mut total_cost = 0.0;
    for report in &packages {
        total_cost += report.total();
    }
    for s in &singletons {
        total_cost += s.cost;
    }
    DpGreedyReport {
        packing,
        packages,
        singletons,
        total_cost,
        total_accesses: seq.total_item_accesses(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::request::SingleItemTrace;
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
        let seq = paper_sequence();
        let report = dp_greedy(&seq, &paper_config(), 2);
        assert_eq!(report.packing.packages, vec![vec![ItemId(0), ItemId(1)]]);
        let pair = &report.packages[0];
        let jaccard = seq.pair_view(ItemId(0), ItemId(1)).jaccard();
        assert!(approx_eq(jaccard, 3.0 / 7.0));
        assert!(
            approx_eq(pair.package_cost, 8.96),
            "C12 = {}",
            pair.package_cost
        );
        let [c1, c2] = [0, 1].map(|m| pair.members_greedy[m].cost);
        assert!(approx_eq(c1, 3.1), "C1' = {c1}");
        assert!(approx_eq(c2, 2.9), "C2' = {c2}");
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
        let report = dp_greedy(&paper_sequence(), &paper_config(), 2);
        let co = paper_sequence().package_trace(ItemId(0), ItemId(1));
        report.packages[0].package_schedule.validate(&co).unwrap();
        let pkg_model = CostModel::paper_example().scaled_for_package();
        let replayed = report.packages[0]
            .package_schedule
            .cost(pkg_model.mu(), pkg_model.lambda())
            .total;
        assert!(approx_eq(replayed, report.packages[0].package_cost));
    }

    #[test]
    fn high_theta_degenerates_to_per_item_optimal() {
        let seq = paper_sequence();
        let config = paper_config().with_theta(0.99);
        let report = dp_greedy(&seq, &config, 2);
        assert!(report.packages.is_empty());
        assert_eq!(report.singletons.len(), 2);
        let o0 = optimal(&seq.item_trace(ItemId(0)), &CostModel::paper_example()).cost;
        let o1 = optimal(&seq.item_trace(ItemId(1)), &CostModel::paper_example()).cost;
        assert!(approx_eq(report.total_cost, o0 + o1));
    }

    #[test]
    fn singleton_schedules_are_feasible() {
        let seq = paper_sequence();
        let config = paper_config().with_theta(0.99);
        let report = dp_greedy(&seq, &config, 2);
        for s in &report.singletons {
            let trace = seq.item_trace(s.item);
            s.schedule.validate(&trace).unwrap();
        }
    }

    #[test]
    fn strict_mode_never_cheapens_the_result() {
        let seq = paper_sequence();
        let faithful = dp_greedy(&seq, &paper_config(), 2);
        let strict = dp_greedy(&seq, &paper_config().strict(), 2);
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
            .members_greedy
            .iter()
            .flat_map(|m| &m.choices)
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
        let report = dp_greedy(&seq, &config, 2);
        assert_eq!(report.packages.len(), 1);
        assert_eq!(report.singletons.len(), 1);
        assert_eq!(report.singletons[0].item, ItemId(2));
        assert_eq!(report.total_accesses, 8);
        assert!(report.total_cost > 0.0);
        // Package accesses + singleton accesses == total.
        assert_eq!(
            report.packages[0].accesses + report.singletons[0].accesses,
            report.total_accesses
        );
    }

    /// Both phases at no package-size cap, under `model` and `theta`.
    fn uncapped(seq: &RequestSeq, model: CostModel, theta: f64) -> DpGreedyReport {
        let config = DpGreedyConfig::new(model).with_theta(theta);
        dp_greedy(seq, &config, usize::MAX)
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
        // At a cap of 2 Phase 1 packs the one pair, and the run costs what
        // Phase 2 of that pair alone costs.
        let seq = paper_sequence();
        let multi = dp_greedy(&seq, &paper_config(), 2).total_cost;
        let pair = dp_greedy_pair(&seq, ItemId(0), ItemId(1), &paper_config()).total();
        assert!(approx_eq(multi, pair), "multi {multi} vs pairwise {pair}");
        assert!(approx_eq(multi, 14.96));
    }

    #[test]
    fn bundle_is_grouped_as_a_trio() {
        let seq = bundle_sequence();
        let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
        let report = uncapped(&seq, model, 0.3);
        assert_eq!(report.packing.packages.len(), 1);
        assert_eq!(
            report.packages[0].members,
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
        let multi = uncapped(&seq, model, 0.3).total_cost;
        let pair = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.3), 2);
        assert!(
            multi < pair.total_cost + 1e-9,
            "multi {multi} should beat pairwise {}",
            pair.total_cost
        );
    }

    #[test]
    fn group_schedule_is_feasible() {
        let seq = bundle_sequence();
        let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
        let report = uncapped(&seq, model, 0.3);
        let group = &report.packages[0];
        // Rebuild the co-trace by scanning the requests, and validate.
        let co: Vec<(f64, u32)> = seq
            .requests()
            .iter()
            .filter(|r| group.members.iter().all(|&d| r.contains(d)))
            .map(|r| (r.time, r.server.0))
            .collect();
        let trace = SingleItemTrace::from_pairs(seq.servers(), &co);
        assert_eq!(trace, seq.trace_of(&seq.co_requests(&group.members)));
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
        let report = uncapped(&seq, model, 0.2);
        let group = &report.packages[0];
        assert_eq!(group.deliveries.len(), 1);
        // Delivery cost α·3·λ = 0.9 vs 2 transfers (2·(9μ... the transfer
        // arm is λ + μ·Δt each, far larger).
        let partial: f64 = group.total() - group.package_cost;
        assert!(approx_eq(partial, 0.9));
        // The two members were served by the delivery, not on their own;
        // it names what two transfers (2 · 10) would have cost, and no
        // cache arm (neither member was ever at s3).
        assert!(group.members_greedy.iter().all(|m| m.choices.is_empty()));
        let d = group.deliveries[0];
        assert_eq!(d.arm, Arm::Package);
        assert!(approx_eq(d.option_costs[1], 20.0));
        assert_eq!(d.option_costs[0], f64::INFINITY);
    }

    #[test]
    fn accesses_are_conserved() {
        let seq = bundle_sequence();
        let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
        let report = uncapped(&seq, model, 0.3);
        let attributed: usize = report.packages.iter().map(|g| g.accesses).sum::<usize>()
            + report
                .singletons
                .iter()
                .map(|s| seq.count_containing(s.item))
                .sum::<usize>();
        assert_eq!(attributed, seq.total_item_accesses());
    }

    #[test]
    fn ave_cost_of_empty_sequence_is_zero() {
        let seq = RequestSeqBuilder::new(2, 2).build().unwrap();
        let report = dp_greedy(&seq, &DpGreedyConfig::new(CostModel::paper_example()), 2);
        assert_eq!(report.total_cost, 0.0);
        assert_eq!(report.ave_cost(), 0.0);
    }
}
