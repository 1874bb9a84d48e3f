//! The optimal off-line single-commodity caching algorithm (the substrate
//! of reference \[6\] of the paper), re-derived as a minimum-cost
//! line-covering dynamic program.
//!
//! See the crate docs and `DESIGN.md` §2 for the derivation. In short:
//! every request is served by a local cache interval from its same-server
//! predecessor (`r_{p(i)}` of Definition 1) or by a `λ` transfer from any
//! live copy, and the whole horizon `[0, t_n]` must be covered by live
//! copies. "Short" intervals (`μ·len ≤ λ`) are always taken; the residual
//! problem — which "long" intervals to take versus bridging uncovered gaps
//! at `μ` per unit time — is a DAG shortest path over gap boundaries.
//!
//! The solver returns both the optimal cost and an explicit
//! [`Schedule`] that passes the independent feasibility validator of
//! `mcs-model` with exactly the same cost.

use mcs_model::request::{Predecessor, SingleItemTrace};
use mcs_model::{approx_eq, approx_le, CostModel, Schedule, ServerId};

/// How a request is served in the optimal schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeDecision {
    /// Served by a local cache interval from the same-server predecessor.
    Cache,
    /// Served by a transfer from a live copy.
    Transfer,
}

/// Result of the optimal off-line solver.
#[derive(Debug, Clone)]
pub struct OptimalOutcome {
    /// Optimal total cost under the supplied rates.
    pub cost: f64,
    /// Per-request serving decisions, aligned with the trace points.
    pub decisions: Vec<ServeDecision>,
    /// An explicit schedule achieving `cost`; feasible by construction and
    /// cross-checked against the `mcs-model` validator in tests.
    pub schedule: Schedule,
}

impl OptimalOutcome {
    fn empty() -> Self {
        OptimalOutcome {
            cost: 0.0,
            decisions: Vec::new(),
            schedule: Schedule::new(),
        }
    }
}

/// A point-update / range-minimum segment tree over `f64`: an implicit
/// heap with the leaves at `size..2·size`, unset leaves `+∞`.
#[derive(Debug, Clone)]
pub(crate) struct MinTree {
    size: usize,
    heap: Vec<f64>,
}

impl MinTree {
    pub(crate) fn new(len: usize) -> Self {
        let size = len.next_power_of_two();
        MinTree {
            size,
            heap: vec![f64::INFINITY; 2 * size],
        }
    }

    pub(crate) fn get(&self, i: usize) -> f64 {
        self.heap[self.size + i]
    }

    pub(crate) fn set(&mut self, mut i: usize, value: f64) {
        i += self.size;
        self.heap[i] = value;
        while i > 1 {
            i /= 2;
            self.heap[i] = self.heap[2 * i].min(self.heap[2 * i + 1]);
        }
    }

    /// Minimum over the inclusive index range `[lo, hi]`.
    pub(crate) fn min(&self, mut lo: usize, mut hi: usize) -> f64 {
        let mut best = f64::INFINITY;
        lo += self.size;
        hi += self.size + 1;
        while lo < hi {
            if lo & 1 == 1 {
                best = best.min(self.heap[lo]);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                best = best.min(self.heap[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        best
    }

    /// The minimum of the rounded sums `value[j] + w` over `[lo, hi]`, and
    /// the smallest `j` reaching it.
    ///
    /// Rounding is monotone, so the minimum is `min(value[lo..=hi]) + w`,
    /// and a subtree holds a reaching `j` exactly when its own minimum
    /// plus `w` reaches it: a walk right from `lo` finds the first such
    /// subtree, and a descent into it the leftmost such leaf.
    pub(crate) fn leftmost_min_plus(&self, lo: usize, hi: usize, w: f64) -> (f64, usize) {
        let best = self.min(lo, hi) + w;
        let reaches = |node: usize| self.heap[node] + w <= best;
        let mut node = lo + self.size;
        loop {
            // Widen to the largest subtree starting at `node`'s first leaf.
            while node & 1 == 0 {
                node /= 2;
            }
            if reaches(node) {
                break;
            }
            node += 1;
        }
        while node < self.size {
            node = if reaches(2 * node) {
                2 * node
            } else {
                2 * node + 1
            };
        }
        (best, node - self.size)
    }
}

/// For each gap `g` in `0..n`, the lowest-indexed request `k` in
/// `chosen` whose cache interval spans it (`pred_node[k] ≤ g ≤ k`), in
/// one linear sweep: gaps wait on `stack` in ascending order until a
/// chosen request claims every waiting gap from its interval's start on.
/// Intervals end at their own request, so the lowest such `k` claims first.
fn first_cover(
    pred_node: &[Option<usize>],
    chosen: &[bool],
    stack: &mut Vec<usize>,
    owner: &mut [Option<usize>],
) {
    stack.clear();
    for (k, &start) in pred_node.iter().enumerate() {
        owner[k] = None;
        stack.push(k);
        if chosen[k] {
            let start = start.expect("chosen requests have a cache interval");
            while let Some(&g) = stack.last() {
                if g < start {
                    break;
                }
                owner[g] = Some(k);
                stack.pop();
            }
        }
    }
}

/// Start node of a request's cache interval: node 0 for the origin
/// placement, node `j + 1` for request `j`.
fn start_node(pred: Predecessor) -> Option<usize> {
    match pred {
        Predecessor::Origin => Some(0),
        Predecessor::Request(j) => Some(j + 1),
        Predecessor::None => None,
    }
}

/// Computes the optimal off-line cost and schedule for a single commodity.
///
/// For a plain data item pass the base [`CostModel`]; for a two-item
/// package pass [`CostModel::scaled_for_package`] — this reproduces the
/// `2α·(call alg. in \[6\])` of Algorithm 1, line 40.
///
/// Runs in `O(n log n)` time and `O(n + m)` space for `n` trace points
/// over `m` servers: one forward sweep prices each long interval with
/// a range-minimum query over the finished distances, and the schedule is
/// read back in linear time.
///
/// ```
/// use mcs_model::{request::SingleItemTrace, CostModel};
/// use mcs_offline::optimal;
///
/// // The paper's package sub-problem (§V-C): co-requests at
/// // (0.8, s3), (1.4, s1), (4.0, s3) under package rates 2αμ = 2αλ = 1.6.
/// let trace = SingleItemTrace::from_pairs(4, &[(0.8, 2), (1.4, 0), (4.0, 2)]);
/// let pkg = CostModel::paper_example().scaled_for_package();
/// let out = optimal(&trace, &pkg);
/// assert!((out.cost - 8.96).abs() < 1e-9);
/// out.schedule.validate(&trace).unwrap();
/// ```
pub fn optimal(trace: &SingleItemTrace, model: &CostModel) -> OptimalOutcome {
    let _span = mcs_obs::span("offline.optimal");
    let n = trace.len();
    if n == 0 {
        return OptimalOutcome::empty();
    }
    mcs_obs::counter_add("offline.optimal.requests", n as u64);
    let mu = model.mu();
    let lambda = model.lambda();

    // Node j sits at boundary time T[j]; node 0 is the origin placement,
    // node i+1 is request i. Gap j spans T[j]..T[j+1], j in 0..n.
    let mut boundary = Vec::with_capacity(n + 1);
    boundary.push(0.0_f64);
    boundary.extend(trace.points.iter().map(|p| p.time));

    let pred_node: Vec<Option<usize>> = trace.predecessors().into_iter().map(start_node).collect();
    let interval_len =
        |i: usize| -> f64 { boundary[i + 1] - boundary[pred_node[i].expect("has pred")] };

    // Short cache intervals (`μ·len ≤ λ`) are always taken; `cached`
    // starts as them and gains the long intervals on the shortest path.
    // Base cost: short caches plus one pending transfer per other request.
    let mut cached = vec![false; n];
    let mut base = 0.0;
    for i in 0..n {
        match pred_node[i] {
            Some(_) if approx_le(mu * interval_len(i), lambda) => {
                cached[i] = true;
                base += mu * interval_len(i);
            }
            _ => base += lambda,
        }
    }
    // Gaps a short interval covers are bridged for free.
    let mut stack = Vec::with_capacity(n);
    let mut cover = vec![None; n];
    first_cover(&pred_node, &cached, &mut stack, &mut cover);

    // DAG shortest path over nodes 0..=n, in one forward sweep. Node i+1
    // is entered by the bridge from node i or by request i's long edge
    // from any node j in [pred_node[i], i], all final by then. The long
    // edge takes the smallest such j, and wins a tie with the bridge: an
    // interval refunds its λ. `dist` lives in the tree's leaves.
    let mut dist = MinTree::new(n + 1);
    dist.set(0, 0.0);
    // Entry node of the long edge into node i+1, or `None` for the bridge.
    let mut entry: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        let mut best = f64::INFINITY;
        if let (Some(a), false) = (pred_node[i], cached[i]) {
            let (value, from) = dist.leftmost_min_plus(a, i, mu * interval_len(i) - lambda);
            best = value;
            entry[i] = Some(from);
        }
        let w = if cover[i].is_some() {
            0.0
        } else {
            mu * (boundary[i + 1] - boundary[i])
        };
        let bridge = dist.get(i) + w;
        if bridge < best {
            best = bridge;
            entry[i] = None;
        }
        dist.set(i + 1, best);
    }
    let cost = base + dist.get(n);

    // ---- Reconstruction -------------------------------------------------
    // Chosen cache-served set X = shorts ∪ longs on the shortest path;
    // bridged gaps = bridge edges over gaps covered by nothing in X.
    let mut bridge_edge = vec![false; n];
    let mut node = n;
    while node > 0 {
        match entry[node - 1] {
            None => {
                bridge_edge[node - 1] = true;
                node -= 1;
            }
            Some(from) => {
                cached[node - 1] = true;
                node = from;
            }
        }
    }
    // Each gap's lowest-indexed covering interval in X.
    first_cover(&pred_node, &cached, &mut stack, &mut cover);

    let server_of_node = |j: usize| -> ServerId {
        if j == 0 {
            ServerId::ORIGIN
        } else {
            trace.points[j - 1].server
        }
    };

    let served_by_cache = cached.iter().filter(|&&c| c).count();
    let bridged = (0..n)
        .filter(|&j| bridge_edge[j] && cover[j].is_none())
        .count();
    let mut schedule = Schedule {
        intervals: Vec::with_capacity(bridged + served_by_cache),
        transfers: Vec::with_capacity(n - served_by_cache),
    };
    let mut decisions = Vec::with_capacity(n);

    // Physical bridges: only where a bridge edge crosses a truly uncovered gap.
    for j in 0..n {
        if bridge_edge[j] && cover[j].is_none() {
            schedule.cache(server_of_node(j), boundary[j], boundary[j + 1]);
        }
    }

    for i in 0..n {
        let p = trace.points[i];
        if cached[i] {
            decisions.push(ServeDecision::Cache);
            schedule.cache(p.server, boundary[pred_node[i].unwrap()], p.time);
        } else {
            decisions.push(ServeDecision::Transfer);
            // Source: a chosen interval alive over the gap immediately
            // before t_i, else the bridge copy for that gap.
            let source = match cover[i] {
                Some(k) => trace.points[k].server,
                None if bridge_edge[i] => server_of_node(i),
                None => unreachable!("gap before a transfer-served request must be covered"),
            };
            debug_assert_ne!(
                source, p.server,
                "optimal path should never transfer a copy to itself"
            );
            schedule.transfer(source, p.server, p.time);
        }
    }

    debug_assert!(
        approx_eq(schedule.cost(mu, lambda).total, cost),
        "reconstructed schedule cost {} != DP cost {}",
        schedule.cost(mu, lambda).total,
        cost
    );

    OptimalOutcome {
        cost,
        decisions,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::CostModelBuilder;

    fn unit_model() -> CostModel {
        CostModel::new(1.0, 1.0, 0.8).unwrap()
    }

    #[test]
    fn min_tree_basics() {
        let mut t = MinTree::new(6);
        for (i, v) in [5.0, 3.0, 8.0, 1.0, 9.0, 4.0].iter().enumerate() {
            t.set(i, *v);
        }
        assert_eq!(t.min(0, 5), 1.0);
        assert_eq!(t.min(0, 2), 3.0);
        assert_eq!(t.min(4, 5), 4.0);
        assert_eq!(t.min(2, 2), 8.0);
        assert_eq!(t.get(4), 9.0);
        t.set(2, 0.5);
        assert_eq!(t.min(0, 5), 0.5);
    }

    #[test]
    fn leftmost_min_plus_takes_the_first_leaf_that_rounds_to_the_minimum() {
        // The float right after 1.0 plus 1.0 rounds to 2.0, as 1.0 + 1.0
        // does: with w = 1.0 that leaf wins, although its value is larger.
        let next = 1.0 + f64::EPSILON;
        assert_eq!(next + 1.0, 2.0);
        let mut t = MinTree::new(7);
        for (i, v) in [4.0, 3.0, next, 1.0, 1.0, 7.0, 0.5].iter().enumerate() {
            t.set(i, *v);
        }
        assert_eq!(t.leftmost_min_plus(0, 5, 0.0), (1.0, 3));
        assert_eq!(t.leftmost_min_plus(4, 5, 0.0), (1.0, 4));
        assert_eq!(t.leftmost_min_plus(1, 5, 1.0), (2.0, 2));
        assert_eq!(t.leftmost_min_plus(5, 5, 1.0), (8.0, 5));
        assert_eq!(t.leftmost_min_plus(0, 6, 1.0), (1.5, 6));
    }

    #[test]
    fn first_cover_takes_the_lowest_covering_request() {
        // Intervals: request 1 spans gaps 0..=1, request 2 spans 2, request
        // 4 spans 1..=4 (gap 1 already taken by request 1).
        let pred_node = [None, Some(0), Some(2), None, Some(1)];
        let chosen = [false, true, true, false, true];
        let mut owner = [Some(9); 5];
        first_cover(&pred_node, &chosen, &mut Vec::new(), &mut owner);
        assert_eq!(owner, [Some(1), Some(1), Some(2), Some(4), Some(4)]);
        first_cover(&pred_node, &[false; 5], &mut Vec::new(), &mut owner);
        assert_eq!(owner, [None; 5]);
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let trace = SingleItemTrace::from_pairs(3, &[]);
        let out = optimal(&trace, &unit_model());
        assert_eq!(out.cost, 0.0);
        assert!(out.schedule.intervals.is_empty());
        assert!(out.schedule.transfers.is_empty());
    }

    #[test]
    fn single_request_at_origin_is_cached() {
        // Item already at s1; keep it for t units: μ·t beats λ + bridging.
        let trace = SingleItemTrace::from_pairs(2, &[(0.5, 0)]);
        let out = optimal(&trace, &unit_model());
        assert!(approx_eq(out.cost, 0.5));
        assert_eq!(out.decisions, vec![ServeDecision::Cache]);
        out.schedule.validate(&trace).unwrap();
    }

    #[test]
    fn single_remote_request_bridges_then_transfers() {
        // Request at s2 at t=0.8: cache at s1 for 0.8 then transfer — the
        // Tr(0.8) term of the running example (before the 2α scaling).
        let trace = SingleItemTrace::from_pairs(2, &[(0.8, 1)]);
        let out = optimal(&trace, &unit_model());
        assert!(approx_eq(out.cost, 0.8 + 1.0));
        assert_eq!(out.decisions, vec![ServeDecision::Transfer]);
        out.schedule.validate(&trace).unwrap();
        assert!(approx_eq(out.schedule.cost(1.0, 1.0).total, out.cost));
    }

    #[test]
    fn paper_running_example_package_cost() {
        // Section V-C step 4: the package co-requests at (0.8, s3),
        // (1.4, s1), (4.0, s3) under rates (2αμ, 2αλ) = (1.6, 1.6) cost
        // C(4.0) = 8.96: s1 caches [0,1.4] (serving the 1.4 request
        // locally), a transfer at 0.8 serves s3, whose copy is then kept
        // over [0.8, 4.0] to serve the 4.0 request locally.
        let trace = SingleItemTrace::from_pairs(4, &[(0.8, 2), (1.4, 0), (4.0, 2)]);
        let pkg = CostModel::paper_example().scaled_for_package();
        let out = optimal(&trace, &pkg);
        assert!(
            approx_eq(out.cost, 8.96),
            "expected the paper's 8.96, got {}",
            out.cost
        );
        assert_eq!(
            out.decisions,
            vec![
                ServeDecision::Transfer,
                ServeDecision::Cache,
                ServeDecision::Cache
            ]
        );
        out.schedule.validate(&trace).unwrap();
        assert!(approx_eq(out.schedule.cost(1.6, 1.6).total, 8.96));
    }

    #[test]
    fn long_interval_doubles_as_backbone() {
        // Two requests at s1 (origin) far apart with a remote request in
        // between: the s1 interval should span the whole horizon and source
        // the remote transfer, beating bridge-per-gap.
        // Requests: (1.0, s2), (10.0, s1). μ=1, λ=2.
        let model = CostModelBuilder::new().mu(1.0).lambda(2.0).build().unwrap();
        let trace = SingleItemTrace::from_pairs(2, &[(1.0, 1), (10.0, 0)]);
        let out = optimal(&trace, &model);
        // Keep s1 copy [0,10] (10μ, serves the 10.0 request locally) and
        // transfer at 1.0 (λ): 10 + 2 = 12. The alternative — transfer both
        // with bridging — costs 1 + 2 (first) + 9 + 2 = 14.
        assert!(approx_eq(out.cost, 12.0));
        out.schedule.validate(&trace).unwrap();
    }

    #[test]
    fn dense_same_server_chain_prefers_caching() {
        let model = CostModelBuilder::new()
            .mu(1.0)
            .lambda(10.0)
            .build()
            .unwrap();
        let trace = SingleItemTrace::from_pairs(3, &[(1.0, 0), (2.0, 0), (3.0, 0), (4.0, 0)]);
        let out = optimal(&trace, &model);
        // All local: cache s1 over [0,4].
        assert!(approx_eq(out.cost, 4.0));
        assert!(out.decisions.iter().all(|d| *d == ServeDecision::Cache));
        out.schedule.validate(&trace).unwrap();
    }

    #[test]
    fn high_mu_prefers_transfers() {
        // μ huge relative to λ: every request should be transfer-served with
        // minimal bridging — but bridging is still μ-priced, so the optimum
        // is λ per request plus the unavoidable μ·t_n backbone.
        let model = CostModelBuilder::new().mu(5.0).lambda(1.0).build().unwrap();
        let trace = SingleItemTrace::from_pairs(3, &[(1.0, 1), (2.0, 2), (3.0, 1)]);
        let out = optimal(&trace, &model);
        // Bridging everything would cost μ·3 + 3λ = 18, but holding the s2
        // copy over [1,3] both serves the t=3 request locally AND covers the
        // backbone: bridge [0,1] (5) + 2 transfers (2) + interval (10) = 17.
        assert!(approx_eq(out.cost, 17.0));
        assert_eq!(
            out.decisions,
            vec![
                ServeDecision::Transfer,
                ServeDecision::Transfer,
                ServeDecision::Cache
            ]
        );
        out.schedule.validate(&trace).unwrap();
    }

    #[test]
    fn schedule_cost_always_matches_reported_cost() {
        let model = CostModelBuilder::new().mu(2.0).lambda(3.0).build().unwrap();
        let trace = SingleItemTrace::from_pairs(
            4,
            &[
                (0.5, 1),
                (0.8, 2),
                (1.1, 3),
                (1.4, 0),
                (2.6, 1),
                (3.2, 1),
                (4.0, 2),
            ],
        );
        let out = optimal(&trace, &model);
        out.schedule.validate(&trace).unwrap();
        assert!(approx_eq(
            out.schedule.cost(model.mu(), model.lambda()).total,
            out.cost
        ));
    }

    #[test]
    fn equal_boundary_short_interval_ties_choose_cache() {
        // μ·len == λ exactly: short by the tolerant comparison.
        let model = CostModelBuilder::new().mu(1.0).lambda(1.0).build().unwrap();
        let trace = SingleItemTrace::from_pairs(1, &[(1.0, 0), (2.0, 0)]);
        let out = optimal(&trace, &model);
        assert!(approx_eq(out.cost, 2.0));
        assert!(out.decisions.iter().all(|d| *d == ServeDecision::Cache));
    }
}
