//! The single-copy substrate: optimal caching when replication is
//! forbidden.
//!
//! The related work the paper builds on studied this regime first:
//! Veeravalli's network caching \[7\] and the single-copy scenario of Wang
//! et al.'s data staging \[8\] (their `1 + C/S` approximation). Exactly one
//! copy of the item exists at all times; serving a request either finds
//! the copy locally (free), reads it remotely (a transfer that leaves the
//! copy in place), or *migrates* it to the requester (a transfer that
//! moves it). Holding the single copy costs `μ` per unit time wherever it
//! sits, so the holding cost is the constant `μ·t_n` and the optimisation
//! is over transfer count placement — a classic file-migration DP with
//! state = copy location, solved here in `O(nm)`.
//!
//! The gap between this optimum and the multi-copy optimum of
//! [`crate::optimal::optimal`] quantifies the value of replication (exposed in the
//! `replication` experiment and asserted ≥ 0 by property tests).

use mcs_model::request::SingleItemTrace;
use mcs_model::{CostModel, Schedule, ServerId};

/// How a request was served by the single-copy optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingleCopyMove {
    /// The copy was already at the requesting server.
    Local,
    /// Served by a remote read; the copy stayed where it was.
    RemoteRead,
    /// The copy migrated to the requesting server.
    Migrate,
}

/// Result of the single-copy solver.
#[derive(Debug, Clone)]
pub struct SingleCopyOutcome {
    /// Optimal total cost (holding `μ·t_n` + transfer decisions).
    pub cost: f64,
    /// Per-request decisions.
    pub moves: Vec<SingleCopyMove>,
    /// Explicit schedule: one chain of location intervals plus transfers.
    pub schedule: Schedule,
}

/// Computes the optimal single-copy schedule in `O(nm)` time and space.
pub fn single_copy_optimal(trace: &SingleItemTrace, model: &CostModel) -> SingleCopyOutcome {
    let n = trace.len();
    let m = trace.servers as usize;
    let mu = model.mu();
    let lambda = model.lambda();
    if n == 0 {
        return SingleCopyOutcome {
            cost: 0.0,
            moves: Vec::new(),
            schedule: Schedule::new(),
        };
    }

    // dp[s] = min transfer cost so that the copy sits at s after serving
    // the current request; parent pointers reconstruct locations.
    let origin = ServerId::ORIGIN.index();
    let mut dp = vec![f64::INFINITY; m];
    dp[origin] = 0.0;
    // parent[i][s] = copy location before request i, given it is at s after.
    let mut parent = vec![vec![usize::MAX; m]; n];

    for (i, p) in trace.points.iter().enumerate() {
        let q = p.server.index();
        let mut next = vec![f64::INFINITY; m];
        // Over previous locations l:
        for (l, &c) in dp.iter().enumerate() {
            if !c.is_finite() {
                continue;
            }
            if l == q {
                // Local hit; copy stays.
                if c < next[q] {
                    next[q] = c;
                    parent[i][q] = l;
                }
            } else {
                // Remote read: copy stays at l.
                if c + lambda < next[l] {
                    next[l] = c + lambda;
                    parent[i][l] = l;
                }
                // Migration: copy moves to q.
                if c + lambda < next[q] {
                    next[q] = c + lambda;
                    parent[i][q] = l;
                }
            }
        }
        dp = next;
    }

    // Best final location.
    let (mut loc, best) = dp
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("at least one server");
    let horizon = trace.points[n - 1].time;
    let cost = best + mu * horizon;

    // Walk parents backward to recover the location chain.
    let mut locations = vec![0usize; n + 1];
    locations[n] = loc;
    for i in (0..n).rev() {
        loc = parent[i][loc];
        debug_assert_ne!(loc, usize::MAX, "parent chain broken at {i}");
        locations[i] = loc;
    }
    debug_assert_eq!(locations[0], origin);

    // Emit moves and the explicit schedule.
    let mut moves = Vec::with_capacity(n);
    let mut schedule = Schedule::new();
    let mut seg_start = 0.0_f64;
    for (i, p) in trace.points.iter().enumerate() {
        let before = locations[i];
        let after = locations[i + 1];
        let q = p.server.index();
        let mv = if before == q {
            SingleCopyMove::Local
        } else if after == before {
            SingleCopyMove::RemoteRead
        } else {
            SingleCopyMove::Migrate
        };
        match mv {
            SingleCopyMove::Local => {}
            SingleCopyMove::RemoteRead => {
                // Transient serving copy at q; the resident copy stays.
                schedule.transfer(ServerId(before as u32), p.server, p.time);
            }
            SingleCopyMove::Migrate => {
                // Close the segment at `before`, move to q.
                schedule.cache(ServerId(before as u32), seg_start, p.time);
                schedule.transfer(ServerId(before as u32), p.server, p.time);
                seg_start = p.time;
            }
        }
        moves.push(mv);
    }
    schedule.cache(ServerId(locations[n] as u32), seg_start, horizon);

    SingleCopyOutcome {
        cost,
        moves,
        schedule,
    }
}

/// The always-migrate heuristic: the copy chases every request. Cost is
/// `μ·t_n + λ·#(location changes)` — the upper end of \[8\]'s `1 + C/S`
/// analysis shape. Used as the ablation partner of the DP.
pub fn single_copy_always_migrate(trace: &SingleItemTrace, model: &CostModel) -> f64 {
    let mu = model.mu();
    let lambda = model.lambda();
    if trace.is_empty() {
        return 0.0;
    }
    let mut loc = ServerId::ORIGIN;
    let mut transfers = 0usize;
    for p in &trace.points {
        if p.server != loc {
            transfers += 1;
            loc = p.server;
        }
    }
    mu * trace.points[trace.len() - 1].time + lambda * transfers as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{approx_eq, CostModelBuilder};

    #[test]
    fn empty_trace() {
        let out = single_copy_optimal(
            &SingleItemTrace::from_pairs(3, &[]),
            &CostModel::paper_example(),
        );
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn local_chain_needs_no_transfers() {
        let trace = SingleItemTrace::from_pairs(2, &[(1.0, 0), (2.0, 0)]);
        let out = single_copy_optimal(&trace, &CostModel::paper_example());
        assert!(approx_eq(out.cost, 2.0)); // μ·t_n only
        assert!(out.moves.iter().all(|m| *m == SingleCopyMove::Local));
        out.schedule.validate(&trace).unwrap();
    }

    #[test]
    fn ping_pong_prefers_remote_reads_from_a_parked_copy() {
        // Requests alternate s1/s2; parking at either side costs one λ per
        // opposite request; migrating every time costs one λ per request —
        // identical here, but with a final double-request the DP must park
        // smartly.
        let trace = SingleItemTrace::from_pairs(2, &[(1.0, 1), (2.0, 0), (3.0, 1), (4.0, 1)]);
        let model = CostModel::paper_example();
        let out = single_copy_optimal(&trace, &model);
        // μ·4 + 2λ: e.g. park at s2 (migrate at t=1), remote-read t=2,
        // serve t=3/t=4 locally — or the symmetric plan; both cost 6 and
        // the tail request is always local.
        assert!(approx_eq(out.cost, 4.0 + 2.0), "got {}", out.cost);
        assert_eq!(out.moves[3], SingleCopyMove::Local);
        assert_eq!(
            out.moves
                .iter()
                .filter(|m| **m != SingleCopyMove::Local)
                .count(),
            2
        );
        out.schedule.validate(&trace).unwrap();
    }

    #[test]
    fn schedule_cost_matches_reported() {
        let model = CostModelBuilder::new().mu(2.0).lambda(3.0).build().unwrap();
        let trace =
            SingleItemTrace::from_pairs(4, &[(0.5, 1), (0.8, 2), (1.4, 0), (2.6, 1), (4.0, 2)]);
        let out = single_copy_optimal(&trace, &model);
        out.schedule.validate(&trace).unwrap();
        assert!(approx_eq(
            out.schedule.cost(model.mu(), model.lambda()).total,
            out.cost
        ));
    }
}
