//! Heterogeneous-cost single-item caching — the general problem the paper
//! cites as (believed) NP-complete.
//!
//! With per-server rates `μ_s` and per-link costs `λ_{st}` the covering
//! reduction of [`crate::optimal::optimal`] no longer applies (bridging location
//! matters and transfer sources are no longer interchangeable), so we
//! provide:
//!
//! * [`hetero_exact`] — exact state-space DP over
//!   `(request, copy mask)`, the direct generalisation of
//!   [`crate::statespace`]: exponential in `m`, ground truth for small
//!   instances;
//! * [`hetero_greedy`] — the Fig.-4 greedy generalised: each request takes
//!   the cheaper of a local cache from `r_{p(i)}`
//!   (`μ_{s_i}·(t_i − t_{p(i)})`) or a bridge-and-transfer from `r_{i−1}`
//!   (`μ_{s_{i−1}}·(t_i − t_{i−1}) + λ_{s_{i−1}, s_i}`) — polynomial, no
//!   guarantee (the point of Theorem 1 is that such guarantees exist only
//!   in the homogeneous case);
//! * consistency tests showing both collapse to their homogeneous
//!   counterparts under [`HeteroCostModel::uniform`].

use mcs_model::request::{Predecessor, SingleItemTrace};
use mcs_model::{HeteroCostModel, ModelError, ServerId};

/// Maximum server count for the exact solver.
pub const MAX_SERVERS: u32 = 16;

/// Checks that `model` prices exactly the fleet `trace` runs on.
fn check_servers(trace: &SingleItemTrace, model: &HeteroCostModel) -> Result<(), ModelError> {
    if model.servers() != trace.servers {
        return Err(ModelError::ServerCountMismatch {
            model: model.servers(),
            trace: trace.servers,
        });
    }
    Ok(())
}

/// Exact optimal heterogeneous cost by layered state-space DP.
///
/// # Errors
///
/// [`ModelError::TooManyServers`] when the trace exceeds [`MAX_SERVERS`]
/// (the DP is exponential in `m`), [`ModelError::ServerCountMismatch`]
/// when the model disagrees with the trace on `m` — typed so the CLI can
/// report a usage error instead of aborting.
pub fn hetero_exact(trace: &SingleItemTrace, model: &HeteroCostModel) -> Result<f64, ModelError> {
    let m = trace.servers;
    if m > MAX_SERVERS {
        return Err(ModelError::TooManyServers {
            servers: m,
            max: MAX_SERVERS,
        });
    }
    check_servers(trace, model)?;
    if trace.is_empty() {
        return Ok(0.0);
    }
    let full = 1usize << m;

    // Pre-compute per-mask holding rates Σ_{s∈mask} μ_s.
    let mut mask_rate = vec![0.0f64; full];
    for mask in 1..full {
        let low = mask.trailing_zeros();
        mask_rate[mask] = mask_rate[mask & (mask - 1)] + model.mu(ServerId(low));
    }
    // Cheapest transfer into `to` from any server of `mask`.
    let cheapest_into = |mask: usize, to: ServerId| -> f64 {
        let mut best = f64::INFINITY;
        let mut rem = mask;
        while rem != 0 {
            let s = rem.trailing_zeros();
            rem &= rem - 1;
            best = best.min(model.lambda(ServerId(s), to));
        }
        best
    };

    // Minimum cost to attach every server of `add` to the copy set `base`
    // by a sequence of transfers (new copies may relay): Prim-style
    // repeated cheapest edge, which is optimal since each attached server
    // pays exactly one incoming transfer.
    let prim_attach = |base: usize, add: usize| -> f64 {
        let mut connected = base;
        let mut remaining = add;
        let mut total = 0.0;
        while remaining != 0 {
            let mut best = f64::INFINITY;
            let mut best_bit = 0usize;
            let mut rem = remaining;
            while rem != 0 {
                let t = rem.trailing_zeros();
                rem &= rem - 1;
                let c = cheapest_into(connected, ServerId(t));
                if c < best {
                    best = c;
                    best_bit = 1usize << t;
                }
            }
            total += best;
            connected |= best_bit;
            remaining &= !best_bit;
        }
        total
    };

    let mut dp = vec![f64::INFINITY; full];
    dp[1 << ServerId::ORIGIN.index()] = 0.0;
    let mut prev_time = 0.0_f64;

    for p in &trace.points {
        let dt = p.time - prev_time;
        prev_time = p.time;
        let s_bit = 1usize << p.server.index();

        let mut next = vec![f64::INFINITY; full];
        for (mask, &cost) in dp.iter().enumerate() {
            if !cost.is_finite() {
                continue;
            }
            let mut keep = mask;
            loop {
                if keep != 0 {
                    let hold = cost + mask_rate[keep] * dt;
                    let (new_mask, served) = if keep & s_bit != 0 {
                        (keep, hold)
                    } else {
                        (keep | s_bit, hold + cheapest_into(keep, p.server))
                    };
                    // Unlike the homogeneous case, PRE-POSITIONING can pay
                    // off (parking the copy at a cheap-μ server), so allow
                    // any additional replication at this instant.
                    let absent = (full - 1) & !new_mask;
                    let mut extra = 0usize;
                    loop {
                        let final_mask = new_mask | extra;
                        let c = served + prim_attach(new_mask, extra);
                        if c < next[final_mask] {
                            next[final_mask] = c;
                        }
                        if extra == absent {
                            break;
                        }
                        // Next subset of `absent` in increasing order.
                        extra = extra.wrapping_sub(absent) & absent;
                    }
                }
                if keep == 0 {
                    break;
                }
                keep = (keep - 1) & mask;
            }
        }
        dp = next;
    }
    Ok(dp.iter().copied().fold(f64::INFINITY, f64::min))
}

/// Cost split of one [`hetero_greedy_report`] run, for ledger
/// attribution: `cost` is the legacy per-request `min(arm)` sum, while
/// `cache_cost`/`transfer_cost` re-bucket the same arms by channel —
/// the caching portion of a chosen transfer arm (`μ_prev·Δt` bridging)
/// lands in `cache_cost` and only the link hop `λ` in `transfer_cost`.
/// The channel sums can differ from `cost` by float associativity only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeteroGreedyReport {
    /// Total cost, accumulated per request exactly as [`hetero_greedy`].
    pub cost: f64,
    /// Caching residence cost (both arms' `μ·Δt` portions).
    pub cache_cost: f64,
    /// Cross-server transfer cost (the `λ` hops of the transfer arms).
    pub transfer_cost: f64,
}

/// The heterogeneous simple greedy (Fig. 4 generalised).
///
/// # Errors
///
/// [`ModelError::ServerCountMismatch`] when the model disagrees with the
/// trace on `m`.
pub fn hetero_greedy(trace: &SingleItemTrace, model: &HeteroCostModel) -> Result<f64, ModelError> {
    hetero_greedy_report(trace, model).map(|r| r.cost)
}

/// [`hetero_greedy`] with the per-channel cost split (see
/// [`HeteroGreedyReport`]).
///
/// # Errors
///
/// [`ModelError::ServerCountMismatch`] when the model disagrees with the
/// trace on `m`.
pub fn hetero_greedy_report(
    trace: &SingleItemTrace,
    model: &HeteroCostModel,
) -> Result<HeteroGreedyReport, ModelError> {
    check_servers(trace, model)?;
    let preds = trace.predecessors();
    let mut cost = 0.0;
    let mut cache_cost = 0.0;
    let mut transfer_cost = 0.0;
    for (i, p) in trace.points.iter().enumerate() {
        let cache_arm = match preds[i] {
            Predecessor::Request(j) => model.mu(p.server) * (p.time - trace.points[j].time),
            Predecessor::Origin => model.mu(p.server) * p.time,
            Predecessor::None => f64::INFINITY,
        };
        let (prev_time, prev_server) = if i == 0 {
            (0.0, ServerId::ORIGIN)
        } else {
            (trace.points[i - 1].time, trace.points[i - 1].server)
        };
        let bridge = model.mu(prev_server) * (p.time - prev_time);
        let hop = model.lambda(prev_server, p.server);
        let transfer_arm = bridge + hop;
        // Ties go to the cache arm, matching `a.min(b)`'s left bias in
        // the pre-split accumulation.
        if cache_arm <= transfer_arm {
            cost += cache_arm;
            cache_cost += cache_arm;
        } else {
            cost += transfer_arm;
            cache_cost += bridge;
            transfer_cost += hop;
        }
    }
    Ok(HeteroGreedyReport {
        cost,
        cache_cost,
        transfer_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{greedy::greedy, statespace::statespace_optimal};
    use mcs_model::{approx_eq, CostModel};

    fn uniform(m: u32, mu: f64, la: f64) -> HeteroCostModel {
        HeteroCostModel::uniform(m, mu, la, 0.8).unwrap()
    }

    #[test]
    fn uniform_exact_matches_homogeneous_statespace() {
        let trace = SingleItemTrace::from_pairs(3, &[(0.5, 1), (0.9, 2), (1.3, 0), (2.0, 1)]);
        let homo = CostModel::new(1.2, 2.3, 0.8).unwrap();
        let het = uniform(3, 1.2, 2.3);
        assert!(approx_eq(
            hetero_exact(&trace, &het).unwrap(),
            statespace_optimal(&trace, &homo)
        ));
    }

    #[test]
    fn uniform_greedy_matches_homogeneous_greedy() {
        let trace = SingleItemTrace::from_pairs(3, &[(0.5, 1), (0.9, 2), (1.3, 0), (2.0, 1)]);
        let homo = CostModel::new(1.2, 2.3, 0.8).unwrap();
        let het = uniform(3, 1.2, 2.3);
        assert!(approx_eq(
            hetero_greedy(&trace, &het).unwrap(),
            greedy(&trace, &homo).cost
        ));
    }

    #[test]
    fn cheap_server_attracts_the_backbone() {
        // Server s3 caches for nearly nothing; the exact solver should
        // park a copy there as backbone rather than pay s1's high rate.
        let model = HeteroCostModel::new(
            vec![10.0, 10.0, 0.01],
            vec![
                0.0, 1.0, 1.0, //
                1.0, 0.0, 1.0, //
                1.0, 1.0, 0.0,
            ],
            0.8,
        )
        .unwrap();
        // Requests far apart, alternating s1/s2.
        let trace = SingleItemTrace::from_pairs(3, &[(5.0, 0), (10.0, 1), (15.0, 0)]);
        let exact = hetero_exact(&trace, &model).unwrap();
        // Backbone at s3 after an initial transfer: hold 15·0.01 = 0.15,
        // initial λ=1 at... the copy starts at s1 (expensive): transfer to
        // s3 at t=5 when serving r1 (s1 holds [0,5] at 10/unit — ouch;
        // cheaper: move to s3 immediately? transfers happen at request
        // times only, so s1 pays [0,5]·10 = 50 regardless); then 3 service
        // transfers ≈ 3, s3 holds [5,15]·0.01.
        // Upper bound on the smart plan:
        let smart = 50.0 + 1.0 + 0.1 + 1.0 + 1.0 + 1.0;
        assert!(exact <= smart + 1e-9, "exact {exact} vs smart {smart}");
        // And the greedy (which never parks at s3) pays strictly more.
        let g = hetero_greedy(&trace, &model).unwrap();
        assert!(
            g > exact + 1.0,
            "greedy {g} should be clearly worse than exact {exact}"
        );
    }

    #[test]
    fn empty_trace_is_free() {
        let trace = SingleItemTrace::from_pairs(2, &[]);
        assert_eq!(hetero_exact(&trace, &uniform(2, 1.0, 1.0)).unwrap(), 0.0);
        assert_eq!(hetero_greedy(&trace, &uniform(2, 1.0, 1.0)).unwrap(), 0.0);
    }

    #[test]
    fn oversized_and_mismatched_instances_are_typed_errors() {
        use mcs_model::ModelError;
        // m > MAX_SERVERS: typed, not a panic. The engine's hetero_exact
        // declares the limit, so `dpg run` refuses such a trace up front.
        let wide = SingleItemTrace::from_pairs(MAX_SERVERS + 1, &[(1.0, 0)]);
        let model = uniform(MAX_SERVERS + 1, 1.0, 1.0);
        assert!(matches!(
            hetero_exact(&wide, &model),
            Err(ModelError::TooManyServers { servers, max })
                if servers == MAX_SERVERS + 1 && max == MAX_SERVERS
        ));
        // Model/trace disagreement, both solvers.
        let trace = SingleItemTrace::from_pairs(3, &[(1.0, 0)]);
        let small = uniform(2, 1.0, 1.0);
        assert!(matches!(
            hetero_exact(&trace, &small),
            Err(ModelError::ServerCountMismatch { model: 2, trace: 3 })
        ));
        assert!(matches!(
            hetero_greedy(&trace, &small),
            Err(ModelError::ServerCountMismatch { model: 2, trace: 3 })
        ));
    }

    #[test]
    fn greedy_report_channels_recompose_the_total() {
        let model = HeteroCostModel::new(
            vec![2.0, 0.5, 4.0],
            vec![
                0.0, 1.0, 2.0, //
                1.0, 0.0, 3.0, //
                2.0, 3.0, 0.0,
            ],
            0.8,
        )
        .unwrap();
        let trace =
            SingleItemTrace::from_pairs(3, &[(0.5, 1), (0.9, 2), (1.3, 0), (2.0, 1), (2.2, 2)]);
        let r = hetero_greedy_report(&trace, &model).unwrap();
        assert!((r.cache_cost + r.transfer_cost - r.cost).abs() < 1e-12);
        assert_eq!(r.cost, hetero_greedy(&trace, &model).unwrap());
        // This workload forces at least one transfer arm.
        assert!(r.transfer_cost > 0.0);
    }
}
