//! On-line DP_Greedy: correlation-aware on-line caching.
//!
//! The paper's algorithm is off-line (the request trajectory is known).
//! Its companion literature (\[6\]: "online vs. off-line") asks for the
//! on-line counterpart; this module provides one by combining the two
//! phases on-line:
//!
//! * **Phase 1, incremental**: co-occurrence counts and Jaccard
//!   similarities are maintained as requests arrive; every
//!   `refresh_every` requests the greedy threshold matching is re-run, so
//!   the packing tracks the *observed* correlation (no oracle).
//! * **Phase 2, on-line**: every item is served by the ski-rental rule of
//!   [`crate::ski_rental::ski_rental`] (per-item rented copies plus a moving
//!   backbone); when a request misses several items at once and the
//!   current packing pairs them, the delivery is batched as a package at
//!   `2αλ` instead of two `λ` transfers — and a missing *single* item of
//!   a packed pair may still arrive by package (`2αλ < λ` when
//!   `α < 1/2`), dropping a bonus copy of its partner (Observation 2,
//!   on-line).
//!
//! With `α = 1` every package option ties with individual transfers and
//! the algorithm degenerates to independent per-item ski-rental — the
//! tests assert exact equality.

use std::collections::HashMap;

use mcs_correlation::matching::greedy_matching_from_pairs;
use mcs_correlation::StreamingCooccurrence;
use mcs_model::{CostModel, ItemId, RequestSeq, ServerId, TimePoint};

/// Configuration of the on-line DP_Greedy run.
#[derive(Debug, Clone, Copy)]
pub struct OnlineDpgConfig {
    /// The homogeneous cost model.
    pub model: CostModel,
    /// Packing threshold θ.
    pub theta: f64,
    /// Re-run Phase 1 every this many requests (0 disables packing).
    pub refresh_every: usize,
    /// Per-request decay of the streaming co-occurrence statistics
    /// (`1.0` = undecayed batch counts; `< 1` tracks drift).
    pub decay: f64,
}

impl OnlineDpgConfig {
    /// Defaults: `θ = 0.3`, refresh every 50 requests, no decay.
    pub fn new(model: CostModel) -> Self {
        OnlineDpgConfig {
            model,
            theta: 0.3,
            refresh_every: 50,
            decay: 1.0,
        }
    }

    /// Sets the streaming decay.
    pub fn with_decay(mut self, decay: f64) -> Self {
        self.decay = decay;
        self
    }
}

/// Outcome of an on-line DP_Greedy run.
#[derive(Debug, Clone, Copy)]
pub struct OnlineDpgOutcome {
    /// Total cost paid.
    pub cost: f64,
    /// Individual `λ` transfers.
    pub transfers: usize,
    /// Package `2αλ` transfers.
    pub package_transfers: usize,
    /// Locally served item accesses.
    pub hits: usize,
    /// Number of Phase 1 refreshes that changed the packing.
    pub repackings: usize,
}

#[derive(Debug, Clone, Copy)]
struct CopyState {
    since: TimePoint,
    deadline: TimePoint,
}

/// Per-item ski-rental state.
#[derive(Debug, Default)]
struct ItemState {
    copies: HashMap<ServerId, CopyState>,
    backbone: ServerId,
}

/// Runs on-line DP_Greedy over a request sequence.
pub fn online_dp_greedy(seq: &RequestSeq, config: &OnlineDpgConfig) -> OnlineDpgOutcome {
    let model = &config.model;
    let mu = model.mu();
    let lambda = model.lambda();
    let keep = lambda / mu;
    let pkg_cost = model.package_delivery_cost(); // 2αλ
    let k = seq.items() as usize;
    // Per-item finite-horizon clamp: an item's epochs settle at its own
    // last access (matching the per-item convention of `ski_rental`).
    let mut item_horizon = vec![0.0_f64; k];
    for r in seq.requests() {
        for &d in &r.items {
            item_horizon[d.index()] = r.time;
        }
    }

    let mut items: Vec<ItemState> = (0..k)
        .map(|_| {
            let mut st = ItemState {
                copies: HashMap::new(),
                backbone: ServerId::ORIGIN,
            };
            st.copies.insert(
                ServerId::ORIGIN,
                CopyState {
                    since: 0.0,
                    deadline: f64::INFINITY,
                },
            );
            st
        })
        .collect();

    // Incremental Phase 1 state: streaming (optionally decayed)
    // co-occurrence counts, O(|D_i|²) per request.
    let mut stream = StreamingCooccurrence::new(config.decay);
    let mut partner: Vec<Option<ItemId>> = vec![None; k];
    let mut repackings = 0usize;

    let mut cost = 0.0;
    let mut transfers = 0usize;
    let mut package_transfers = 0usize;
    let mut hits = 0usize;

    let settle = |st: &mut ItemState, t: TimePoint, horizon: f64, cost: &mut f64| {
        // Sorted so the float summation order never depends on the hash
        // map's per-thread seed.
        let mut expired: Vec<ServerId> = st
            .copies
            .iter()
            .filter(|(_, c)| c.deadline < t)
            .map(|(&s, _)| s)
            .collect();
        expired.sort_unstable();
        for s in expired {
            let c = st.copies.remove(&s).expect("present");
            let end = c.deadline.min(horizon).max(c.since);
            *cost += mu * (end - c.since);
        }
    };

    for (seen, r) in seq.requests().iter().enumerate() {
        let t = r.time;
        // Settle expirations for the touched items only (others can't
        // change until they are touched; their expiry cost is time-stamped
        // by `since`/`deadline`, not by when we settle it).
        for &d in &r.items {
            settle(&mut items[d.index()], t, item_horizon[d.index()], &mut cost);
        }

        // Partition into present/missing.
        let mut missing: Vec<ItemId> = Vec::new();
        for &d in &r.items {
            if items[d.index()].copies.contains_key(&r.server) {
                hits += 1;
            } else {
                missing.push(d);
            }
        }

        // Batch missing packed pairs.
        let mut handled = vec![false; missing.len()];
        for i in 0..missing.len() {
            if handled[i] {
                continue;
            }
            let a = missing[i];
            let mate = partner[a.index()];
            let mate_idx = mate.and_then(|b| {
                missing
                    .iter()
                    .position(|&x| x == b)
                    .filter(|&jb| !handled[jb])
            });
            if let (Some(_), Some(b)) = (mate_idx, mate) {
                // Both items of a packed pair are missing: package (2αλ)
                // vs two singles (2λ). Prefer singles on ties (α = 1
                // degenerates to per-item ski-rental).
                if pkg_cost < 2.0 * lambda {
                    cost += pkg_cost;
                    package_transfers += 1;
                } else {
                    cost += 2.0 * lambda;
                    transfers += 2;
                }
                for d in [a, b] {
                    deliver(&mut items[d.index()], r.server, t, keep);
                    handled[missing.iter().position(|&x| x == d).unwrap()] = true;
                }
            } else {
                // Single missing item: λ, or a package from its (present
                // elsewhere) partner pairing at 2αλ when strictly cheaper.
                if partner[a.index()].is_some() && pkg_cost < lambda {
                    cost += pkg_cost;
                    package_transfers += 1;
                    // The package also drops a bonus copy of the partner.
                    let b = partner[a.index()].expect("checked");
                    settle(&mut items[b.index()], t, item_horizon[b.index()], &mut cost);
                    deliver(&mut items[b.index()], r.server, t, keep);
                } else {
                    cost += lambda;
                    transfers += 1;
                }
                deliver(&mut items[a.index()], r.server, t, keep);
                handled[i] = true;
            }
        }

        // Backbone motion + rent renewal for every requested item.
        for &d in &r.items {
            let st = &mut items[d.index()];
            if st.backbone != r.server {
                let old = st.backbone;
                if let Some(c) = st.copies.get_mut(&old) {
                    if c.deadline.is_infinite() {
                        c.deadline = t + keep;
                    }
                }
                st.backbone = r.server;
            }
            st.copies
                .get_mut(&r.server)
                .expect("delivered or present")
                .deadline = f64::INFINITY;
        }

        // Phase 1: feed the stream, refresh the packing periodically.
        stream.observe(r);
        if config.refresh_every > 0 && (seen + 1) % config.refresh_every == 0 {
            let packing = greedy_matching_from_pairs(
                stream.pairs_above(config.theta),
                seq.items(),
                config.theta,
            );
            let mut new_partner: Vec<Option<ItemId>> = vec![None; k];
            for &(a, b) in &packing.pairs {
                new_partner[a.index()] = Some(b);
                new_partner[b.index()] = Some(a);
            }
            if new_partner != partner {
                repackings += 1;
                partner = new_partner;
            }
        }
    }

    // Horizon clamp: settle every open epoch at its item's own horizon,
    // in server order (seed-independent float summation).
    for (i, st) in items.iter_mut().enumerate() {
        let mut open: Vec<_> = st.copies.drain().collect();
        open.sort_unstable_by_key(|&(s, _)| s);
        for (_, c) in open {
            let end = c.deadline.min(item_horizon[i]).max(c.since);
            cost += mu * (end - c.since);
        }
    }

    OnlineDpgOutcome {
        cost,
        transfers,
        package_transfers,
        hits,
        repackings,
    }
}

/// Drops a copy at `server` with a ski-rental deadline. Copies serving the
/// current request are promoted to backbone (deadline ∞) afterwards; bonus
/// package side-copies keep the rent.
fn deliver(st: &mut ItemState, server: ServerId, t: TimePoint, keep: f64) {
    st.copies.entry(server).or_insert(CopyState {
        since: t,
        deadline: t + keep,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ski_rental::ski_rental;
    use mcs_model::{approx_eq, RequestSeqBuilder};

    /// Strongly pair-correlated sequence over 3 servers.
    fn correlated_seq() -> RequestSeq {
        let mut b = RequestSeqBuilder::new(3, 2);
        let mut t = 0.0;
        for i in 0..30 {
            t += 0.7;
            let srv = (i % 3) as u32;
            if i % 5 == 4 {
                b = b.push(srv, t, [(i % 2) as u32]);
            } else {
                b = b.push(srv, t, [0, 1]);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn alpha_one_degenerates_to_per_item_ski_rental() {
        let seq = correlated_seq();
        let model = CostModel::new(1.0, 2.0, 1.0).unwrap();
        let online = online_dp_greedy(&seq, &OnlineDpgConfig::new(model));
        let per_item: f64 = (0..seq.items())
            .map(|i| ski_rental(&seq.item_trace(ItemId(i)), &model).cost)
            .sum();
        assert!(
            approx_eq(online.cost, per_item),
            "online {} vs per-item ski-rental {}",
            online.cost,
            per_item
        );
        assert_eq!(online.package_transfers, 0);
    }

    #[test]
    fn low_alpha_batches_packages_and_saves() {
        let seq = correlated_seq();
        let model = CostModel::new(1.0, 2.0, 0.3).unwrap();
        let cfg = OnlineDpgConfig {
            model,
            theta: 0.3,
            refresh_every: 5,
            decay: 1.0,
        };
        let online = online_dp_greedy(&seq, &cfg);
        assert!(
            online.package_transfers > 0,
            "expected package batching, got none"
        );
        // Against correlation-blind per-item ski-rental at the same α:
        let per_item: f64 = (0..seq.items())
            .map(|i| ski_rental(&seq.item_trace(ItemId(i)), &model).cost)
            .sum();
        assert!(
            online.cost < per_item,
            "online DPG {} should beat blind ski-rental {}",
            online.cost,
            per_item
        );
    }

    #[test]
    fn disabled_refresh_never_packs() {
        let seq = correlated_seq();
        let model = CostModel::new(1.0, 2.0, 0.3).unwrap();
        let cfg = OnlineDpgConfig {
            model,
            theta: 0.3,
            refresh_every: 0,
            decay: 1.0,
        };
        let online = online_dp_greedy(&seq, &cfg);
        assert_eq!(online.package_transfers, 0);
        assert_eq!(online.repackings, 0);
    }

    #[test]
    fn cost_respects_the_lemma_1_style_lower_bound() {
        // Online packed cost ≥ α · Σ per-item off-line optimum: every item
        // access is served at ≥ α times its individual marginal cost.
        let seq = correlated_seq();
        for alpha in [0.3, 0.6, 1.0] {
            let model = CostModel::new(1.0, 2.0, alpha).unwrap();
            let cfg = OnlineDpgConfig {
                model,
                theta: 0.3,
                refresh_every: 5,
                decay: 1.0,
            };
            let online = online_dp_greedy(&seq, &cfg);
            let opt_sum: f64 = (0..seq.items())
                .map(|i| mcs_offline::optimal(&seq.item_trace(ItemId(i)), &model).cost)
                .sum();
            assert!(
                online.cost >= alpha * opt_sum - 1e-9,
                "α={alpha}: online {} < α·Σopt {}",
                online.cost,
                alpha * opt_sum
            );
        }
    }

    #[test]
    fn decay_repacks_after_partner_drift() {
        // Item 0 pairs with 1 early, with 2 late. Undecayed statistics keep
        // the stale pairing far longer than decayed ones.
        // Six servers in rotation: same-server gaps (3.0) exceed the rent
        // window (λ/μ = 2.0), so copies expire and every request misses —
        // the regime where delivery batching actually matters.
        let mut b = RequestSeqBuilder::new(6, 3);
        let mut t = 0.0;
        for i in 0..120 {
            t += 0.5;
            let srv = (i % 6) as u32;
            b = b.push(srv, t, if i < 60 { [0u32, 1] } else { [0u32, 2] });
        }
        let seq = b.build().unwrap();
        let model = CostModel::new(1.0, 2.0, 0.3).unwrap();
        let base = OnlineDpgConfig {
            model,
            theta: 0.3,
            refresh_every: 10,
            decay: 1.0,
        };
        let undecayed = online_dp_greedy(&seq, &base);
        let decayed = online_dp_greedy(&seq, &base.with_decay(0.9));
        // The decayed run must flip its packing (≥ 2 repackings: initial +
        // the drift flip) and save cost by batching the (0,2) phase.
        assert!(decayed.repackings >= 2, "repackings {}", decayed.repackings);
        assert!(
            decayed.cost < undecayed.cost,
            "decayed {} should beat undecayed {}",
            decayed.cost,
            undecayed.cost
        );
    }

    #[test]
    fn empty_sequence_is_free() {
        let seq = RequestSeqBuilder::new(2, 2).build().unwrap();
        let model = CostModel::paper_example();
        let out = online_dp_greedy(&seq, &OnlineDpgConfig::new(model));
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.hits, 0);
    }
}
