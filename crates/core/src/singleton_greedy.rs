//! The three-arm greedy of Observation 2 — Phase 2's treatment of requests
//! that access only part of a package.
//!
//! For a request `r_i` holding item `d` of a package of `g` items but not
//! the whole package, three serving options compete (Algorithm 1, line 42,
//! for `g = 2`):
//!
//! * **Cache** from `r_{p(i)}` — the most recent request containing `d` at
//!   the same server (or the origin placement for `s_1`): `μ·(t_i − t_{p(i)})`.
//! * **Transfer** from `r_{i−1}` — the most recent request containing `d`
//!   anywhere (package requests count; unpacking is free):
//!   `λ + μ·(t_i − t_{i−1})`.
//! * **Package delivery** — ship the whole package from its (always
//!   available, per Observation 1) live copy: a constant `αgλ`, `2αλ` for
//!   a pair.
//!
//! Both trackers advance at every request holding `d`, whatever was
//! decided there, so one walk per item gives every arm; a larger
//! package's shared deliveries (`two_phase::dp_greedy_package`) only
//! replace choices of that walk. The same-server tracker is Section V-A's
//! rolling `pLast[m]` ([`crate::prescan`]): a slice indexed by server, so
//! each access reads and writes one slot.
//!
//! The paper treats the package as available at *any* time instance. Our
//! optimal package schedule only keeps a copy alive until the last
//! co-request, so a `strict` mode is provided that disables the package arm
//! beyond that horizon; the default is faithful to the paper. See
//! `EXPERIMENTS.md` (E1 notes).

use mcs_model::{CostModel, ServerId, TimePoint};

/// One event in the merged per-item view of a package member: every
/// request containing the item, flagged by whether it holds the whole
/// package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairItemEvent {
    /// Request time.
    pub time: TimePoint,
    /// Requesting server.
    pub server: ServerId,
    /// True if this is a co-request (every package member) — served by
    /// the package DP, but still advancing `r_{p(i)}` / `r_{i−1}` trackers.
    pub is_co: bool,
}

/// Which arm served a singleton request; `arm as usize` is its slot in
/// `option_costs` and `arm_counts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Local cache from `r_{p(i)}`.
    Cache,
    /// Transfer from `r_{i−1}` with bridging.
    Transfer,
    /// Package delivery at `αgλ`.
    Package,
}

/// The serving record of one singleton request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmChoice {
    /// Index into the event list (for a shared delivery, the request's
    /// index in the sequence).
    pub event_index: usize,
    /// Request time of the served event.
    pub time: TimePoint,
    /// Winning arm.
    pub arm: Arm,
    /// Cost paid.
    pub cost: f64,
    /// Cost of each arm at decision time, `[Cache, Transfer, Package]`;
    /// `f64::INFINITY` marks an infeasible arm. Feeds the decision
    /// ledger's `option_costs`.
    pub option_costs: [f64; 3],
}

/// Outcome of the singleton greedy over one item of a package.
#[derive(Debug, Clone, PartialEq)]
pub struct SingletonGreedyOutcome {
    /// Total cost over the singleton requests (co-requests cost nothing
    /// here; they are billed by the package DP).
    pub cost: f64,
    /// Per-singleton choices in time order.
    pub choices: Vec<ArmChoice>,
    /// Counts of `[Cache, Transfer, Package]` wins.
    pub arm_counts: [usize; 3],
}

impl SingletonGreedyOutcome {
    /// The outcome of `choices`: their costs summed in order, and their
    /// arms counted.
    pub fn from_choices(choices: Vec<ArmChoice>) -> Self {
        let mut cost = 0.0;
        let mut arm_counts = [0usize; 3];
        for c in &choices {
            cost += c.cost;
            arm_counts[c.arm as usize] += 1;
        }
        SingletonGreedyOutcome {
            cost,
            choices,
            arm_counts,
        }
    }
}

/// Runs the three-arm greedy over the merged event list of one package
/// member, whose events are all at servers below `servers` (the `m` of a
/// `RequestSeq`), with the package delivered at `delivery` (`αgλ` for a
/// package of `g` items; `model.package_delivery_cost()`, `2αλ`, for a
/// pair). The package arm wins only when strictly cheaper than both
/// others.
///
/// `package_horizon`: `None` reproduces the paper exactly (the package arm
/// is always available); `Some(t)` restricts package deliveries to
/// `time ≤ t` — the strict mode where the package copy provably exists.
pub fn singleton_greedy(
    events: &[PairItemEvent],
    servers: u32,
    model: &CostModel,
    delivery: f64,
    package_horizon: Option<TimePoint>,
) -> SingletonGreedyOutcome {
    let mu = model.mu();
    let lambda = model.lambda();

    // Item copy history, `pLast[m]`: the last copy time per server, `None`
    // where the item never was. The origin placement seeds both trackers.
    let mut last_at: Vec<Option<TimePoint>> = vec![None; servers as usize];
    if let Some(origin) = last_at.get_mut(ServerId::ORIGIN.index()) {
        *origin = Some(0.0);
    }
    let mut last_any: TimePoint = 0.0;

    let mut choices = Vec::new();

    for (i, ev) in events.iter().enumerate() {
        let last = &mut last_at[ev.server.index()];
        if !ev.is_co {
            let d_arm = last.map_or(f64::INFINITY, |tp| mu * (ev.time - tp));
            let tr_arm = lambda + mu * (ev.time - last_any);
            let p_arm = match package_horizon {
                Some(h) if ev.time > h => f64::INFINITY,
                _ => delivery,
            };

            // Tie order D, Tr, P: prefer the arms in the order the paper
            // lists them.
            let (arm, paid) = if d_arm <= tr_arm && d_arm <= p_arm {
                (Arm::Cache, d_arm)
            } else if tr_arm <= p_arm {
                (Arm::Transfer, tr_arm)
            } else {
                (Arm::Package, p_arm)
            };
            debug_assert!(paid.is_finite(), "no feasible arm for event {i}");
            choices.push(ArmChoice {
                event_index: i,
                time: ev.time,
                arm,
                cost: paid,
                option_costs: [d_arm, tr_arm, p_arm],
            });
        }
        // Every request containing the item (single or co) leaves a copy at
        // its server and becomes the new r_{i−1}.
        *last = Some(ev.time);
        last_any = ev.time;
    }
    SingletonGreedyOutcome::from_choices(choices)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::two_phase::PackageAvailability;
    use mcs_model::approx_eq;
    use mcs_model::rng::Rng;

    /// The greedy of one pair item over the four servers of the paper's
    /// example, delivering the package at `2αλ`.
    fn pair_greedy(
        events: &[PairItemEvent],
        model: &CostModel,
        horizon: Option<TimePoint>,
    ) -> SingletonGreedyOutcome {
        singleton_greedy(events, 4, model, model.package_delivery_cost(), horizon)
    }

    /// The three-arm greedy with its same-server tracker in a map keyed
    /// by server, the oracle of the `pLast[m]` slice.
    fn map_reference(
        events: &[PairItemEvent],
        model: &CostModel,
        delivery: f64,
        package_horizon: Option<TimePoint>,
    ) -> SingletonGreedyOutcome {
        let mu = model.mu();
        let lambda = model.lambda();
        let mut last_at: HashMap<ServerId, TimePoint> = HashMap::new();
        last_at.insert(ServerId::ORIGIN, 0.0);
        let mut last_any: TimePoint = 0.0;
        let mut choices = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            if !ev.is_co {
                let d_arm = last_at
                    .get(&ev.server)
                    .map_or(f64::INFINITY, |&tp| mu * (ev.time - tp));
                let tr_arm = lambda + mu * (ev.time - last_any);
                let p_arm = match package_horizon {
                    Some(h) if ev.time > h => f64::INFINITY,
                    _ => delivery,
                };
                let (arm, paid) = if d_arm <= tr_arm && d_arm <= p_arm {
                    (Arm::Cache, d_arm)
                } else if tr_arm <= p_arm {
                    (Arm::Transfer, tr_arm)
                } else {
                    (Arm::Package, p_arm)
                };
                choices.push(ArmChoice {
                    event_index: i,
                    time: ev.time,
                    arm,
                    cost: paid,
                    option_costs: [d_arm, tr_arm, p_arm],
                });
            }
            last_at.insert(ev.server, ev.time);
            last_any = ev.time;
        }
        SingletonGreedyOutcome::from_choices(choices)
    }

    /// A choice's event index, time bits, arm, cost bits and option bits.
    type ChoiceBits = (usize, u64, Arm, u64, [u64; 3]);

    /// Every float of an outcome as bits, with its arms and indices.
    fn bits(out: &SingletonGreedyOutcome) -> (u64, Vec<ChoiceBits>) {
        let choices = out.choices.iter().map(|c| {
            let options = c.option_costs.map(f64::to_bits);
            (
                c.event_index,
                c.time.to_bits(),
                c.arm,
                c.cost.to_bits(),
                options,
            )
        });
        (out.cost.to_bits(), choices.collect())
    }

    /// Seeded random member walks over 1 to 40 servers, visiting only a
    /// few of them (so most are never visited) and the origin now and
    /// then, under random rates, package sizes and all three availability
    /// modes: the slice tracker makes the map tracker's choices and costs
    /// bit for bit.
    #[test]
    fn the_plast_slice_equals_the_map_tracker() {
        let modes = [
            PackageAvailability::Always,
            PackageAvailability::UntilLastCoRequest,
            PackageAvailability::Never,
        ];
        let mut origin_cache_wins = 0;
        let mut never_visited = 0;
        for case in 0..400u64 {
            let mut rng = Rng::seed_from_u64(0x9A57 + case);
            let servers = rng.gen_range(1..=40u32);
            let visited: Vec<u32> = (0..rng.gen_range(1..=4usize))
                .map(|_| rng.gen_range(0..servers))
                .collect();
            let co_share = rng.gen_f64();
            let mut time = 0.0;
            let events: Vec<PairItemEvent> = (0..rng.gen_range(0..60usize))
                .map(|_| {
                    time += 0.01 + 3.0 * rng.gen_f64();
                    let server = if rng.gen_bool(0.2) {
                        ServerId::ORIGIN
                    } else {
                        ServerId(visited[rng.gen_range(0..visited.len())])
                    };
                    PairItemEvent {
                        time,
                        server,
                        is_co: rng.gen_bool(co_share),
                    }
                })
                .collect();
            let mu = 0.1 + 4.0 * rng.gen_f64();
            let lambda = 0.1 + 8.0 * rng.gen_f64();
            let alpha = 0.05 + 0.95 * rng.gen_f64();
            let model = CostModel::new(mu, lambda, alpha).unwrap();
            let delivery = model.transfer_cost_package(rng.gen_range(2..=5u32));
            let last_co = events.iter().rev().find(|e| e.is_co).map(|e| e.time);
            for mode in modes {
                let horizon = mode.horizon(last_co);
                let want = map_reference(&events, &model, delivery, horizon);
                let got = singleton_greedy(&events, servers, &model, delivery, horizon);
                assert_eq!(bits(&got), bits(&want), "case {case}, {mode:?}");
                assert_eq!(got.arm_counts, want.arm_counts, "case {case}, {mode:?}");
                for c in &got.choices {
                    let server = events[c.event_index].server;
                    origin_cache_wins +=
                        usize::from(server == ServerId::ORIGIN && c.arm == Arm::Cache);
                    never_visited += usize::from(c.option_costs[0] == f64::INFINITY);
                }
            }
        }
        // The walks reach both ends of the tracker: the origin's seeded
        // slot and servers the item never was at.
        assert!(origin_cache_wins > 0 && never_visited > 0);
    }

    fn ev(time: f64, server: u32, is_co: bool) -> PairItemEvent {
        PairItemEvent {
            time,
            server: ServerId(server),
            is_co,
        }
    }

    /// Section V-C step 5: item d1 events — singles at (0.5, s2), (2.6, s2);
    /// co-requests at (0.8, s3), (1.4, s1), (4.0, s3). Expected cost 3.1.
    #[test]
    fn paper_example_d1_greedy_costs_3_1() {
        let events = [
            ev(0.5, 1, false),
            ev(0.8, 2, true),
            ev(1.4, 0, true),
            ev(2.6, 1, false),
            ev(4.0, 2, true),
        ];
        let out = pair_greedy(&events, &CostModel::paper_example(), None);
        assert!(approx_eq(out.cost, 3.1), "got {}", out.cost);
        // 0.5: Tr = 0.5 + 1 = 1.5 beats P = 1.6 (D infeasible).
        assert_eq!(out.choices[0].arm, Arm::Transfer);
        assert!(approx_eq(out.choices[0].cost, 1.5));
        // 2.6: P = 1.6 beats D = 2.1 and Tr = 1.2 + 1 = 2.2.
        assert_eq!(out.choices[1].arm, Arm::Package);
        assert!(approx_eq(out.choices[1].cost, 1.6));
        assert_eq!(out.arm_counts, [0, 1, 1]);
    }

    /// Section V-C step 6: item d2 — singles at (1.1, s4), (3.2, s2);
    /// same co-requests. Expected cost 2.9.
    #[test]
    fn paper_example_d2_greedy_costs_2_9() {
        let events = [
            ev(0.8, 2, true),
            ev(1.1, 3, false),
            ev(1.4, 0, true),
            ev(3.2, 1, false),
            ev(4.0, 2, true),
        ];
        let out = pair_greedy(&events, &CostModel::paper_example(), None);
        assert!(approx_eq(out.cost, 2.9), "got {}", out.cost);
        // 1.1: Tr from the 0.8 package = 0.3 + 1 = 1.3 beats P = 1.6.
        assert_eq!(out.choices[0].arm, Arm::Transfer);
        assert!(approx_eq(out.choices[0].cost, 1.3));
        // 3.2: Tr from 1.4 package = 1.8 + 1 = 2.8; P = 1.6 wins.
        assert_eq!(out.choices[1].arm, Arm::Package);
        assert!(approx_eq(out.choices[1].cost, 1.6));
    }

    #[test]
    fn cache_arm_wins_on_tight_local_chains() {
        let events = [ev(1.0, 1, false), ev(1.1, 1, false)];
        let out = pair_greedy(&events, &CostModel::paper_example(), None);
        assert_eq!(out.choices[1].arm, Arm::Cache);
        assert!(approx_eq(out.choices[1].cost, 0.1));
    }

    #[test]
    fn origin_seed_enables_cache_arm_at_s1() {
        let events = [ev(0.5, 0, false)];
        let out = pair_greedy(&events, &CostModel::paper_example(), None);
        assert_eq!(out.choices[0].arm, Arm::Cache);
        assert!(approx_eq(out.cost, 0.5));
    }

    #[test]
    fn strict_horizon_disables_late_package_arm() {
        // A lone singleton long after the last co-request: with the faithful
        // mode the package arm (1.6) wins; in strict mode it is unavailable
        // and the transfer arm (10 − 4 + 1 = 7... from the co at 4.0) wins.
        let events = [ev(4.0, 2, true), ev(10.0, 3, false)];
        let faithful = pair_greedy(&events, &CostModel::paper_example(), None);
        assert_eq!(faithful.choices[0].arm, Arm::Package);
        let strict = pair_greedy(&events, &CostModel::paper_example(), Some(4.0));
        assert_eq!(strict.choices[0].arm, Arm::Transfer);
        assert!(approx_eq(strict.choices[0].cost, 7.0));
        assert!(strict.cost >= faithful.cost);
    }

    #[test]
    fn co_requests_cost_nothing_here_but_update_trackers() {
        let events = [ev(1.0, 2, true), ev(1.2, 2, false)];
        let out = pair_greedy(&events, &CostModel::paper_example(), None);
        // Cache from the co-request's unpacked copy at s3: 0.2μ.
        assert_eq!(out.choices.len(), 1);
        assert_eq!(out.choices[0].arm, Arm::Cache);
        assert!(approx_eq(out.cost, 0.2));
    }

    #[test]
    fn empty_and_all_co_lists() {
        let out = pair_greedy(&[], &CostModel::paper_example(), None);
        assert_eq!(out.cost, 0.0);
        let out = pair_greedy(
            &[ev(1.0, 1, true), ev(2.0, 2, true)],
            &CostModel::paper_example(),
            None,
        );
        assert_eq!(out.cost, 0.0);
        assert!(out.choices.is_empty());
    }

    #[test]
    fn alpha_controls_package_arm_competitiveness() {
        // Same geometry, two alphas: small α should flip Transfer → Package.
        let events = [ev(5.0, 2, true), ev(5.4, 3, false)];
        let high = CostModel::new(1.0, 1.0, 0.9).unwrap();
        let low = CostModel::new(1.0, 1.0, 0.3).unwrap();
        // Tr = 0.4 + 1 = 1.4; P(0.9) = 1.8; P(0.3) = 0.6.
        let o_high = pair_greedy(&events, &high, None);
        assert_eq!(o_high.choices[0].arm, Arm::Transfer);
        let o_low = pair_greedy(&events, &low, None);
        assert_eq!(o_low.choices[0].arm, Arm::Package);
    }
}
