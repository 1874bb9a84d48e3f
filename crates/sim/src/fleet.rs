//! Fleet-level chaos replay of an engine [`Solution`].
//!
//! Every explicit schedule of a solution (`SolutionPart::Schedule`: the
//! package schedules of packed pairs, the per-item schedules of
//! singletons and of the non-packing baselines) is replayed through the
//! degraded engine of [`crate::faults`] under a [`FaultPlan`], on the
//! trace its subject names. Serve-time greedy choices and aggregate
//! costs carry no explicit schedule and stay out of both sides of the
//! degradation ratio.

use mcs_engine::{Solution, SolutionPart};
use mcs_model::fault::FaultPlan;
use mcs_model::request::SingleItemTrace;
use mcs_model::{CostModel, ItemId, RequestSeq};
use mcs_obs::Subject;

use crate::faults::chaos_replay;
use crate::metrics::FaultReport;
use crate::replay::replay;

/// One commodity replayed under faults.
#[derive(Debug, Clone)]
pub struct CommodityChaos {
    /// Human-readable label (`"package(d1, d2)"`, `"item d3"`).
    pub label: String,
    /// Fault-free replayed cost.
    pub fault_free: f64,
    /// Cost accrued under the fault plan.
    pub degraded: f64,
    /// `degraded / fault_free` for this commodity.
    pub degradation_ratio: f64,
}

/// Aggregate outcome of a fleet-wide chaos run.
#[derive(Debug, Clone)]
pub struct FleetChaosReport {
    /// Per-commodity breakdown.
    pub commodities: Vec<CommodityChaos>,
    /// Total fault-free cost over explicit schedules.
    pub fault_free_cost: f64,
    /// Total cost accrued under the plan.
    pub degraded_cost: f64,
    /// `degraded_cost / fault_free_cost` (1.0 on a zero-cost baseline).
    pub degradation_ratio: f64,
    /// Merged recovery metrics across all commodities, with
    /// `cost_inflation` set to the fleet-level degradation ratio.
    pub fault: FaultReport,
}

fn part_trace(seq: &RequestSeq, algo: &str, subject: Subject<'_>) -> SingleItemTrace {
    match subject {
        // `package_served` packs over the union of the pair's requests;
        // DP_Greedy's package DP runs over strict co-requests.
        Subject::Pair(a, b) if algo == "package_served" => seq.union_trace(ItemId(a), ItemId(b)),
        Subject::Pair(a, b) => seq.package_trace(ItemId(a), ItemId(b)),
        Subject::Package(members) => {
            let members: Vec<ItemId> = members.iter().map(|&m| ItemId(m)).collect();
            seq.trace_of(&seq.co_requests(&members))
        }
        Subject::Item(i) => seq.item_trace(ItemId(i)),
    }
}

/// Replays every explicit schedule of an engine [`Solution`] through the
/// degraded engine under `plan`. Each schedule part is costed at its own
/// recorded rates (`alpha` is carried over from `model` but unused by
/// the replay). `Serve` and `Aggregate` parts carry no explicit
/// schedule and are excluded from both sides of the ratio.
///
/// Returns `None` unless the solution has at least one `Schedule` part
/// and every such part passes a strict [`replay`] on the trace it is
/// replayed against: its subject's whole trace (a package's
/// co-requests, or a pair's union for `package_served`; an item's
/// requests). That rules out window-sliced schedules and aggregate-only
/// solvers.
pub fn chaos_solution(
    seq: &RequestSeq,
    solution: &Solution,
    model: &CostModel,
    plan: &FaultPlan,
) -> Option<FleetChaosReport> {
    let mut schedules = Vec::new();
    for part in &solution.parts {
        if let SolutionPart::Schedule {
            subject,
            schedule,
            mu,
            lambda,
            ..
        } = part
        {
            let subject = subject.as_subject();
            let trace = part_trace(seq, solution.algo, subject);
            replay(schedule, &trace).ok()?;
            schedules.push((subject, schedule, *mu, *lambda, trace));
        }
    }
    if schedules.is_empty() {
        return None;
    }

    let mut commodities = Vec::new();
    let mut fault_free_cost = 0.0;
    let mut degraded_cost = 0.0;
    let mut fault = FaultReport::new(0);
    for (subject, schedule, mu, lambda, trace) in &schedules {
        let part_model = CostModel::new(*mu, *lambda, model.alpha())
            .expect("schedule parts carry valid positive rates");
        let out = chaos_replay(schedule, trace, plan, &part_model);
        let label = match subject {
            Subject::Item(i) => format!("item {}", ItemId(*i)),
            Subject::Pair(a, b) => format!("package({}, {})", ItemId(*a), ItemId(*b)),
            Subject::Package(m) => {
                let names: Vec<String> = m.iter().map(|&i| ItemId(i).to_string()).collect();
                format!("package({})", names.join(", "))
            }
        };
        commodities.push(CommodityChaos {
            label,
            fault_free: out.fault_free_cost,
            degraded: out.degraded_cost,
            degradation_ratio: out.degradation_ratio,
        });
        fault_free_cost += out.fault_free_cost;
        degraded_cost += out.degraded_cost;
        fault.absorb(&out.report.fault);
    }

    let degradation_ratio = if fault_free_cost > 0.0 {
        degraded_cost / fault_free_cost
    } else {
        1.0
    };
    fault.cost_inflation = degradation_ratio;
    Some(FleetChaosReport {
        commodities,
        fault_free_cost,
        degraded_cost,
        degradation_ratio,
        fault,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_engine::RunContext;
    use mcs_model::RequestSeqBuilder;

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

    /// The registry's `dp_greedy` on the running example at θ = 0.4: one
    /// packed pair (package schedule, then the two serve streams).
    fn paper_dp_greedy(seq: &RequestSeq) -> Solution {
        let ctx = RunContext::new(CostModel::paper_example()).with_theta(0.4);
        mcs_engine::find("dp_greedy").unwrap().solve(seq, &ctx)
    }

    /// Sum of the costs of a solution's explicit schedules.
    fn schedule_cost(solution: &Solution) -> f64 {
        solution
            .parts
            .iter()
            .filter(|p| matches!(p, SolutionPart::Schedule { .. }))
            .map(SolutionPart::cost)
            .sum()
    }

    #[test]
    fn fleet_chaos_with_no_faults_matches_plain_replay() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let sol = paper_dp_greedy(&seq);
        let chaos = chaos_solution(&seq, &sol, &model, &FaultPlan::none()).unwrap();
        assert_eq!(chaos.degradation_ratio, 1.0);
        assert_eq!(
            chaos.degraded_cost.to_bits(),
            chaos.fault_free_cost.to_bits()
        );
        // C12 of the running example: the one package schedule.
        assert!((chaos.fault_free_cost - 8.96).abs() < 1e-9);
        assert_eq!(chaos.fault.requests_degraded, 0);
        assert_eq!(chaos.fault.copies_lost, 0);
        assert_eq!(chaos.fault.cost_inflation, 1.0);
    }

    #[test]
    fn fleet_chaos_under_blackout_counts_degradation() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let sol = paper_dp_greedy(&seq);
        let plan = FaultPlan::total_blackout(seq.servers());
        let chaos = chaos_solution(&seq, &sol, &model, &plan).unwrap();
        // A blackout is not necessarily *more expensive* — skipped rent can
        // outweigh cheap origin reads — but it must register as degradation.
        assert!(chaos.degradation_ratio > 0.0);
        assert!(chaos.fault.requests_degraded > 0);
        assert!(chaos.fault.intervals_skipped > 0);
        assert_eq!(chaos.fault.cost_inflation, chaos.degradation_ratio);
        assert!(chaos.fault.requests_total >= chaos.fault.requests_degraded);
    }

    #[test]
    fn chaos_solution_covers_the_offline_registry_and_skips_the_rest() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let ctx = RunContext::new(model).with_theta(0.4);
        let plan = FaultPlan::none();
        for solver in mcs_engine::solvers() {
            let sol = solver.solve(&seq, &ctx);
            let out = chaos_solution(&seq, &sol, &model, &plan);
            match solver.name() {
                "windowed" | "online_dpg" | "hetero_exact" | "hetero_greedy"
                | "tiered_waterfall" => {
                    // Window-sliced or aggregate-only solutions carry no
                    // schedule that serves its subject's whole trace.
                    assert!(out.is_none(), "{} should be unsupported", solver.name());
                }
                _ => {
                    let fleet = out
                        .unwrap_or_else(|| panic!("{} should replay generically", solver.name()));
                    assert_eq!(fleet.degradation_ratio, 1.0, "{}", solver.name());
                    assert!(fleet.fault_free_cost > 0.0, "{}", solver.name());
                    assert!(
                        (fleet.fault_free_cost - schedule_cost(&sol)).abs() < 1e-9,
                        "{}: fault-free {} != schedules {}",
                        solver.name(),
                        fleet.fault_free_cost,
                        schedule_cost(&sol)
                    );
                }
            }
        }

        // One more input. Items {0,1,2} are co-requested eight times,
        // then {0,1} three more times. At K = 3 the trio packs, and its
        // schedule replays on the trio's eight co-requests, not on the
        // eleven of the pair {0,1}.
        let mut b = RequestSeqBuilder::new(4, 4);
        for (i, server) in [1u32, 2, 3, 1, 2, 0, 3, 2].into_iter().enumerate() {
            b = b.push(server, 0.5 * (i + 1) as f64, [0, 1, 2]);
        }
        for (t, server) in [(4.9, 3u32), (5.8, 1), (6.7, 2)] {
            b = b.push(server, t, [0, 1]);
        }
        let bundle = b.push(3u32, 7.6, [3]).build().unwrap();
        let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
        let ctx = RunContext::new(model).with_theta(0.3);
        let solve = |name: &str, ctx: &RunContext| {
            let sol = mcs_engine::find(name).unwrap().solve(&bundle, ctx);
            let out = chaos_solution(&bundle, &sol, &model, &plan);
            (sol, out)
        };
        for (name, ctx) in [
            ("dp_greedy", ctx.clone().with_max_group(3)),
            ("multi", ctx.clone()),
        ] {
            let (sol, out) = solve(name, &ctx);
            let fleet = out.unwrap_or_else(|| panic!("{name} replays its trio"));
            assert_eq!(fleet.commodities[0].label, "package(d1, d2, d3)");
            // The trio's eight co-requests and item 3's one request.
            assert_eq!(fleet.fault.requests_total, 8 + 1, "{name}");
            assert!(
                (fleet.fault_free_cost - schedule_cost(&sol)).abs() < 1e-9,
                "{name}: fault-free {} != schedules {}",
                fleet.fault_free_cost,
                schedule_cost(&sol)
            );
        }
        // DP_Greedy's pair schedule serves all eleven co-requests.
        let (sol, out) = solve("dp_greedy", &ctx);
        let fleet = out.expect("dp_greedy replays on the bundle");
        assert!((fleet.fault_free_cost - schedule_cost(&sol)).abs() < 1e-9);
    }

    #[test]
    fn fleet_chaos_with_a_brief_crash_before_a_request_inflates_cost() {
        use mcs_model::fault::CrashWindow;
        use mcs_model::time::TimeSpan;
        use mcs_model::ServerId;

        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let sol = paper_dp_greedy(&seq);
        // The package schedule caches on s2 over [0.8, 4.0] with a
        // co-request at t = 4.0. A brief outage at [3.9, 3.95) loses the
        // copy 0.1 time units early (rent saved: 0.1·μ_pkg) but forces a
        // repair transfer (λ_pkg) at the request — a strict net loss.
        let mut plan = FaultPlan::none();
        plan.crashes.push(CrashWindow {
            server: ServerId(2),
            span: TimeSpan::new(3.9, 3.95),
        });
        let chaos = chaos_solution(&seq, &sol, &model, &plan).unwrap();
        assert!(
            chaos.degradation_ratio > 1.0,
            "repair should inflate cost, got {}",
            chaos.degradation_ratio
        );
        assert_eq!(chaos.fault.copies_lost, 1);
        assert_eq!(chaos.fault.recaches, 1);
        assert_eq!(chaos.fault.repairs, 1);
        assert!(chaos.fault.mean_time_to_repair > 0.0);
    }
}
