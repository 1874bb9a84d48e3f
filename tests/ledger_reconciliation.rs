//! Property test: on random workloads, every registered solver's decision
//! ledger reconciles with its reported total cost.
//!
//! The ledger is *derived* from a solver's [`Solution`] by the engine's
//! generic `Solution::ledger()`, so `Σ event.cost == total_cost` is a
//! structural invariant of those outputs — intervals priced at `μ·len`,
//! transfers at `λ`, serve events at the chosen arm's real cost — not a
//! logging convention. This file fuzzes it across random sequences, cost
//! models, and thresholds for the whole `mcs-engine` registry, so a
//! newly registered solver is covered automatically.
//!
//! The CLI accepts a gap up to `Ledger::reconcile_tolerance`, the
//! rounding bound of the two sums. Two tests pin that bound from both
//! sides: a large total that is off by rounding alone reconciles, and a
//! dropped or doubled event fails on every committed fixture.

use dp_greedy_suite::dp_greedy::two_phase::{dp_greedy, DpGreedyConfig};
use dp_greedy_suite::engine::solvers::package_parts;
use dp_greedy_suite::engine::{solvers, Commodity, RunContext, Solution, SolutionPart, SolverKind};
use dp_greedy_suite::obs::ledger::OPTION_NAMES;
use dp_greedy_suite::obs::Ledger;
use dp_greedy_suite::trace::io::TraceFile;
use mcs_model::rng::Rng;
use mcs_model::{CostModel, RequestSeq, RequestSeqBuilder};

const TOL: f64 = 1e-9;

/// A random valid sequence: 3–6 servers, 2–6 items, `min_n`–`max_n`
/// requests with strictly increasing times and 1–2 items each.
fn random_sequence(rng: &mut Rng, min_n: usize, max_n: usize) -> RequestSeq {
    let servers = rng.gen_range(3u32..=6);
    let items = rng.gen_range(2u32..=6);
    let n = rng.gen_range(min_n..=max_n);
    let mut b = RequestSeqBuilder::new(servers, items);
    let mut t = 0.0;
    for _ in 0..n {
        t += 0.1 + rng.gen_f64() * 2.0;
        let server = rng.gen_range(0u32..servers);
        let first = rng.gen_range(0u32..items);
        let mut set = vec![first];
        if rng.gen_bool(0.45) {
            let second = rng.gen_range(0u32..items);
            if second != first {
                set.push(second);
            }
        }
        b = b.push(server, t, set);
    }
    b.build().expect("generated sequence is valid")
}

fn random_model(rng: &mut Rng) -> CostModel {
    let mu = 0.5 + rng.gen_f64() * 4.0;
    let lambda = 0.5 + rng.gen_f64() * 8.0;
    let alpha = 0.55 + rng.gen_f64() * 0.44;
    CostModel::new(mu, lambda, alpha).expect("generated model is valid")
}

#[test]
fn every_registered_solver_reconciles_on_random_workloads() {
    let mut rng = Rng::seed_from_u64(0x1ed6e7);
    // The tightest request_limit in the registry bounds the workload so
    // no solver is silently skipped.
    let cap = solvers()
        .iter()
        .filter_map(|s| s.request_limit())
        .min()
        .unwrap_or(usize::MAX)
        .min(60);
    for case in 0..25 {
        let seq = random_sequence(&mut rng, 8, cap);
        let model = random_model(&mut rng);
        let theta = rng.gen_f64() * 0.8;
        let ctx = RunContext::new(model).with_theta(theta);

        for solver in solvers() {
            let sol = solver.solve(&seq, &ctx);
            assert_eq!(sol.algo, solver.name());
            let ledger = sol.ledger();
            let diff = (ledger.total_cost() - sol.total_cost).abs();
            assert!(
                diff < TOL && ledger.reconciles_with(sol.total_cost),
                "case {case}: {} ledger {} vs report {} (diff {diff:e})",
                solver.name(),
                ledger.total_cost(),
                sol.total_cost
            );
            // The three-channel breakdown partitions the events completely.
            let b = ledger.breakdown();
            assert!(
                (b.total() - ledger.total_cost()).abs() < TOL,
                "case {case}: {} breakdown {} vs ledger {}",
                solver.name(),
                b.total(),
                ledger.total_cost()
            );
            // The off-line solvers account every item access of the input.
            if solver.kind() == SolverKind::Offline {
                assert_eq!(
                    sol.total_accesses,
                    seq.total_item_accesses(),
                    "case {case}: {}",
                    solver.name()
                );
            }
            // The non-packing per-item baselines never use the package channel.
            if matches!(
                solver.name(),
                "optimal" | "greedy" | "exhaustive" | "ski_rental"
            ) {
                assert_eq!(b.package_delivery, 0.0, "case {case}: {}", solver.name());
            }
        }
    }
}

#[test]
fn serve_events_always_pick_the_cheapest_feasible_arm() {
    let mut rng = Rng::seed_from_u64(0xa2b);
    let solver = dp_greedy_suite::engine::find("dp_greedy").expect("registered");
    for _ in 0..10 {
        let seq = random_sequence(&mut rng, 20, 60);
        let model = random_model(&mut rng);
        let ctx = RunContext::new(model).with_theta(0.1);
        let sol = solver.solve(&seq, &ctx);
        let events = sol.ledger().events();
        for e in events.iter().filter(|e| e.phase == "phase2.serve") {
            let min = e.option_costs.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(min.is_finite(), "at least one arm is always feasible");
            assert!(
                (e.cost - min).abs() < 1e-12,
                "serve event paid {} but the cheapest arm was {min}",
                e.cost
            );
            // The chosen option's slot holds the cost paid.
            let slot = OPTION_NAMES
                .iter()
                .position(|&n| n == e.option_chosen)
                .expect("a serve event chooses a named option");
            assert!(
                (e.option_costs[slot] - e.cost).abs() < 1e-12,
                "serve event chose {} at {} but paid {}",
                e.option_chosen,
                e.option_costs[slot],
                e.cost
            );
        }
    }
}

/// The parts of one packed pair (its package schedule and two serve
/// streams) derive a ledger whose total is the pair's `C₁₂ + C₁′ + C₂′`,
/// `PackageReport::total`: the Figs. 11 and 13 breakdowns are derived the
/// same way.
#[test]
fn each_pairs_parts_reconcile_with_its_report_total() {
    let mut rng = Rng::seed_from_u64(0x9a1);
    let mut pairs = 0;
    for case in 0..10 {
        let seq = random_sequence(&mut rng, 20, 60);
        let model = random_model(&mut rng);
        let report = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.1), 2);
        for pair in report.packages {
            let total = pair.total();
            let mut parts = Vec::new();
            package_parts(pair, &model, 0.0, &mut parts);
            let sol = Solution {
                algo: "dp_greedy",
                kind: SolverKind::Offline,
                total_cost: total,
                total_accesses: 0,
                parts,
            };
            assert!(
                sol.reconciliation_gap() < TOL,
                "case {case}: pair ledger {} vs report {total}",
                sol.ledger().total_cost()
            );
            pairs += 1;
        }
    }
    assert!(pairs > 0, "the sweep packs at least one pair");
}

/// 50,000 events of 23.3 whose producer summed them in parts of 100: the
/// flat sum is off by more than 1e-6 from rounding alone (an absolute
/// 1e-6 check rejects it), and the rounding bound accepts it. Dropping or
/// doubling any one event fails.
#[test]
fn a_large_total_off_by_rounding_reconciles() {
    let parts: Vec<SolutionPart> = (0..50_000u32)
        .map(|i| SolutionPart::Aggregate {
            phase: "online",
            subject: Commodity::Item(i % 7),
            channel: "transfer",
            t: f64::from(i),
            cost: 23.3,
        })
        .collect();
    let total = (0..500).map(|_| (0..100).map(|_| 23.3).sum::<f64>()).sum();
    let sol = Solution {
        algo: "test",
        kind: SolverKind::Online,
        total_cost: total,
        total_accesses: parts.len(),
        parts,
    };
    let ledger = sol.ledger();
    assert!(
        sol.reconciliation_gap() > 1e-6,
        "gap {}",
        sol.reconciliation_gap()
    );
    assert!(
        ledger.reconciles_with(total),
        "gap {} above bound {}",
        sol.reconciliation_gap(),
        ledger.reconcile_tolerance()
    );
    assert_mutations_fail(&ledger, total, "large total");
}

/// Removing or repeating the cheapest and the costliest priced event of
/// `ledger` must break reconciliation with `total`.
fn assert_mutations_fail(ledger: &Ledger<'_>, total: f64, label: &str) {
    let events = ledger.events();
    let cost = |i: usize| events[i].cost.abs();
    let priced: Vec<usize> = (0..events.len()).filter(|&i| cost(i) != 0.0).collect();
    let by_cost = |x: &usize, y: &usize| cost(*x).total_cmp(&cost(*y));
    let cheapest = priced.iter().copied().min_by(by_cost);
    let costliest = priced.iter().copied().max_by(by_cost);
    for i in cheapest.into_iter().chain(costliest) {
        let mut dropped = events.clone();
        dropped.remove(i);
        assert!(
            !Ledger::over(&dropped).reconciles_with(total),
            "{label}: dropping event {i} reconciles"
        );
        let mut doubled = events.clone();
        doubled.push(events[i].clone());
        assert!(
            !Ledger::over(&doubled).reconciles_with(total),
            "{label}: doubling event {i} reconciles"
        );
    }
}

#[test]
fn a_dropped_or_doubled_event_fails_on_every_fixture() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/traces");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no trace fixtures committed");
    let ctx = RunContext::new(CostModel::new(1.0, 2.0, 0.7).unwrap()).with_theta(0.3);
    for path in paths {
        let seq = TraceFile::load(&path).unwrap().sequence;
        for solver in solvers() {
            if solver.request_limit().is_some_and(|l| seq.len() > l) {
                continue;
            }
            let sol = solver.solve(&seq, &ctx);
            let ledger = sol.ledger();
            let label = format!("{} / {}", path.display(), solver.name());
            assert!(ledger.reconciles_with(sol.total_cost), "{label}");
            assert!(ledger.reconcile_tolerance() < 1e-6, "{label}");
            assert_mutations_fail(&ledger, sol.total_cost, &label);
        }
    }
}
