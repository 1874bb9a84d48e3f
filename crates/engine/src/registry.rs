//! The static solver registry.
//!
//! One flat array of `&'static dyn CachingSolver` — every algorithm in
//! the workspace, offline and online. Consumers iterate [`solvers`] (the
//! CLI's `dpg algos`, the bench harness, the workspace reconciliation
//! test, the CI registry-smoke job) or look one up by name with
//! [`find`], which also accepts the historical CLI spellings (`dpg`,
//! `package`, and `dpg_k`/`kpack` for `dp_greedy` at any package size).

use crate::solvers::{
    DpGreedySolver, ExhaustiveSolver, GreedySolver, HeteroExactSolver, HeteroGreedySolver,
    MultiSolver, OnlineDpgSolver, OptimalSolver, PackageServedSolver, ResilientSolver,
    SkiRentalSolver, TieredWaterfallSolver, WindowedSolver,
};
use crate::CachingSolver;

/// Every registered solver, offline first, in stable presentation order.
/// The plane-aware solvers (`hetero_*`, `tiered_waterfall`) are appended
/// so pre-plane tooling that pins registry order keeps its rows.
static REGISTRY: [&'static dyn CachingSolver; 13] = [
    &DpGreedySolver,
    &OptimalSolver,
    &GreedySolver,
    &ExhaustiveSolver,
    &PackageServedSolver,
    &MultiSolver,
    &WindowedSolver,
    &SkiRentalSolver,
    &OnlineDpgSolver,
    &ResilientSolver,
    &HeteroExactSolver,
    &HeteroGreedySolver,
    &TieredWaterfallSolver,
];

/// Alternate spellings accepted by [`find`]: the pre-engine CLI names,
/// and `kpack`/`dpg_k` for `dp_greedy` run above a package size of 2.
static ALIASES: [(&str, &str); 4] = [
    ("dpg", "dp_greedy"),
    ("package", "package_served"),
    ("kpack", "dp_greedy"),
    ("dpg_k", "dp_greedy"),
];

/// All registered solvers, in stable presentation order.
pub fn solvers() -> &'static [&'static dyn CachingSolver] {
    &REGISTRY
}

/// The `(alias, canonical name)` spellings [`find`] accepts beyond the
/// registry names — surfaced so `dpg algos` can list them.
pub fn aliases() -> &'static [(&'static str, &'static str)] {
    &ALIASES
}

/// Looks a solver up by registry name or alias (`dpg`, `package`,
/// `kpack`, `dpg_k`).
pub fn find(name: &str) -> Option<&'static dyn CachingSolver> {
    let canonical = ALIASES
        .iter()
        .find(|(alias, _)| *alias == name)
        .map_or(name, |(_, target)| *target);
    REGISTRY.iter().copied().find(|s| s.name() == canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunContext, SolverKind};
    use mcs_model::par::par_map;
    use mcs_model::rng::Rng;
    use mcs_model::{CostModel, RequestSeq, RequestSeqBuilder};

    #[test]
    fn names_are_unique_and_finds_resolve() {
        let mut seen = std::collections::BTreeSet::new();
        for s in solvers() {
            assert!(seen.insert(s.name()), "duplicate name {}", s.name());
            assert!(std::ptr::eq(find(s.name()).unwrap(), *s));
            assert!(!s.description().is_empty());
        }
        assert_eq!(find("dpg").unwrap().name(), "dp_greedy");
        assert_eq!(find("package").unwrap().name(), "package_served");
        assert_eq!(find("kpack").unwrap().name(), "dp_greedy");
        assert_eq!(find("dpg_k").unwrap().name(), "dp_greedy");
        assert!(find("nope").is_none());
    }

    /// Random workload for the cross-validation below; `limit` clamps
    /// the request count for the exponential solver.
    fn random_sequence(rng: &mut Rng, limit: usize) -> RequestSeq {
        let servers = rng.gen_range(2u32..=4);
        let items = rng.gen_range(2u32..=4);
        let n = rng.gen_range(6usize..=15).min(limit);
        let mut b = RequestSeqBuilder::new(servers, items);
        let mut t = 0.0;
        for _ in 0..n {
            t += 0.1 + rng.gen_f64() * 2.0;
            let server = rng.gen_range(0u32..servers);
            let first = rng.gen_range(0u32..items);
            let mut set = vec![first];
            if rng.gen_bool(0.4) {
                let second = (first + 1) % items;
                set.push(second);
            }
            b = b.push(server, t, set);
        }
        b.build().expect("generated sequence is valid")
    }

    fn random_model(rng: &mut Rng) -> CostModel {
        CostModel::new(
            0.5 + rng.gen_f64() * 3.0,
            0.5 + rng.gen_f64() * 6.0,
            0.55 + rng.gen_f64() * 0.4,
        )
        .expect("generated model is valid")
    }

    /// Registry-wide cross-validation on random workloads, run in
    /// parallel via the shared `mcs_model::par` utility:
    /// every solver reconciles, the two exact per-item solvers agree,
    /// and no offline heuristic beats the exact per-item optimum family
    /// it refines.
    #[test]
    fn registry_cross_validation_on_random_workloads() {
        let cases: Vec<u64> = (0..24).collect();
        let failures: Vec<String> = par_map(&cases, |&case| {
            let mut rng = Rng::seed_from_u64(0x5EED_0000 + case);
            let seq = random_sequence(&mut rng, 16);
            let ctx = RunContext::new(random_model(&mut rng)).with_theta(0.3);
            let mut costs = std::collections::BTreeMap::new();
            let mut errs = Vec::new();
            for s in solvers() {
                if s.request_limit().is_some_and(|l| seq.requests().len() > l) {
                    continue;
                }
                let sol = s.solve(&seq, &ctx);
                if sol.reconciliation_gap() > 1e-9 {
                    errs.push(format!(
                        "case {case}: {} gap {:.3e}",
                        s.name(),
                        sol.reconciliation_gap()
                    ));
                }
                costs.insert(s.name(), sol.total_cost);
            }
            let optimal = costs["optimal"];
            // Enumeration sums in another order than the covering DP.
            if let Some(c) = costs.get("exhaustive") {
                if (c - optimal).abs() > 1e-9 {
                    errs.push(format!("case {case}: exhaustive {c} != optimal {optimal}"));
                }
            }
            if costs["greedy"] < optimal - 1e-9 {
                errs.push(format!("case {case}: greedy beat optimal"));
            }
            errs.join("; ")
        })
        .into_iter()
        .filter(|e| !e.is_empty())
        .collect();
        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }

    #[test]
    fn paper_example_totals_match_the_known_landmarks() {
        let seq = dp_greedy::paper_example::paper_sequence();
        let ctx = RunContext::paper_example();
        let dpg = find("dp_greedy").unwrap().solve(&seq, &ctx);
        assert!((dpg.total_cost - dp_greedy::paper_example::EXPECTED_TOTAL).abs() < 1e-9);
        assert!(dpg.reconciliation_gap() < 1e-9);
        for s in solvers() {
            let sol = s.solve(&seq, &ctx);
            assert!(
                sol.reconciliation_gap() < 1e-9,
                "{} fails reconciliation on the paper example (gap {:.3e})",
                s.name(),
                sol.reconciliation_gap()
            );
            assert_eq!(sol.algo, s.name());
            assert_eq!(sol.kind, s.kind());
            if s.kind() == SolverKind::Offline {
                assert_eq!(sol.total_accesses, seq.total_item_accesses());
            }
        }
    }

    /// `dp_greedy` (alias `dpg_k`) at larger `max_group` with the adaptive
    /// θ rule stays reconciled and deterministic across repeated runs.
    #[test]
    fn dpg_k_large_groups_reconcile_and_are_deterministic() {
        let mut rng = Rng::seed_from_u64(0x4B50_4B50);
        let seq = random_sequence(&mut rng, usize::MAX);
        let model = random_model(&mut rng);
        for k in [3usize, 4, 8] {
            let ctx = RunContext::new(model)
                .with_theta(0.2)
                .with_max_group(k)
                .with_adaptive_theta();
            let a = find("dp_greedy").unwrap().solve(&seq, &ctx);
            let b = find("dp_greedy").unwrap().solve(&seq, &ctx);
            assert!(
                a.reconciliation_gap() < 1e-9,
                "k = {k}: gap {:.3e}",
                a.reconciliation_gap()
            );
            assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits(), "k = {k}");
            assert_eq!(
                a.ledger().to_jsonl_string(),
                b.ledger().to_jsonl_string(),
                "k = {k}"
            );
        }
    }

    /// The engine `dp_greedy` Solution must render the byte-identical
    /// ledger of the pre-engine builder chain (pairs: package schedule →
    /// serve a → serve b; then unpacked singletons) so `dpg trace solve`
    /// output is unchanged across the refactor.
    #[test]
    fn dp_greedy_ledger_matches_the_paper_trace() {
        let seq = dp_greedy::paper_example::paper_sequence();
        let sol = find("dp_greedy")
            .unwrap()
            .solve(&seq, &RunContext::paper_example());
        let ledger = sol.ledger();
        assert!((ledger.total_cost() - 14.96).abs() < 1e-9);
        let first = &ledger.events()[0];
        assert_eq!(first.algo, "dp_greedy");
        assert_eq!(first.phase, "phase2.package");
    }
}
