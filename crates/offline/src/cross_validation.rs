//! Seeded cross-validation of the off-line solvers on random small
//! instances, fanned out over the instance grid with the shared
//! [`mcs_model::par`] helper. Each case draws one trace, one cost model
//! and one heterogeneous plane, and checks the validation matrix
//! (DESIGN.md §2 and §8):
//!
//! * `optimal` (covering DP) == `exhaustive` == `statespace`
//! * the `optimal`, `greedy` and single-copy schedules are feasible and
//!   re-account to their reported costs
//! * `optimal <= greedy <= 2·optimal` (the paper's Eq. 7–8)
//! * `optimal <= single-copy <= always-migrate`: replication never hurts
//! * `optimal` never gets cheaper as λ rises, and scales linearly when μ
//!   and λ scale together (the basis of the 2α package scaling)
//! * `hetero_exact <= hetero_greedy` on the random plane, and
//!   `hetero_exact` on the uniform plane equals `optimal`

use crate::exhaustive::exhaustive_optimal;
use crate::hetero::{hetero_exact, hetero_greedy};
use crate::single_copy::{single_copy_always_migrate, single_copy_optimal};
use crate::statespace::statespace_optimal;
use crate::{greedy::greedy, optimal::optimal};
use mcs_model::par::par_map;
use mcs_model::request::SingleItemTrace;
use mcs_model::rng::Rng;
use mcs_model::{approx_eq, approx_le, CostModel, HeteroCostModel, Schedule};

fn random_trace(rng: &mut Rng) -> SingleItemTrace {
    let m = rng.gen_range(1u32..=4);
    let n = rng.gen_range(0usize..=9);
    let mut ticks: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..=60)).collect();
    ticks.sort_unstable();
    ticks.dedup();
    let pairs: Vec<(f64, u32)> = ticks
        .iter()
        .map(|&t| (t as f64 / 10.0, rng.gen_range(0u32..m)))
        .collect();
    SingleItemTrace::from_pairs(m, &pairs)
}

fn random_model(rng: &mut Rng) -> CostModel {
    CostModel::new(
        rng.gen_range(1u32..=50) as f64 / 10.0,
        rng.gen_range(1u32..=50) as f64 / 10.0,
        rng.gen_range(1u32..=10) as f64 / 10.0,
    )
    .expect("grid model is valid")
}

/// A plane over `m` servers with per-server rates and a symmetric
/// link-cost matrix, both on a tenth-unit grid.
fn random_plane(rng: &mut Rng, m: u32, alpha: f64) -> HeteroCostModel {
    let m = m as usize;
    let mu = (0..m)
        .map(|_| rng.gen_range(1u32..=40) as f64 / 10.0)
        .collect();
    let mut lambda = vec![0.0; m * m];
    for i in 0..m {
        for j in (i + 1)..m {
            let v = rng.gen_range(1u32..=40) as f64 / 10.0;
            lambda[i * m + j] = v;
            lambda[j * m + i] = v;
        }
    }
    HeteroCostModel::new(mu, lambda, alpha).expect("grid plane is valid")
}

/// Whether `schedule` serves `trace` and re-accounts to `cost` under
/// `model`.
fn accounts(schedule: &Schedule, trace: &SingleItemTrace, model: &CostModel, cost: f64) -> bool {
    schedule.validate(trace).is_ok()
        && approx_eq(schedule.cost(model.mu(), model.lambda()).total, cost)
}

#[test]
fn exact_solvers_agree_and_greedy_is_2_competitive() {
    let cases: Vec<u64> = (0..512).collect();
    let failures: Vec<String> = par_map(&cases, |&case| {
        let mut rng = Rng::seed_from_u64(0xC0FFEE ^ (case << 8));
        let trace = random_trace(&mut rng);
        let model = random_model(&mut rng);
        let plane = random_plane(&mut rng, trace.servers, model.alpha());
        let (mu, lambda, alpha) = (model.mu(), model.lambda(), model.alpha());
        let dearer = CostModel::new(mu, lambda + rng.gen_range(1u32..=20) as f64 / 10.0, alpha)
            .expect("grid model is valid");
        let scaled = CostModel::new(1.6 * mu, 1.6 * lambda, alpha).expect("grid model is valid");
        let uniform =
            HeteroCostModel::uniform(trace.servers, mu, lambda, alpha).expect("grid plane");

        let out = optimal(&trace, &model);
        let ex = exhaustive_optimal(&trace, &model);
        let ss = statespace_optimal(&trace, &model);
        let g = greedy(&trace, &model);
        let single = single_copy_optimal(&trace, &model);
        let migrate = single_copy_always_migrate(&trace, &model);
        let dearer_cost = optimal(&trace, &dearer).cost;
        let scaled_cost = optimal(&trace, &scaled).cost;
        let het_exact = hetero_exact(&trace, &plane).expect("plane fits the trace");
        let het_greedy = hetero_greedy(&trace, &plane).expect("plane fits the trace");
        let uniform_exact = hetero_exact(&trace, &uniform).expect("plane fits the trace");

        let mut errs = Vec::new();
        if !approx_eq(out.cost, ex) {
            errs.push(format!("case {case}: dp {} != exhaustive {ex}", out.cost));
        }
        if !approx_eq(out.cost, ss) {
            errs.push(format!("case {case}: dp {} != statespace {ss}", out.cost));
        }
        if !accounts(&out.schedule, &trace, &model, out.cost) {
            errs.push(format!("case {case}: optimal schedule does not replay"));
        }
        if !approx_le(out.cost, g.cost) || !approx_le(g.cost, 2.0 * out.cost) {
            errs.push(format!(
                "case {case}: greedy {} outside [1, 2]x optimal {}",
                g.cost, out.cost
            ));
        }
        if !accounts(&g.schedule, &trace, &model, g.cost) {
            errs.push(format!("case {case}: greedy schedule does not replay"));
        }
        if out.cost > single.cost + 1e-9 || single.cost > migrate + 1e-9 {
            errs.push(format!(
                "case {case}: optimal {} <= single-copy {} <= always-migrate {migrate} fails",
                out.cost, single.cost
            ));
        }
        if !accounts(&single.schedule, &trace, &model, single.cost) {
            errs.push(format!("case {case}: single-copy schedule does not replay"));
        }
        if !approx_le(out.cost, dearer_cost) {
            errs.push(format!(
                "case {case}: optimal fell from {} to {dearer_cost} as λ rose",
                out.cost
            ));
        }
        if !approx_eq(scaled_cost, 1.6 * out.cost) {
            errs.push(format!(
                "case {case}: optimal {scaled_cost} at 1.6·(μ, λ) != 1.6 x {}",
                out.cost
            ));
        }
        if het_exact > het_greedy + 1e-9 {
            errs.push(format!(
                "case {case}: hetero exact {het_exact} > hetero greedy {het_greedy}"
            ));
        }
        if !approx_eq(uniform_exact, out.cost) {
            errs.push(format!(
                "case {case}: hetero exact {uniform_exact} on the uniform plane != optimal {}",
                out.cost
            ));
        }
        errs.join("; ")
    })
    .into_iter()
    .filter(|e| !e.is_empty())
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
