//! Cross-algorithm invariants exercised through the public façade on
//! seeded workloads: ordering relations between algorithms, cost-model
//! scaling laws, and the theorem-level bounds.

use dp_greedy_suite::dp_greedy::ratio::{packed_exact_optimal, ratio_check};
use dp_greedy_suite::offline::statespace::statespace_optimal;
use dp_greedy_suite::online::ski_rental::ski_rental;
use dp_greedy_suite::prelude::*;

fn small_city(seed: u64) -> RequestSeq {
    let mut cfg = WorkloadConfig::small(seed);
    cfg.steps = 250;
    generate(&cfg)
}

#[test]
fn algorithm_ordering_chain_per_item() {
    // optimal ≤ ski-rental ≤ always-available bounds, per item trace.
    for seed in [1u64, 2, 3] {
        let seq = small_city(seed);
        let model = CostModel::new(1.0, 2.0, 0.8).unwrap();
        for i in 0..seq.items() {
            let trace = seq.item_trace(ItemId(i));
            let opt = optimal(&trace, &model).cost;
            let grd = greedy(&trace, &model).cost;
            let online = ski_rental(&trace, &model).cost;
            assert!(opt <= grd + 1e-9, "seed {seed} item {i}");
            assert!(grd <= 2.0 * opt + 1e-9, "seed {seed} item {i}");
            assert!(opt <= online + 1e-9, "seed {seed} item {i}");
            assert!(online <= 3.0 * opt + 1e-9, "seed {seed} item {i}");
        }
    }
}

#[test]
fn statespace_confirms_dp_on_real_workload_slices() {
    // Take a small city (m = 12 exceeds the state-space limit, so shrink)
    // and confirm the covering DP against the physics-level solver.
    let mut cfg = WorkloadConfig::small(5);
    cfg.grid = dp_greedy_suite::trace::city::CityGrid { rows: 1, cols: 4 };
    cfg.steps = 60;
    let seq = generate(&cfg);
    let model = CostModel::new(1.0, 1.5, 0.8).unwrap();
    for i in 0..seq.items() {
        let trace = seq.item_trace(ItemId(i));
        if trace.len() > 14 {
            continue; // keep the exponential solver fast
        }
        let dp = optimal(&trace, &model).cost;
        let ss = statespace_optimal(&trace, &model);
        assert!((dp - ss).abs() < 1e-9, "item {i}: dp={dp} ss={ss}");
    }
}

#[test]
fn theorem_1_on_workload_pairs() {
    // The 2/α bound on a real (small) workload pair with an exactly
    // solvable packed optimum.
    let mut cfg = WorkloadConfig::small(9);
    cfg.grid = dp_greedy_suite::trace::city::CityGrid { rows: 1, cols: 3 };
    cfg.steps = 30;
    cfg.taxis = 2;
    cfg.pair_affinity = vec![0.7];
    let seq = generate(&cfg);
    let model = CostModel::new(1.0, 1.0, 0.8).unwrap();
    let config = DpGreedyConfig::new(model);
    let check = ratio_check(&seq, ItemId(0), ItemId(1), &config);
    assert!(check.exact > 0.0);
    assert!(
        check.ratio <= check.bound + 1e-9,
        "ratio {} > bound {}",
        check.ratio,
        check.bound
    );
}

#[test]
fn lemma_1_on_workload_pairs() {
    let mut cfg = WorkloadConfig::small(13);
    cfg.grid = dp_greedy_suite::trace::city::CityGrid { rows: 1, cols: 3 };
    cfg.steps = 30;
    cfg.taxis = 2;
    cfg.pair_affinity = vec![0.5];
    let seq = generate(&cfg);
    let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
    let exact = packed_exact_optimal(&seq, ItemId(0), ItemId(1), &model);
    let o1 = optimal(&seq.item_trace(ItemId(0)), &model).cost;
    let o2 = optimal(&seq.item_trace(ItemId(1)), &model).cost;
    assert!(exact >= model.alpha() * (o1 + o2) - 1e-9);
}

#[test]
fn uniform_rate_scaling_is_exactly_linear_end_to_end() {
    // Scaling (μ, λ) by c scales every algorithm's cost by c — the law
    // behind the 2α package trick, verified through the whole pipeline.
    let seq = small_city(17);
    let base = CostModel::new(1.0, 2.0, 0.8).unwrap();
    let scaled = CostModel::new(3.0, 6.0, 0.8).unwrap();
    let r1 = dp_greedy(&seq, &DpGreedyConfig::new(base).with_theta(0.3), 2);
    let r2 = dp_greedy(&seq, &DpGreedyConfig::new(scaled).with_theta(0.3), 2);
    assert!(
        (r2.total_cost - 3.0 * r1.total_cost).abs() < 1e-6,
        "{} vs {}",
        r2.total_cost,
        3.0 * r1.total_cost
    );
    // The packing decision is rate-invariant.
    assert_eq!(r1.packing.packages, r2.packing.packages);
}

#[test]
fn theta_zero_packs_maximally_and_theta_one_packs_nothing() {
    let seq = small_city(23);
    let model = CostModel::new(1.0, 2.0, 0.8).unwrap();
    let all = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.0), 2);
    let none = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(1.0), 2);
    assert!(!all.packing.packages.is_empty());
    assert!(none.packing.packages.is_empty());
    let opt = find("optimal")
        .unwrap()
        .solve(&seq, &RunContext::new(model));
    assert!((none.total_cost - opt.total_cost).abs() < 1e-6);
}
