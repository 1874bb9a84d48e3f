//! Integration tests for the extension modules through the public façade:
//! mutual-consistency relations that must hold across crates on a real
//! city workload.

use dp_greedy_suite::dp_greedy::two_phase::dp_greedy_package;
use dp_greedy_suite::dp_greedy::windowed::{dp_greedy_windowed, WindowedConfig};
use dp_greedy_suite::online::capacity::{capacity_run, EvictionPolicy};
use dp_greedy_suite::online::online_dpg::{online_dp_greedy, OnlineDpgConfig};
use dp_greedy_suite::online::ski_rental::ski_rental;
use dp_greedy_suite::prelude::*;

fn city() -> RequestSeq {
    let mut cfg = WorkloadConfig::paper_like(99);
    cfg.steps = 500;
    generate(&cfg)
}

#[test]
fn multi_item_with_pair_cap_matches_pairwise_on_the_city() {
    let seq = city();
    let model = CostModel::new(2.0, 4.0, 0.8).unwrap();
    let config = DpGreedyConfig::new(model).with_theta(0.3);
    let pairwise = dp_greedy(&seq, &config, 2);
    let packages = agglomerative_packages(&PairTable::from_sequence(&seq), 0.3, 2);
    // Phase 2 over the agglomerative matcher's packages, summed packages
    // first as the pipeline sums them.
    let mut multi_total = 0.0;
    for members in &packages.packages {
        multi_total += dp_greedy_package(&seq, members, &config).total();
    }
    for &item in &packages.singletons {
        multi_total += optimal(&seq.item_trace(item), &model).cost;
    }
    // Same θ on the same statistics: Phase 1 picks the same pairs, so the
    // costs coincide whenever the agglomerative and matching orders agree
    // — which they do for disjoint high-affinity taxi pairs.
    let pairs_pw = pairwise.packing.packages.clone();
    let pairs_mi: Vec<_> = packages
        .packages
        .iter()
        .filter(|g| g.len() == 2)
        .cloned()
        .collect();
    assert_eq!(pairs_pw, pairs_mi);
    assert!(
        (pairwise.total_cost - multi_total).abs() < 1e-6,
        "pairwise {} vs capped multi {multi_total}",
        pairwise.total_cost,
    );
}

#[test]
fn windowed_with_one_giant_window_matches_global() {
    let seq = city();
    let model = CostModel::new(2.0, 4.0, 0.8).unwrap();
    let cfg = DpGreedyConfig::new(model).with_theta(0.3);
    let global = dp_greedy(&seq, &cfg, 2);
    let windowed = dp_greedy_windowed(
        &seq,
        &WindowedConfig {
            inner: cfg,
            window: seq.horizon() + 1.0,
        },
        2,
    );
    assert_eq!(windowed.windows.len(), 1);
    assert!((windowed.total_cost - global.total_cost).abs() < 1e-6);
}

#[test]
fn online_dpg_at_alpha_one_is_blind_ski_rental_on_the_city() {
    let seq = city();
    let model = CostModel::new(2.0, 4.0, 1.0).unwrap();
    let online = online_dp_greedy(&seq, &OnlineDpgConfig::new(model));
    let blind: f64 = (0..seq.items())
        .map(|i| ski_rental(&seq.item_trace(ItemId(i)), &model).cost)
        .sum();
    assert!(
        (online.cost - blind).abs() < 1e-6,
        "online {} vs blind {}",
        online.cost,
        blind
    );
    assert_eq!(online.package_transfers, 0);
}

#[test]
fn cost_oriented_dominates_capacity_oriented_on_the_city() {
    let seq = city();
    let model = CostModel::new(2.0, 4.0, 0.8).unwrap();
    let dpg = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.3), 2).total_cost;
    for cap in [1usize, 4] {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::GreedyDual] {
            let out = capacity_run(&seq, &model, cap, policy);
            assert!(
                dpg < out.cost,
                "DP_Greedy {dpg} should beat {policy:?}@{cap} = {}",
                out.cost
            );
        }
    }
}

#[test]
fn online_hierarchy_offline_le_online_le_three_x() {
    let seq = city();
    let model = CostModel::new(2.0, 4.0, 0.8).unwrap();
    for i in 0..seq.items() {
        let trace = seq.item_trace(ItemId(i));
        let off = optimal(&trace, &model).cost;
        let on = ski_rental(&trace, &model).cost;
        assert!(off <= on + 1e-9, "item {i}");
        assert!(on <= 3.0 * off + 1e-9, "item {i}: {on} > 3·{off}");
    }
}
