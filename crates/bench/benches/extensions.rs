//! Benches for the extension modules: the cost-only covering DP, the
//! single-copy substrate, heterogeneous exact/greedy, the multi-item and
//! windowed DP_Greedy variants, and on-line DP_Greedy.

use mcs_bench::harness::{black_box, BenchmarkId, Criterion};
use mcs_bench::{criterion_group, criterion_main};

use dp_greedy::two_phase::DpGreedyConfig;
use dp_greedy::windowed::{dp_greedy_windowed, WindowedConfig};
use mcs_bench::{bench_model, bench_trace, bench_workload};
use mcs_engine::{find, RunContext};
use mcs_model::HeteroCostModel;
use mcs_offline::hetero::{hetero_exact, hetero_greedy};
use mcs_offline::optimal;
use mcs_offline::optimal_fast::optimal_fast_cost;
use mcs_offline::single_copy::single_copy_optimal;
use mcs_online::online_dpg::{online_dp_greedy, OnlineDpgConfig};

fn covering_dp_variants(c: &mut Criterion) {
    let model = bench_model();
    let mut g = c.benchmark_group("covering_dp_variants");
    for n in [1000usize, 4000] {
        let trace = bench_trace(n, 50);
        g.bench_with_input(BenchmarkId::new("schedule", n), &trace, |b, tr| {
            b.iter(|| optimal(black_box(tr), black_box(&model)).cost)
        });
        g.bench_with_input(BenchmarkId::new("cost_only", n), &trace, |b, tr| {
            b.iter(|| optimal_fast_cost(black_box(tr), black_box(&model)))
        });
    }
    g.finish();
}

fn single_copy_bench(c: &mut Criterion) {
    let model = bench_model();
    let trace = bench_trace(1000, 50);
    c.bench_function("single_copy_optimal_n1000_m50", |b| {
        b.iter(|| single_copy_optimal(black_box(&trace), black_box(&model)).cost)
    });
}

fn hetero_bench(c: &mut Criterion) {
    let model = HeteroCostModel::uniform(8, 2.0, 4.0, 0.8).expect("valid");
    let trace = bench_trace(12, 8);
    let mut g = c.benchmark_group("hetero");
    g.sample_size(10);
    g.bench_function("exact_n12_m8", |b| {
        b.iter(|| hetero_exact(black_box(&trace), black_box(&model)))
    });
    let big = bench_trace(1000, 8);
    g.bench_function("greedy_n1000_m8", |b| {
        b.iter(|| hetero_greedy(black_box(&big), black_box(&model)))
    });
    g.finish();
}

fn variants_bench(c: &mut Criterion) {
    let seq = bench_workload(800);
    let model = bench_model();
    let mut g = c.benchmark_group("dp_greedy_variants");
    g.sample_size(10);
    let multi = find("multi").expect("registered");
    let ctx = RunContext::new(model).with_theta(0.3);
    g.bench_function("multi_item", |b| {
        b.iter(|| multi.solve(black_box(&seq), &ctx).total_cost)
    });
    g.bench_function("windowed", |b| {
        b.iter(|| {
            dp_greedy_windowed(
                black_box(&seq),
                &WindowedConfig {
                    inner: DpGreedyConfig::new(model).with_theta(0.3),
                    window: 20.0,
                },
            )
            .total_cost
        })
    });
    g.bench_function("online_dpg", |b| {
        b.iter(|| online_dp_greedy(black_box(&seq), &OnlineDpgConfig::new(model)).cost)
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = covering_dp_variants, single_copy_bench, hetero_bench, variants_bench
}
criterion_main!(benches);
