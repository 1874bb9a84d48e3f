//! E9 — scaling benches validating the paper's complexity claims:
//! Section V analyses `O(mn²)` service time with `O(mn)` space; the
//! substrate DP itself is `O(n log n)` and insensitive to `m` (its
//! per-server table is linear), and the pre-scan is `O(mn)`.

use mcs_bench::harness::{black_box, BenchmarkId, Criterion, Throughput};
use mcs_bench::{criterion_group, criterion_main};

use dp_greedy::prescan::PreScan;
use dp_greedy::two_phase::{dp_greedy, DpGreedyConfig};
use mcs_bench::{bench_model, bench_trace, bench_workload};
use mcs_offline::optimal;

fn scaling_in_n(c: &mut Criterion) {
    let model = bench_model();
    let mut g = c.benchmark_group("optimal_vs_n");
    for n in [250usize, 500, 1000, 2000] {
        let trace = bench_trace(n, 50);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &trace, |b, tr| {
            b.iter(|| optimal(black_box(tr), black_box(&model)).cost)
        });
    }
    g.finish();
}

fn scaling_in_m(c: &mut Criterion) {
    let model = bench_model();
    let mut g = c.benchmark_group("optimal_vs_m");
    for m in [5u32, 20, 50, 200] {
        let trace = bench_trace(1000, m);
        g.bench_with_input(BenchmarkId::from_parameter(m), &trace, |b, tr| {
            b.iter(|| optimal(black_box(tr), black_box(&model)).cost)
        });
    }
    g.finish();
}

fn prescan_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("prescan_vs_n");
    for n in [1000usize, 4000, 16000] {
        let trace = bench_trace(n, 50);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &trace, |b, tr| {
            b.iter(|| PreScan::build(black_box(tr)).len())
        });
    }
    g.finish();
}

fn pipeline_scaling(c: &mut Criterion) {
    let config = DpGreedyConfig::new(bench_model()).with_theta(0.3);
    let mut g = c.benchmark_group("dp_greedy_vs_steps");
    g.sample_size(10);
    for steps in [500usize, 1000, 2000] {
        let seq = bench_workload(steps);
        g.throughput(Throughput::Elements(seq.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(steps), &seq, |b, s| {
            b.iter(|| dp_greedy(black_box(s), black_box(&config)).total_cost)
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = scaling_in_n, scaling_in_m, prescan_scaling, pipeline_scaling
}
criterion_main!(benches);
