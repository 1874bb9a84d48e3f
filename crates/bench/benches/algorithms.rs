//! Core-algorithm throughput benchmarks: the substrate DP, the greedy
//! baseline, Phase 1 correlation analysis, the full two-phase DP_Greedy
//! pipeline, and — via the engine registry — every registered solver on
//! one shared workload (new algorithms get benchmarked for free).

use mcs_bench::harness::{black_box, Criterion};
use mcs_bench::{criterion_group, criterion_main};

use dp_greedy::two_phase::{dp_greedy, DpGreedyConfig};
use mcs_bench::{bench_model, bench_trace, bench_workload};
use mcs_correlation::matching::greedy_matching_from_pairs;
use mcs_correlation::pairs_above;
use mcs_engine::RunContext;
use mcs_offline::{greedy::greedy, optimal};

fn bench_substrate(c: &mut Criterion) {
    let model = bench_model();
    let trace = bench_trace(1000, 50);
    let mut g = c.benchmark_group("substrate");
    g.bench_function("optimal_offline_n1000_m50", |b| {
        b.iter(|| optimal(black_box(&trace), black_box(&model)).cost)
    });
    g.bench_function("simple_greedy_n1000_m50", |b| {
        b.iter(|| greedy(black_box(&trace), black_box(&model)).cost)
    });
    g.finish();
}

fn bench_phase1(c: &mut Criterion) {
    let seq = bench_workload(1500);
    let mut g = c.benchmark_group("phase1");
    g.bench_function("pairs_above", |b| {
        b.iter(|| pairs_above(black_box(&seq), 0.3))
    });
    let candidates = pairs_above(&seq, 0.3);
    g.bench_function("greedy_matching", |b| {
        b.iter(|| greedy_matching_from_pairs(black_box(candidates.clone()), seq.items(), 0.3))
    });
    g.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let seq = bench_workload(1500);
    let config = DpGreedyConfig::new(bench_model()).with_theta(0.3);
    c.bench_function("dp_greedy_full_pipeline", |b| {
        b.iter(|| dp_greedy(black_box(&seq), black_box(&config)).total_cost)
    });
}

fn bench_registry(c: &mut Criterion) {
    let seq = bench_workload(1500);
    let ctx = RunContext::new(bench_model()).with_theta(0.3);
    let mut g = c.benchmark_group("registry");
    for solver in mcs_engine::solvers() {
        if solver
            .request_limit()
            .is_some_and(|limit| seq.requests().len() > limit)
        {
            continue; // exponential solvers skip the 1500-step workload
        }
        let label = format!("solve_{}", solver.name());
        g.bench_function(&label, |b| {
            b.iter(|| solver.solve(black_box(&seq), black_box(&ctx)).total_cost)
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_substrate, bench_phase1, bench_full_pipeline, bench_registry
}
criterion_main!(benches);
