//! End-to-end integration: synthetic city workload → Phase 1 correlation →
//! Phase 2 DP_Greedy → schedule replay in the simulator → figure runner.

use dp_greedy_suite::prelude::*;
use dp_greedy_suite::sim::replay;
use dp_greedy_suite::trace::stats::TraceStats;

fn workload() -> RequestSeq {
    let mut cfg = WorkloadConfig::paper_like(4242);
    cfg.steps = 700;
    generate(&cfg)
}

#[test]
fn pipeline_produces_replayable_schedules() {
    let seq = workload();
    let model = CostModel::new(2.0, 4.0, 0.8).unwrap();
    let config = DpGreedyConfig::new(model).with_theta(0.3);
    let report = dp_greedy(&seq, &config, 2);

    assert!(
        !report.packages.is_empty(),
        "paper-like workload must pack pairs"
    );

    // Every package schedule replays to exactly its reported C_12.
    let pkg_model = model.scaled_for_package();
    for pair in &report.packages {
        let [a, b] = [pair.members[0], pair.members[1]];
        let co = seq.package_trace(a, b);
        let rep = replay(&pair.package_schedule, &co)
            .unwrap_or_else(|e| panic!("package schedule for ({a}, {b}) infeasible: {e}"));
        let replayed = rep.cost(pkg_model.mu(), pkg_model.lambda());
        assert!(
            (replayed - pair.package_cost).abs() < 1e-6,
            "pair ({a}, {b}): replayed {replayed} != reported {}",
            pair.package_cost
        );
    }

    // Every singleton schedule replays to its reported cost.
    for s in &report.singletons {
        let trace = seq.item_trace(s.item);
        let rep = replay(&s.schedule, &trace).expect("singleton schedule feasible");
        assert!((rep.cost(model.mu(), model.lambda()) - s.cost).abs() < 1e-6);
    }
}

#[test]
fn dp_greedy_beats_every_baseline_on_the_designed_workload() {
    let seq = workload();
    let model = CostModel::new(2.0, 4.0, 0.8).unwrap();
    let config = DpGreedyConfig::new(model).with_theta(0.3);

    let dpg = dp_greedy(&seq, &config, 2).total_cost;
    let ctx = RunContext::new(model);
    let opt = find("optimal").unwrap().solve(&seq, &ctx).total_cost;
    let grd = find("greedy").unwrap().solve(&seq, &ctx).total_cost;

    assert!(dpg < opt, "DP_Greedy {dpg} should beat Optimal {opt}");
    assert!(opt < grd, "Optimal {opt} should beat plain Greedy {grd}");
}

#[test]
fn total_accesses_are_conserved_across_reports() {
    let seq = workload();
    let model = CostModel::new(2.0, 4.0, 0.8).unwrap();
    let report = dp_greedy(&seq, &DpGreedyConfig::new(model).with_theta(0.3), 2);
    let attributed: usize = report.packages.iter().map(|p| p.accesses).sum::<usize>()
        + report.singletons.iter().map(|s| s.accesses).sum::<usize>();
    assert_eq!(attributed, report.total_accesses);
    assert_eq!(report.total_accesses, seq.total_item_accesses());

    let stats = TraceStats::from_sequence(&seq);
    assert_eq!(stats.item_accesses, report.total_accesses);
}

#[test]
fn figure_runners_smoke() {
    use dp_greedy_suite::experiments::{fig09, fig10, fig11, fig12};
    let mut cfg = WorkloadConfig::paper_like(4242);
    cfg.steps = 400;
    let f9 = fig09::run(&cfg);
    assert!(f9.requests > 100);
    let f10 = fig10::run(&cfg);
    assert_eq!(f10.spectrum.len(), 45);
    let f11 = fig11::run(&cfg);
    assert!(!f11.rows.is_empty());
    let f12 = fig12::run(&cfg, &[0.5, 2.0, 4.0]);
    assert_eq!(f12.rows.len(), 3);
}
