//! Every schedule part replays on its subject's trace. For each
//! homogeneous registry row that emits `Schedule` parts, fault-free
//! `mcs_sim::chaos_solution` replays every such part on the trace its
//! subject names (an item's requests, a package's co-requests, a pair's
//! union for `package_served`) and costs the solution at the sum of those
//! parts: on the paper example, the three committed fixtures, the trio
//! bundle, and seeded bundle workloads packed at K = 3, 4 and ∞.
//!
//! `windowed` is the exception: its schedules are sliced per window, so
//! none serves its subject's whole trace and the replay refuses it.

use dp_greedy_suite::dp_greedy::paper_example;
use dp_greedy_suite::engine::{find, Commodity, RunContext, Solution, SolutionPart};
use dp_greedy_suite::experiments::multi_exp::bundle_workload;
use dp_greedy_suite::model::fault::FaultPlan;
use dp_greedy_suite::model::{CostModel, RequestSeq, RequestSeqBuilder};
use dp_greedy_suite::sim::chaos_solution;
use dp_greedy_suite::trace::io::TraceFile;

/// The rows whose every cost is an explicit schedule or a serve choice.
const SCHEDULE_ROWS: [&str; 6] = [
    "dp_greedy",
    "optimal",
    "greedy",
    "package_served",
    "multi",
    "ski_rental",
];

/// Items {0,1,2} co-requested eight times, then {0,1} three more times,
/// then item 3 once: a trio packs at K ≥ 3.
fn trio_bundle() -> RequestSeq {
    let mut b = RequestSeqBuilder::new(4, 4);
    for (i, server) in [1u32, 2, 3, 1, 2, 0, 3, 2].into_iter().enumerate() {
        b = b.push(server, 0.5 * (i + 1) as f64, [0, 1, 2]);
    }
    for (t, server) in [(4.9, 3u32), (5.8, 1), (6.7, 2)] {
        b = b.push(server, t, [0, 1]);
    }
    b.push(3u32, 7.6, [3]).build().unwrap()
}

/// `(name, sequence, context)` for every input of the sweep.
fn inputs() -> Vec<(String, RequestSeq, RunContext)> {
    let mut out = vec![(
        "paper".to_string(),
        paper_example::paper_sequence(),
        RunContext::new(paper_example::paper_model()).with_theta(paper_example::THETA),
    )];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/traces");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 3, "three trace fixtures");
    for path in paths {
        out.push((
            path.file_stem().unwrap().to_string_lossy().into_owned(),
            TraceFile::load(&path).unwrap().sequence,
            RunContext::new(CostModel::new(1.0, 2.0, 0.7).unwrap()).with_theta(0.3),
        ));
    }
    out.push((
        "trio".to_string(),
        trio_bundle(),
        RunContext::new(CostModel::new(1.0, 1.0, 0.6).unwrap()).with_theta(0.3),
    ));
    for (q, seed) in [(0.35, 3u64), (0.8, 9)] {
        out.push((
            format!("bundle-q{q}-s{seed}"),
            bundle_workload(6, 3, 300, q, seed),
            RunContext::new(CostModel::new(2.0, 4.0, 0.8).unwrap()).with_theta(0.2),
        ));
    }
    out
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

/// Schedules of packages of three or more items in `solution`.
fn package_schedules(solution: &Solution) -> usize {
    solution
        .parts
        .iter()
        .filter(|p| {
            matches!(
                p,
                SolutionPart::Schedule {
                    subject: Commodity::Package(_),
                    ..
                }
            )
        })
        .count()
}

#[test]
fn every_schedule_part_replays_on_its_subjects_trace() {
    let plan = FaultPlan::none();
    let mut packages = 0;
    for (name, seq, ctx) in inputs() {
        let model = ctx.model();
        let mut runs: Vec<(String, Solution)> = Vec::new();
        for row in SCHEDULE_ROWS {
            let solver = find(row).unwrap();
            if row == "dp_greedy" {
                for k in [2, 3, 4, usize::MAX] {
                    let ctx = ctx.clone().with_max_group(k);
                    runs.push((format!("dp_greedy K={k}"), solver.solve(&seq, &ctx)));
                }
            } else {
                runs.push((row.to_string(), solver.solve(&seq, &ctx)));
            }
        }
        for (row, solution) in &runs {
            packages += package_schedules(solution);
            let fleet = chaos_solution(&seq, solution, &model, &plan)
                .unwrap_or_else(|| panic!("{name} / {row}: the schedules do not replay"));
            let expected = schedule_cost(solution);
            assert!(
                (fleet.fault_free_cost - expected).abs() <= 1e-9 * expected.max(1.0),
                "{name} / {row}: fault-free {} != schedules {expected}",
                fleet.fault_free_cost
            );
            assert_eq!(fleet.degradation_ratio, 1.0, "{name} / {row}");
        }
        let windowed = find("windowed").unwrap().solve(&seq, &ctx);
        assert!(
            chaos_solution(&seq, &windowed, &model, &plan).is_none(),
            "{name} / windowed: window-sliced schedules must not replay"
        );
    }
    assert!(
        packages > 0,
        "the sweep packs some package of three or more items"
    );
}
