//! Registry-wide thread identity: for every committed trace fixture, one
//! generated sequence above the solvers' parallel threshold, and every
//! registry solver, the decision-ledger JSONL and the `total_cost` bit
//! pattern are byte-identical at `MCS_THREADS` 1, 2 and 4. Parallel
//! sections are an optimisation, never a behaviour change.

use dp_greedy_suite::engine::{solvers, CachingSolver, RunContext};
use dp_greedy_suite::model::par::{PARALLEL_THRESHOLD, THREADS_ENV};
use dp_greedy_suite::model::{CostModel, RequestSeq};
use dp_greedy_suite::trace::io::TraceFile;
use dp_greedy_suite::trace::workload::{generate, WorkloadConfig};

fn fixture_sequences() -> Vec<(String, RequestSeq)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/traces");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixtures/traces unreadable: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no trace fixtures committed");
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, TraceFile::load(&p).unwrap().sequence)
        })
        .collect()
}

/// A sequence of at least `PARALLEL_THRESHOLD` requests. The fixtures
/// are all smaller, and below the threshold Phase 1, Phase 2 and the
/// per-item solvers run serially at every `MCS_THREADS`, so only this
/// one reaches their parallel paths.
fn above_threshold() -> (String, RequestSeq) {
    let mut cfg = WorkloadConfig::paper_like(3);
    cfg.steps = 2000;
    let seq = generate(&cfg);
    assert!(seq.len() >= PARALLEL_THRESHOLD, "{} requests", seq.len());
    ("paper_like_s3_2000".to_string(), seq)
}

fn fingerprint(s: &dyn CachingSolver, seq: &RequestSeq, ctx: &RunContext) -> (String, u64) {
    let solution = s.solve(seq, ctx);
    (
        solution.ledger().to_jsonl_string(),
        solution.total_cost.to_bits(),
    )
}

/// The one test that mutates process environment — `MCS_THREADS` lives
/// and dies inside this function, and no other test in this binary
/// touches it.
#[test]
fn every_solver_is_thread_invariant_on_every_fixture() {
    let ctx = RunContext::new(CostModel::new(1.0, 2.0, 0.7).unwrap()).with_theta(0.3);
    for (name, seq) in fixture_sequences().into_iter().chain([above_threshold()]) {
        for s in solvers() {
            if s.request_limit().is_some_and(|l| seq.len() > l) {
                continue;
            }
            std::env::set_var(THREADS_ENV, "1");
            let reference = fingerprint(*s, &seq, &ctx);
            for threads in [2, 4] {
                std::env::set_var(THREADS_ENV, threads.to_string());
                assert_eq!(
                    fingerprint(*s, &seq, &ctx),
                    reference,
                    "{name} / {} / {threads} threads diverged from the single-thread reference",
                    s.name()
                );
            }
        }
    }
    std::env::remove_var(THREADS_ENV);
}
