//! Workspace-level guarantees of the K-package path (`dp_greedy` at a
//! package-size cap above 2; aliases `dpg_k` and `kpack`):
//!
//! * **`multi` is K = ∞** — the `multi` row is bit-identical to
//!   `dp_greedy` with `max_group = usize::MAX` (same cost bits and ledger
//!   JSONL, modulo the `algo` label) on every fixture, committed traces
//!   included.
//! * **Sparse ≡ dense** — the agglomerative K-matcher over the compressed
//!   pair table packs exactly what it packs over the dense matrix, for
//!   every θ, on random traces.
//! * **Adaptive θ** — deterministic, reconciled, and monotone in the
//!   observed co-request density.

use dp_greedy_suite::dp_greedy::paper_example;
use dp_greedy_suite::experiments::multi_exp::bundle_workload;
use dp_greedy_suite::prelude::*;
use dp_greedy_suite::trace::io::TraceFile;

fn fixtures() -> Vec<(String, RequestSeq, RunContext)> {
    let mut out = Vec::new();
    out.push((
        "paper".to_string(),
        paper_example::paper_sequence(),
        RunContext::new(paper_example::paper_model()).with_theta(paper_example::THETA),
    ));
    for seed in [1u64, 7, 42] {
        let mut cfg = WorkloadConfig::small(seed);
        cfg.steps = 200;
        let model = CostModel::new(1.0, 2.0, 0.7).unwrap();
        out.push((
            format!("taxi-{seed}"),
            generate(&cfg),
            RunContext::new(model).with_theta(0.3),
        ));
    }
    for (seed, q) in [(3u64, 0.35), (9, 0.8)] {
        out.push((
            format!("bundle-{seed}"),
            bundle_workload(6, 2, 300, q, seed),
            RunContext::new(CostModel::new(2.0, 4.0, 0.8).unwrap()).with_theta(0.2),
        ));
    }
    out
}

/// The `multi` row's contract: `dp_greedy` at K = ∞ and the context's θ,
/// cost bits and ledger JSONL alike (modulo the `algo` label), at θ values
/// that pack differently.
#[test]
fn multi_is_dpg_k_at_unbounded_k_on_every_fixture() {
    let multi = find("multi").unwrap();
    let dpg = find("dp_greedy").unwrap();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/traces");
    let committed = ["taxi_s1_200", "taxi_s42_150_t16", "taxi_s7_300"].map(|name| {
        let seq = TraceFile::load(dir.join(format!("{name}.json")))
            .unwrap()
            .sequence;
        (name.to_string(), seq, RunContext::default())
    });
    for (name, seq, base) in fixtures().into_iter().chain(committed) {
        for theta in [0.05, 0.3, 0.6] {
            let ctx = base.clone().with_theta(theta);
            let a = multi.solve(&seq, &ctx);
            let b = dpg.solve(&seq, &ctx.clone().with_max_group(usize::MAX));
            assert_eq!(
                a.total_cost.to_bits(),
                b.total_cost.to_bits(),
                "{name} at θ = {theta}: cost bits diverge"
            );
            assert_eq!(
                a.ledger().to_jsonl_string(),
                b.ledger()
                    .to_jsonl_string()
                    .replace("\"algo\":\"dp_greedy\"", "\"algo\":\"multi\""),
                "{name} at θ = {theta}: ledger diverges"
            );
        }
    }
}

/// Property: the K-matcher over the compressed pair table equals the
/// dense agglomerative matcher — every lookup, observed or not, has the
/// matrix's bits, so the merge loops run identically.
#[test]
fn sparse_k_matching_equals_dense_on_random_traces() {
    for seed in 0..6u64 {
        let mut cfg = WorkloadConfig::small(0xC0FFEE + seed);
        cfg.steps = 150;
        let seq = generate(&cfg);
        let dense = JaccardMatrix::from_cooccurrence(&CoOccurrence::from_sequence(&seq));
        let table = PairTable::from_sequence(&seq);
        for theta in [-0.5, 0.0, 0.15, 0.3, 0.99] {
            for max_group in [2usize, 3, 4, usize::MAX] {
                let d = agglomerative_packages(&dense, theta, max_group);
                let s = agglomerative_packages(&table, theta, max_group);
                assert_eq!(d, s, "seed {seed}, theta {theta}, max_group {max_group}");
            }
        }
    }
}

/// The adaptive mode through the registry: deterministic, reconciled,
/// and θ decreases as co-request density increases.
#[test]
fn adaptive_mode_reconciles_and_tracks_density() {
    let solver = find("dp_greedy").unwrap();
    let model = CostModel::new(2.0, 4.0, 0.8).unwrap();
    let ctx = RunContext::new(model)
        .with_max_group(4)
        .with_adaptive_theta();
    let sparse_seq = bundle_workload(6, 2, 300, 0.0, 11);
    let dense_seq = bundle_workload(6, 2, 300, 0.9, 11);
    for seq in [&sparse_seq, &dense_seq] {
        let a = solver.solve(seq, &ctx);
        let b = solver.solve(seq, &ctx);
        assert!(
            a.reconciliation_gap() < 1e-9,
            "gap {}",
            a.reconciliation_gap()
        );
        assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
        assert_eq!(a.ledger().to_jsonl_string(), b.ledger().to_jsonl_string());
    }
    let (t_sparse, t_dense) = (ctx.theta_for(&sparse_seq), ctx.theta_for(&dense_seq));
    assert!(
        t_dense < t_sparse,
        "denser co-access must relax θ: dense {t_dense} vs sparse {t_sparse}"
    );
}
