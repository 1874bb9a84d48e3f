//! Registry sweep — every registered solver on one workload.
//!
//! The engine registry makes "run everything and compare" a one-liner;
//! this module is that one-liner, plus the table/TSV renderings the CI
//! registry-smoke job diffs against `results/registry_expected.tsv`.
//! Solvers whose [`mcs_engine::CachingSolver::request_limit`] is below
//! the workload size are skipped (and reported as skipped), so the sweep
//! is safe on arbitrarily large workloads.

use mcs_engine::{solvers, RunContext, Solution};
use mcs_model::RequestSeq;

use crate::table::{fmt_f, Table};

/// One solver's measurement.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Registry name.
    pub algo: String,
    /// `"offline"` / `"online"`.
    pub kind: String,
    /// The paper's headline metric.
    pub ave_cost: f64,
    /// Total cost.
    pub total_cost: f64,
    /// `Σ|d_i|`.
    pub total_accesses: usize,
    /// `|ledger total − total_cost|` — 0 up to float associativity.
    pub reconciliation_gap: f64,
}

/// Output of the registry sweep.
#[derive(Debug, Clone)]
pub struct SolverSweep {
    /// One row per solver that ran, in registry order.
    pub rows: Vec<SweepRow>,
    /// Solvers skipped because the workload exceeds their request limit.
    pub skipped: Vec<String>,
}

/// Runs every registered solver on `seq` under `ctx`.
pub fn run(seq: &RequestSeq, ctx: &RunContext) -> SolverSweep {
    let mut rows = Vec::new();
    let mut skipped = Vec::new();
    for solver in solvers() {
        if solver
            .request_limit()
            .is_some_and(|limit| seq.requests().len() > limit)
        {
            skipped.push(solver.name().to_string());
            continue;
        }
        let sol: Solution = solver.solve(seq, ctx);
        rows.push(SweepRow {
            algo: solver.name().to_string(),
            kind: solver.kind().label().to_string(),
            ave_cost: sol.ave_cost(),
            total_cost: sol.total_cost,
            total_accesses: sol.total_accesses,
            reconciliation_gap: sol.reconciliation_gap(),
        });
    }
    SolverSweep { rows, skipped }
}

/// The sweep on the Section V-C running example — the fixture the CI
/// registry-smoke job pins (`results/registry_expected.tsv`).
pub fn paper_example() -> SolverSweep {
    run(
        &dp_greedy::paper_example::paper_sequence(),
        &RunContext::paper_example(),
    )
}

impl SolverSweep {
    /// Renders the sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Registry sweep — every solver on one workload",
            &["algo", "kind", "ave_cost", "total", "accesses", "gap"],
        );
        for r in &self.rows {
            t.push(vec![
                r.algo.clone(),
                r.kind.clone(),
                fmt_f(r.ave_cost),
                fmt_f(r.total_cost),
                r.total_accesses.to_string(),
                format!("{:.1e}", r.reconciliation_gap),
            ]);
        }
        for s in &self.skipped {
            t.push(vec![
                s.clone(),
                "-".into(),
                "skipped".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
        t
    }

    /// Stable TSV (`algo<TAB>ave_cost` at 6 decimals) for the CI
    /// registry-smoke diff. Skipped solvers are omitted.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("algo\tave_cost\n");
        for r in &self.rows {
            out.push_str(&format!("{}\t{:.6}\n", r.algo, r.ave_cost));
        }
        out
    }
}

/// One `(trace density, K)` measurement of the fig12 K-sweep.
#[derive(Debug, Clone)]
pub struct KSweepRow {
    /// Workload label (`"sparse"` / `"dense"`).
    pub density: String,
    /// The bundle workload's co-access probability `q`.
    pub q: f64,
    /// `K` column label (`"2"`, `"3"`, …, or `"adaptive"`).
    pub k: String,
    /// The `max_group` the solver ran with.
    pub max_group: usize,
    /// The packing threshold actually used (prescan-derived when
    /// adaptive).
    pub theta: f64,
    /// Number of packages Phase 1 formed.
    pub packages: usize,
    /// Size of the largest package.
    pub largest: usize,
    /// The paper's headline metric under `dp_greedy`.
    pub ave_cost: f64,
    /// Total cost under `dp_greedy`.
    pub total_cost: f64,
}

/// Output of the fig12 K-sweep.
#[derive(Debug, Clone)]
pub struct KSweep {
    /// One row per `(density, K)` pair, densities outer, K inner.
    pub rows: Vec<KSweepRow>,
}

/// Sweeps the `dp_greedy` row over K ∈ {2, 3, 4, 8} plus the adaptive-θ
/// mode on two bundle-workload densities (co-access probability
/// `q = 0.35` vs `q = 0.8`) — the fig12-style "when do bigger bundles
/// win" experiment. Deterministic for a given `(steps, seed)`.
pub fn k_sweep(steps: usize, seed: u64) -> KSweep {
    use dp_greedy::two_phase::pack;

    let model = mcs_model::defaults::default_model();
    let solver = mcs_engine::find("dp_greedy").expect("dp_greedy is registered");
    let mut rows = Vec::new();
    for (density, q) in [("sparse", 0.35), ("dense", 0.8)] {
        let seq = crate::multi_exp::bundle_workload(12, 3, steps, q, seed);
        for (label, max_group, adaptive) in [
            ("2", 2usize, false),
            ("3", 3, false),
            ("4", 4, false),
            ("8", 8, false),
            ("adaptive", 8, true),
        ] {
            let mut ctx = RunContext::new(model).with_max_group(max_group);
            if adaptive {
                ctx = ctx.with_adaptive_theta();
            }
            let theta = ctx.theta_for(&seq);
            // The solver's Phase 1, under the same θ it resolves to.
            let packing = pack(&seq, theta, max_group);
            let (packages, largest) = (packing.package_count(), packing.largest_package());
            let sol = solver.solve(&seq, &ctx);
            rows.push(KSweepRow {
                density: density.to_string(),
                q,
                k: label.to_string(),
                max_group,
                theta,
                packages,
                largest,
                ave_cost: sol.ave_cost(),
                total_cost: sol.total_cost,
            });
        }
    }
    KSweep { rows }
}

impl KSweep {
    /// Renders the K-sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "K-sweep — dp_greedy cost vs package-size cap on two densities",
            &[
                "density", "q", "K", "theta", "packages", "largest", "ave_cost", "total",
            ],
        );
        for r in &self.rows {
            t.push(vec![
                r.density.clone(),
                fmt_f(r.q),
                r.k.clone(),
                fmt_f(r.theta),
                r.packages.to_string(),
                r.largest.to_string(),
                fmt_f(r.ave_cost),
                fmt_f(r.total_cost),
            ]);
        }
        t
    }

    /// Stable TSV rendering (6-decimal costs) for the committed
    /// `results/fig12_ksweep.tsv` artifact and the CI kpack-smoke job.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("density\tq\tK\ttheta\tpackages\tlargest\tave_cost\ttotal\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{}\t{:.2}\t{}\t{:.6}\t{}\t{}\t{:.6}\t{:.6}\n",
                r.density, r.q, r.k, r.theta, r.packages, r.largest, r.ave_cost, r.total_cost
            ));
        }
        out
    }
}

mcs_model::impl_to_json!(KSweepRow {
    density,
    q,
    k,
    max_group,
    theta,
    packages,
    largest,
    ave_cost,
    total_cost
});
mcs_model::impl_to_json!(KSweep { rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_sweep_covers_the_whole_registry() {
        let sweep = paper_example();
        assert_eq!(
            sweep.rows.len() + sweep.skipped.len(),
            mcs_engine::solvers().len()
        );
        // The 7-request example is under every solver's limit.
        assert!(sweep.skipped.is_empty());
        let dpg = sweep.rows.iter().find(|r| r.algo == "dp_greedy").unwrap();
        assert!((dpg.total_cost - 14.96).abs() < 1e-9);
        for r in &sweep.rows {
            assert!(r.reconciliation_gap < 1e-9, "{} gap", r.algo);
        }
    }

    #[test]
    fn k_sweep_covers_both_densities_and_all_caps() {
        let sweep = k_sweep(160, 7);
        assert_eq!(sweep.rows.len(), 10);
        // Deterministic for a fixed (steps, seed).
        let again = k_sweep(160, 7);
        for (a, b) in sweep.rows.iter().zip(&again.rows) {
            assert_eq!(a.total_cost.to_bits(), b.total_cost.to_bits());
        }
        for r in &sweep.rows {
            assert!(r.largest <= r.max_group, "{}/{} overflowed", r.density, r.k);
            assert!(r.ave_cost.is_finite() && r.ave_cost >= 0.0);
        }
        // The dense bundle workload at K ≥ 3 must pack a full trio and
        // do no worse than the pairwise cap.
        let dense_k2 = &sweep.rows[5];
        let dense_k3 = &sweep.rows[6];
        assert_eq!(
            (dense_k2.density.as_str(), dense_k2.k.as_str()),
            ("dense", "2")
        );
        assert_eq!(dense_k3.largest, 3);
        assert!(dense_k3.total_cost <= dense_k2.total_cost + 1e-9);
        let tsv = sweep.to_tsv();
        assert_eq!(tsv.lines().count(), 11);
        assert!(tsv.starts_with("density\tq\tK\t"));
    }

    #[test]
    fn tsv_is_deterministic_and_matches_registry_order() {
        let a = paper_example().to_tsv();
        let b = paper_example().to_tsv();
        assert_eq!(a, b);
        let names: Vec<&str> = a
            .lines()
            .skip(1)
            .map(|l| l.split('\t').next().unwrap())
            .collect();
        let expected: Vec<&str> = mcs_engine::solvers().iter().map(|s| s.name()).collect();
        assert_eq!(names, expected);
    }
}
