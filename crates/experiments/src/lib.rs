//! # mcs-experiments — reproduction of the paper's evaluation section
//!
//! One module per figure/table of the paper (see the experiment index in
//! `DESIGN.md` §5 and the measured results in `EXPERIMENTS.md`):
//!
//! | Module       | Paper artefact | What it regenerates |
//! |--------------|----------------|---------------------|
//! | [`fig09`]    | Fig. 9  | spatial request distribution over the 50 zones |
//! | [`fig10`]    | Fig. 10 | pair frequency & Jaccard spectrum |
//! | [`fig11`]    | Fig. 11 | `ave_cost` vs Jaccard, DP_Greedy vs Optimal |
//! | [`fig12`]    | Fig. 12 | `ave_cost` vs `ρ = λ/μ` with `λ + μ = 6` |
//! | [`fig13`]    | Fig. 13 | `ave_cost` vs `α` for Package_Served / Optimal / DP_Greedy |
//! | [`ratio_exp`]| Thm. 1  | empirical `C_DPG/C*` against the `2/α` bound |
//! | [`online_exp`]| E10    | competitive ratios of the on-line policies |
//! | [`chaos_exp`]| —       | robustness: degradation under injected faults |
//! | [`solver_sweep`]| —    | every registered engine solver on one workload |
//! | [`plane_exp`]| —       | hetero/tiered cost planes vs the homogeneous projection |
//!
//! All sweeps are deterministic (seeded workloads) and parallelised with
//! [`mcs_model::par`] where points are independent. The `figures` binary drives them from the
//! command line. The whole-sequence runners (`fig12`, `drift_exp`,
//! `capacity_exp`, `chaos_exp`) resolve their algorithms from the
//! `mcs-engine` registry by name, and the per-pair runners (`fig11`,
//! `fig13`) derive their cost breakdowns from engine
//! [`SolutionPart`]s through [`Solution::ledger`], so every ledger
//! column in the workspace comes from one derivation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod capacity_exp;
pub mod chaos_exp;
pub mod drift_exp;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod multi_exp;
pub mod online_exp;
pub mod plane_exp;
pub mod ratio_exp;
pub mod replication;
pub mod solver_sweep;
pub mod table;

pub use table::Table;

use mcs_engine::{Solution, SolutionPart, SolverKind};
use mcs_obs::ledger::CostBreakdown;
use mcs_trace::workload::WorkloadConfig;

/// The default workload seed used by every figure (kept stable so
/// `EXPERIMENTS.md` numbers are reproducible; equals
/// [`mcs_model::defaults::DEFAULT_SEED`]).
pub const DEFAULT_SEED: u64 = mcs_model::defaults::DEFAULT_SEED; // CLUSTER 2019 conference date.

/// The shared paper-like workload configuration.
pub fn paper_workload(seed: u64) -> WorkloadConfig {
    WorkloadConfig::paper_like(seed)
}

/// The ledger cost breakdown of one pair's parts, derived by
/// [`Solution::ledger`] like every registry row's ledger.
fn parts_breakdown(parts: Vec<SolutionPart>) -> CostBreakdown {
    let solution = Solution {
        algo: "dp_greedy",
        kind: SolverKind::Offline,
        total_cost: parts.iter().map(SolutionPart::cost).sum(),
        total_accesses: 0,
        parts,
    };
    solution.ledger().breakdown()
}
