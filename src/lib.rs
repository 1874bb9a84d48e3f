//! # dp-greedy-suite — one-stop façade for the DP_Greedy reproduction
//!
//! Re-exports the full workspace so examples and downstream users can
//! depend on a single crate:
//!
//! ```rust
//! use dp_greedy_suite::prelude::*;
//!
//! // Build the paper's running example and reproduce its total of 14.96.
//! let report = dp_greedy::paper_example::paper_report();
//! assert!((report.total_cost - 14.96).abs() < 1e-9);
//! ```
//!
//! Crate map (see `DESIGN.md` for the full inventory):
//!
//! * [`obs`] — observability: metrics registry, spans, decision ledger
//! * [`model`] — requests, cost model, schedules, validation
//! * [`correlation`] — Phase 1: Jaccard analysis and matching
//! * [`offline`] — the optimal off-line substrate of \[6\] + baselines
//! * [`dp_greedy`] — the paper's two-phase algorithm, composed in one
//!   function at any package-size cap and driven per time window in one
//!   place, and the per-pair baselines
//! * [`online`] — on-line extension (ski-rental family)
//! * [`engine`] — the solver registry: one `CachingSolver` trait over
//!   every algorithm, plus the shared `RunContext`/`Solution` types
//! * [`trace`] — synthetic Shenzhen-like taxi workloads
//! * [`serve`] — crash-safe serving daemon: WAL, checkpoints, degraded modes
//! * [`sim`] — event-driven schedule replay + fault injection
//! * [`experiments`] — figure/table runners for the evaluation section

#![warn(missing_docs)]

pub use dp_greedy;
pub use mcs_correlation as correlation;
pub use mcs_engine as engine;
pub use mcs_experiments as experiments;
pub use mcs_model as model;
pub use mcs_obs as obs;
pub use mcs_offline as offline;
pub use mcs_online as online;
pub use mcs_serve as serve;
pub use mcs_sim as sim;
pub use mcs_trace as trace;

/// Commonly used items, for glob import in examples.
pub mod prelude {
    pub use dp_greedy::two_phase::{dp_greedy, dp_greedy_pair, DpGreedyConfig, DpGreedyReport};
    pub use mcs_correlation::{
        adaptive_theta, agglomerative_packages, greedy_matching, pairs_above, CoOccurrence,
        JaccardMatrix, PackageSet, Packing, PairTable,
    };
    pub use mcs_engine::{find, solvers, CachingSolver, RunContext, Solution};
    pub use mcs_model::{
        CostModel, CostModelBuilder, ItemId, Request, RequestSeq, RequestSeqBuilder, Schedule,
        ServerId,
    };
    pub use mcs_offline::{greedy::greedy, optimal};
    pub use mcs_sim::replay;
    pub use mcs_trace::workload::{generate, WorkloadConfig};
}
