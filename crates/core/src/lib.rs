//! # dp-greedy — the two-phase caching algorithm of Huang et al. (CLUSTER 2019)
//!
//! This crate implements the paper's primary contribution:
//!
//! * **Phase 1** (via `mcs-correlation`): Jaccard-similarity analysis of the
//!   request sequence and greedy threshold matching of item pairs.
//! * **Phase 2** ([`two_phase`]): for each packed pair, the co-requests are
//!   served by the optimal off-line algorithm of \[6\] at package rates
//!   (`2αμ`, `2αλ`); requests for a *single* item of the pair are served by
//!   the three-arm greedy of Observation 2 (cache from `r_{p(i)}`, transfer
//!   from `r_{i−1}`, or package delivery at `2αλ`); unpacked items are
//!   served by the optimal off-line algorithm individually. The same
//!   Phase 2 serves packages of more items, which the agglomerative
//!   K-matcher packs above a size cap of 2 (the engine's `dp_greedy` at
//!   `max_group` > 2, and `multi`).
//! * [`dp_greedy`] composes the two phases at any size cap, the only
//!   place they are composed; [`windowed`] runs it once per time window,
//!   the only loop over windows.
//!
//! Plus everything needed to evaluate it:
//!
//! * [`baselines`] — per-pair costs of the paper's comparison algorithms:
//!   `Optimal` (non-packing, per-item optimal off-line — the yardstick of
//!   Fig. 11/12) and `Package_Served` (always pack — the other extreme of
//!   Fig. 13). Over a whole sequence they run as the `mcs-engine`
//!   registry's `optimal` and `package_served` rows.
//! * [`prescan`] — the Section V data structures (per-server doubly linked
//!   lists `Q_j`, the `A[n]` index, the `pLast[m]` array and per-request
//!   `m`-size pointer arrays) giving `O(1)` interval identification.
//! * [`ratio`] — an exact solver for the *packed* cost model on small
//!   instances, used to verify the `2/α` bound of Theorem 1 empirically.
//! * [`paper_example`] — the complete Section V-C running example,
//!   reproducing the paper's total of 14.96 exactly.
//!
//! The `mcs-obs` decision ledger of a run is derived by the engine
//! (`mcs_engine::Solution::ledger`) from the schedules and arm choices
//! these reports record. It is the only record of those decisions:
//! `dpg explain` prints a pair's ledger events rather than narrating the
//! reports itself.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod paper_example;
pub mod prescan;
pub mod ratio;
pub mod singleton_greedy;
pub mod two_phase;
pub mod windowed;

pub use two_phase::{dp_greedy, DpGreedyConfig, DpGreedyReport, PackageReport, SingletonReport};
