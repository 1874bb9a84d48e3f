//! # mcs-correlation — Phase 1 of the DP_Greedy algorithm
//!
//! Implements the correlation analysis of Section IV-A: co-occurrence
//! counting over a request sequence, the Jaccard similarity matrix of
//! Eq. (4)/(5), and the greedy threshold matching of Algorithm 1
//! (lines 7–27) that decides which item pairs are packed.
//!
//! Also provides two extensions called out by the paper as future work or
//! used by our ablations:
//!
//! * [`grouping`] — agglomerative K-package matching of *more than two*
//!   correlated items ("it can be naturally extended to the case where
//!   multiple data items could be packed"), generic over the compressed
//!   pair table and the dense matrix, with an adaptive per-trace θ rule.
//! * [`exact`] — exact maximum-weight matching by bitmask DP, quantifying
//!   what the greedy matching loses (ablation `matching`).
//!
//! The pairwise matcher produces a [`Packing`] (disjoint pairs plus
//! singletons, with its byte-stable JSON shape) and the K-matcher a
//! [`PackageSet`] ([`package_set`]).
//!
//! The solvers run on one pair counter ([`pairs`]): a walk of each
//! item's posting list that counts its co-requests with every later item
//! into a reused dense scratch. On it, [`pairs_above`] emits only the
//! pairs with `J > θ`, split across worker threads for long sequences,
//! and [`PairTable`] stores every observed pair in compressed rows for the
//! K-matcher, so Phase 1 takes time in the pair events and memory linear
//! in the catalog plus what it keeps. [`CoOccurrence`] and
//! [`JaccardMatrix`] count the dense `k²` triangle and matrix; they are
//! the reference the tests hold both structures to, bit for bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exact;
pub mod grouping;
pub mod jaccard;
pub mod matching;
pub mod package_set;
pub mod pairs;
pub mod streaming;

pub use grouping::{adaptive_theta, agglomerative_packages, PairwiseSimilarity};
pub use jaccard::{CoOccurrence, JaccardMatrix};
pub use matching::{greedy_matching, Packing};
pub use package_set::PackageSet;
pub use pairs::{pairs_above, pairs_above_sharded, PairTable};
pub use streaming::{StreamingCooccurrence, StreamingSnapshot};
