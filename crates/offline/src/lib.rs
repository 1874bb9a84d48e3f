//! # mcs-offline — off-line single-commodity caching algorithms
//!
//! The DP_Greedy paper builds on the optimal off-line algorithm for caching
//! a *single* shared data item across `m` fully-connected homogeneous cache
//! servers (Wang et al., ICPP 2017 — reference \[6\] of the paper). This crate
//! re-derives and implements that substrate from first principles, plus the
//! baselines and exact solvers the reproduction needs:
//!
//! * [`mod@optimal`] — the production solver: a minimum-cost line-covering
//!   dynamic program over the request time line, `O(n log n)`, which
//!   computes the optimal off-line cost *and* an explicit, validated
//!   [`mcs_model::Schedule`]. Under package rates (`2αμ`, `2αλ`) it is
//!   exactly the "alg. in \[6\]" invoked by Algorithm 1 of the paper.
//! * [`mod@greedy`] — the simple greedy baseline of Section IV-B (Fig. 4): each
//!   request is served by the cheaper of a local cache from `r_{p(i)}` or a
//!   transfer from `r_{i−1}`; provably within `2×` of optimal after the
//!   paper's cut argument.
//! * [`exhaustive`] — exact solver by exhaustive enumeration of
//!   cache/transfer decisions (exponential; small `n` only).
//! * [`statespace`] — exact solver by layered DP over
//!   `(request, set-of-servers-holding-copies)` states, which embodies *no*
//!   structural insight at all and is therefore the independent ground
//!   truth (exponential in `m`; small instances only).
//!
//! ## How the optimal algorithm is derived
//!
//! Under the homogeneous model an optimal schedule can be normalised so
//! that every request `r_i` is served either by a **local cache interval**
//! `[t_{p(i)}, t_i]` at its own server (cost `μ·(t_i − t_{p(i)})`) or by a
//! **transfer** (cost `λ`) from any copy alive at `t_i`, and so that at
//! every instant of `[0, t_n]` at least one copy is alive (any serving
//! lineage traces continuously back to the origin placement). Fixing the
//! set `X` of cache-served requests therefore fixes the total cost:
//!
//! ```text
//! cost(X) = Σ_{i∈X} μ·(t_i − t_{p(i)})   +   λ·|X̄|   +   μ·|holes(X)|
//! ```
//!
//! where `holes(X)` is the part of `[0, t_n]` covered by no chosen
//! interval and must be *bridged* by keeping the most recent copy alive.
//! Requests with `μ·(t_i − t_{p(i)}) ≤ λ` are always cache-served
//! (dominance); the residual choice over "long" intervals is a shortest
//! path over gap boundaries with interval edges (`μ·len − λ`) and bridge
//! edges (`μ·gap`, free where a short interval already covers), solved in
//! one forward sweep with a range-minimum query per long interval. See
//! `DESIGN.md` §2 for the full argument and the validation matrix.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exhaustive;
pub mod greedy;
pub mod hetero;
pub mod optimal;
pub mod optimal_fast;
pub mod single_copy;
pub mod statespace;

pub use greedy::{greedy, GreedyOutcome};
pub use optimal::{optimal, OptimalOutcome, ServeDecision};
pub use optimal_fast::optimal_fast_cost;
pub use single_copy::{single_copy_optimal, SingleCopyOutcome};

#[cfg(test)]
mod cross_validation;
