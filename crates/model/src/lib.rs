//! # mcs-model — domain model for cost-driven mobile-cloud caching
//!
//! This crate defines the vocabulary shared by every other crate in the
//! DP_Greedy reproduction:
//!
//! * [`ItemId`] / [`ServerId`] — strongly-typed identifiers.
//! * [`Request`] / [`RequestSeq`] — the spatial-temporal request trajectory
//!   `r_i = <s_i, t_i, D_i>` of the paper (Section III-A), with a validating
//!   builder that enforces the standard assumptions (strictly increasing
//!   request times, at most one request per time instance, non-empty item
//!   sets, server indices in range).
//! * [`CostModel`] — the homogeneous cost model (Section III-B): caching at
//!   `μ` per copy per unit time, transfers at `λ` between any server pair,
//!   and the package discount `α` of Table II (`k` packed items cache at
//!   `αkμ` and transfer at `αkλ`).
//! * [`Schedule`] — an explicit space-time schedule (cache intervals plus
//!   transfers, Fig. 1/2 of the paper) together with an *independent*
//!   feasibility checker and cost accountant, used to cross-validate every
//!   algorithm in the workspace.
//! * [`diagram`] — ASCII renderings of space-time diagrams for debugging
//!   and documentation.
//!
//! Everything here is pure, deterministic, `Send + Sync` data with no
//! floating-point environment dependence beyond ordinary IEEE-754
//! arithmetic. The one interior-mutable cell is [`RequestSeq`]'s posting
//! index, built once on first use and invisible to equality, `Debug` and
//! `Clone`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod defaults;
pub mod diagram;
pub mod error;
pub mod fault;
pub mod hetero;
pub mod ids;
pub mod json;
pub mod par;
pub mod plane;
pub mod request;
pub mod rng;
pub mod schedule;
pub mod svg;
pub mod tiered;
pub mod time;

pub use cost::{CostModel, CostModelBuilder, PACKAGE_PAIR};
pub use error::ModelError;
pub use fault::{CrashWindow, FaultPlan};
pub use hetero::{HeteroCostModel, HeteroCostModelBuilder};
pub use ids::{ItemId, ServerId};
pub use plane::CostPlane;
pub use request::{PairRow, Request, RequestSeq, RequestSeqBuilder};
pub use schedule::{CacheInterval, Schedule, ScheduleCost, Transfer};
pub use tiered::{StorageTier, TieredCostModel};
pub use time::{approx_eq, approx_le, TimePoint, EPSILON};
