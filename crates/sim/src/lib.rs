//! # mcs-sim — event-driven schedule replay
//!
//! Executes an explicit [`mcs_model::Schedule`] against a request trace on
//! a simulated server network, independently of any algorithm's internal
//! bookkeeping:
//!
//! * [`engine`] — a small discrete-event sweep over the schedule's event
//!   times (interval starts/ends, transfers, requests) maintaining the
//!   live-copy set per server.
//! * [`mod@replay`] — full replay with feasibility verification (copies only
//!   appear via origin/transfer/continuation; every request is served) and
//!   cost re-derivation by time integration of the live-copy count —
//!   `cost = rate_cache · ∫ copies(t) dt + cost_transfer · #transfers` —
//!   which must agree with the interval-sum accounting of `mcs-model`.
//! * [`metrics`] — occupancy metrics: peak concurrent copies, per-server
//!   copy time, transfer fan-in/out.
//! * [`faults`] — degraded replay under a [`mcs_model::FaultPlan`]:
//!   crashes, transfer failures, retries, origin fallback and re-cache.
//! * [`fleet`] — [`chaos_solution`], the fault replay of every explicit
//!   schedule of an `mcs-engine` [`mcs_engine::Solution`]; it reads any
//!   registered solver's output, so the simulator depends on the engine,
//!   not on one algorithm's report type.
//!
//! Every algorithm in the workspace is cross-checked through this replay
//! path in the integration tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod faults;
pub mod fleet;
mod fuzz;
pub mod metrics;
pub mod replay;

pub use faults::{chaos_replay, degraded_replay, ChaosOutcome, DegradedReport};
pub use fleet::{chaos_solution, CommodityChaos, FleetChaosReport};
pub use metrics::{FaultReport, ReplayMetrics};
pub use replay::{replay, ReplayError, ReplayReport};
