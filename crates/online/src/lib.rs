//! # mcs-online — on-line caching extension
//!
//! Reference \[6\] of the DP_Greedy paper pairs its optimal off-line
//! algorithm with "a fast 3-competitive on-line algorithm". The on-line
//! setting — no knowledge of future requests — is outside DP_Greedy's
//! off-line model but inside its research agenda, so this crate provides
//! the reconstruction used by our E10 experiment:
//!
//! * [`mod@ski_rental`] — the classic rent-or-buy rule adapted to
//!   single-commodity caching: every copy delivered to a server is kept
//!   for `λ/μ` time units after its last use, then dropped; a *backbone*
//!   copy follows the most recent request so a transfer source always
//!   exists. This is the standard structure behind constant-competitive
//!   bounds for this problem family.
//! * [`extremes`] — the two trivial policies bracketing it:
//!   `always_transfer` (keep only the backbone) and `cache_everywhere`
//!   (never drop a delivered copy).
//! * [`harness`] — competitive-ratio measurement against the off-line
//!   optimum of `mcs-offline`, plus degradation-ratio measurement for
//!   fault-aware policies.
//! * [`resilient`] — the crash-aware ski-rental variant: it observes
//!   [`mcs_model::FaultPlan`] crashes as they happen, settles rents early
//!   when copies are lost, re-plans the backbone onto the origin's
//!   durable store when the anchor dies, and retries failed transfers
//!   before falling back to the origin.
//!
//! All policies emit explicit [`mcs_model::Schedule`]s so the replay
//! simulator can verify feasibility and re-derive their costs.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capacity;
pub mod extremes;
pub mod harness;
pub mod online_dpg;
pub mod resilient;
pub mod ski_rental;
pub mod tiered;

pub use harness::{competitive_ratio, degradation_ratio, DegradationSample, RatioSample};
pub use resilient::{resilient_ski_rental, ResilientOutcome};
pub use ski_rental::{ski_rental, OnlineOutcome};
