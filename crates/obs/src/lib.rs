//! # mcs-obs — observability for the DP_Greedy stack
//!
//! The paper's evaluation (Figs. 9–13) is entirely about *where cost
//! goes* — caching vs. transfer vs. package delivery as `θ`, `α` and the
//! trace shape vary — and the ROADMAP's production north star needs
//! wall-clock attribution on top. This crate provides both, with zero
//! external dependencies (the build is offline; see DESIGN.md):
//!
//! * [`metrics`] — a lightweight span/counter/histogram registry with
//!   **thread-local collection**: each thread accumulates into its own
//!   buffer, which is merged into a global aggregate when the thread
//!   exits (covering the worker threads of `mcs_model::par`)
//!   or when a [`metrics::snapshot`] is taken.
//! * [`span`](mod@span) — RAII wall-clock timers feeding the registry;
//!   this is how Phase-1 Jaccard/sort/pack vs. Phase-2 serve timings are
//!   threaded through `dp-greedy::two_phase`, `mcs-offline::optimal{,_fast}`,
//!   `mcs-online` and `mcs-sim::replay`.
//! * [`ledger`] — the **decision ledger**: every cache-interval, transfer
//!   and package-delivery choice as a structured event
//!   `{algo, phase, item/pair, option_chosen, option_costs[3], t, cost}`
//!   whose summed cost provably reconciles with the schedule's
//!   `total_cost` (property-tested in `tests/ledger_reconciliation.rs`).
//! * [`jsonl`] — a deterministic JSON-lines sink: the same run always
//!   produces byte-identical output (enforced by the `obs-smoke` CI job).
//! * [`buckets`] — the fixed log₂ bucket grid shared by every histogram,
//!   so p50/p99 are exportable without retaining samples and bucket
//!   tables from different scrapes/processes merge cleanly.
//! * [`expo`] — a zero-dependency Prometheus text-format encoder for
//!   [`MetricsSnapshot`] (counters/gauges/histograms with `# TYPE`
//!   lines, deterministic name order).
//! * [`journal`] — a bounded ring-buffer **event journal** of structured
//!   lifecycle events `{seq, t_mono, kind, epoch, fields…}` with a
//!   deterministic JSONL encoding; wall-clock nondeterminism is isolated
//!   to the designated `t_mono` key. This is what turns the crate from a
//!   batch profiler into a live observability plane (`dpg serve
//!   --telemetry-addr` + `dpg top`).
//!
//! The ledger is *derived* from algorithm outputs (explicit schedules and
//! recorded arm choices) rather than logged inline, so event emission is
//! deterministic, costs nothing when unused, and reconciliation is a
//! theorem about the outputs rather than a logging convention. A
//! [`Ledger`] is a view over an [`EventSource`] that derives the events
//! again on each read, so no list of them is ever stored.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buckets;
pub mod expo;
pub mod journal;
pub mod jsonl;
pub mod ledger;
pub mod metrics;
pub mod span;

pub use expo::prometheus_text;
pub use ledger::{CostBreakdown, EventSource, Ledger, LedgerEvent, Subject};
pub use metrics::{
    counter_add, fcounter_add, flush_local, gauge_set, observe, snapshot, MetricsSnapshot,
};
pub use span::{span, time_phase, Span};
