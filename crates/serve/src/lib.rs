//! Crash-safe online serving for the DP_Greedy suite.
//!
//! The batch pipeline answers "given this trace, how should items be
//! cached?". This crate answers the operational question that follows:
//! *keep* answering it while requests arrive, survive `kill -9` at any
//! instant, and never let one slow or panicking solver invocation take
//! the daemon down.
//!
//! Three cooperating layers:
//!
//! - [`protocol`] — the newline-framed input language (`hello`, `req`,
//!   comments), parsed with per-line error positions and zero panics.
//! - [`wal`] + [`checkpoint`] — durability. Admitted requests and epoch
//!   outcomes are appended (and flushed) to a write-ahead log *before*
//!   they are applied. The whole [`checkpoint::DaemonState`] (including
//!   the bit-exact streaming-statistics snapshot) is persisted atomically
//!   and durably only when the log settled since the last checkpoint has
//!   outgrown it, at the end of the input, and after a recovery that
//!   replayed a settlement. Each checkpoint opens the log segment every
//!   later epoch appends to and deletes the segments it covers, so
//!   closing an epoch creates no file. Recovery is checkpoint + WAL
//!   replay, and reproduces the pre-crash state byte for byte;
//!   [`Daemon::inspect`] replays in memory and writes nothing.
//! - [`daemon`] — the serving loop: admission control (bounding
//!   per-request work), epoch settlement through the [`mcs_engine`]
//!   solver registry on one long-lived worker thread under a deadline,
//!   overlapping the next epoch's admissions,
//!   `catch_unwind` panic isolation, and degraded fallback (last-good
//!   placement, conservative pricing) when settlement cannot be trusted.
//!
//! Everything is observable through [`mcs_obs`]: admission latency and
//! settlement histograms, backpressure and degradation-ratio gauges,
//! counters for every rejection class, cost accumulators split by
//! settlement outcome, and a journal event for every epoch lifecycle
//! transition. The [`telemetry`] module exposes all of it *live*: a
//! std-only TCP control endpoint (`GET /metrics` Prometheus text, `GET
//! /journal?n=K` JSONL tail) plus an atomic epoch-boundary file
//! publisher — what `dpg top` polls and renders.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod daemon;
pub mod protocol;
pub mod telemetry;
pub mod wal;

pub use checkpoint::{DaemonState, PendingReq, CHECKPOINT_VERSION};
pub use daemon::{serve_stream, Admission, Daemon, ServeConfig, ServeError, ServeSummary};
pub use protocol::{Frame, ProtocolError};
pub use telemetry::TelemetryServer;
pub use wal::{EpochStatus, Wal, WalRecord};
