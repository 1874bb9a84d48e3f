//! The serving daemon: WAL-ordered ingestion, deadline-bounded epoch
//! settlement, checkpoints at a log-proportional cadence, and crash
//! recovery.
//!
//! # Write ordering (the crash-safety argument)
//!
//! Every state transition is logged *before* it is applied, and the
//! statistics change only at settlements:
//!
//! 1. **Admission** — a validated request is appended to the epoch WAL
//!    (and flushed) first, then buffered in the open epoch; it does not
//!    touch the statistics. A crash after the append replays the record;
//!    a crash mid-append leaves a torn tail that was never applied, and
//!    the resumable input source re-delivers the request.
//! 2. **Settlement** — when the buffer fills, the outcome
//!    (`ok`/`deadline`/`panic` plus the settled cost as raw `f64` bits)
//!    is appended to the WAL first, then applied: cost accumulators, the
//!    epoch's requests folded into the streaming statistics in admission
//!    order (ok and degraded epochs alike), the placement refresh (ok
//!    epochs only), and the next epoch's log. Recovery *replays the
//!    recorded outcome* instead of re-running the solver, so deadline and
//!    panic nondeterminism cannot make a recovered state diverge from the
//!    pre-crash one.
//! 3. **Checkpoint** — between settlements the statistics are exactly the
//!    last settled state, so a checkpoint needs no copy of them taken
//!    before the open epoch. After a settlement one is written only when
//!    the WAL bytes of the epochs settled since the last checkpoint have
//!    reached that checkpoint's size; also once when [`serve_stream`]
//!    reaches the end of its input and once at the end of a recovery that
//!    replayed a settlement. The file is synced, renamed into place and
//!    its directory synced; only then are the segments it covers deleted.
//!
//! The cadence has no knob and two bounds: within a run every checkpoint
//! but the last is paid for by at least its own size in log, and a crash
//! never leaves more than one checkpoint's size plus one epoch of log to
//! replay. Recovery loads the checkpoint, replays the log from its epoch,
//! and refreshes the placement once, at the last `ok` settle record it
//! replays — degraded epochs keep the last-good placement and carry their
//! cost in the WAL — so it costs O(checkpoint + log), not O(epochs ×
//! stored pairs).
//!
//! With these rules, `kill -9` at any instant recovers — checkpoint plus
//! WAL — to a state byte-identical to the never-crashed run over the same
//! input (enforced end-to-end by `tests/serve_crash_recovery.rs`). The
//! single caveat: a crash landing *between* epoch-full and the settle
//! append re-runs settlement on recovery, so the class of outcome (ok vs.
//! deadline) is reproduced rather than replayed; the solvers are
//! deterministic, so only a deadline set tighter than the solver's actual
//! runtime can differ. Checkpoints are synced and survive power loss; WAL
//! appends are flushed to the OS but not synced, so the log since the
//! last checkpoint survives `kill -9` but not power loss.
//!
//! # Bounded latency
//!
//! Per-request work is admission-validation, one WAL append, and a push
//! onto the epoch buffer, with `|D|` capped by admission control
//! ([`ServeConfig::max_items`]). Closing an epoch adds the settlement, the
//! `O(|D|² log P)` streaming update of each of its requests (`P` stored
//! pairs), a placement refresh that lists and sorts only the pairs above
//! θ, and, at the cadence above, one checkpoint written in a single pass.
//! Settlement runs on a worker thread
//! under [`ServeConfig::settle_timeout`]; on deadline or solver panic
//! (isolated by `catch_unwind`) the epoch settles *degraded*: last-good
//! placement, conservative fallback pricing (packed co-requests at the
//! package-delivery rate `2αλ`, everything else at `λ` per access), and
//! the epoch is recorded in [`DaemonState::degraded_epochs`]. A worker
//! that missed its deadline keeps running, but at most one such
//! *straggler* exists: until it finishes, later epochs settle degraded
//! immediately instead of spawning alongside it — so a consistently
//! slow solver costs one extra thread, not one per epoch, and solver
//! calls never run concurrently. The ok-vs-degraded quality gap is
//! surfaced as the degradation ratio (relative `ave_cost`, the chaos
//! harness's cost-inflation metric).

use std::collections::HashMap;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mcs_correlation::{matching::greedy_matching_from_pairs, StreamingCooccurrence};
use mcs_engine::{find, CachingSolver, RunContext, Solution};
use mcs_model::defaults::{DEFAULT_SEED, DEFAULT_THETA};
use mcs_model::{CostModel, ItemId, Request, RequestSeqBuilder, ServerId};
use mcs_obs::journal::{self, Value};

use crate::checkpoint::{DaemonState, PendingReq};
use crate::protocol::{parse_line, Frame};
use crate::wal::{
    read_records, remove_segments_before, truncate_torn, EpochStatus, Wal, WalContents, WalRecord,
};

/// Serving-run parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Durable state directory (checkpoint + WALs).
    pub dir: PathBuf,
    /// Cost model for settlement.
    pub model: CostModel,
    /// Packing threshold θ.
    pub theta: f64,
    /// Base seed; each epoch derives its own via [`RunContext::for_epoch`].
    pub seed: u64,
    /// Registry name of the settlement solver.
    pub algo: String,
    /// Requests per epoch.
    pub epoch_len: usize,
    /// Streaming decay factor in `(0, 1]`.
    pub decay: f64,
    /// Settlement deadline; missing it degrades the epoch.
    pub settle_timeout: Duration,
    /// Admission control: largest item set accepted per request.
    pub max_items: usize,
    /// Test hook: sleep this long per request frame (lets the crash
    /// harness land `kill -9` mid-epoch deterministically).
    pub throttle: Duration,
    /// Test hook: panic inside settlement of this epoch.
    pub inject_panic_epoch: Option<u64>,
    /// Test hook: sleep this long inside settlement of this epoch before
    /// solving (exercises the deadline and straggler paths).
    pub inject_slow_epoch: Option<(u64, Duration)>,
    /// Suppress per-event stderr notes.
    pub quiet: bool,
    /// Atomically publish the Prometheus exposition here at every epoch
    /// boundary (`--telemetry-file`; socketless environments). Publish
    /// failures are reported and survived, never fatal.
    pub telemetry_file: Option<PathBuf>,
}

impl ServeConfig {
    /// Defaults for a serve directory: `dp_greedy` settlement, epochs of
    /// 64 requests, no decay, a 2 s settlement deadline.
    pub fn new(dir: PathBuf) -> Self {
        ServeConfig {
            dir,
            model: mcs_model::defaults::default_model(),
            theta: DEFAULT_THETA,
            seed: DEFAULT_SEED,
            algo: "dp_greedy".to_string(),
            epoch_len: 64,
            decay: 1.0,
            settle_timeout: Duration::from_secs(2),
            max_items: 64,
            throttle: Duration::ZERO,
            inject_panic_epoch: None,
            inject_slow_epoch: None,
            quiet: false,
            telemetry_file: None,
        }
    }
}

/// A daemon failure (as opposed to a rejected frame, which is counted
/// and survived).
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem/WAL failure.
    Io(std::io::Error),
    /// Inconsistent or unusable durable state, bad handshake, unknown
    /// solver — anything that makes continuing unsound.
    State(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve io: {e}"),
            ServeError::State(m) => write!(f, "serve: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// End-of-run accounting (process-local; durable truth lives in
/// [`DaemonState`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests admitted this run (excludes WAL-replayed ones).
    pub admitted: u64,
    /// Frames rejected by admission control.
    pub rejected: u64,
    /// Frames skipped because their time was already covered by the
    /// recovered state (the resume path re-reading an input file).
    pub stale: u64,
    /// Unparsable input lines.
    pub malformed: u64,
    /// Requests replayed from the WAL during recovery.
    pub replayed: u64,
    /// Epochs settled this run.
    pub epochs_settled: u64,
    /// Bytes appended to the WAL this run.
    pub wal_bytes: u64,
    /// Placement refreshes this run, a recovery's included.
    pub placement_refreshes: u64,
}

/// What admission decided about one `req` frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Logged, buffered, and (possibly) settled.
    Admitted,
    /// Time not beyond the recovered/served horizon — skipped.
    Stale,
    /// Validation failure, with the reason.
    Rejected(String),
}

/// A running serving daemon.
pub struct Daemon {
    cfg: ServeConfig,
    solver: &'static dyn CachingSolver,
    base_ctx: RunContext,
    /// The settled state, which a checkpoint writes: everything up to the
    /// open epoch, with `pending` empty. Its `streaming` is the snapshot
    /// last written to a checkpoint (or loaded from one); the live
    /// statistics are `stream`.
    state: DaemonState,
    /// The statistics of every settled epoch.
    stream: StreamingCooccurrence,
    /// The open epoch's admitted requests, in admission order; its
    /// settlement moves them into `state` and `stream`.
    pending: Vec<PendingReq>,
    wal: Wal,
    /// Size of the last checkpoint written or loaded.
    checkpoint_bytes: u64,
    /// WAL bytes of the epochs settled since that checkpoint.
    log_bytes_since_checkpoint: u64,
    summary: ServeSummary,
    /// The receiver of a settlement worker that missed its deadline and
    /// is still running. At most one exists; no new worker spawns until
    /// it finishes, so solver calls never run concurrently and a slow
    /// solver leaks a single bounded thread, not one per epoch.
    straggler: Option<mpsc::Receiver<std::thread::Result<Solution>>>,
}

impl Daemon {
    fn resolve(cfg: &ServeConfig) -> Result<(&'static dyn CachingSolver, RunContext), ServeError> {
        let solver = find(&cfg.algo)
            .ok_or_else(|| ServeError::State(format!("unknown algorithm {}", cfg.algo)))?;
        if cfg.epoch_len == 0 {
            return Err(ServeError::State("epoch length must be positive".into()));
        }
        let ctx = RunContext::new(cfg.model)
            .with_theta(cfg.theta)
            .with_seed(cfg.seed);
        Ok((solver, ctx))
    }

    /// Starts a fresh daemon for a `hello <servers> <items>` handshake.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors or an unknown solver.
    pub fn fresh(cfg: ServeConfig, servers: u32, items: u32) -> Result<Daemon, ServeError> {
        let (solver, base_ctx) = Self::resolve(&cfg)?;
        std::fs::create_dir_all(&cfg.dir)?;
        let state = DaemonState::fresh(servers, items, cfg.decay);
        let stream =
            StreamingCooccurrence::from_snapshot(&state.streaming).map_err(ServeError::State)?;
        // Persist the epoch-0 checkpoint immediately: without it, a crash
        // before the first settlement would make recovery ignore the
        // epoch-0 WAL and re-admit (duplicate) its requests.
        let checkpoint_bytes = state.write_checkpoint(&cfg.dir)?;
        note_checkpoint(0, checkpoint_bytes, 0);
        journal::record("epoch-open", Some(0), vec![]);
        let wal = Wal::open(&cfg.dir, state.epoch)?;
        let daemon = Daemon {
            cfg,
            solver,
            base_ctx,
            state,
            stream,
            pending: Vec::new(),
            wal,
            checkpoint_bytes,
            log_bytes_since_checkpoint: 0,
            summary: ServeSummary::default(),
            straggler: None,
        };
        daemon.set_log_gauge();
        daemon.publish_telemetry();
        Ok(daemon)
    }

    /// Recovers a daemon from the durable state in `cfg.dir`, replaying
    /// the WAL from the checkpoint's epoch on. Returns `Ok(None)` when the
    /// directory holds no checkpoint (a fresh run).
    ///
    /// # Errors
    ///
    /// Fails on corrupt checkpoints, mid-log WAL corruption, or
    /// filesystem errors. Torn WAL tails recover cleanly.
    pub fn recover(cfg: ServeConfig) -> Result<Option<Daemon>, ServeError> {
        let Some((state, checkpoint_bytes)) =
            DaemonState::read_checkpoint(&cfg.dir).map_err(ServeError::State)?
        else {
            return Ok(None);
        };
        let (solver, base_ctx) = Self::resolve(&cfg)?;
        let stream = StreamingCooccurrence::from_snapshot(&state.streaming)
            .map_err(|e| ServeError::State(format!("checkpoint streaming state: {e}")))?;
        let mut daemon = Daemon {
            wal: Wal::open(&cfg.dir, state.epoch)?,
            cfg,
            solver,
            base_ctx,
            state,
            stream,
            pending: Vec::new(),
            checkpoint_bytes,
            log_bytes_since_checkpoint: 0,
            summary: ServeSummary::default(),
            straggler: None,
        };
        daemon.replay()?;
        daemon.publish_telemetry();
        Ok(Some(daemon))
    }

    /// Replays `wal-<epoch>.log` and every successor a settle record
    /// completed on top of the checkpoint, then checkpoints the result if
    /// it settled anything.
    fn replay(&mut self) -> Result<(), ServeError> {
        let mut logs: Vec<WalContents> = Vec::new();
        loop {
            let log = read_records(&self.cfg.dir, self.state.epoch + logs.len() as u64)?;
            let settled = log
                .records
                .iter()
                .any(|r| matches!(r, WalRecord::Settle { .. }));
            logs.push(log);
            if !settled {
                break;
            }
        }
        // Only the last ok settlement's placement survives the replay:
        // later degraded epochs keep it, and earlier ones are replaced.
        let mut ok_left = logs
            .iter()
            .flat_map(|log| &log.records)
            .filter(|r| matches!(r, WalRecord::Settle { status, .. } if !status.is_degraded()))
            .count();
        let open = logs.len() - 1;
        for (i, log) in logs.into_iter().enumerate() {
            for record in log.records {
                match record {
                    WalRecord::Req {
                        time,
                        server,
                        items,
                    } => {
                        self.buffer(time, server, items);
                        self.summary.replayed += 1;
                        mcs_obs::counter_add("serve.replayed", 1);
                    }
                    WalRecord::Settle { status, cost_bits } => {
                        // Replay the *recorded* outcome — never re-run
                        // the solver during recovery.
                        ok_left -= usize::from(!status.is_degraded());
                        self.apply_settlement(status, f64::from_bits(cost_bits), ok_left == 0);
                    }
                }
            }
            if i < open {
                self.log_bytes_since_checkpoint += log.valid_len;
            } else if log.torn {
                // This epoch's log is about to be reopened for append;
                // physically drop the torn fragment so the next record
                // cannot merge with it into a malformed line that a later
                // recovery would read as mid-log corruption.
                truncate_torn(&self.cfg.dir, self.state.epoch, log.valid_len)?;
                mcs_obs::counter_add("serve.torn_tails", 1);
                journal::record(
                    "wal-torn",
                    Some(self.state.epoch),
                    vec![("valid_len", Value::U64(log.valid_len))],
                );
            }
        }
        journal::record(
            "recovery-replay",
            Some(self.state.epoch),
            vec![("replayed", Value::U64(self.summary.replayed))],
        );
        self.checkpoint_if_behind()?;
        self.wal = Wal::open(&self.cfg.dir, self.state.epoch)?;
        self.set_log_gauge();
        // The buffer may have filled with no settle record durable yet
        // (crash inside settlement, before the outcome was logged):
        // settle now, exactly as the pre-crash process was about to.
        if self.pending.len() >= self.cfg.epoch_len {
            self.settle_epoch()?;
        }
        Ok(())
    }

    /// Validates the handshake against recovered state.
    ///
    /// # Errors
    ///
    /// Fails when the declared fleet/catalog sizes contradict the
    /// checkpoint — serving a different universe on old state corrupts it.
    pub fn hello(&self, servers: u32, items: u32) -> Result<(), ServeError> {
        if servers != self.state.servers || items != self.state.items {
            return Err(ServeError::State(format!(
                "hello {servers} {items} does not match recovered state ({} servers, {} items)",
                self.state.servers, self.state.items
            )));
        }
        Ok(())
    }

    /// Admission control + durable logging + buffering for one frame.
    ///
    /// # Errors
    ///
    /// Only daemon failures (WAL/checkpoint IO) are errors; invalid
    /// frames come back as [`Admission::Rejected`].
    pub fn admit(
        &mut self,
        time: f64,
        server: ServerId,
        mut items: Vec<ItemId>,
    ) -> Result<Admission, ServeError> {
        if !time.is_finite() || time <= 0.0 {
            return Ok(self.reject(format!("non-positive time {time}")));
        }
        if time <= self.last_time() {
            // Already covered by recovered/served history: the resume
            // path re-reading its input, or an out-of-order source.
            self.summary.stale += 1;
            mcs_obs::counter_add("serve.stale", 1);
            return Ok(Admission::Stale);
        }
        if server.0 >= self.state.servers {
            return Ok(self.reject(format!(
                "server {} out of range (fleet is {})",
                server.0, self.state.servers
            )));
        }
        items.sort_unstable();
        items.dedup();
        if items.is_empty() {
            return Ok(self.reject("empty item set".into()));
        }
        if items.len() > self.cfg.max_items {
            // Backpressure: oversized requests would break the O(|D|²)
            // per-request latency bound.
            mcs_obs::counter_add("serve.backpressure_drops", 1);
            return Ok(self.reject(format!(
                "item set of {} exceeds the admission cap {}",
                items.len(),
                self.cfg.max_items
            )));
        }
        if let Some(&max) = items.last() {
            if max.0 >= self.state.items {
                return Ok(self.reject(format!(
                    "item {} out of range (catalog is {})",
                    max.0, self.state.items
                )));
            }
        }

        // Durable before applied: WAL first. The record owns the item
        // list and hands it on, so admission never copies it.
        let record = WalRecord::Req {
            time,
            server,
            items,
        };
        self.log(&record)?;
        if let WalRecord::Req { items, .. } = record {
            self.buffer(time, server, items);
        }
        self.summary.admitted += 1;
        mcs_obs::counter_add("serve.admitted", 1);

        if self.pending.len() >= self.cfg.epoch_len {
            self.settle_epoch()?;
        }
        mcs_obs::gauge_set(
            "serve.backpressure",
            self.pending.len() as f64 / self.cfg.epoch_len as f64,
        );
        Ok(Admission::Admitted)
    }

    /// Time of the most recently admitted request (`0` before the first).
    fn last_time(&self) -> f64 {
        self.pending.last().map_or(self.state.last_time, |r| r.time)
    }

    /// Counts and journals one admission rejection.
    fn reject(&mut self, reason: String) -> Admission {
        self.summary.rejected += 1;
        mcs_obs::counter_add("serve.rejected", 1);
        journal::record(
            "admit-reject",
            Some(self.state.epoch),
            vec![("reason", Value::Str(reason.clone()))],
        );
        Admission::Rejected(reason)
    }

    /// Appends one record to the open epoch's log.
    fn log(&mut self, record: &WalRecord) -> Result<(), ServeError> {
        let before = self.wal.bytes();
        self.wal.append(record)?;
        self.summary.wal_bytes += self.wal.bytes() - before;
        Ok(())
    }

    /// Buffers an admitted (or replayed) request in the open epoch. The
    /// statistics see it when the epoch settles.
    fn buffer(&mut self, time: f64, server: ServerId, items: Vec<ItemId>) {
        self.pending.push(PendingReq {
            time,
            server: server.0,
            items: items.into_iter().map(|i| i.0).collect(),
        });
    }

    /// Settles the open epoch: solver under deadline + panic isolation,
    /// then the durable settle record, then application, a checkpoint if
    /// the log settled since the last one has outgrown it, and the next
    /// epoch's log.
    fn settle_epoch(&mut self) -> Result<(), ServeError> {
        let epoch = self.state.epoch;
        journal::record(
            "settle-start",
            Some(epoch),
            vec![("requests", Value::U64(self.pending.len() as u64))],
        );
        let (status, cost) = self.compute_outcome(epoch);
        self.log(&WalRecord::Settle {
            status,
            cost_bits: cost.to_bits(),
        })?;
        self.apply_settlement(status, cost, !status.is_degraded());
        self.summary.epochs_settled += 1;
        self.log_bytes_since_checkpoint += self.wal.bytes();
        if self.log_bytes_since_checkpoint >= self.checkpoint_bytes {
            self.write_checkpoint()?;
        }
        self.wal = Wal::open(&self.cfg.dir, self.state.epoch)?;
        journal::record("wal-rotate", Some(self.state.epoch), vec![]);
        journal::record("epoch-open", Some(self.state.epoch), vec![]);
        self.set_log_gauge();
        self.publish_telemetry();
        if !self.cfg.quiet {
            eprintln!(
                "serve: epoch {epoch} settled {} cost={cost:.4} (cum={:.4})",
                status.label(),
                self.state.cum_cost
            );
        }
        Ok(())
    }

    /// Runs the solver on a worker thread under the settlement deadline,
    /// with panics isolated. Returns the outcome and the settled cost.
    fn compute_outcome(&mut self, epoch: u64) -> (EpochStatus, f64) {
        // Never run two solver calls concurrently: a worker that missed
        // its deadline keeps running until it finishes on its own. While
        // one is still out there, this epoch degrades immediately
        // (deadline class) instead of spawning alongside it.
        if let Some(rx) = &self.straggler {
            match rx.try_recv() {
                Err(mpsc::TryRecvError::Empty) => {
                    mcs_obs::counter_add("serve.settle_busy", 1);
                    journal::record("settle-busy", Some(epoch), vec![]);
                    return (EpochStatus::Deadline, self.fallback_cost());
                }
                // Finished (its epoch already settled degraded, so the
                // late result is discarded) or died — either way gone.
                Ok(_) | Err(mpsc::TryRecvError::Disconnected) => self.straggler = None,
            }
        }
        let timer = mcs_obs::span("serve.settle");
        let mut b = RequestSeqBuilder::new(self.state.servers, self.state.items);
        for r in &self.pending {
            b = b.push(r.server, r.time, r.items.iter().copied());
        }
        let seq = match b.build() {
            Ok(seq) => seq,
            // Admission enforces the builder's invariants; if they broke
            // anyway, fall back rather than crash the daemon.
            Err(e) => {
                drop(timer);
                if !self.cfg.quiet {
                    eprintln!("serve: epoch {epoch} buffer invalid ({e}); degrading");
                }
                return (EpochStatus::Panic, self.fallback_cost());
            }
        };
        let ctx = self.base_ctx.for_epoch(epoch);
        let solver = self.solver;
        let inject = self.cfg.inject_panic_epoch == Some(epoch);
        let slow = match self.cfg.inject_slow_epoch {
            Some((e, d)) if e == epoch => d,
            _ => Duration::ZERO,
        };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                if !slow.is_zero() {
                    std::thread::sleep(slow);
                }
                assert!(!inject, "injected settlement panic (test hook)");
                solver.solve(&seq, &ctx)
            }));
            // The receiver may have timed out and moved on; ignore.
            let _ = tx.send(result);
        });
        match rx.recv_timeout(self.cfg.settle_timeout) {
            Ok(Ok(sol)) => (EpochStatus::Ok, sol.total_cost),
            Ok(Err(_panic)) => {
                mcs_obs::counter_add("serve.solver_panics", 1);
                (EpochStatus::Panic, self.fallback_cost())
            }
            Err(_timeout) => {
                mcs_obs::counter_add("serve.deadline_misses", 1);
                // The worker is now a straggler; remember it so no new
                // settlement spawns until it finishes.
                self.straggler = Some(rx);
                (EpochStatus::Deadline, self.fallback_cost())
            }
        }
    }

    /// Conservative degraded pricing under the last-good placement: a
    /// co-requested packed pair costs one package delivery (`2αλ`, both
    /// accesses covered); every other access pays a full transfer `λ`.
    /// No caching credit is claimed — this is an upper bound, which keeps
    /// the degradation ratio honest.
    fn fallback_cost(&self) -> f64 {
        let pd = self.cfg.model.package_delivery_cost();
        let lambda = self.cfg.model.lambda();
        let partner: HashMap<u32, u32> = self
            .state
            .placement_pairs
            .iter()
            .flat_map(|&(a, b)| [(a.0, b.0), (b.0, a.0)])
            .collect();
        let mut cost = 0.0;
        for req in &self.pending {
            for &item in &req.items {
                match partner.get(&item) {
                    Some(&p) if req.items.binary_search(&p).is_ok() => {
                        // Count each co-requested pair once, at its
                        // lower-id member.
                        if item < p {
                            cost += pd;
                        }
                    }
                    _ => cost += lambda,
                }
            }
        }
        cost
    }

    /// Applies a settlement outcome (live or WAL-replayed): the epoch's
    /// requests moved into the settled state and folded into the
    /// statistics, the accumulators, and, if asked (never for a degraded
    /// epoch), the placement refresh.
    fn apply_settlement(&mut self, status: EpochStatus, cost: f64, refresh_placement: bool) {
        let epoch = self.state.epoch;
        let accesses: u64 = self.pending.iter().map(|r| r.items.len() as u64).sum();
        fold(&mut self.stream, &self.pending);
        self.state.admitted += self.pending.len() as u64;
        if let Some(last) = self.pending.last() {
            self.state.last_time = last.time;
        }
        self.state.cum_cost += cost;
        if status.is_degraded() {
            self.state.degraded_cost += cost;
            self.state.degraded_accesses += accesses;
            self.state.degraded_epochs.push(epoch);
            mcs_obs::counter_add("serve.epochs_degraded", 1);
            mcs_obs::fcounter_add("serve.degraded_cost", cost);
            journal::record(
                "settle-degraded",
                Some(epoch),
                vec![
                    ("status", Value::Str(status.label().to_string())),
                    ("cost", Value::F64(cost)),
                ],
            );
        } else {
            self.state.ok_cost += cost;
            self.state.ok_accesses += accesses;
            // Placement refresh only on trusted settlements; a degraded
            // epoch keeps the last-good placement. Only pairs above θ can
            // pack, so only those are listed and sorted.
            if refresh_placement {
                let theta = self.cfg.theta;
                self.state.placement_pairs = greedy_matching_from_pairs(
                    self.stream.pairs_above(theta),
                    self.state.items,
                    theta,
                )
                .pairs;
                self.summary.placement_refreshes += 1;
            }
            mcs_obs::counter_add("serve.epochs_ok", 1);
            mcs_obs::fcounter_add("serve.ok_cost", cost);
            journal::record("settle-ok", Some(epoch), vec![("cost", Value::F64(cost))]);
        }
        // 1.0 (no inflation) until a degraded epoch exists, so scrapes
        // always see the gauge once an epoch has settled.
        mcs_obs::gauge_set(
            "serve.degradation_ratio",
            self.state.degradation_ratio().unwrap_or(1.0),
        );
        self.pending.clear();
        self.state.epoch = epoch + 1;
        mcs_obs::gauge_set("serve.epoch", self.state.epoch as f64);
    }

    /// Writes the settled state as the checkpoint of the open epoch, then
    /// deletes the WAL segments it covers.
    fn write_checkpoint(&mut self) -> Result<(), ServeError> {
        self.state.streaming = self.stream.snapshot();
        let bytes = self.state.write_checkpoint(&self.cfg.dir)?;
        let deleted = remove_segments_before(&self.cfg.dir, self.state.epoch)?;
        note_checkpoint(self.state.epoch, bytes, deleted);
        self.checkpoint_bytes = bytes;
        self.log_bytes_since_checkpoint = 0;
        Ok(())
    }

    /// Checkpoints the settled state unless the last checkpoint already
    /// holds it: at the end of the input and of a recovery.
    fn checkpoint_if_behind(&mut self) -> Result<(), ServeError> {
        if self.log_bytes_since_checkpoint > 0 {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    /// The log a recovery would replay on top of the checkpoint now.
    fn set_log_gauge(&self) {
        mcs_obs::gauge_set(
            "serve.log_bytes_since_checkpoint",
            (self.log_bytes_since_checkpoint + self.wal.bytes()) as f64,
        );
    }

    /// Epoch-boundary telemetry publication: drains this thread's metric
    /// buffer into the global aggregate (so the scrape thread sees it),
    /// then atomically rewrites the exposition file, if configured.
    /// Telemetry must never take the daemon down: failures are reported
    /// and survived.
    fn publish_telemetry(&self) {
        mcs_obs::flush_local();
        if let Some(path) = &self.cfg.telemetry_file {
            if let Err(e) = crate::telemetry::publish_file(path) {
                if !self.cfg.quiet {
                    eprintln!("serve: telemetry publish to {} failed: {e}", path.display());
                }
            }
        }
    }

    /// The current in-memory state, with the open epoch folded into a
    /// copy of the statistics — [`DaemonState::canonical_json`] of this
    /// is the byte-identity witness.
    pub fn current_state(&self) -> DaemonState {
        with_open_epoch(
            self.state.clone(),
            self.stream.clone(),
            self.pending.clone(),
        )
    }

    /// [`Self::current_state`] without the copies: consumes the daemon.
    fn into_state(self) -> DaemonState {
        with_open_epoch(self.state, self.stream, self.pending)
    }

    /// This run's process-local accounting.
    pub fn summary(&self) -> ServeSummary {
        self.summary
    }
}

/// The settled `state` and `stream` with the open epoch's `pending`
/// requests admitted: counted, folded into the statistics, and buffered.
fn with_open_epoch(
    mut state: DaemonState,
    mut stream: StreamingCooccurrence,
    pending: Vec<PendingReq>,
) -> DaemonState {
    fold(&mut stream, &pending);
    state.streaming = stream.snapshot();
    state.admitted += pending.len() as u64;
    if let Some(last) = pending.last() {
        state.last_time = last.time;
    }
    state.pending = pending;
    state
}

/// Feeds settled requests to the statistics in admission order.
fn fold(stream: &mut StreamingCooccurrence, requests: &[PendingReq]) {
    let mut request = Request {
        server: ServerId(0),
        time: 0.0,
        items: Vec::new(),
    };
    for r in requests {
        request.server = ServerId(r.server);
        request.time = r.time;
        request.items.clear();
        request.items.extend(r.items.iter().map(|&i| ItemId(i)));
        stream.observe(&request);
    }
}

/// Counts and journals a checkpoint of `epoch` that wrote `bytes` and
/// deleted `segments` covered WAL segments.
fn note_checkpoint(epoch: u64, bytes: u64, segments: u64) {
    mcs_obs::counter_add("serve.checkpoints", 1);
    mcs_obs::counter_add("serve.checkpoint_bytes", bytes);
    journal::record(
        "checkpoint-write",
        Some(epoch),
        vec![
            ("bytes", Value::U64(bytes)),
            ("segments_deleted", Value::U64(segments)),
        ],
    );
    mcs_obs::gauge_set("serve.last_checkpoint_t_mono", journal::now_t_mono());
}

/// Drives a daemon over a line-framed input stream until EOF.
///
/// Recovers from `cfg.dir` if a checkpoint exists (validating the
/// handshake against it), otherwise starts fresh on the first `hello`.
/// Malformed lines and rejected frames are reported to stderr with their
/// line numbers and survived; only daemon failures abort. At the end of
/// the input the settled state is checkpointed if the last checkpoint is
/// older, and the final state is returned.
///
/// # Errors
///
/// Fails on daemon failures: unusable durable state, handshake
/// mismatch, a `req` before `hello`, or filesystem errors.
pub fn serve_stream<R: BufRead>(
    cfg: ServeConfig,
    input: R,
) -> Result<(DaemonState, ServeSummary), ServeError> {
    let quiet = cfg.quiet;
    let throttle = cfg.throttle;
    let mut daemon = Daemon::recover(cfg.clone())?;
    if daemon.is_some() && !quiet {
        eprintln!("serve: recovered state from {}", cfg.dir.display());
    }
    let mut malformed: u64 = 0;
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(ServeError::Io)?;
        let frame = match parse_line(&line, lineno) {
            Ok(None) => continue,
            Ok(Some(f)) => f,
            Err(e) => {
                malformed += 1;
                mcs_obs::counter_add("serve.malformed", 1);
                if !quiet {
                    eprintln!("serve: {e}");
                }
                continue;
            }
        };
        match frame {
            Frame::Hello { servers, items } => match &daemon {
                Some(d) => d.hello(servers, items)?,
                None => daemon = Some(Daemon::fresh(cfg.clone(), servers, items)?),
            },
            Frame::Req {
                time,
                server,
                items,
            } => {
                let Some(d) = daemon.as_mut() else {
                    return Err(ServeError::State(format!(
                        "line {lineno}: req before hello"
                    )));
                };
                if !throttle.is_zero() {
                    std::thread::sleep(throttle);
                }
                let t0 = Instant::now();
                let admission = d.admit(time, server, items)?;
                mcs_obs::observe("serve.admit_seconds", t0.elapsed().as_secs_f64());
                if let Admission::Rejected(reason) = admission {
                    if !quiet {
                        eprintln!("serve: line {lineno}: rejected: {reason}");
                    }
                }
            }
        }
    }
    let Some(mut daemon) = daemon else {
        return Err(ServeError::State("input ended before hello".into()));
    };
    // A clean end: checkpoint what settled since the last checkpoint, so
    // the next start replays only the open epoch.
    daemon.checkpoint_if_behind()?;
    daemon.set_log_gauge();
    daemon.publish_telemetry();
    let mut summary = daemon.summary();
    summary.malformed = malformed;
    Ok((daemon.into_state(), summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dpg-daemon-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg(dir: &std::path::Path) -> ServeConfig {
        let mut c = ServeConfig::new(dir.to_path_buf());
        c.epoch_len = 4;
        c.quiet = true;
        c
    }

    /// A correlated workload: items 0 and 1 co-requested often enough to
    /// pack, item 2 independent. Two full epochs plus a partial tail.
    fn script() -> String {
        let mut s = String::from("hello 3 4\n");
        let mut t = 0.0;
        for i in 0..10 {
            t += 0.5;
            let line = match i % 4 {
                0 | 1 => format!("req {t:?} {} 0,1\n", i % 3),
                2 => format!("req {t:?} {} 2\n", i % 3),
                _ => format!("req {t:?} {} 0,1,2\n", i % 3),
            };
            s.push_str(&line);
        }
        s
    }

    #[test]
    fn serves_epochs_and_accumulates_cost() {
        let dir = tmp_dir("basic");
        let (state, summary) = serve_stream(cfg(&dir), Cursor::new(script())).unwrap();
        assert_eq!(summary.admitted, 10);
        assert_eq!(summary.epochs_settled, 2);
        assert_eq!(state.epoch, 2);
        assert_eq!(state.pending.len(), 2);
        assert!(state.cum_cost > 0.0);
        assert_eq!(state.degraded_epochs, Vec::<u64>::new());
        assert!(
            state.placement_pairs.contains(&(ItemId(0), ItemId(1))),
            "0/1 co-requests should pack: {:?}",
            state.placement_pairs
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rerunning_the_same_input_resumes_idempotently() {
        let dir = tmp_dir("resume");
        let (first, _) = serve_stream(cfg(&dir), Cursor::new(script())).unwrap();
        // Feed the whole stream again: everything is stale, nothing changes.
        let (second, summary) = serve_stream(cfg(&dir), Cursor::new(script())).unwrap();
        assert_eq!(summary.admitted, 0);
        assert_eq!(summary.stale, 10);
        assert_eq!(second.canonical_json(), first.canonical_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_panic_degrades_the_epoch_and_keeps_placement() {
        let dir = tmp_dir("panic");
        let mut c = cfg(&dir);
        c.inject_panic_epoch = Some(1);
        let (state, _) = serve_stream(c, Cursor::new(script())).unwrap();
        assert_eq!(state.degraded_epochs, vec![1]);
        assert!(state.degraded_cost > 0.0);
        assert!(state.ok_cost > 0.0);
        assert!(state.degradation_ratio().is_some());
        // Epoch 0 settled ok, so a placement exists despite the panic.
        assert!(state.placement_pairs.contains(&(ItemId(0), ItemId(1))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_and_survives_bad_frames() {
        let dir = tmp_dir("reject");
        let input = "hello 2 2\n\
                     req 1.0 0 0,1\n\
                     req 0.5 1 0\n\
                     req 2.0 9 0\n\
                     req 3.0 1 7\n\
                     req 4.0 1 0,0,1\n\
                     not a frame\n\
                     req nope 1 0\n";
        let (state, summary) = serve_stream(cfg(&dir), Cursor::new(input)).unwrap();
        assert_eq!(summary.admitted, 2); // 1.0 and 4.0 (deduped items)
        assert_eq!(summary.stale, 1); // 0.5 behind the horizon
        assert_eq!(summary.rejected, 2); // bad server, bad item
        assert_eq!(summary.malformed, 2);
        assert_eq!(state.admitted, 2);
        assert_eq!(state.pending[1].items, vec![0, 1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handshake_mismatch_and_req_before_hello_fail() {
        let dir = tmp_dir("handshake");
        serve_stream(cfg(&dir), Cursor::new(script())).unwrap();
        let err = serve_stream(cfg(&dir), Cursor::new("hello 9 9\n")).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");
        let dir2 = tmp_dir("nohello");
        let err = serve_stream(cfg(&dir2), Cursor::new("req 1.0 0 0\n")).unwrap_err();
        assert!(err.to_string().contains("req before hello"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn torn_wal_tail_is_truncated_before_reuse() {
        let dir = tmp_dir("truncate");
        // 10 requests → epoch 2 open with 2 records in wal-2.log.
        serve_stream(cfg(&dir), Cursor::new(script())).unwrap();
        // Simulate kill -9 mid-append: a half-written record at the tail.
        let path = crate::wal::wal_path(&dir, 2);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"req 99.0 0 0,");
        std::fs::write(&path, &bytes).unwrap();
        // Recovery must truncate the fragment, so the next admitted
        // record starts on a fresh line.
        {
            let mut d = Daemon::recover(cfg(&dir)).unwrap().unwrap();
            assert_eq!(d.summary().replayed, 2);
            assert_eq!(
                d.admit(6.0, ServerId(0), vec![ItemId(2)]).unwrap(),
                Admission::Admitted
            );
        }
        // Without the truncation this second recovery would either fail
        // with InvalidData on the merged malformed line or silently drop
        // the admitted record as a "torn" tail.
        let d = Daemon::recover(cfg(&dir)).unwrap().unwrap();
        assert_eq!(d.summary().replayed, 3);
        assert_eq!(d.current_state().pending.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_settlement_leaves_one_straggler_and_degrades_while_busy() {
        let dir = tmp_dir("straggler");
        let mut c = cfg(&dir); // epoch_len 4
        c.settle_timeout = Duration::from_millis(20);
        c.inject_slow_epoch = Some((0, Duration::from_millis(500)));
        let mut d = Daemon::fresh(c, 3, 4).unwrap();
        let mut t = 0.0;
        let feed = |d: &mut Daemon, n: usize, t: &mut f64| {
            for _ in 0..n {
                *t += 0.5;
                assert_eq!(
                    d.admit(*t, ServerId(0), vec![ItemId(0), ItemId(1)])
                        .unwrap(),
                    Admission::Admitted
                );
            }
        };
        // Epoch 0 misses its deadline; its worker keeps running through
        // epoch 1's settlement, which must settle degraded immediately
        // (busy) instead of spawning a second concurrent solver call.
        feed(&mut d, 8, &mut t);
        assert_eq!(d.current_state().degraded_epochs, vec![0, 1]);
        // Once the straggler finishes, settlement returns to normal.
        std::thread::sleep(Duration::from_millis(600));
        feed(&mut d, 4, &mut t);
        let state = d.current_state();
        assert_eq!(state.epoch, 3);
        assert_eq!(state.degraded_epochs, vec![0, 1]);
        assert!(state.ok_cost > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_item_sets_hit_backpressure() {
        let dir = tmp_dir("backpressure");
        let mut c = cfg(&dir);
        c.max_items = 2;
        let input = "hello 2 8\nreq 1.0 0 0,1,2,3\nreq 2.0 0 4,5\n";
        let (state, summary) = serve_stream(c, Cursor::new(input)).unwrap();
        assert_eq!(summary.rejected, 1);
        assert_eq!(summary.admitted, 1);
        assert_eq!(state.admitted, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
