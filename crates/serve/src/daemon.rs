//! The serving daemon: WAL-ordered ingestion, deadline-bounded epoch
//! settlement on one long-lived worker thread, overlapped with the next
//! epoch's admissions, checkpoints at a log-proportional cadence, and
//! crash recovery.
//!
//! # Write ordering (the crash-safety argument)
//!
//! Every state transition is logged *before* it is applied, and the
//! statistics change only at settlements:
//!
//! 1. **Admission** — a validated request is appended to the open WAL
//!    segment (and flushed) first, then buffered; it does not touch the
//!    statistics. A crash after the append replays the record; a crash
//!    mid-append leaves a torn tail that was never applied, and the
//!    resumable input source re-delivers the request.
//! 2. **Settlement** — when the open epoch fills, its solve is
//!    *dispatched* to the worker and admission goes on into the next
//!    epoch. The epoch is *finished* at the first admission after its
//!    solve returned or its deadline passed, at the next epoch's close, or
//!    at the end of the input, whichever comes first: its outcome
//!    (`ok`/`deadline`/`panic`, the settled cost as raw `f64` bits, and
//!    its request count) is appended to the segment first, then applied
//!    to the oldest buffered requests, which are the epoch's — cost
//!    accumulators, the requests folded into the streaming statistics in
//!    admission order (ok and degraded epochs alike), and the placement
//!    refresh (ok epochs only). So a `settle` record may follow some of
//!    the next epoch's `req` records, and names how many of the oldest
//!    unsettled requests it settles. The next epoch is dispatched only
//!    after this one is finished, so epochs settle in order, one at a
//!    time. While no frame arrives, an epoch whose solve has returned
//!    stays unfinished until the next one or the end of the input.
//!    [`Daemon::admit`] dispatches and then waits, so an epoch it closes
//!    is settled when it returns. Recovery *replays the recorded
//!    outcome* instead of re-running the solver, so deadline and panic
//!    nondeterminism cannot make a recovered state diverge from the
//!    pre-crash one.
//! 3. **Checkpoint** — the statistics are exactly the last settled state,
//!    so a checkpoint needs no copy of them taken before the unsettled
//!    requests. After a settlement one is written only when the segment,
//!    without the open epoch's requests, has reached the last checkpoint's
//!    size: that is the WAL bytes of every epoch settled since, the same
//!    whether the daemon waited for the epoch or not. One is also written
//!    once when [`serve_stream`] reaches the end of its input and once at
//!    the end of a recovery that replayed a settlement. A checkpoint of
//!    epoch `E` first writes the segment `wal-E.log` (truncating any
//!    leftover), holding copies of the `req` records not yet settled;
//!    then the checkpoint file is synced, renamed into place and its
//!    directory synced; only then are the older segments deleted. Until
//!    the rename, the old checkpoint and its segment, which still holds
//!    every record, stay in charge: recovery replays the checkpoint's
//!    segment and moves on to `wal-<epoch reached>.log` only while a
//!    segment ends in a `settle` record that leaves no request unsettled
//!    — that is the per-epoch layout earlier versions wrote, and in this
//!    layout such a segment is absent or, left by a rotation after a
//!    settlement, empty — so no copy is replayed twice. A recovery whose
//!    replay ended on `wal-E.log` itself (the per-epoch layout) keeps
//!    appending to it: it holds exactly the copies, and truncating it to
//!    rewrite them would leave a window in which a crash drops the open
//!    epoch's only durable requests.
//!
//! The cadence has no knob and two bounds: within a run every checkpoint
//! but the last is paid for by at least its own size in log, and a crash
//! never leaves more than one checkpoint's size plus two epochs of log
//! (the one in flight and the open one) to replay. Recovery loads the
//! checkpoint, replays the log from its epoch — each `settle` record
//! settles the oldest requests it names, and one without a count, as
//! earlier versions wrote, all of them — and refreshes the placement
//! once, at the last `ok` settle record it replays; degraded epochs keep
//! the last-good placement and carry their cost in the WAL. So it costs
//! O(checkpoint + log), not O(epochs × stored pairs). Requests left
//! unsettled are then settled in `epoch_len` chunks, oldest first, as the
//! crashed process was about to. [`Daemon::inspect`] replays the same way
//! in memory and stops there: it settles and writes nothing.
//!
//! With these rules, `kill -9` at any instant recovers — checkpoint plus
//! WAL — to a state byte-identical to the never-crashed run over the same
//! input (enforced end-to-end by `tests/serve_crash_recovery.rs`). The
//! single caveat: a crash landing *between* an epoch's close and its
//! settle append re-runs that settlement on recovery, so the class of
//! outcome (ok vs. deadline) is reproduced rather than replayed; the
//! solvers are deterministic, so only a deadline set tighter than the
//! solver's actual runtime can differ. Because the solve overlaps the next
//! epoch's admissions, that window spans up to one epoch of admissions,
//! not one solve. Checkpoints are synced and survive power loss; WAL
//! appends are flushed to the OS but not synced, so the log since the
//! last checkpoint survives `kill -9` but not power loss.
//!
//! # Bounded latency
//!
//! Per-request work is admission-validation, one WAL append, a push onto
//! the buffer and a look, without waiting, at the epoch in flight, with
//! `|D|` capped by admission control ([`ServeConfig::max_items`]).
//! Closing an epoch builds its request sequence and sends it to the
//! worker. Finishing it adds the `O(|D|² log P)` streaming update of each
//! of its requests (`P` stored pairs, span `serve.fold`), a placement
//! refresh that lists and sorts only the pairs above θ
//! (`serve.placement`), and, at the cadence above, one checkpoint written
//! in a single pass (`serve.checkpoint`); it starts no thread and creates
//! no file between checkpoints. Settlement runs on one long-lived worker
//! thread, started at the first settlement and sent each epoch's solve
//! over a channel, under [`ServeConfig::settle_timeout`] counted from the
//! dispatch; an epoch's solve stays on that thread
//! (`mcs_model::par::threads_for` keeps solves below 4,096 requests
//! serial). The daemon thread blocks on a solve only at the next epoch's
//! close, at the end of the input or inside [`Daemon::admit`], and at
//! most until the deadline (`serve.settle_wait`). On deadline or solver
//! panic (isolated by `catch_unwind` inside the worker, which survives
//! it) the epoch settles *degraded*: last-good placement, conservative
//! fallback pricing of the epoch's own requests (packed co-requests at
//! the package-delivery rate `2αλ`, everything else at `λ` per access),
//! and the epoch is recorded in [`DaemonState::degraded_epochs`]. A solve
//! that missed its deadline keeps the worker until it finishes — the
//! *straggler* — and until then later epochs settle degraded immediately
//! instead of queuing behind it, so a consistently slow solver costs no
//! extra thread and solver calls never run concurrently. The
//! ok-vs-degraded quality gap is surfaced as the degradation ratio
//! (relative `ave_cost`, the chaos harness's cost-inflation metric).

use std::collections::HashMap;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use mcs_correlation::{matching::greedy_matching_from_pairs, StreamingCooccurrence};
use mcs_engine::{find, CachingSolver, RunContext};
use mcs_model::defaults::{DEFAULT_SEED, DEFAULT_THETA};
use mcs_model::{CostModel, ItemId, Request, RequestSeq, RequestSeqBuilder, ServerId};
use mcs_obs::journal::{self, Value};

use crate::checkpoint::{DaemonState, PendingReq};
use crate::protocol::{parse_line, Frame};
use crate::wal::{
    read_records, remove_segments_before, truncate_torn, wal_path, EpochStatus, Wal, WalContents,
    WalRecord,
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
    /// Settlement deadline, counted from the dispatch of the epoch's
    /// solve; missing it degrades the epoch.
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
    /// Bytes appended to the WAL this run (the copies a checkpoint puts
    /// at the head of its segment excluded).
    pub wal_bytes: u64,
    /// Placement refreshes this run, a recovery's included.
    pub placement_refreshes: u64,
    /// Settlement worker threads started this run.
    pub settle_workers: u64,
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
    /// The settled state and statistics, and the requests not yet settled.
    books: Books,
    /// The epoch whose solve the worker was sent, not yet finished.
    in_flight: Option<InFlight>,
    /// The open WAL segment, which the last checkpoint opened: every epoch
    /// settled since, then the requests not yet settled, with the settle
    /// record of the epoch in flight still to come.
    wal: Wal,
    /// Bytes of `wal` taken by the open epoch's requests: those logged
    /// since the last dispatch.
    open_bytes: u64,
    /// Size of the last checkpoint written or loaded.
    checkpoint_bytes: u64,
    /// The epoch of that checkpoint.
    checkpoint_epoch: u64,
    summary: ServeSummary,
    /// The settlement worker, started at the first settlement.
    worker: Option<SettleWorker>,
}

/// What the log rebuilds on top of a checkpoint.
#[derive(Clone)]
struct Books {
    /// The settled state, which a checkpoint writes: every settled epoch,
    /// with `pending` empty. Its `streaming` is the snapshot last written
    /// to a checkpoint (or loaded from one); the live statistics are
    /// `stream`.
    state: DaemonState,
    /// The statistics of every settled epoch.
    stream: StreamingCooccurrence,
    /// The admitted requests not yet settled, in admission order: the
    /// epoch in flight, if any, then the open epoch. A settlement moves
    /// the oldest of them into `state` and `stream`.
    pending: Vec<PendingReq>,
}

impl Books {
    /// Time of the most recently admitted request (`0` before the first).
    fn last_time(&self) -> f64 {
        self.pending.last().map_or(self.state.last_time, |r| r.time)
    }

    /// Buffers an admitted (or replayed) request. The statistics see it
    /// when its epoch settles.
    fn buffer(&mut self, time: f64, server: ServerId, items: Vec<ItemId>) {
        self.pending.push(PendingReq {
            time,
            server: server.0,
            items: items.into_iter().map(|i| i.0).collect(),
        });
    }

    /// Applies a settlement outcome (live or WAL-replayed) to the oldest
    /// `requests` pending requests, one epoch: they move into the settled
    /// state and are folded into the statistics, then the accumulators
    /// and, if `refresh` and the epoch is not degraded, the placement at
    /// θ = `theta`. Returns whether it refreshed the placement.
    fn settle(
        &mut self,
        requests: usize,
        status: EpochStatus,
        cost: f64,
        theta: f64,
        refresh: bool,
    ) -> bool {
        let epoch = self.state.epoch;
        let settling = &self.pending[..requests];
        let accesses: u64 = settling.iter().map(|r| r.items.len() as u64).sum();
        {
            let _fold = mcs_obs::span("serve.fold");
            fold(&mut self.stream, settling);
        }
        self.state.admitted += requests as u64;
        if let Some(last) = settling.last() {
            self.state.last_time = last.time;
        }
        self.state.cum_cost += cost;
        let mut refreshed = false;
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
            if refresh {
                let _placement = mcs_obs::span("serve.placement");
                self.state.placement_pairs = greedy_matching_from_pairs(
                    self.stream.pairs_above(theta),
                    self.state.items,
                    theta,
                )
                .pairs;
                refreshed = true;
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
        self.pending.drain(..requests);
        self.state.epoch = epoch + 1;
        mcs_obs::gauge_set("serve.epoch", self.state.epoch as f64);
        refreshed
    }

    /// The settled state with the pending requests admitted: counted,
    /// folded into the statistics, and buffered.
    fn into_state(self) -> DaemonState {
        let Books {
            mut state,
            mut stream,
            pending,
        } = self;
        fold(&mut stream, &pending);
        state.streaming = stream.snapshot();
        state.admitted += pending.len() as u64;
        if let Some(last) = pending.last() {
            state.last_time = last.time;
        }
        state.pending = pending;
        state
    }
}

/// The epoch whose solve the worker was sent: the oldest `requests`
/// pending requests.
struct InFlight {
    requests: usize,
    /// When the solve's deadline passes; `None` if that lies beyond what
    /// an [`Instant`] holds.
    deadline: Option<Instant>,
}

/// One epoch's solve, as the settlement worker receives it.
struct SettleJob {
    seq: RequestSeq,
    ctx: RunContext,
    /// Test hook: panic instead of solving.
    panic: bool,
    /// Test hook: sleep this long before solving.
    slow: Duration,
}

/// A solve's cost, or its panic, and when it finished.
type Answer = (std::thread::Result<f64>, Instant);

/// The daemon's settlement thread. It solves the jobs it is sent in
/// order, each under `catch_unwind`, and answers each with its result,
/// so a solver panic costs its epoch, not the thread.
struct SettleWorker {
    jobs: mpsc::Sender<SettleJob>,
    results: mpsc::Receiver<Answer>,
    /// A job that missed its deadline is still running (the straggler);
    /// its late result is the next one on `results`.
    straggling: bool,
}

impl SettleWorker {
    /// Starts the thread. It exits once the daemon drops the worker and
    /// any job it is running returns.
    fn start(solver: &'static dyn CachingSolver) -> SettleWorker {
        let (jobs, inbox) = mpsc::channel::<SettleJob>();
        let (outbox, results) = mpsc::channel();
        std::thread::spawn(move || {
            for job in inbox {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    if !job.slow.is_zero() {
                        std::thread::sleep(job.slow);
                    }
                    assert!(!job.panic, "injected settlement panic (test hook)");
                    solver.solve(&job.seq, &job.ctx).total_cost
                }));
                let finished = Instant::now();
                // The solve's metrics reach the global registry before the
                // daemon, which may print or serve them next, hears back.
                mcs_obs::flush_local();
                if outbox.send((result, finished)).is_err() {
                    break;
                }
            }
        });
        mcs_obs::counter_add("serve.settle_workers", 1);
        SettleWorker {
            jobs,
            results,
            straggling: false,
        }
    }
}

/// A serve directory's checkpoint and log, replayed in memory.
struct Replay {
    books: Books,
    /// Size and epoch of the checkpoint.
    checkpoint_bytes: u64,
    checkpoint_epoch: u64,
    /// Requests the log held.
    replayed: u64,
    placement_refreshes: u64,
    /// The segment the replay ended on, and the length of its valid
    /// prefix if a torn tail follows it.
    open_segment: u64,
    torn: Option<u64>,
}

impl Replay {
    /// Loads the checkpoint in `cfg.dir` and replays on top of it its
    /// segment — and, while a segment ends in a settle record that leaves
    /// no request unsettled, the segment of the epoch it reached. Writes
    /// nothing. `Ok(None)` when the directory holds no checkpoint.
    fn read(cfg: &ServeConfig) -> Result<Option<Replay>, ServeError> {
        let Some((state, checkpoint_bytes)) =
            DaemonState::read_checkpoint(&cfg.dir).map_err(ServeError::State)?
        else {
            return Ok(None);
        };
        let stream = StreamingCooccurrence::from_snapshot(&state.streaming)
            .map_err(|e| ServeError::State(format!("checkpoint streaming state: {e}")))?;
        let checkpoint_epoch = state.epoch;
        let mut logs: Vec<(u64, WalContents)> = Vec::new();
        let mut segment = state.epoch;
        let mut unsettled = 0u64;
        loop {
            let log = read_records(&cfg.dir, segment)?;
            let mut settles = 0;
            for record in &log.records {
                match *record {
                    WalRecord::Req { .. } => unsettled += 1,
                    WalRecord::Settle { requests, .. } => {
                        let n = requests.unwrap_or(unsettled);
                        if n > unsettled {
                            return Err(ServeError::State(format!(
                                "corrupt WAL: {} settles {n} requests with {unsettled} unsettled",
                                wal_path(&cfg.dir, segment).display()
                            )));
                        }
                        unsettled -= n;
                        settles += 1;
                    }
                }
            }
            let ends_settled =
                unsettled == 0 && matches!(log.records.last(), Some(WalRecord::Settle { .. }));
            logs.push((segment, log));
            if !ends_settled {
                break;
            }
            segment += settles;
        }
        let torn = logs
            .last()
            .and_then(|(_, log)| log.torn.then_some(log.valid_len));
        // Only the last ok settlement's placement survives the replay:
        // later degraded epochs keep it, and earlier ones are replaced.
        let mut ok_left = logs
            .iter()
            .flat_map(|(_, log)| &log.records)
            .filter(|r| matches!(r, WalRecord::Settle { status, .. } if !status.is_degraded()))
            .count();
        let mut books = Books {
            state,
            stream,
            pending: Vec::new(),
        };
        let (mut replayed, mut placement_refreshes) = (0, 0);
        for (_, log) in logs {
            for record in log.records {
                match record {
                    WalRecord::Req {
                        time,
                        server,
                        items,
                    } => {
                        books.buffer(time, server, items);
                        replayed += 1;
                        mcs_obs::counter_add("serve.replayed", 1);
                    }
                    WalRecord::Settle {
                        status,
                        cost_bits,
                        requests,
                    } => {
                        // Replay the *recorded* outcome — never re-run
                        // the solver during recovery.
                        ok_left -= usize::from(!status.is_degraded());
                        let n = requests.map_or(books.pending.len(), |n| {
                            usize::try_from(n).expect("checked against the unsettled requests")
                        });
                        let refreshed = books.settle(
                            n,
                            status,
                            f64::from_bits(cost_bits),
                            cfg.theta,
                            ok_left == 0,
                        );
                        placement_refreshes += u64::from(refreshed);
                    }
                }
            }
        }
        journal::record(
            "recovery-replay",
            Some(books.state.epoch),
            vec![("replayed", Value::U64(replayed))],
        );
        Ok(Some(Replay {
            books,
            checkpoint_bytes,
            checkpoint_epoch,
            replayed,
            placement_refreshes,
            open_segment: segment,
            torn,
        }))
    }
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
        let wal = new_segment(&cfg.dir, 0, &[])?;
        let checkpoint_bytes = commit_checkpoint(&cfg.dir, &state)?;
        journal::record("epoch-open", Some(0), vec![]);
        let daemon = Daemon {
            cfg,
            solver,
            base_ctx,
            books: Books {
                state,
                stream,
                pending: Vec::new(),
            },
            in_flight: None,
            wal,
            open_bytes: 0,
            checkpoint_bytes,
            checkpoint_epoch: 0,
            summary: ServeSummary::default(),
            worker: None,
        };
        daemon.set_log_gauge();
        daemon.publish_telemetry();
        Ok(daemon)
    }

    /// Recovers a daemon from the durable state in `cfg.dir`, replaying
    /// the WAL from the checkpoint's epoch on, then checkpoints the result
    /// if it settled anything and settles what is left unsettled in
    /// `epoch_len` chunks, oldest first. Returns `Ok(None)` when the
    /// directory holds no checkpoint (a fresh run).
    ///
    /// # Errors
    ///
    /// Fails on corrupt checkpoints, mid-log WAL corruption, or
    /// filesystem errors. Torn WAL tails recover cleanly.
    pub fn recover(cfg: ServeConfig) -> Result<Option<Daemon>, ServeError> {
        let Some(replay) = Replay::read(&cfg)? else {
            return Ok(None);
        };
        let (solver, base_ctx) = Self::resolve(&cfg)?;
        if let Some(valid_len) = replay.torn {
            // The segment is reopened for append below; physically drop
            // the torn fragment so the next record cannot merge with it
            // into a malformed line that a later recovery would read as
            // mid-log corruption.
            truncate_torn(&cfg.dir, replay.open_segment, valid_len)?;
            mcs_obs::counter_add("serve.torn_tails", 1);
            journal::record(
                "wal-torn",
                Some(replay.books.state.epoch),
                vec![("valid_len", Value::U64(valid_len))],
            );
        }
        let mut daemon = Daemon {
            // Append from here on to the segment the replay ended on,
            // reopened past any truncation; a checkpoint of the epoch
            // reached replaces it unless it is that epoch's own segment.
            wal: Wal::open(&cfg.dir, replay.open_segment)?,
            cfg,
            solver,
            base_ctx,
            books: replay.books,
            in_flight: None,
            open_bytes: 0,
            checkpoint_bytes: replay.checkpoint_bytes,
            checkpoint_epoch: replay.checkpoint_epoch,
            summary: ServeSummary {
                replayed: replay.replayed,
                placement_refreshes: replay.placement_refreshes,
                ..ServeSummary::default()
            },
            worker: None,
        };
        daemon.checkpoint_if_behind()?;
        daemon.set_log_gauge();
        // A crash between an epoch's close and its settle record leaves an
        // epoch's worth or more unsettled: settle it now, exactly as the
        // pre-crash process was about to.
        while daemon.books.pending.len() >= daemon.cfg.epoch_len {
            daemon.dispatch(daemon.cfg.epoch_len)?;
            daemon.settle_in_flight()?;
        }
        daemon.publish_telemetry();
        Ok(Some(daemon))
    }

    /// The state in `cfg.dir`, replayed in memory from its checkpoint and
    /// log, as [`Self::current_state`] shows it: every request not yet
    /// settled is pending, however many there are. Unlike
    /// [`Self::recover`] it writes nothing — it settles nothing, writes no
    /// checkpoint, truncates no torn tail and opens no segment — so
    /// inspecting a directory never changes what a later restart sees.
    /// Returns `Ok(None)` when the directory holds no checkpoint.
    ///
    /// # Errors
    ///
    /// Fails on corrupt checkpoints, mid-log WAL corruption, or
    /// filesystem errors.
    pub fn inspect(cfg: &ServeConfig) -> Result<Option<DaemonState>, ServeError> {
        Ok(Replay::read(cfg)?.map(|replay| replay.books.into_state()))
    }

    /// Validates the handshake against recovered state.
    ///
    /// # Errors
    ///
    /// Fails when the declared fleet/catalog sizes contradict the
    /// checkpoint — serving a different universe on old state corrupts it.
    pub fn hello(&self, servers: u32, items: u32) -> Result<(), ServeError> {
        let state = &self.books.state;
        if servers != state.servers || items != state.items {
            return Err(ServeError::State(format!(
                "hello {servers} {items} does not match recovered state ({} servers, {} items)",
                state.servers, state.items
            )));
        }
        Ok(())
    }

    /// Admission control + durable logging + buffering for one frame. An
    /// epoch the frame closes is settled — solved, logged and applied —
    /// when this returns.
    ///
    /// # Errors
    ///
    /// Only daemon failures (WAL/checkpoint IO) are errors; invalid
    /// frames come back as [`Admission::Rejected`].
    pub fn admit(
        &mut self,
        time: f64,
        server: ServerId,
        items: Vec<ItemId>,
    ) -> Result<Admission, ServeError> {
        let admission = self.accept(time, server, items)?;
        self.settle_in_flight()?;
        Ok(admission)
    }

    /// [`Self::admit`] without waiting for the epoch the frame closes: its
    /// solve is dispatched to the worker, and the epoch is finished at the
    /// first admission after the solve returned, at the next epoch's close
    /// or by [`Self::settle_in_flight`], so the solve overlaps the next
    /// epoch's admissions.
    fn accept(
        &mut self,
        time: f64,
        server: ServerId,
        mut items: Vec<ItemId>,
    ) -> Result<Admission, ServeError> {
        self.poll_in_flight()?;
        if !time.is_finite() || time <= 0.0 {
            return Ok(self.reject(format!("non-positive time {time}")));
        }
        if time <= self.books.last_time() {
            // Already covered by recovered/served history: the resume
            // path re-reading its input, or an out-of-order source.
            self.summary.stale += 1;
            mcs_obs::counter_add("serve.stale", 1);
            return Ok(Admission::Stale);
        }
        if server.0 >= self.books.state.servers {
            return Ok(self.reject(format!(
                "server {} out of range (fleet is {})",
                server.0, self.books.state.servers
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
            if max.0 >= self.books.state.items {
                return Ok(self.reject(format!(
                    "item {} out of range (catalog is {})",
                    max.0, self.books.state.items
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
        self.open_bytes += self.log(&record)?;
        if let WalRecord::Req { items, .. } = record {
            self.books.buffer(time, server, items);
        }
        self.summary.admitted += 1;
        mcs_obs::counter_add("serve.admitted", 1);

        if self.open_len() >= self.cfg.epoch_len {
            // One epoch in flight at a time: the previous one finishes
            // before this one is dispatched.
            self.settle_in_flight()?;
            self.dispatch(self.cfg.epoch_len)?;
        }
        mcs_obs::gauge_set(
            "serve.backpressure",
            self.open_len() as f64 / self.cfg.epoch_len as f64,
        );
        Ok(Admission::Admitted)
    }

    /// The open epoch's requests: the pending ones not in flight.
    fn open_len(&self) -> usize {
        self.books.pending.len() - self.in_flight.as_ref().map_or(0, |f| f.requests)
    }

    /// Counts and journals one admission rejection.
    fn reject(&mut self, reason: String) -> Admission {
        self.summary.rejected += 1;
        mcs_obs::counter_add("serve.rejected", 1);
        journal::record(
            "admit-reject",
            Some(self.books.state.epoch),
            vec![("reason", Value::Str(reason.clone()))],
        );
        Admission::Rejected(reason)
    }

    /// Appends one record to the open segment; returns its size.
    fn log(&mut self, record: &WalRecord) -> Result<u64, ServeError> {
        let before = self.wal.bytes();
        self.wal.append(record)?;
        let bytes = self.wal.bytes() - before;
        self.summary.wal_bytes += bytes;
        Ok(bytes)
    }

    /// Closes the oldest `requests` pending requests as an epoch and
    /// starts its settlement: sends its solve to the worker, under a
    /// deadline counted from now. While the worker is still busy with a
    /// straggler, or if the requests do not build a sequence, the epoch
    /// settles degraded at once instead.
    fn dispatch(&mut self, requests: usize) -> Result<(), ServeError> {
        let epoch = self.books.state.epoch;
        journal::record(
            "settle-start",
            Some(epoch),
            vec![("requests", Value::U64(requests as u64))],
        );
        self.open_bytes = 0;
        // Never run two solver calls concurrently: a solve that missed its
        // deadline keeps the worker until it finishes on its own. While it
        // runs, this epoch degrades immediately (deadline class) instead
        // of queuing behind it.
        if let Some(worker) = self.worker.as_mut().filter(|w| w.straggling) {
            match worker.results.try_recv() {
                Err(TryRecvError::Empty) => {
                    mcs_obs::counter_add("serve.settle_busy", 1);
                    journal::record("settle-busy", Some(epoch), vec![]);
                    return self.finish_degraded(requests, EpochStatus::Deadline);
                }
                // Finished: its epoch already settled degraded, so the
                // late result is discarded.
                Ok(_) => worker.straggling = false,
                // The thread is gone; a new one starts below.
                Err(TryRecvError::Disconnected) => self.worker = None,
            }
        }
        let mut b = RequestSeqBuilder::new(self.books.state.servers, self.books.state.items);
        for r in &self.books.pending[..requests] {
            b = b.push(r.server, r.time, r.items.iter().copied());
        }
        let seq = match b.build() {
            Ok(seq) => seq,
            // Admission enforces the builder's invariants; if they broke
            // anyway, fall back rather than crash the daemon.
            Err(e) => {
                if !self.cfg.quiet {
                    eprintln!("serve: epoch {epoch} buffer invalid ({e}); degrading");
                }
                return self.finish_degraded(requests, EpochStatus::Panic);
            }
        };
        let job = SettleJob {
            seq,
            ctx: self.base_ctx.for_epoch(epoch),
            panic: self.cfg.inject_panic_epoch == Some(epoch),
            slow: match self.cfg.inject_slow_epoch {
                Some((e, d)) if e == epoch => d,
                _ => Duration::ZERO,
            },
        };
        let solver = self.solver;
        let worker = self.worker.get_or_insert_with(|| {
            self.summary.settle_workers += 1;
            SettleWorker::start(solver)
        });
        // A dead worker drops the job; the look for its answer reports it.
        let _ = worker.jobs.send(job);
        self.in_flight = Some(InFlight {
            requests,
            deadline: Instant::now().checked_add(self.cfg.settle_timeout),
        });
        Ok(())
    }

    /// Finishes the epoch in flight, if any, waiting for its solve at most
    /// until its deadline: at an epoch's close, at the end of the input
    /// and inside [`Self::admit`].
    fn settle_in_flight(&mut self) -> Result<(), ServeError> {
        let Some(flight) = self.in_flight.take() else {
            return Ok(());
        };
        let answer = {
            let _wait = mcs_obs::span("serve.settle_wait");
            let results = &self.worker().results;
            match flight.deadline {
                Some(deadline) => {
                    results.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                }
                None => results.recv().map_err(RecvTimeoutError::from),
            }
        };
        self.finish_solved(flight, answer)
    }

    /// Finishes the epoch in flight if its solve has answered or its
    /// deadline has passed; never waits.
    fn poll_in_flight(&mut self) -> Result<(), ServeError> {
        let Some(deadline) = self.in_flight.as_ref().map(|f| f.deadline) else {
            return Ok(());
        };
        let answer = match self.worker().results.try_recv() {
            Ok(answer) => Ok(answer),
            Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) if deadline.is_some_and(|d| Instant::now() >= d) => {
                Err(RecvTimeoutError::Timeout)
            }
            Err(TryRecvError::Empty) => return Ok(()),
        };
        let flight = self.in_flight.take().expect("an epoch is in flight");
        self.finish_solved(flight, answer)
    }

    /// The worker the epoch in flight was sent to.
    fn worker(&mut self) -> &mut SettleWorker {
        self.worker
            .as_mut()
            .expect("an epoch in flight has a worker")
    }

    /// Finishes `flight` with what became of its solve: `ok` at the
    /// solve's cost if it answered by its deadline, degraded otherwise.
    fn finish_solved(
        &mut self,
        flight: InFlight,
        answer: Result<Answer, RecvTimeoutError>,
    ) -> Result<(), ServeError> {
        let deadline = flight.deadline;
        let in_time = |finished: Instant| deadline.is_none_or(|d| finished <= d);
        let status = match answer {
            Ok((Ok(cost), finished)) if in_time(finished) => {
                return self.finish(flight.requests, EpochStatus::Ok, cost);
            }
            Ok((Err(_panic), finished)) if in_time(finished) => {
                mcs_obs::counter_add("serve.solver_panics", 1);
                EpochStatus::Panic
            }
            // It answered after its deadline, as the daemon had not
            // looked before: the epoch degrades as if the daemon had been
            // waiting, and the worker is free again.
            Ok(_) => {
                mcs_obs::counter_add("serve.deadline_misses", 1);
                EpochStatus::Deadline
            }
            Err(RecvTimeoutError::Timeout) => {
                mcs_obs::counter_add("serve.deadline_misses", 1);
                // The solve is now the straggler: no job is sent until it
                // finishes.
                self.worker().straggling = true;
                EpochStatus::Deadline
            }
            // The thread died outside `catch_unwind`; the next settlement
            // starts another.
            Err(RecvTimeoutError::Disconnected) => {
                self.worker = None;
                EpochStatus::Panic
            }
        };
        self.finish_degraded(flight.requests, status)
    }

    /// Finishes the oldest `requests` pending requests as a degraded
    /// epoch, at [`Self::fallback_cost`].
    fn finish_degraded(&mut self, requests: usize, status: EpochStatus) -> Result<(), ServeError> {
        let cost = self.fallback_cost(requests);
        self.finish(requests, status, cost)
    }

    /// Settles the oldest `requests` pending requests as one epoch: the
    /// durable settle record, then application, then a checkpoint if the
    /// log of the epochs settled since the last one has outgrown it.
    fn finish(
        &mut self,
        requests: usize,
        status: EpochStatus,
        cost: f64,
    ) -> Result<(), ServeError> {
        let epoch = self.books.state.epoch;
        self.log(&WalRecord::Settle {
            status,
            cost_bits: cost.to_bits(),
            requests: Some(requests as u64),
        })?;
        let refreshed = self
            .books
            .settle(requests, status, cost, self.cfg.theta, true);
        self.summary.placement_refreshes += u64::from(refreshed);
        self.summary.epochs_settled += 1;
        // Past the open epoch's requests, the segment is the log settled
        // since the last checkpoint.
        if self.wal.bytes() - self.open_bytes >= self.checkpoint_bytes {
            self.write_checkpoint()?;
        }
        journal::record("epoch-open", Some(self.books.state.epoch), vec![]);
        self.set_log_gauge();
        self.publish_telemetry();
        if !self.cfg.quiet {
            eprintln!(
                "serve: epoch {epoch} settled {} cost={cost:.4} (cum={:.4})",
                status.label(),
                self.books.state.cum_cost
            );
        }
        Ok(())
    }

    /// Conservative degraded pricing of the oldest `requests` pending
    /// requests, one epoch, under the last-good placement: a co-requested
    /// packed pair costs one package delivery (`2αλ`, both accesses
    /// covered); every other access pays a full transfer `λ`. No caching
    /// credit is claimed — this is an upper bound, which keeps the
    /// degradation ratio honest.
    fn fallback_cost(&self, requests: usize) -> f64 {
        let pd = self.cfg.model.package_delivery_cost();
        let lambda = self.cfg.model.lambda();
        let partner: HashMap<u32, u32> = self
            .books
            .state
            .placement_pairs
            .iter()
            .flat_map(|&(a, b)| [(a.0, b.0), (b.0, a.0)])
            .collect();
        let mut cost = 0.0;
        for req in &self.books.pending[..requests] {
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

    /// Writes the settled state as the checkpoint of the epoch after the
    /// last settled one, whose segment the daemon appends to from here on:
    /// [`new_segment`], then [`commit_checkpoint`].
    fn write_checkpoint(&mut self) -> Result<(), ServeError> {
        let _checkpoint = mcs_obs::span("serve.checkpoint");
        let books = &mut self.books;
        books.state.streaming = books.stream.snapshot();
        // A recovery that ended in the per-epoch layout appends to the open
        // epoch's own segment already. It holds exactly that epoch's
        // requests, and is their only durable copy until the checkpoint is
        // renamed into place, so it is kept rather than rewritten.
        if self.wal.path() != wal_path(&self.cfg.dir, books.state.epoch) {
            self.wal = new_segment(&self.cfg.dir, books.state.epoch, &books.pending)?;
        }
        self.checkpoint_bytes = commit_checkpoint(&self.cfg.dir, &books.state)?;
        self.checkpoint_epoch = books.state.epoch;
        Ok(())
    }

    /// Checkpoints the settled state unless the last checkpoint already
    /// holds it: at the end of the input and of a recovery. Returns
    /// whether it wrote one.
    fn checkpoint_if_behind(&mut self) -> Result<bool, ServeError> {
        let behind = self.books.state.epoch > self.checkpoint_epoch;
        if behind {
            self.write_checkpoint()?;
        }
        Ok(behind)
    }

    /// The log a recovery would replay on top of the checkpoint now: the
    /// open segment.
    fn set_log_gauge(&self) {
        mcs_obs::gauge_set("serve.log_bytes_since_checkpoint", self.wal.bytes() as f64);
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

    /// The current in-memory state, with the requests not yet settled —
    /// an epoch in flight included — folded into a copy of the statistics
    /// and listed as pending. [`DaemonState::canonical_json`] of this is
    /// the byte-identity witness.
    pub fn current_state(&self) -> DaemonState {
        self.books.clone().into_state()
    }

    /// This run's process-local accounting.
    pub fn summary(&self) -> ServeSummary {
        self.summary
    }
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

/// The first step of a checkpoint of `epoch`, whose unsettled requests
/// are `pending`: its WAL segment, created empty and holding copies of
/// those requests, open for append.
fn new_segment(dir: &Path, epoch: u64, pending: &[PendingReq]) -> Result<Wal, ServeError> {
    let mut wal = Wal::create(dir, epoch)?;
    for r in pending {
        wal.append_req(r.time, r.server, &r.items)?;
    }
    journal::record("wal-rotate", Some(epoch), vec![]);
    Ok(wal)
}

/// The rest of a checkpoint of `state`, once its segment is in place: the
/// checkpoint is synced and renamed into place, and only then are the
/// older segments deleted. Counts and journals it; returns its size.
fn commit_checkpoint(dir: &Path, state: &DaemonState) -> Result<u64, ServeError> {
    let bytes = state.write_checkpoint(dir)?;
    let deleted = remove_segments_before(dir, state.epoch)?;
    mcs_obs::counter_add("serve.checkpoints", 1);
    mcs_obs::counter_add("serve.checkpoint_bytes", bytes);
    journal::record(
        "checkpoint-write",
        Some(state.epoch),
        vec![
            ("bytes", Value::U64(bytes)),
            ("segments_deleted", Value::U64(deleted)),
        ],
    );
    mcs_obs::gauge_set("serve.last_checkpoint_t_mono", journal::now_t_mono());
    Ok(bytes)
}

/// Drives a daemon over a line-framed input stream until EOF.
///
/// Recovers from `cfg.dir` if a checkpoint exists (validating the
/// handshake against it), otherwise starts fresh on the first `hello`.
/// Malformed lines and rejected frames are reported to stderr with their
/// line numbers and survived; only daemon failures abort. Each epoch's
/// solve overlaps the next epoch's admissions (see the module doc). At
/// the end of the input the epoch in flight is settled, the settled
/// state is checkpointed if the last checkpoint is older, and the final
/// state is returned.
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
                let admission = d.accept(time, server, items)?;
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
    // A clean end: settle the epoch in flight, then checkpoint what settled
    // since the last checkpoint, so the next start replays only the open
    // epoch.
    daemon.settle_in_flight()?;
    daemon.checkpoint_if_behind()?;
    daemon.set_log_gauge();
    daemon.publish_telemetry();
    let mut summary = daemon.summary();
    summary.malformed = malformed;
    Ok((daemon.books.into_state(), summary))
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

    /// One worker, started at the first settlement, outlives a solver
    /// panic and a missed deadline, and degrades epochs while the late
    /// solve runs instead of queuing behind it.
    #[test]
    fn slow_settlement_leaves_one_straggler_and_degrades_while_busy() {
        let dir = tmp_dir("straggler");
        let mut c = cfg(&dir); // epoch_len 4
        c.settle_timeout = Duration::from_millis(100);
        c.inject_panic_epoch = Some(1);
        c.inject_slow_epoch = Some((2, Duration::from_millis(600)));
        let mut d = Daemon::fresh(c, 3, 4).unwrap();
        assert_eq!(d.summary().settle_workers, 0);
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
        // Epoch 0 settles ok, epoch 1 panics and epoch 2 misses its
        // deadline; its solve keeps the worker busy through epoch 3's
        // settlement, which must settle degraded immediately (busy)
        // instead of queuing a second solver call.
        feed(&mut d, 16, &mut t);
        assert_eq!(d.current_state().degraded_epochs, vec![1, 2, 3]);
        // Once the straggler finishes, settlement returns to normal.
        std::thread::sleep(Duration::from_millis(800));
        feed(&mut d, 8, &mut t);
        let state = d.current_state();
        assert_eq!(state.epoch, 6);
        assert_eq!(state.degraded_epochs, vec![1, 2, 3]);
        assert!(state.ok_cost > 0.0);
        assert_eq!(d.summary().settle_workers, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Copies the files of `from` into the emptied directory `to`.
    fn copy_dir(from: &Path, to: &Path) {
        std::fs::remove_dir_all(to).ok();
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    /// The canonical state `Daemon::recover` rebuilds from `dir`, with
    /// `c`'s other settings and no test hooks.
    fn recovered(c: &ServeConfig, dir: &Path) -> String {
        let mut c = c.clone();
        c.dir = dir.to_path_buf();
        c.inject_panic_epoch = None;
        c.inject_slow_epoch = None;
        Daemon::recover(c)
            .unwrap()
            .unwrap()
            .current_state()
            .canonical_json()
    }

    /// The newest WAL segment in `dir`: the one appended to.
    fn open_segment(dir: &Path) -> PathBuf {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                let epoch: u64 = name
                    .strip_prefix("wal-")?
                    .strip_suffix(".log")?
                    .parse()
                    .ok()?;
                Some((epoch, dir.join(name)))
            })
            .max()
            .unwrap()
            .1
    }

    /// CI serve-smoke's 200-request stream behind `hello 4 5`: request `i`
    /// at time `i / 4` on server `i % 4`.
    fn smoke_stream() -> Vec<(f64, ServerId, Vec<ItemId>)> {
        (1..=200u32)
            .map(|i| {
                let items: &[u32] = match i % 5 {
                    0 | 3 => &[0, 1],
                    1 => &[2, 3],
                    2 => &[0, 1, 4],
                    _ => &[4],
                };
                let items = items.iter().map(|&k| ItemId(k)).collect();
                (0.25 * f64::from(i), ServerId(i % 4), items)
            })
            .collect()
    }

    /// Overlapped admission over the smoke stream at epochs of 16: after
    /// every admission `k`, a copy of the directory recovers to the state
    /// of a daemon that waited for every settlement and admitted the same
    /// `k` requests; with its last record cut in half (a torn tail), to
    /// that of one that admitted the requests the copy still holds.
    /// Epoch 3's solve is slow, so it stays in flight across admissions
    /// and its settle record lands among epoch 4's requests.
    #[test]
    fn every_crash_point_of_the_overlapped_log_recovers_to_the_waiting_state() {
        let (dir, sync_dir, copy) = (
            tmp_dir("overlap"),
            tmp_dir("overlap-sync"),
            tmp_dir("overlap-copy"),
        );
        let mut c = cfg(&dir);
        c.epoch_len = 16;
        c.decay = 0.9;
        let mut waiting = c.clone();
        waiting.dir = sync_dir.clone();
        c.inject_slow_epoch = Some((3, Duration::from_millis(200)));
        let mut d = Daemon::fresh(c.clone(), 4, 5).unwrap();
        let mut sync = Daemon::fresh(waiting, 4, 5).unwrap();
        let mut want = vec![sync.current_state().canonical_json()];
        let mut overlapped = 0;
        for (k, (t, server, items)) in smoke_stream().into_iter().enumerate() {
            let k = k + 1;
            assert_eq!(
                d.accept(t, server, items.clone()).unwrap(),
                Admission::Admitted
            );
            sync.admit(t, server, items).unwrap();
            want.push(sync.current_state().canonical_json());
            if d.in_flight.is_some() && d.open_len() > 0 {
                overlapped += 1;
            }

            copy_dir(&dir, &copy);
            assert_eq!(recovered(&c, &copy), want[k], "after admission {k}");

            copy_dir(&dir, &copy);
            let segment = open_segment(&copy);
            let bytes = std::fs::read(&segment).unwrap();
            let Some(body) = bytes.strip_suffix(b"\n") else {
                continue; // an empty segment has no record to tear
            };
            let start = body.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
            let last = &bytes[start..];
            std::fs::write(&segment, &bytes[..start + last.len() / 2]).unwrap();
            let held = if last.starts_with(b"req ") { k - 1 } else { k };
            assert_eq!(
                recovered(&c, &copy),
                want[held],
                "after admission {k}, torn `{}`",
                String::from_utf8_lossy(last).trim_end()
            );
        }
        assert!(overlapped > 0, "no epoch stayed in flight");
        d.settle_in_flight().unwrap();
        assert_eq!(d.current_state().canonical_json(), want[200]);
        assert_eq!(d.summary().epochs_settled, sync.summary().epochs_settled);
        for dir in [dir, sync_dir, copy] {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Settle records without a count, as earlier versions wrote them,
    /// settle every pending request: such a log recovers to the state of
    /// the run that wrote it, and a full buffer whose settle record was
    /// never written settles on recovery as that run was about to.
    #[test]
    fn a_log_in_the_earlier_format_recovers_to_the_state_that_wrote_it() {
        let copy = tmp_dir("earlier-copy");
        for (n, drop_last_settle) in [(120, false), (128, true)] {
            let dir = tmp_dir(&format!("earlier-{n}"));
            let mut c = cfg(&dir);
            c.epoch_len = 16;
            c.decay = 0.9;
            let mut d = Daemon::fresh(c.clone(), 4, 5).unwrap();
            for (t, server, items) in smoke_stream().into_iter().take(n) {
                d.admit(t, server, items).unwrap();
            }
            let want = d.current_state().canonical_json();
            drop(d); // a crash: no clean end, no final checkpoint
            copy_dir(&dir, &copy);
            let segment = open_segment(&copy);
            let log = std::fs::read_to_string(&segment).unwrap();
            let mut lines: Vec<String> = log
                .lines()
                .map(|l| match l.strip_prefix("settle ") {
                    Some(rest) => {
                        let words: Vec<&str> = rest.split(' ').collect();
                        assert_eq!(words.len(), 3, "{l}");
                        format!("settle {} {}", words[0], words[1])
                    }
                    None => l.to_string(),
                })
                .collect();
            assert!(lines.iter().any(|l| l.starts_with("settle ")));
            if drop_last_settle {
                assert!(lines.pop().unwrap().starts_with("settle "));
            }
            std::fs::write(&segment, lines.join("\n") + "\n").unwrap();
            assert_eq!(recovered(&c, &copy), want, "{n} requests");
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&copy).ok();
    }

    /// In an overlapped log a segment can end in a settle record that
    /// follows some of the next epoch's requests; a checkpoint written at
    /// that settlement first copies those requests into the next segment.
    /// If it crashed before its rename, recovery must stop at the old
    /// segment, which still holds the requests, and not replay the copies.
    #[test]
    fn a_rotation_cut_short_after_an_interleaved_settle_is_not_replayed() {
        let dir = tmp_dir("interleaved-rotation");
        let mut c = cfg(&dir);
        c.epoch_len = 16;
        let mut stream = smoke_stream().into_iter();
        let mut d = Daemon::fresh(c.clone(), 4, 5).unwrap();
        let mut admit = |d: &mut Daemon, n: usize| {
            for (t, server, items) in stream.by_ref().take(n) {
                d.admit(t, server, items).unwrap();
            }
        };
        // Until an epoch settles into a segment it does not rotate.
        loop {
            admit(&mut d, 16);
            if d.checkpoint_epoch < d.books.state.epoch {
                break;
            }
        }
        admit(&mut d, 3);
        let want = d.current_state().canonical_json();
        let (checkpoint, open) = (d.checkpoint_epoch, d.books.state.epoch);
        drop(d); // a crash: no clean end, no final checkpoint

        // The settle record moves behind the three requests after it, as
        // an overlapped run writes it, and the rotation at that settlement
        // left the copies of the three in the next segment.
        let path = wal_path(&dir, checkpoint);
        let log = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = log.lines().collect();
        let settle = lines.remove(lines.len() - 4);
        assert!(settle.starts_with("settle "), "{settle}");
        let copies = lines[lines.len() - 3..].join("\n") + "\n";
        lines.push(settle);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        std::fs::write(wal_path(&dir, open), &copies).unwrap();

        let d = Daemon::recover(c).unwrap().unwrap();
        assert_eq!(d.current_state().canonical_json(), want);
        assert_eq!(
            std::fs::read_to_string(wal_path(&dir, open)).unwrap(),
            copies
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A settle record naming more requests than are unsettled is
    /// corruption, not a shorter epoch.
    #[test]
    fn a_settle_record_beyond_the_unsettled_requests_is_an_error() {
        let dir = tmp_dir("oversettle");
        drop(Daemon::fresh(cfg(&dir), 2, 2).unwrap());
        let bits = 1.5_f64.to_bits();
        std::fs::write(
            wal_path(&dir, 0),
            format!("req 1.0 0 0,1\nreq 2.0 1 0\nsettle ok {bits:016x} 3\n"),
        )
        .unwrap();
        let err = Daemon::inspect(&cfg(&dir)).unwrap_err().to_string();
        assert!(err.contains("settles 3 requests with 2 unsettled"), "{err}");
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
