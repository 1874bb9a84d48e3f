//! The `dpg serve` path: closed-loop passes, the open-loop admission
//! schedule, the traced pass with per-epoch re-timing, and recovery.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mcs_correlation::matching::greedy_matching_from_pairs;
use mcs_correlation::StreamingCooccurrence;
use mcs_engine::{find, CachingSolver, RunContext};
use mcs_model::{Request, RequestSeq, RequestSeqBuilder};
use mcs_serve::protocol::{parse_line, Frame};
use mcs_serve::{
    serve_stream, Admission, Daemon, DaemonState, ServeConfig, ServeSummary, Wal, WalRecord,
};

use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::stats::{median, percentile};

/// The configuration `dpg serve --dir DIR --quiet` builds.
pub fn config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir.to_path_buf());
    cfg.quiet = true;
    cfg
}

/// Empties `dir`, so each pass starts a fresh daemon.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn serve_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One closed-loop pass (one client): `serve_stream` over a buffered
/// reader of the frame file, as `dpg serve --input FRAMES` runs it.
/// Returns the wall time in seconds.
pub fn closed_loop(frames: &Path, dir: &Path) -> Result<(f64, DaemonState, ServeSummary), String> {
    fresh_dir(dir)?;
    let t0 = Instant::now();
    let file = File::open(frames).map_err(|e| format!("{}: {e}", frames.display()))?;
    let (state, summary) = serve_stream(config(dir), BufReader::new(file)).map_err(serve_err)?;
    Ok((t0.elapsed().as_secs_f64(), state, summary))
}

/// Checks a finished run and returns how many requests failed: rejected,
/// or settled in a degraded epoch. Errors when the state is wrong: not
/// every request admitted, recovery not reproducing the in-memory state,
/// or the state differing from `expected` (the CLI's `--dump-state`).
pub fn check_final(
    state: &DaemonState,
    summary: &ServeSummary,
    dir: &Path,
    requests: usize,
    expected: &str,
) -> Result<u64, String> {
    let cfg = config(dir);
    let failed = summary.rejected + state.degraded_epochs.len() as u64 * cfg.epoch_len as u64;
    if summary.malformed > 0 || summary.admitted + summary.rejected != requests as u64 {
        return Err(format!("frames lost: {summary:?}"));
    }
    let json = state.canonical_json();
    let recovered = Daemon::recover(cfg)
        .map_err(serve_err)?
        .ok_or("no state to recover")?
        .current_state()
        .canonical_json();
    if recovered != json {
        return Err("recovered state differs from the served state".into());
    }
    if json != expected {
        return Err("served state differs from `dpg serve --dump-state`".into());
    }
    Ok(failed)
}

/// Latencies of an open-loop run, in nanoseconds.
pub struct OpenLoop {
    /// Per operation, from its due time to its completion.
    pub latency_ns: Vec<f64>,
    /// Per operation, how late the generator itself sent it: the send time
    /// minus the later of its due time and the previous completion.
    pub late_ns: Vec<f64>,
}

/// Runs `n` operations on a fixed schedule of `rate` per second,
/// spin-waiting (never sleeping) for each due time. Each latency counts
/// from the due time, so a stall is charged to every request queued
/// behind it, as independent users would see it.
pub fn open_loop(n: usize, rate: f64, op: impl FnMut(usize)) -> OpenLoop {
    let start = Instant::now();
    open_loop_on(n, rate, || start.elapsed().as_nanos() as f64, op)
}

/// [`open_loop`] against any clock reading nanoseconds, so a test can
/// drive a simulated one.
fn open_loop_on(n: usize, rate: f64, now: impl Fn() -> f64, mut op: impl FnMut(usize)) -> OpenLoop {
    let interval_ns = 1e9 / rate;
    let mut latency_ns = Vec::with_capacity(n);
    let mut late_ns = Vec::with_capacity(n);
    let mut prev_done = 0.0;
    for i in 0..n {
        let due = i as f64 * interval_ns;
        while now() < due {
            std::hint::spin_loop();
        }
        let sent = now();
        op(i);
        let done = now();
        latency_ns.push(done - due);
        late_ns.push(sent - due.max(prev_done));
        prev_done = done;
    }
    OpenLoop {
        latency_ns,
        late_ns,
    }
}

/// The open-loop admission run: a fresh daemon admits every request of
/// `seq` at `rate` per second. Returns the latencies and the final state.
pub fn open_loop_run(
    seq: &RequestSeq,
    dir: &Path,
    rate: f64,
) -> Result<(OpenLoop, DaemonState, ServeSummary), String> {
    fresh_dir(dir)?;
    let mut daemon = Daemon::fresh(config(dir), seq.servers(), seq.items()).map_err(serve_err)?;
    let mut error = None;
    let run = open_loop(seq.len(), rate, |i| {
        let r = seq.get(i);
        if let Err(e) = daemon.admit(r.time, r.server, r.items.clone()) {
            error.get_or_insert(e.to_string());
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    Ok((run, daemon.current_state(), daemon.summary()))
}

/// Times `reps` full recoveries of `dir`, and the checkpoint load inside
/// each on its own. Returns (recover, load) seconds per repetition.
pub fn time_recover(dir: &Path, reps: usize) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut recover = Vec::with_capacity(reps);
    let mut load = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        DaemonState::load(dir)?.ok_or("no checkpoint")?;
        load.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        Daemon::recover(config(dir))
            .map_err(serve_err)?
            .ok_or("no state to recover")?;
        recover.push(t.elapsed().as_secs_f64());
    }
    Ok((recover, load))
}

/// What the traced pass accumulates between epoch boundaries.
struct Tracer {
    solver: &'static dyn CachingSolver,
    base_ctx: RunContext,
    mirror: StreamingCooccurrence,
    side_wal: Wal,
    side_dir: PathBuf,
    epoch: Vec<Request>,
    cum_cost: f64,
    wal_us: Vec<f64>,
    observe_us: Vec<f64>,
}

impl Tracer {
    /// Re-times, on a shadow of the daemon's inputs, the per-request work
    /// admission does: the WAL append and the streaming update.
    fn request(&mut self, request: Request) -> Result<(), String> {
        let record = WalRecord::Req {
            time: request.time,
            server: request.server,
            items: request.items.clone(),
        };
        let t = Instant::now();
        self.side_wal.append(&record).map_err(serve_err)?;
        self.wal_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        self.mirror.observe(&request);
        self.observe_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.epoch.push(request);
        Ok(())
    }

    /// At an epoch boundary, re-times the settlement's public pieces on
    /// the same state: the solve under `RunContext::for_epoch` (and its
    /// breakdown), the placement refresh, and the checkpoint encode and
    /// save. Checks the re-timed solve and placement against the daemon's.
    fn settle(
        &mut self,
        daemon: &Daemon,
        index: u64,
        rec: &mut Recorder,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let span = rec.open("serve.epoch_retime", None);
        let state = daemon.current_state();
        let mut b = RequestSeqBuilder::new(state.servers, state.items);
        for r in &self.epoch {
            b = b.push(r.server, r.time, r.items.iter().map(|i| i.0));
        }
        let seq = b.build().map_err(|e| e.to_string())?;
        let ctx = self.base_ctx.for_epoch(index);
        let (solution, solve_s) =
            rec.time("engine.solve", Some(span), || self.solver.solve(&seq, &ctx));
        m.add("engine.solve_s", solve_s);
        m.add("serve.settle_solve_s", solve_s);
        if (self.cum_cost + solution.total_cost).to_bits() != state.cum_cost.to_bits() {
            return Err(format!(
                "epoch {index}: re-timed solve disagrees with the daemon"
            ));
        }
        self.cum_cost = state.cum_cost;
        crate::batch::breakdown(&seq, &ctx, solution.total_cost, rec, Some(span), m)?;

        let (placement, placement_s) = rec.time("serve.placement", Some(span), || {
            greedy_matching_from_pairs(self.mirror.pairs(), state.items, self.base_ctx.theta)
        });
        if placement.pairs != state.placement_pairs {
            return Err(format!("epoch {index}: re-timed placement disagrees"));
        }
        let (json, encode_s) = rec.time("serve.checkpoint_encode", Some(span), || {
            state.canonical_json()
        });
        let (saved, save_s) = rec.time("serve.checkpoint_write", Some(span), || {
            state.save(&self.side_dir)
        });
        saved.map_err(serve_err)?;
        m.add("serve.placement_s", placement_s);
        m.add("serve.checkpoint_encode_s", encode_s);
        m.add("serve.checkpoint_write_s", save_s);
        m.add("serve.checkpoint_bytes", json.len() as f64);
        self.epoch.clear();
        rec.close(span);
        Ok(())
    }
}

/// The traced closed-loop pass: every frame's parse and admission under a
/// top-level span, admissions that close an epoch told apart, and each
/// epoch's settlement re-timed at its boundary. Re-timing is excluded
/// from the pass time. Returns the final state and summary.
pub fn traced_pass(
    text: &str,
    dir: &Path,
    side_dir: &Path,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(DaemonState, ServeSummary), String> {
    fresh_dir(dir)?;
    fresh_dir(side_dir)?;
    let cfg = config(dir);
    let mut tracer = Tracer {
        solver: find(&cfg.algo).ok_or("unknown solver")?,
        base_ctx: RunContext::new(cfg.model)
            .with_theta(cfg.theta)
            .with_seed(cfg.seed),
        mirror: StreamingCooccurrence::new(cfg.decay),
        side_wal: Wal::open(side_dir, 0).map_err(serve_err)?,
        side_dir: side_dir.to_path_buf(),
        epoch: Vec::new(),
        cum_cost: 0.0,
        wal_us: Vec::new(),
        observe_us: Vec::new(),
    };
    let mut daemon: Option<Daemon> = None;
    let (mut service_us, mut close_us) = (Vec::new(), Vec::new());
    let (mut parse_s, mut frames) = (0.0, 0usize);
    let mut retime_s = 0.0;
    let root = rec.open("pass", None);
    for (idx, line) in text.lines().enumerate() {
        let (frame, s) = rec.time("serve.parse", Some(root), || parse_line(line, idx + 1));
        parse_s += s;
        frames += 1;
        match frame.map_err(|e| e.to_string())? {
            None => {}
            Some(Frame::Hello { servers, items }) => {
                let (d, _) = rec.time("serve.fresh", Some(root), || {
                    Daemon::fresh(cfg.clone(), servers, items)
                });
                daemon = Some(d.map_err(serve_err)?);
            }
            Some(Frame::Req {
                time,
                server,
                items,
            }) => {
                let d = daemon.as_mut().ok_or("req before hello")?;
                let before = d.summary().epochs_settled;
                let (admission, s) = rec.time("serve.admit", Some(root), || {
                    d.admit(time, server, items.clone())
                });
                if admission.map_err(serve_err)? != Admission::Admitted {
                    return Err(format!("line {}: request not admitted", idx + 1));
                }
                let settled = d.summary().epochs_settled;
                let t = Instant::now();
                tracer.request(Request {
                    server,
                    time,
                    items,
                })?;
                if settled > before {
                    close_us.push(s * 1e6);
                    tracer.settle(d, settled - 1, rec, m)?;
                } else {
                    service_us.push(s * 1e6);
                }
                retime_s += t.elapsed().as_secs_f64();
            }
        }
    }
    let pass_s = rec.close(root) - retime_s;
    let daemon = daemon.ok_or("no hello frame")?;
    let state = daemon.current_state();

    m.set("engine.breakdown_share", crate::batch::breakdown_share(m));
    m.set("serve.parse_s", parse_s);
    m.set("serve.parse_ns_per_frame", parse_s * 1e9 / frames as f64);
    m.set("serve.frame_bytes", text.len() as f64);
    m.set("serve.parse_mb_per_s", text.len() as f64 / 1e6 / parse_s);
    m.set("serve.admit_service_p50_us", median(&service_us));
    m.set(
        "serve.admit_service_s",
        service_us.iter().sum::<f64>() / 1e6,
    );
    m.set("serve.epoch_close_p50_us", median(&close_us));
    m.set("serve.epoch_close_p99_us", percentile(&close_us, 99.0));
    m.set("serve.epoch_close_s", close_us.iter().sum::<f64>() / 1e6);
    m.set("serve.epochs", close_us.len() as f64);
    m.set("serve.degraded_epochs", state.degraded_epochs.len() as f64);
    m.set("serve.wal_append_us", median(&tracer.wal_us));
    let wal_bytes = std::fs::metadata(tracer.side_wal.path())
        .map_err(serve_err)?
        .len();
    m.set("serve.wal_bytes", wal_bytes as f64);
    m.set("correlation.stream_observe_us", median(&tracer.observe_us));
    m.set(
        "correlation.stream_pairs",
        tracer.mirror.pairs().len() as f64,
    );
    m.set("pass.traced_s", pass_s);
    m.set("pass.top_span_share", rec.children_seconds(root) / pass_s);
    Ok((state, daemon.summary()))
}

/// Records the per-layer recovery split on `dir`: the checkpoint load,
/// and the rest of `Daemon::recover` (WAL replay and reopening).
pub fn traced_recover(dir: &Path, m: &mut Metrics) -> Result<(), String> {
    let (recover, load) = time_recover(dir, 10)?;
    let replay: Vec<f64> = recover.iter().zip(&load).map(|(r, l)| r - l).collect();
    m.set("serve.recover_load_s", median(&load));
    m.set("serve.recover_replay_s", median(&replay));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 5 ms stall at 10,000 requests/s delays the requests queued behind
    /// it by 5 ms minus 0.1 ms per place in the queue, and is not counted
    /// as generator lateness. The clock is simulated: each reading costs
    /// 100 ns, and the stalled operation adds 5 ms.
    #[test]
    fn open_loop_counts_latency_from_the_due_time() {
        let clock = std::cell::Cell::new(0.0);
        let now = || {
            clock.set(clock.get() + 100.0);
            clock.get()
        };
        let stall_at = 20;
        let run = open_loop_on(120, 10_000.0, now, |i| {
            if i == stall_at {
                clock.set(clock.get() + 5e6);
            }
        });
        let ms = |ns: f64| ns / 1e6;
        assert!(ms(run.latency_ns[stall_at - 1]) < 0.01);
        assert!((ms(run.latency_ns[stall_at]) - 5.0).abs() < 0.01);
        for j in 1..50 {
            let expected = 5.0 - 0.1 * j as f64;
            let got = ms(run.latency_ns[stall_at + j]);
            assert!(
                (got - expected).abs() < 0.02,
                "request +{j}: {got} ms, expected {expected}"
            );
            assert!(ms(run.late_ns[stall_at + j]) < 0.01);
        }
        // The queue has drained 50 intervals after the stall began.
        assert!(ms(run.latency_ns[stall_at + 55]) < 0.01);
    }

    /// Every count of the traced pass repeats exactly across two runs of
    /// one input, and the traced and closed-loop passes end in the state
    /// recovery reproduces.
    #[test]
    fn traced_counts_repeat_and_states_agree() {
        let root = crate::test_dir("serve");
        let (dir, side) = (root.join("daemon"), root.join("side"));
        let w = crate::workloads::find("serve").unwrap();
        let seq = crate::workloads::truncate(&w.generate(5).1, 2_000);
        let text = crate::workloads::frames(&seq);
        let frames = root.join("frames.txt");
        std::fs::write(&frames, &text).unwrap();
        let (_, closed, _) = closed_loop(&frames, &dir).unwrap();
        let expected = closed.canonical_json();
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut m = Metrics::default();
            let (state, summary) =
                traced_pass(&text, &dir, &side, &mut Recorder::default(), &mut m).unwrap();
            assert_eq!(check_final(&state, &summary, &dir, 2_000, &expected), Ok(0));
            runs.push(m);
        }
        for name in crate::report::COUNTS {
            if let Some(v) = runs[0].get(name) {
                assert_eq!(runs[1].get(name), Some(v), "{name}");
            }
        }
        assert_eq!(runs[0].get("serve.epochs"), Some((2_000 / 64) as f64));
        std::fs::remove_dir_all(&root).ok();
    }
}
