//! `dpg serve --dir DIR` — the crash-safe online serving daemon.
//!
//! Reads newline-framed `hello`/`req` frames from stdin (or `--input
//! FILE`) and, every `--epoch-len` admitted requests, settles the epoch
//! through the solver registry, folds it into the streaming
//! co-occurrence statistics and re-packs the placement. All durable
//! state lives in `--dir`: a checkpoint, atomically replaced and synced
//! whenever the log settled since it has grown to its size (and at the
//! end of the input), plus the write-ahead log segment it opened, which
//! every later epoch appends to, so `kill -9` at any instant recovers
//! byte-identically (see `crates/serve`). A clean run leaves
//! `checkpoint.json` and that checkpoint's `wal-N.log`, where `N` is the
//! open epoch. Settlements run on one worker thread for the whole run;
//! `--metrics` counts it (`serve.settle_workers`) and the segment files
//! created (`serve.wal_segments`, one per checkpoint on a fresh run).
//! `--dump-state` runs full recovery, prints the recovered canonical
//! state, and exits — the crash harness and CI diff exactly that output.
//! Recovery is not read-only: like any restart it checkpoints the
//! recovered state if it replayed a settlement (deleting the segments that
//! checkpoint covers), truncates torn WAL tails, and (if the recovered
//! pending buffer is already full) settles that epoch, so it may invoke
//! the solver; all of this is deterministic and idempotent, so dumping
//! never changes what a subsequent restart sees.

use std::io::BufReader;
use std::path::PathBuf;
use std::time::Duration;

use crate::cli::{check_flags, model_flags, parse_flag, CliError};
use dp_greedy_suite::engine::find;
use dp_greedy_suite::serve::{serve_stream, Daemon, ServeConfig, ServeError, TelemetryServer};

fn runtime(e: ServeError) -> CliError {
    CliError::Runtime(e.to_string())
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "serve",
        args,
        &[
            "--dir",
            "--input",
            "--algo",
            "--epoch-len",
            "--decay",
            "--settle-timeout-ms",
            "--max-items",
            "--throttle-us",
            "--inject-panic-epoch",
            "--seed",
            "--telemetry-addr",
            "--telemetry-file",
            "--mu",
            "--lambda",
            "--alpha",
            "--theta",
        ],
        &["--quiet", "--dump-state", "--dump-journal"],
    )?;
    let dir: String =
        parse_flag(args, "--dir").ok_or("serve needs --dir DIR (durable state directory)")??;
    let (model, theta) = model_flags(args)?;
    let mut cfg = ServeConfig::new(PathBuf::from(dir));
    cfg.model = model;
    cfg.theta = theta;
    cfg.quiet = args.iter().any(|a| a == "--quiet");
    if let Some(algo) = parse_flag::<String>(args, "--algo").transpose()? {
        cfg.algo = algo;
    }
    if find(&cfg.algo).is_none() {
        return Err(CliError::Usage(format!(
            "unknown algorithm {} (see `dpg algos`)",
            cfg.algo
        )));
    }
    if let Some(n) = parse_flag::<usize>(args, "--epoch-len").transpose()? {
        if n == 0 {
            return Err(CliError::Usage("--epoch-len must be positive".into()));
        }
        cfg.epoch_len = n;
    }
    if let Some(d) = parse_flag::<f64>(args, "--decay").transpose()? {
        if !(d > 0.0 && d <= 1.0) {
            return Err(CliError::Usage("--decay must be in (0, 1]".into()));
        }
        cfg.decay = d;
    }
    if let Some(ms) = parse_flag::<u64>(args, "--settle-timeout-ms").transpose()? {
        if ms == 0 {
            return Err(CliError::Usage(
                "--settle-timeout-ms must be positive".into(),
            ));
        }
        cfg.settle_timeout = Duration::from_millis(ms);
    }
    if let Some(n) = parse_flag::<usize>(args, "--max-items").transpose()? {
        if n == 0 {
            return Err(CliError::Usage("--max-items must be positive".into()));
        }
        cfg.max_items = n;
    }
    if let Some(us) = parse_flag::<u64>(args, "--throttle-us").transpose()? {
        cfg.throttle = Duration::from_micros(us);
    }
    cfg.inject_panic_epoch = parse_flag::<u64>(args, "--inject-panic-epoch").transpose()?;
    if let Some(seed) = parse_flag::<u64>(args, "--seed").transpose()? {
        cfg.seed = seed;
    }
    if let Some(path) = parse_flag::<String>(args, "--telemetry-file").transpose()? {
        cfg.telemetry_file = Some(PathBuf::from(path));
    }

    if args.iter().any(|a| a == "--dump-journal") {
        // Like --dump-state: run full (deterministic, idempotent)
        // recovery, then print every journal event it produced.
        let dir = cfg.dir.clone();
        Daemon::recover(cfg)
            .map_err(runtime)?
            .ok_or_else(|| CliError::Runtime(format!("no serving state in {}", dir.display())))?;
        print!("{}", dp_greedy_suite::obs::journal::tail_jsonl(usize::MAX));
        return Ok(());
    }

    if args.iter().any(|a| a == "--dump-state") {
        // Not read-only: recovery may write a checkpoint, truncates torn
        // WAL tails, and settles a full pending buffer — all
        // deterministic and idempotent (see the module doc).
        let dir = cfg.dir.clone();
        let daemon = Daemon::recover(cfg)
            .map_err(runtime)?
            .ok_or_else(|| CliError::Runtime(format!("no serving state in {}", dir.display())))?;
        print!("{}", daemon.current_state().canonical_json());
        return Ok(());
    }

    // The control endpoint lives on its own listener thread for the
    // whole run and is shut down (joined) when this guard drops.
    let telemetry = parse_flag::<String>(args, "--telemetry-addr")
        .transpose()?
        .map(|spec| {
            TelemetryServer::spawn(&spec)
                .map_err(|e| CliError::Runtime(format!("cannot bind telemetry {spec}: {e}")))
        })
        .transpose()?;
    if let (Some(server), false) = (&telemetry, cfg.quiet) {
        eprintln!("serve: telemetry on http://{}", server.addr());
    }

    let input = parse_flag::<String>(args, "--input").transpose()?;
    let (state, summary) = match &input {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::Runtime(format!("cannot open {path}: {e}")))?;
            serve_stream(cfg, BufReader::new(file)).map_err(runtime)?
        }
        None => serve_stream(cfg, std::io::stdin().lock()).map_err(runtime)?,
    };
    let source = input.unwrap_or_else(|| "stdin".to_string());
    println!(
        "serve: {source} done: admitted={} stale={} rejected={} malformed={} replayed={}",
        summary.admitted, summary.stale, summary.rejected, summary.malformed, summary.replayed
    );
    println!(
        "state: epoch={} admitted={} pending={} cum_cost={:.4} degraded_epochs={:?}",
        state.epoch,
        state.admitted,
        state.pending.len(),
        state.cum_cost,
        state.degraded_epochs
    );
    if let Some(ratio) = state.degradation_ratio() {
        println!("degradation_ratio={ratio:.4}");
    }
    Ok(())
}
