//! `dpg serve --dir DIR` — the crash-safe online serving daemon.
//!
//! Reads newline-framed `hello`/`req` frames from stdin (or `--input
//! FILE`) and, every `--epoch-len` admitted requests, settles the epoch
//! through the solver registry, folds it into the streaming
//! co-occurrence statistics and re-packs the placement. An epoch's solve
//! runs on one worker thread for the whole run while the daemon goes on
//! admitting the next epoch; `--settle-timeout-ms` counts from the
//! moment the epoch closes and its solve is sent to that thread. All
//! durable state lives in `--dir`: a checkpoint, atomically replaced and
//! synced whenever the log settled since it has grown to its size (and at
//! the end of the input), plus the write-ahead log segment it opened,
//! which every later epoch appends to, so `kill -9` at any instant
//! recovers byte-identically (see `crates/serve`). A clean run leaves
//! `checkpoint.json` and that checkpoint's `wal-N.log`, where `N` is the
//! open epoch. `--metrics` counts the settlement thread
//! (`serve.settle_workers`) and the segment files created
//! (`serve.wal_segments`, one per checkpoint on a fresh run).
//! `--dump-state` replays the checkpoint and log in memory, prints the
//! canonical state, and exits — the crash harness and CI diff exactly
//! that output; `--dump-journal` prints the journal that replay produced.
//! Dumps are read-only: they settle nothing (requests not yet settled
//! print as pending, however many), write no checkpoint, truncate no torn
//! tail and open no segment, so dumping never changes what a subsequent
//! restart sees. A restart (`dpg serve` with input) runs the full
//! recovery, which does all of those.

use std::io::BufReader;
use std::path::PathBuf;
use std::time::Duration;

use crate::cli::{check_flags, model_flags, parse_flag, write_report, CliError};
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
    if let Some(path) = parse_flag::<String>(args, "--telemetry-file").transpose()? {
        cfg.telemetry_file = Some(PathBuf::from(path));
    }

    let dump_journal = args.iter().any(|a| a == "--dump-journal");
    if dump_journal || args.iter().any(|a| a == "--dump-state") {
        // Read-only: replay the directory in memory (see the module doc).
        let state = Daemon::inspect(&cfg).map_err(runtime)?.ok_or_else(|| {
            CliError::Runtime(format!("no serving state in {}", cfg.dir.display()))
        })?;
        let text = if dump_journal {
            dp_greedy_suite::obs::journal::tail_jsonl(usize::MAX)
        } else {
            state.canonical_json()
        };
        return write_report(|out| out.write_all(text.as_bytes()));
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
    write_report(|out| {
        writeln!(
            out,
            "serve: {source} done: admitted={} stale={} rejected={} malformed={} replayed={}",
            summary.admitted, summary.stale, summary.rejected, summary.malformed, summary.replayed
        )?;
        writeln!(
            out,
            "state: epoch={} admitted={} pending={} cum_cost={:.4} degraded_epochs={:?}",
            state.epoch,
            state.admitted,
            state.pending.len(),
            state.cum_cost,
            state.degraded_epochs
        )?;
        if let Some(ratio) = state.degradation_ratio() {
            writeln!(out, "degradation_ratio={ratio:.4}")?;
        }
        Ok(())
    })
}
