//! `dpg` — command-line front end for the DP_Greedy reproduction.
//!
//! ```text
//! dpg generate --out trace.json [--seed N] [--steps N] [--taxis N]
//! dpg stats trace.json
//! dpg algos [--json]
//! dpg run --algo NAME [trace.json] [--mu X] [--lambda X] [--alpha X] [--theta X]
//!         [--max-group K] [--adaptive] [--cost-model FILE] [--json]
//! dpg serve --dir DIR [--input FILE] [--algo NAME] [--epoch-len N] [--dump-state]
//!           [--telemetry-addr HOST:PORT] [--telemetry-file PATH] [--dump-journal]
//! dpg top (--addr HOST:PORT | --file PATH) [--interval-ms N] [--journal N]
//!         [--raw metrics|journal] [--once]
//! dpg svg trace.json --out drawing.svg [--item N] [--mu X] [--lambda X]
//! dpg explain [trace.json] [--a N --b N] [--mu X] [--lambda X] [--alpha X]
//! dpg trace solve [trace.json] --out events.jsonl [--algo NAME] [...]
//! dpg trace pack in.json out.dpgb [--json]
//! dpg chaos [--seed N] [--fault-rate X]
//! dpg version
//! ```
//!
//! Traces are the JSON format of `mcs_trace::io` (generated here or
//! imported from elsewhere) or its binary `DPGB` packing. `dpg run`,
//! `dpg explain` and `dpg trace solve` without a trace file read the
//! Section V-C running example under the paper's parameters (μ = λ = 1,
//! α = 0.8, θ = 0.4), so `dpg explain` alone walks the paper's decisions
//! to its total of 14.96.
//!
//! The binary is one thin dispatch layer per subcommand (see
//! [`commands`]); everything that solves a whole request sequence goes
//! through the `mcs-engine` solver registry, so `dpg algos` lists exactly
//! what `dpg run --algo` and `dpg trace solve --algo` accept.
//!
//! Every subcommand additionally accepts `--metrics`, which prints the
//! `mcs-obs` counter/span summary (phase timings and work counters) after
//! the command completes. `dpg trace solve` derives the decision ledger
//! of a run — one JSON-lines event per cache interval, transfer, and
//! package-delivery choice — verifies it reconciles with the reported
//! total cost, and writes it to `--out` (byte-deterministic for a given
//! input; see the README's "Observability" section for the schema).
//! `dpg explain` prints one pair's ledger, one line per event.
//!
//! Exit codes follow the usual convention: `0` on success, `1` on a
//! runtime failure (unreadable trace, I/O error, ledger mismatch), `2` on
//! a usage error (unknown command, unknown or malformed flag, missing
//! argument), with the usage on stderr. `--help`, `-h` or `dpg help`, and
//! `--help` or `-h` after any subcommand, print the usage to stdout and
//! exit `0`.

mod cli;
mod commands;

use std::process::ExitCode;

use cli::{print_metrics, write_help, CliError, USAGE};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--metrics` is accepted by every subcommand: strip it before
    // dispatch and print the obs summary after a successful run.
    let metrics = args.iter().any(|a| a == "--metrics");
    args.retain(|a| a != "--metrics");
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    // `--help` or `-h` after a subcommand asks for the usage, as
    // `dpg --help` does, whatever else the line holds.
    let help = rest.iter().any(|a| a == "--help" || a == "-h");
    let result = match cmd.as_str() {
        _ if help => write_help(),
        "generate" => commands::generate::run(rest),
        "stats" => commands::stats::run(rest),
        "algos" => commands::algos::run(rest),
        "run" => commands::run_algo::run(rest),
        "serve" => commands::serve::run(rest),
        "top" => commands::top::run(rest),
        "svg" => commands::svg::run(rest),
        "explain" => commands::explain::run(rest),
        "trace" => commands::trace::run(rest),
        "chaos" => commands::chaos::run(rest),
        "version" | "--version" | "-V" => commands::version::run(),
        "--help" | "-h" | "help" => write_help(),
        other => Err(CliError::Usage(format!("unknown command {other}"))),
    };
    let result = if metrics {
        result.and_then(|()| print_metrics())
    } else {
        result
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
