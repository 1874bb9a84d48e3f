//! `dpg trace` — derive, verify, and export the decision ledger of a run,
//! and convert traces between their two on-disk formats.
//!
//! `dpg trace solve` goes through the engine: the registry solver
//! produces a [`Solution`] and the generic [`Solution::ledger`]
//! derivation replaces the former per-algorithm ledger builders. Any
//! registered solver name (or alias) is accepted by `--algo`. Without a
//! trace file it solves the Section V-C running example, as `dpg run`
//! does.

use crate::cli::{
    check_flags, checked_solve, parse_flag, trace_or_example, write_report, CliError,
};
use dp_greedy_suite::engine::{find, CachingSolver, Solution};
use dp_greedy_suite::trace::io::TraceFile;

pub fn run(args: &[String]) -> Result<(), CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::Usage(
            "trace needs a subcommand: solve or pack".to_string(),
        ));
    };
    let rest = &args[1..];
    match sub.as_str() {
        "solve" => trace_solve(rest),
        "pack" => trace_pack(rest),
        other => Err(CliError::Usage(format!(
            "unknown trace subcommand {other} (expected solve or pack)"
        ))),
    }
}

/// The historical display names kept for the trace summary line.
fn display_name(solver: &dyn CachingSolver) -> &'static str {
    match solver.name() {
        "dp_greedy" => "DP_Greedy",
        "optimal" => "Optimal",
        "greedy" => "Greedy",
        other => other,
    }
}

/// Streams the ledger of `solution`, whose events total `total`, to
/// `out` and prints the cost breakdown: passes over the parts, each
/// deriving the events again, and no event list.
fn emit_ledger(solution: &Solution, total: f64, algo: &str, out: &str) -> Result<(), CliError> {
    let ledger = solution.ledger();
    std::fs::File::create(out)
        .and_then(|mut file| ledger.write_jsonl(&mut file))
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let b = ledger.breakdown();
    write_report(|w| {
        writeln!(
            w,
            "wrote {out}: {} events, total {:.4} (reconciles with {algo})",
            ledger.len(),
            total
        )?;
        writeln!(
            w,
            "breakdown: cache {:.4} + transfer {:.4} + package_delivery {:.4}",
            b.cache, b.transfer, b.package_delivery
        )
    })
}

/// The `trace solve` flags that stand alone (no value token follows).
const SOLVE_BOOL_FLAGS: [&str; 1] = ["--adaptive"];

fn trace_solve(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "trace solve",
        args,
        &[
            "--algo",
            "--mu",
            "--lambda",
            "--alpha",
            "--theta",
            "--max-group",
            "--out",
            "--cost-model",
        ],
        &SOLVE_BOOL_FLAGS,
    )?;
    let out: String = parse_flag(args, "--out").ok_or("--out FILE.jsonl is required")??;
    let algo: String = parse_flag(args, "--algo")
        .transpose()?
        .unwrap_or_else(|| "dpg".to_string());
    let Some(solver) = find(&algo) else {
        return Err(CliError::Usage(format!(
            "unknown algorithm {algo} for trace (see `dpg algos`)"
        )));
    };

    let (seq, source, params) = trace_or_example(args, &SOLVE_BOOL_FLAGS)?;
    let (solution, total) = checked_solve(solver, &seq, &params.context(), &source)?;
    emit_ledger(&solution, total, display_name(solver), &out)
}

/// `dpg trace pack IN OUT` — converts a trace between the JSON and
/// binary (`DPGB`) on-disk formats. The input format is auto-detected;
/// the output defaults to binary, `--json` unpacks back to JSON. Both
/// directions preserve the sequence bit-exactly (times are stored as raw
/// `f64` bit patterns), so a packed trace solves to byte-identical
/// ledgers and cost bits.
fn trace_pack(args: &[String]) -> Result<(), CliError> {
    check_flags("trace pack", args, &[], &["--json"])?;
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [input, out] = positional.as_slice() else {
        return Err(CliError::Usage(
            "trace pack needs IN and OUT paths".to_string(),
        ));
    };
    let to_json = args.iter().any(|a| a == "--json");
    let file = TraceFile::load(input).map_err(|e| CliError::Runtime(e.to_string()))?;
    let result = if to_json {
        file.save(out)
    } else {
        file.save_binary(out)
    };
    result.map_err(|e| CliError::Runtime(e.to_string()))?;
    let bytes = std::fs::metadata(out.as_str())
        .map(|m| m.len())
        .unwrap_or(0);
    write_report(|w| {
        writeln!(
            w,
            "packed {input} -> {out} ({}, {} requests, {bytes} bytes)",
            if to_json { "json" } else { "binary" },
            file.sequence.len()
        )
    })
}
