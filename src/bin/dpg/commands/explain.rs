//! `dpg explain` — narrate the three-arm decision for one item pair.

use crate::cli::{check_flags, item_of, parse_flag, trace_arg, write_report, CliError};
use dp_greedy_suite::model::defaults::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_MU};
use dp_greedy_suite::prelude::*;
use dp_greedy_suite::trace::io::TraceFile;

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "explain",
        args,
        &["--a", "--b", "--mu", "--lambda", "--alpha"],
        &[],
    )?;
    let path = trace_arg("explain", args)?;
    let a: u32 = parse_flag(args, "--a").transpose()?.unwrap_or(0);
    let b: u32 = parse_flag(args, "--b").transpose()?.unwrap_or(1);
    let mu: f64 = parse_flag(args, "--mu").transpose()?.unwrap_or(DEFAULT_MU);
    let lambda: f64 = parse_flag(args, "--lambda")
        .transpose()?
        .unwrap_or(DEFAULT_LAMBDA);
    let alpha: f64 = parse_flag(args, "--alpha")
        .transpose()?
        .unwrap_or(DEFAULT_ALPHA);

    let file = TraceFile::load(path).map_err(|e| CliError::Runtime(e.to_string()))?;
    let seq = &file.sequence;
    let (a, b) = (item_of(seq, "--a", a)?, item_of(seq, "--b", b)?);
    if a == b {
        return Err(CliError::Usage(format!(
            "--a and --b name the same item {}; a pair needs two",
            a.0
        )));
    }
    let model = CostModel::new(mu, lambda, alpha).map_err(|e| CliError::Usage(e.to_string()))?;
    let config = DpGreedyConfig::new(model);
    let text =
        dp_greedy_suite::dp_greedy::explain::explain_pair_text(seq, a.min(b), a.max(b), &config);
    write_report(|out| out.write_all(text.as_bytes()))
}
