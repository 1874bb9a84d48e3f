//! `dpg svg` — render the optimal single-item schedule as an SVG timeline.

use crate::cli::{check_flags, item_of, parse_flag, positional, write_report, CliError};
use dp_greedy_suite::model::defaults::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_MU};
use dp_greedy_suite::prelude::*;
use dp_greedy_suite::trace::io::TraceFile;

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags("svg", args, &["--out", "--item", "--mu", "--lambda"], &[])?;
    let path = positional(args, &[]).ok_or("svg needs a trace file")?;
    let out: String = parse_flag(args, "--out").ok_or("--out FILE is required")??;
    let item: u32 = parse_flag(args, "--item").transpose()?.unwrap_or(0);
    let mu: f64 = parse_flag(args, "--mu").transpose()?.unwrap_or(DEFAULT_MU);
    let lambda: f64 = parse_flag(args, "--lambda")
        .transpose()?
        .unwrap_or(DEFAULT_LAMBDA);

    let file = TraceFile::load(path).map_err(|e| CliError::Runtime(e.to_string()))?;
    let model =
        CostModel::new(mu, lambda, DEFAULT_ALPHA).map_err(|e| CliError::Usage(e.to_string()))?;
    let trace = file
        .sequence
        .item_trace(item_of(&file.sequence, "--item", item)?);
    if trace.is_empty() {
        return Err(CliError::Runtime(format!(
            "item d{} has no requests in this trace",
            item + 1
        )));
    }
    let solved = optimal(&trace, &model);
    let svg = dp_greedy_suite::model::svg::render_svg(
        &solved.schedule,
        &trace,
        &dp_greedy_suite::model::svg::SvgOptions::default(),
    );
    std::fs::write(&out, svg).map_err(|e| CliError::Runtime(e.to_string()))?;
    write_report(|w| {
        writeln!(
            w,
            "wrote {out} (optimal schedule for d{}, cost {:.2}, {} requests)",
            item + 1,
            solved.cost,
            trace.len()
        )
    })
}
