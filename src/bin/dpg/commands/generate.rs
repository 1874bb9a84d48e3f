//! `dpg generate` — write a synthetic Shenzhen-like trace to disk.

use crate::cli::{check_flags, parse_flag, write_report, CliError};
use dp_greedy_suite::model::defaults::DEFAULT_SEED;
use dp_greedy_suite::prelude::*;
use dp_greedy_suite::trace::io::TraceFile;

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "generate",
        args,
        &["--out", "--seed", "--steps", "--taxis"],
        &[],
    )?;
    let out: String = parse_flag(args, "--out").ok_or("--out FILE is required")??;
    let seed: u64 = parse_flag(args, "--seed")
        .transpose()?
        .unwrap_or(DEFAULT_SEED);
    let mut cfg = WorkloadConfig::paper_like(seed);
    if let Some(steps) = parse_flag(args, "--steps").transpose()? {
        cfg.steps = steps;
    }
    if let Some(taxis) = parse_flag::<usize>(args, "--taxis").transpose()? {
        cfg.taxis = taxis;
        // Spread affinities over the new pair count.
        let pairs = taxis / 2;
        cfg.pair_affinity = (0..pairs)
            .map(|p| 0.95 - 0.9 * p as f64 / pairs.max(1) as f64)
            .collect();
    }
    let seq = generate(&cfg);
    write_report(|w| {
        writeln!(
            w,
            "generated {} requests ({} item accesses) over {} zones",
            seq.len(),
            seq.total_item_accesses(),
            seq.servers()
        )
    })?;
    TraceFile::synthetic(cfg, seq)
        .save(&out)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    write_report(|w| writeln!(w, "wrote {out}"))
}
