//! `dpg stats` — summarize a trace file (sizes, hot zones, pair spectrum).

use crate::cli::{check_flags, positional, write_report, CliError};
use dp_greedy_suite::trace::io::TraceFile;
use dp_greedy_suite::trace::stats::{top_pairs, TraceStats};

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags("stats", args, &[], &[])?;
    let path = positional(args, &[]).ok_or("stats needs a trace file")?;
    let file = TraceFile::load(path).map_err(|e| CliError::Runtime(e.to_string()))?;
    let seq = &file.sequence;
    let st = TraceStats::from_sequence(seq);
    write_report(|out| {
        writeln!(
            out,
            "{} requests, {} item accesses, {} servers, {} items, horizon t={:.2}",
            st.requests,
            st.item_accesses,
            seq.servers(),
            seq.items(),
            st.horizon
        )?;
        if let Some((zone, count)) = st.hottest_zone() {
            writeln!(
                out,
                "hottest zone: {zone} with {count} requests; top-10 share {:.1}%",
                100.0 * st.top_zone_share(10)
            )?;
        }
        writeln!(out, "\ntop pairs by Jaccard:")?;
        for row in top_pairs(seq, 8) {
            writeln!(
                out,
                "  ({}, {})  freq={:<6} J={:.4}",
                row.a, row.b, row.frequency, row.jaccard
            )?;
        }
        Ok(())
    })
}
