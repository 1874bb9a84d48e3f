//! `dpg version` / `dpg --version` — crate version plus git-independent
//! build information (everything comes from the Cargo environment, so the
//! output is identical whether or not the source tree is a checkout).

use crate::cli::{write_report, CliError};

pub fn run() -> Result<(), CliError> {
    write_report(|out| {
        writeln!(out, "dpg {}", env!("CARGO_PKG_VERSION"))?;
        writeln!(
            out,
            "{} — DP_Greedy (CLUSTER 2019) reproduction suite",
            env!("CARGO_PKG_NAME")
        )?;
        writeln!(
            out,
            "offline build: no external dependencies (see DESIGN.md)"
        )
    })
}
