//! `dpg example` — print the Section V-C running example numbers.

use crate::cli::{check_flags, write_report, CliError};

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags("example", args, &[], &[])?;
    let report = dp_greedy_suite::dp_greedy::paper_example::paper_report();
    let pair = &report.pairs[0];
    write_report(|out| {
        writeln!(out, "Section V-C running example (μ=λ=1, α=0.8, θ=0.4):")?;
        writeln!(out, "  J(d1,d2) = {:.4}", pair.jaccard)?;
        writeln!(
            out,
            "  C12 = {:.2}, C1' = {:.2}, C2' = {:.2}",
            pair.package_cost, pair.a_singleton_cost, pair.b_singleton_cost
        )?;
        writeln!(out, "  total = {:.2} (paper: 14.96)", report.total_cost)
    })
}
