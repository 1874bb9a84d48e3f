//! `dpg explain [FILE]` — the decisions DP_Greedy makes for one item
//! pair, printed from the pair's decision ledger.
//!
//! The pair's [`Solution`] is built once from its Phase-2 report
//! ([`package_parts`], so one covering DP runs) and must reconcile before
//! anything is printed. The header's J comes from the pair's counts. Each ledger event becomes one line, in time
//! order (ties keep the ledger's order): the subject, the option chosen,
//! the cost paid and the cost of each option offered. The package
//! schedule's intervals and transfers follow, then the totals, whose
//! `C12`, `C1'` and `C2'` are the ledger's sums per subject. Without a
//! trace file the Section V-C running example is explained.

use crate::cli::{
    check_flags, item_of, parse_flag, reconciled, trace_or_example, write_report, CliError,
};
use dp_greedy_suite::engine::solvers::package_parts;
use dp_greedy_suite::engine::{Solution, SolutionPart, SolverKind};
use dp_greedy_suite::model::request::jaccard_from_counts;
use dp_greedy_suite::obs::ledger::OPTION_NAMES;
use dp_greedy_suite::obs::Subject;
use dp_greedy_suite::prelude::*;

/// `d1` for an item, `(d1, d2)` for a pair or package, as the header
/// names them.
fn subject_name(subject: Subject<'_>) -> String {
    let members: Vec<String> = match subject {
        Subject::Item(i) => return ItemId(i).to_string(),
        Subject::Pair(a, b) => vec![ItemId(a).to_string(), ItemId(b).to_string()],
        Subject::Package(members) => members.iter().map(|&m| ItemId(m).to_string()).collect(),
    };
    format!("({})", members.join(", "))
}

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "explain",
        args,
        &["--a", "--b", "--mu", "--lambda", "--alpha"],
        &[],
    )?;
    let (seq, _, params) = trace_or_example(args, &[])?;
    let a: u32 = parse_flag(args, "--a").transpose()?.unwrap_or(0);
    let b: u32 = parse_flag(args, "--b").transpose()?.unwrap_or(1);
    let (a, b) = (item_of(&seq, "--a", a)?, item_of(&seq, "--b", b)?);
    if a == b {
        return Err(CliError::Usage(format!(
            "--a and --b name the same item {}; a pair needs two",
            a.0
        )));
    }
    let (a, b) = (a.min(b), a.max(b));
    let model = params.model;
    let report = dp_greedy_pair(&seq, a, b, &DpGreedyConfig::new(model));
    let jaccard = jaccard_from_counts(
        seq.count_pair(a, b),
        seq.count_containing(a),
        seq.count_containing(b),
    );
    let mut solution = Solution {
        algo: "dp_greedy",
        kind: SolverKind::Offline,
        total_cost: report.total(),
        total_accesses: report.accesses,
        parts: Vec::new(),
    };
    package_parts(report, &model, 0.0, &mut solution.parts);
    reconciled(&solution)?;

    let mut events = solution.ledger().events();
    // C12, C1' and C2', summed in ledger order.
    let mut sums = [0.0; 3];
    for e in &events {
        let slot = match e.subject {
            Subject::Item(i) if i == a.0 => 1,
            Subject::Item(_) => 2,
            _ => 0,
        };
        sums[slot] += e.cost;
    }
    events.sort_by(|x, y| x.t.total_cmp(&y.t));
    write_report(|out| {
        writeln!(
            out,
            "DP_Greedy decisions for pair ({a}, {b}) — J = {jaccard:.4}, θ = {}, α = {}",
            params.theta,
            model.alpha()
        )?;
        for e in &events {
            write!(
                out,
                "t={:>6.2}  {}: {}, paid {:.2} (offered:",
                e.t,
                subject_name(e.subject),
                e.option_chosen,
                e.cost
            )?;
            let offered = OPTION_NAMES.iter().zip(e.option_costs);
            for (i, (name, cost)) in offered.filter(|(_, c)| c.is_finite()).enumerate() {
                let sep = if i == 0 { "" } else { "," };
                write!(out, "{sep} {name} {cost:.2}")?;
            }
            writeln!(out, ")")?;
        }
        for part in &solution.parts {
            if let SolutionPart::Schedule {
                subject, schedule, ..
            } = part
            {
                let name = subject_name(subject.as_subject());
                writeln!(out, "package schedule of {name}:")?;
                for iv in &schedule.intervals {
                    writeln!(
                        out,
                        "  {} holds [{:.2}, {:.2}]",
                        iv.server, iv.span.start, iv.span.end
                    )?;
                }
                for tr in &schedule.transfers {
                    writeln!(out, "  {} → {} at {:.2}", tr.from, tr.to, tr.time)?;
                }
            }
        }
        writeln!(
            out,
            "totals: C12 = {:.2}, C1' = {:.2}, C2' = {:.2} → {:.2} over {} accesses (ave {:.4})",
            sums[0],
            sums[1],
            sums[2],
            solution.total_cost,
            solution.total_accesses,
            solution.ave_cost()
        )
    })
}
