//! `dpg algos` — list the `mcs-engine` solver registry.
//!
//! The plain rendering is a human-readable table; `--json` emits the
//! machine-readable form the CI registry-smoke job and the golden CLI
//! test consume: `{"algos": [{name, kind, description, request_limit}],
//! "aliases": [{alias, target}]}` in registry order.

use crate::cli::{check_flags, write_report, CliError};
use dp_greedy_suite::engine::{aliases, solvers};
use dp_greedy_suite::model::json::Json;

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags("algos", args, &[], &["--json"])?;
    if args.iter().any(|a| a == "--json") {
        let algos: Vec<Json> = solvers()
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name().into())),
                    ("kind".into(), Json::Str(s.kind().label().into())),
                    ("description".into(), Json::Str(s.description().into())),
                    (
                        "request_limit".into(),
                        s.request_limit()
                            .map_or(Json::Null, |l| Json::Num(l as f64)),
                    ),
                ])
            })
            .collect();
        let alias_rows: Vec<Json> = aliases()
            .iter()
            .map(|(alias, target)| {
                Json::Obj(vec![
                    ("alias".into(), Json::Str((*alias).into())),
                    ("target".into(), Json::Str((*target).into())),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("algos".into(), Json::Arr(algos)),
            ("aliases".into(), Json::Arr(alias_rows)),
        ]);
        return write_report(|out| writeln!(out, "{}", doc.to_string_pretty()));
    }
    write_report(|out| {
        writeln!(out, "registered solvers (use with `dpg run --algo NAME`):")?;
        for s in solvers() {
            let limit = s
                .request_limit()
                .map_or(String::new(), |l| format!("  [≤{l} requests]"));
            writeln!(
                out,
                "  {:<16} {:<8} {}{limit}",
                s.name(),
                s.kind().label(),
                s.description()
            )?;
        }
        writeln!(out, "aliases:")?;
        for (alias, target) in aliases() {
            writeln!(out, "  {alias:<16} → {target}")?;
        }
        Ok(())
    })
}
