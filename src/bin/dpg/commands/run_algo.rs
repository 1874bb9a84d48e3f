//! `dpg run --algo NAME [FILE]` — run any registered solver.
//!
//! Without a trace file the Section V-C running example is solved under
//! the paper's parameters (μ=λ=1, α=0.8, θ=0.4); with a file the
//! workspace defaults apply. Explicit `--mu/--lambda/--alpha/--theta`
//! flags override either baseline. `dpg explain` and `dpg trace solve`
//! read their input by the same rule ([`trace_or_example`]). The derived
//! decision ledger is reconciled against the solver's reported total
//! before anything is printed, so a success exit certifies the
//! accounting.

use crate::cli::{
    check_flags, checked_solve, parse_flag, trace_or_example, write_report, CliError,
};
use dp_greedy_suite::engine::{find, SolverKind};
use dp_greedy_suite::model::json::Json;

/// The `run` flags that stand alone (no value token follows).
const BOOL_FLAGS: [&str; 2] = ["--json", "--adaptive"];

pub fn run(args: &[String]) -> Result<(), CliError> {
    check_flags(
        "run",
        args,
        &[
            "--algo",
            "--mu",
            "--lambda",
            "--alpha",
            "--theta",
            "--max-group",
            "--cost-model",
        ],
        &BOOL_FLAGS,
    )?;
    let algo: String =
        parse_flag(args, "--algo").ok_or("run needs --algo NAME (see `dpg algos`)")??;
    let Some(solver) = find(&algo) else {
        return Err(CliError::Usage(format!(
            "unknown algorithm {algo} (see `dpg algos`)"
        )));
    };

    let (seq, source, params) = trace_or_example(args, &BOOL_FLAGS)?;
    let (mu, lambda, alpha) = (
        params.model.mu(),
        params.model.lambda(),
        params.model.alpha(),
    );
    // Package knobs are echoed only when they deviate from the pairwise
    // defaults, keeping the historical header byte-stable.
    let mut knobs = String::new();
    if params.max_group != 2 {
        knobs.push_str(&format!(" max_group={}", params.max_group));
    }
    if params.adaptive {
        knobs.push_str(" adaptive");
    }
    if let Some(path) = &params.cost_model_path {
        // μ/λ/α above are the plane's homogeneous projection; name the
        // real plane so the header is honest about where rates came from.
        knobs.push_str(&format!(" cost_model={path} ({})", params.plane.shape()));
    }

    let ctx = params.context();
    let (sol, ledger_total) = checked_solve(solver, &seq, &ctx, &source)?;
    let gap = (ledger_total - sol.total_cost).abs();
    // The θ the solve packed at: `--theta`, or derived under `--adaptive`.
    let theta = ctx.theta_for(&seq);

    if args.iter().any(|a| a == "--json") {
        let doc = Json::Obj(vec![
            ("algo".into(), Json::Str(sol.algo.into())),
            ("kind".into(), Json::Str(sol.kind.label().into())),
            ("source".into(), Json::Str(source)),
            ("total_cost".into(), Json::Num(sol.total_cost)),
            ("ave_cost".into(), Json::Num(sol.ave_cost())),
            (
                "total_accesses".into(),
                Json::Num(sol.total_accesses as f64),
            ),
            ("reconciliation_gap".into(), Json::Num(gap)),
        ]);
        return write_report(|out| writeln!(out, "{}", doc.to_string_pretty()));
    }

    write_report(|out| {
        writeln!(
            out,
            "{} ({}) on {source}: μ={mu} λ={lambda} α={alpha} θ={theta}{knobs}",
            sol.algo,
            sol.kind.label()
        )?;
        writeln!(
            out,
            "total={:.4} ave_cost={:.6} ({} item accesses, ledger gap {gap:.1e})",
            sol.total_cost,
            sol.ave_cost(),
            sol.total_accesses
        )?;
        if sol.kind == SolverKind::Offline {
            let b = sol.ledger().breakdown();
            writeln!(
                out,
                "breakdown: cache {:.4} + transfer {:.4} + package_delivery {:.4}",
                b.cache, b.transfer, b.package_delivery
            )?;
        }
        Ok(())
    })
}
