//! Shared CLI plumbing: error taxonomy, usage text, flag parsing, the
//! report writer, and the `--metrics` summary printer. Subcommand logic
//! lives in [`crate::commands`].

use std::io::{ErrorKind, Write};

use dp_greedy_suite::dp_greedy::paper_example;
use dp_greedy_suite::engine::{solvers, CachingSolver, PackageKnobs, RunContext, Solution};
use dp_greedy_suite::model::defaults::{DEFAULT_ALPHA, DEFAULT_LAMBDA, DEFAULT_MU, DEFAULT_THETA};
use dp_greedy_suite::model::json::{self, FromJson};
use dp_greedy_suite::model::{CostPlane, ItemId, RequestSeq};
use dp_greedy_suite::prelude::CostModel;
use dp_greedy_suite::trace::io::TraceFile;

/// A CLI failure, split by whose fault it is: [`CliError::Usage`] means
/// the invocation itself was malformed (exit 2), [`CliError::Runtime`]
/// means a well-formed invocation failed while running (exit 1).
pub enum CliError {
    /// Malformed invocation — exit 2.
    Usage(String),
    /// Well-formed invocation that failed while running — exit 1.
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

/// Writes the usage to stdout, for `--help`, `-h` and `dpg help`, through
/// [`write_report`], so a closed pipe ends quietly. After a usage error
/// it goes to stderr instead.
pub fn write_help() -> Result<(), CliError> {
    write_report(|out| writeln!(out, "{USAGE}"))
}

/// The usage text of every subcommand.
pub const USAGE: &str = "usage:\n  dpg generate --out FILE [--seed N] [--steps N] [--taxis N]\n  \
         dpg stats FILE\n  \
         dpg algos [--json]\n  \
         dpg run --algo NAME [FILE] [--mu X] [--lambda X] [--alpha X] [--theta X] \
         [--max-group K] [--adaptive] [--cost-model FILE] [--json]\n  \
         dpg serve --dir DIR [--input FILE] [--algo NAME] [--epoch-len N] [--decay X] \
         [--settle-timeout-ms N] [--max-items N] [--quiet] [--dump-state] \
         [--telemetry-addr HOST:PORT] [--telemetry-file PATH] [--dump-journal]\n  \
         dpg top (--addr HOST:PORT | --file PATH) [--interval-ms N] [--journal N] \
         [--raw metrics|journal] [--once]\n  \
         dpg svg FILE --out FILE.svg [--item N] [--mu X] [--lambda X]\n  \
         dpg explain [FILE] [--a N --b N] [--mu X] [--lambda X] [--alpha X]\n  \
         dpg trace solve [FILE] --out FILE.jsonl [--algo NAME] [--mu X] [--lambda X] \
         [--alpha X] [--theta X] [--max-group K] [--adaptive] [--cost-model FILE]\n  \
         dpg trace pack IN OUT [--json]\n  \
         dpg chaos [--seed N] [--fault-rate X] [--mean-outage X] [--steps N] \
         [--mu X] [--lambda X] [--alpha X] [--theta X]\n  \
         dpg version\n\
         `dpg algos` lists the solver registry NAMEs (--max-group K caps the \
         package size and --adaptive derives θ from the trace, in the rows that \
         read them, and the others refuse them; --cost-model points run/trace solve \
         at a homogeneous, hetero, or tiered cost-plane JSON); without FILE, run, \
         explain and trace solve read the paper's running example \
         (μ=λ=1, α=0.8, θ=0.4); every subcommand also accepts --metrics \
         (print the obs summary)";

/// Writes a command's report to locked stdout through `write`. A reader
/// that closed the pipe early (`dpg stats FILE | head -1`) ends the
/// command quietly with exit 0; any other write failure is a runtime
/// error.
pub fn write_report(
    write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), CliError> {
    write_frame(write).map(drop)
}

/// [`write_report`] for a command that keeps writing (the live `dpg top`
/// view): `Ok(false)` once the reader has closed the pipe, so the
/// command can stop.
pub fn write_frame(
    write: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<bool, CliError> {
    let mut out = std::io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(CliError::Runtime(format!("cannot write to stdout: {e}"))),
    }
}

/// Rejects flags the subcommand does not know. `value_flags` consume the
/// following token; `bool_flags` stand alone. Positional arguments are
/// ignored.
pub fn check_flags(
    cmd: &str,
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), CliError> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if value_flags.contains(&a) {
                i += 2;
                continue;
            }
            if bool_flags.contains(&a) {
                i += 1;
                continue;
            }
            return Err(CliError::Usage(format!("unknown flag {a} for `dpg {cmd}`")));
        }
        i += 1;
    }
    Ok(())
}

pub fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
) -> Option<Result<T, CliError>> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?
            .parse::<T>()
            .map_err(|_| CliError::Usage(format!("bad value for {flag}")))
    })
}

/// The parsed solver parameters shared by `dpg run`, `dpg trace solve`,
/// and (via [`model_flags`]) every other model-taking subcommand — one
/// parsing path, one validation path.
pub struct SolverParams {
    /// The homogeneous projection of [`SolverParams::plane`] — exact for
    /// a homogeneous (or uniformly-collapsible) plane, a mean-rate
    /// summary otherwise. Header echoes and the plane-less subcommands
    /// read this.
    pub model: CostModel,
    /// The full cost plane: `--cost-model FILE` when given, otherwise
    /// the homogeneous model from `--mu/--lambda/--alpha`.
    pub plane: CostPlane,
    /// The `--cost-model` path, kept for the header echo.
    pub cost_model_path: Option<String>,
    /// Packing threshold `θ` (fixed mode).
    pub theta: f64,
    /// Maximum package size (`2` = the paper's pairwise shape).
    pub max_group: usize,
    /// Derive `θ` per trace from the prescan instead of the fixed value.
    pub adaptive: bool,
}

impl SolverParams {
    /// The engine [`RunContext`] these parameters describe.
    pub fn context(&self) -> RunContext {
        let ctx = RunContext::from_plane(self.plane.clone())
            .with_theta(self.theta)
            .with_max_group(self.max_group);
        if self.adaptive {
            ctx.with_adaptive_theta()
        } else {
            ctx
        }
    }
}

/// Loads and validates a `--cost-model` file. Unreadable files are
/// runtime errors (exit 1); malformed or invalid contents are usage
/// errors (exit 2) reported as `path:line:col: message` — semantic
/// validation failures (e.g. a negative rate) have no position and land
/// on `1:1`.
fn load_cost_plane(path: &str) -> Result<CostPlane, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("cannot read cost model {path}: {e}")))?;
    let positional = |e: json::JsonError| {
        let (line, col) = json::line_col(&text, e.at);
        CliError::Usage(format!("{path}:{line}:{col}: {}", e.msg))
    };
    let value = json::parse(&text).map_err(positional)?;
    CostPlane::from_json(&value).map_err(positional)
}

/// Parses and validates the shared solver flags
/// (`--mu/--lambda/--alpha/--theta/--max-group/--adaptive`, plus
/// `--cost-model FILE` for a heterogeneous or tiered plane) over the
/// caller-supplied `(μ, λ, α, θ)` baseline — `dpg run` passes the paper
/// example's numbers when no trace file is given, everything else the
/// workspace defaults. Positional usage errors, like `dpg serve`.
pub fn solver_flags(args: &[String], base: (f64, f64, f64, f64)) -> Result<SolverParams, CliError> {
    let mu: f64 = parse_flag(args, "--mu").transpose()?.unwrap_or(base.0);
    let lambda: f64 = parse_flag(args, "--lambda").transpose()?.unwrap_or(base.1);
    let alpha: f64 = parse_flag(args, "--alpha").transpose()?.unwrap_or(base.2);
    let theta: f64 = parse_flag(args, "--theta").transpose()?.unwrap_or(base.3);
    let max_group: usize = parse_flag(args, "--max-group").transpose()?.unwrap_or(2);
    let adaptive = args.iter().any(|a| a == "--adaptive");
    let cost_model_path: Option<String> = parse_flag(args, "--cost-model").transpose()?;
    if !theta.is_finite() || !(0.0..=1.0).contains(&theta) {
        return Err(CliError::Usage(format!(
            "--theta must be a Jaccard threshold in [0, 1], got {theta}"
        )));
    }
    if max_group < 2 {
        return Err(CliError::Usage(format!(
            "--max-group must be at least 2 (pairs), got {max_group}"
        )));
    }
    let (plane, model) = match &cost_model_path {
        Some(path) => {
            for flag in ["--mu", "--lambda", "--alpha"] {
                if args.iter().any(|a| a == flag) {
                    return Err(CliError::Usage(format!(
                        "{flag} conflicts with --cost-model (the file carries the rates)"
                    )));
                }
            }
            let plane = load_cost_plane(path)?;
            let model = plane.projected_homogeneous();
            (plane, model)
        }
        None => {
            let model =
                CostModel::new(mu, lambda, alpha).map_err(|e| CliError::Usage(e.to_string()))?;
            (CostPlane::Homogeneous(model), model)
        }
    };
    Ok(SolverParams {
        model,
        plane,
        cost_model_path,
        theta,
        max_group,
        adaptive,
    })
}

/// The workspace-default `(μ, λ, α, θ)` baseline for [`solver_flags`].
const DEFAULT_BASE: (f64, f64, f64, f64) =
    (DEFAULT_MU, DEFAULT_LAMBDA, DEFAULT_ALPHA, DEFAULT_THETA);

/// First positional argument (a trace FILE), skipping `--flag value`
/// pairs: every flag outside `bool_flags` consumes the token after it.
/// The one positional rule of every subcommand that reads a trace.
pub fn positional<'a>(args: &'a [String], bool_flags: &[&str]) -> Option<&'a String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if bool_flags.contains(&a) {
            i += 1;
        } else if a.starts_with("--") {
            i += 2;
        } else {
            return Some(&args[i]);
        }
    }
    None
}

/// What `dpg run`, `dpg explain` and `dpg trace solve` solve: the trace
/// FILE, their first positional argument, under the workspace defaults,
/// or without one the Section V-C running example under the paper's
/// parameters (μ = λ = 1, α = 0.8, θ = 0.4). Explicit flags override
/// either baseline ([`solver_flags`]); `bool_flags` are the command's
/// flags that take no value. Returns the requests, the name messages
/// give them (the path, or `paper example`) and the parameters.
pub fn trace_or_example(
    args: &[String],
    bool_flags: &[&str],
) -> Result<(RequestSeq, String, SolverParams), CliError> {
    let (seq, source, base) = match positional(args, bool_flags) {
        Some(path) => {
            let file = TraceFile::load(path).map_err(|e| CliError::Runtime(e.to_string()))?;
            (file.sequence, path.clone(), DEFAULT_BASE)
        }
        None => {
            let pm = paper_example::paper_model();
            (
                paper_example::paper_sequence(),
                "paper example".to_string(),
                (pm.mu(), pm.lambda(), pm.alpha(), paper_example::THETA),
            )
        }
    };
    Ok((seq, source, solver_flags(args, base)?))
}

/// Parses the shared `--mu/--lambda/--alpha/--theta` quartet, falling back
/// to the workspace defaults ([`dp_greedy_suite::model::defaults`]).
/// Returns the validated [`CostModel`] and θ. Thin view over
/// [`solver_flags`] for subcommands without package-size knobs.
pub fn model_flags(args: &[String]) -> Result<(CostModel, f64), CliError> {
    let p = solver_flags(args, DEFAULT_BASE)?;
    Ok((p.model, p.theta))
}

/// A usage error unless `solver` reads every package knob `ctx` sets away
/// from its default (`--max-group K` with K ≠ 2, `--adaptive`); the error
/// names the rows that do read it.
fn check_knobs(solver: &dyn CachingSolver, ctx: &RunContext) -> Result<(), CliError> {
    for (flag, set, needs) in [
        ("--max-group", ctx.max_group != 2, PackageKnobs::ThetaAndCap),
        ("--adaptive", ctx.adaptive, PackageKnobs::Theta),
    ] {
        if set && solver.package_knobs() < needs {
            let readers: Vec<&str> = solvers()
                .iter()
                .filter(|s| s.package_knobs() >= needs)
                .map(|s| s.name())
                .collect();
            return Err(CliError::Usage(format!(
                "{} does not read {flag}; the rows that do: {}",
                solver.name(),
                readers.join(", ")
            )));
        }
    }
    Ok(())
}

/// The one checked solve behind `dpg run` and `dpg trace solve`: a cost
/// plane the solver cannot price, or a package knob it does not read
/// ([`CachingSolver::package_knobs`]), is a usage error, a trace above
/// its server or request limit a runtime error naming `source`, and so
/// is a ledger that does not reconcile with the reported total within
/// the rounding bound of the two sums. Returns the solution and its
/// ledger total.
pub fn checked_solve(
    solver: &dyn CachingSolver,
    seq: &RequestSeq,
    ctx: &RunContext,
    source: &str,
) -> Result<(Solution, f64), CliError> {
    solver.validate(seq, ctx).map_err(CliError::Usage)?;
    check_knobs(solver, ctx)?;
    if let Some(limit) = solver.server_limit() {
        if seq.servers() > limit {
            return Err(CliError::Runtime(format!(
                "{} handles at most {limit} servers; {source} has {}",
                solver.name(),
                seq.servers()
            )));
        }
    }
    let requests = seq.requests().len();
    if let Some(limit) = solver.request_limit() {
        if requests > limit {
            return Err(CliError::Runtime(format!(
                "{} handles at most {limit} requests; {source} has {requests}",
                solver.name()
            )));
        }
    }
    if requests == 0 {
        eprintln!("warning: {source} contains no requests; emitting the zero-cost empty solution");
    }
    let solution = solver.solve(seq, ctx);
    let total = reconciled(&solution)?;
    Ok((solution, total))
}

/// The ledger total of `solution`, a runtime error unless it reconciles
/// with the total its solver reported within the rounding bound of the
/// two sums: the check before any command reports a solution.
pub fn reconciled(solution: &Solution) -> Result<f64, CliError> {
    let check = solution.ledger().reconciliation();
    if !check.reconciles_with(solution.total_cost) {
        return Err(CliError::Runtime(format!(
            "ledger does not reconcile: Σ event.cost = {} but {} reported {} \
             (rounding bound {:e})",
            check.total, solution.algo, solution.total_cost, check.tolerance
        )));
    }
    Ok(check.total)
}

/// The item id `id` given by `flag`, rejected as a usage error unless it
/// names one of `seq`'s items.
pub fn item_of(seq: &RequestSeq, flag: &str, id: u32) -> Result<ItemId, CliError> {
    if id < seq.items() {
        Ok(ItemId(id))
    } else {
        Err(CliError::Usage(format!(
            "{flag} {id} is not an item of the trace (it has {} items)",
            seq.items()
        )))
    }
}

/// Prints the `--metrics` summary: counters (integer then float), then
/// gauges, then span/histogram stats (with the bucketed p99 estimate),
/// in deterministic name order.
pub fn print_metrics() -> Result<(), CliError> {
    let s = dp_greedy_suite::obs::snapshot();
    write_report(|out| {
        writeln!(
            out,
            "\n-- metrics ({} counters, {} gauges, {} spans) --",
            s.counters.len() + s.fcounters.len(),
            s.gauges.len(),
            s.hists.len()
        )?;
        for (name, v) in &s.counters {
            writeln!(out, "  {name:<28} {v}")?;
        }
        for (name, v) in &s.fcounters {
            writeln!(out, "  {name:<28} {v}")?;
        }
        for (name, v) in &s.gauges {
            writeln!(out, "  {name:<28} {v}")?;
        }
        for (name, h) in &s.hists {
            writeln!(
                out,
                "  {name:<28} n={} total={:.6}s mean={:.6}s p99={:.6}s max={:.6}s",
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.99),
                h.max
            )?;
        }
        Ok(())
    })
}
