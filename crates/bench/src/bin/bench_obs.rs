//! Observability-overhead bench: measures what the metrics/span layer and
//! the decision-ledger pipeline cost on top of a bare DP_Greedy solve,
//! and writes the result to `BENCH_obs.json`.
//!
//! Three timed configurations, each min-of-`--reps`:
//!
//! * `obs_off` — `dp_greedy` with the registry disabled
//!   ([`mcs_obs::set_enabled`]`(false)`): the spans capture no `Instant`
//!   and the counters early-return.
//! * `obs_on` — the same solve with the registry enabled (the default),
//!   i.e. the always-on instrumentation cost.
//! * `trace` — the full `dpg trace` pipeline: solve + JSONL rendering of
//!   the ledger (the engine's [`mcs_engine::Solution::ledger`] view,
//!   which derives each event as it is encoded).
//!
//! `ledger_emit_secs` times that rendering alone, on one solution, and
//! `events_per_sec` is the event count over it.
//!
//! Usage: `bench_obs [--steps N] [--reps N] [--out PATH] [--max-overhead X]`.
//! With `--max-overhead X` the process exits 1 when the *instrumentation*
//! overhead ratio (`obs_on / obs_off`) exceeds `X` — that is the part the
//! whole workspace pays even when nobody asks for a trace. The trace
//! pipeline's own ratio is reported alongside but not gated (deriving and
//! serializing a ledger is opt-in work, not overhead).

use std::time::Instant;

use dp_greedy::two_phase::{dp_greedy, DpGreedyConfig};
use mcs_bench::harness::black_box;
use mcs_bench::{bench_model, bench_workload};
use mcs_engine::{find, RunContext};
use mcs_model::json::Json;

struct Args {
    steps: usize,
    reps: usize,
    out: String,
    max_overhead: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        steps: 2000,
        reps: 5,
        out: "BENCH_obs.json".to_string(),
        max_overhead: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--steps" => args.steps = parse(&val("--steps")?)?,
            "--reps" => args.reps = parse::<usize>(&val("--reps")?)?.max(1),
            "--out" => args.out = val("--out")?,
            "--max-overhead" => args.max_overhead = Some(parse(&val("--max-overhead")?)?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value `{s}`"))
}

/// Minimum wall-clock seconds of `f` over `reps` runs.
fn min_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn hist_json(h: &mcs_obs::metrics::HistSummary) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::Num(h.count as f64)),
        ("sum_secs".into(), Json::Num(h.sum)),
        ("min_secs".into(), Json::Num(h.min)),
        ("max_secs".into(), Json::Num(h.max)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_obs: {e}");
            eprintln!("usage: bench_obs [--steps N] [--reps N] [--out PATH] [--max-overhead X]");
            std::process::exit(2);
        }
    };

    let seq = bench_workload(args.steps);
    let model = bench_model();
    let config = DpGreedyConfig::new(model);
    println!(
        "bench_obs: {} requests over {} items, {} reps",
        seq.len(),
        seq.items(),
        args.reps
    );

    // Baseline: the solver with the whole observability layer disabled.
    mcs_obs::set_enabled(false);
    let obs_off = min_secs(args.reps, || dp_greedy(&seq, &config));

    // Instrumentation on (the workspace default): spans + counters live.
    mcs_obs::set_enabled(true);
    mcs_obs::reset();
    let obs_on = min_secs(args.reps, || dp_greedy(&seq, &config));
    let phase_snapshot = mcs_obs::snapshot();

    // The full trace pipeline: solve, derive the ledger, serialize JSONL
    // — the same path `dpg trace solve` takes through the engine registry.
    let solver = find("dp_greedy").expect("dp_greedy is registered");
    let ctx = RunContext::new(model);
    let solution = solver.solve(&seq, &ctx);
    let ledger = solution.ledger();
    let events = ledger.len();
    let trace = min_secs(args.reps, || {
        solver.solve(&seq, &ctx).ledger().to_jsonl_string()
    });
    let emit_secs = min_secs(args.reps, || ledger.to_jsonl_string());

    let overhead_instrumentation = obs_on / obs_off;
    let overhead_trace = trace / obs_off;
    let events_per_sec = if emit_secs > 0.0 {
        events as f64 / emit_secs
    } else {
        f64::INFINITY
    };

    println!("  dp_greedy, obs off     {:>12.6} s", obs_off);
    println!(
        "  dp_greedy, obs on      {:>12.6} s  ({overhead_instrumentation:.3}x)",
        obs_on
    );
    println!(
        "  trace pipeline         {:>12.6} s  ({overhead_trace:.3}x, {events} events)",
        trace
    );
    println!(
        "  ledger emit            {:>12.6} s  ({events_per_sec:.0} events/s)",
        emit_secs
    );

    let phases = Json::Obj(
        phase_snapshot
            .hists
            .iter()
            .map(|(name, h)| ((*name).to_string(), hist_json(h)))
            .collect(),
    );
    let doc = Json::Obj(vec![
        ("steps".into(), Json::Num(args.steps as f64)),
        ("reps".into(), Json::Num(args.reps as f64)),
        ("requests".into(), Json::Num(seq.len() as f64)),
        ("items".into(), Json::Num(seq.items() as f64)),
        ("ledger_events".into(), Json::Num(events as f64)),
        ("obs_off_secs".into(), Json::Num(obs_off)),
        ("obs_on_secs".into(), Json::Num(obs_on)),
        ("trace_secs".into(), Json::Num(trace)),
        ("ledger_emit_secs".into(), Json::Num(emit_secs)),
        (
            "overhead_instrumentation".into(),
            Json::Num(overhead_instrumentation),
        ),
        ("overhead_trace".into(), Json::Num(overhead_trace)),
        ("events_per_sec".into(), Json::Num(events_per_sec)),
        ("phases".into(), phases),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.to_string_pretty() + "\n") {
        eprintln!("bench_obs: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("wrote {}", args.out);

    if let Some(max) = args.max_overhead {
        if overhead_instrumentation > max {
            eprintln!(
                "bench_obs: instrumentation overhead {overhead_instrumentation:.3}x exceeds --max-overhead {max}"
            );
            std::process::exit(1);
        }
        println!("overhead {overhead_instrumentation:.3}x within --max-overhead {max}");
    }
}
