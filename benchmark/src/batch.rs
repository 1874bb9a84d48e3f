//! The `dpg trace solve` path: the untraced pass, the traced pass, and the
//! re-timed breakdown of the solve into its public pieces.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use dp_greedy::two_phase::{dp_greedy_pair, DpGreedyConfig};
use mcs_correlation::jaccard::PARALLEL_THRESHOLD;
use mcs_correlation::{greedy_matching, CoOccurrence, JaccardMatrix, Packing};
use mcs_engine::{find, CachingSolver, RunContext, Solution};
use mcs_model::defaults::{default_model, DEFAULT_THETA};
use mcs_model::par::par_map;
use mcs_model::request::SingleItemTrace;
use mcs_model::{CostModel, RequestSeq};
use mcs_obs::Ledger;
use mcs_offline::{optimal, optimal_fast_cost};
use mcs_trace::io::TraceFile;

use crate::metrics::Metrics;
use crate::spans::{thread_label, Recorder, SpanId};

/// The run context `dpg trace solve` builds when given no flags.
pub fn context() -> RunContext {
    RunContext::new(default_model())
        .with_theta(DEFAULT_THETA)
        .with_max_group(2)
}

/// The solver `dpg trace solve` runs by default (`--algo dpg`).
fn solver() -> &'static dyn CachingSolver {
    find("dp_greedy").expect("dp_greedy is registered")
}

/// The CLI's gate before solving: shape validation and the request limit.
fn validate(seq: &RequestSeq, ctx: &RunContext) -> Result<(), String> {
    let solver = solver();
    solver.validate(seq, ctx)?;
    match solver.request_limit() {
        Some(limit) if seq.len() > limit => Err(format!("{} requests exceed {limit}", seq.len())),
        _ => Ok(()),
    }
}

/// Derives the ledger and checks it reconciles with the solver's total,
/// as `dpg trace solve` does before writing.
fn reconciled_ledger(solution: &Solution) -> Result<Ledger, String> {
    let ledger = solution.ledger();
    let derived = ledger.total_cost();
    if (derived - solution.total_cost).abs() > 1e-6 {
        return Err(format!(
            "ledger does not reconcile: {derived} vs {}",
            solution.total_cost
        ));
    }
    black_box(ledger.breakdown());
    Ok(ledger)
}

/// What a pass wrote, for the output checks.
pub struct PassOutput {
    pub total_cost: f64,
    pub jsonl: String,
}

/// One untraced pass: the calls `dpg trace solve FILE --out OUT` makes, in
/// its order. Returns the wall time in seconds.
pub fn pass(input: &Path, out: &Path) -> Result<(f64, PassOutput), String> {
    let t0 = Instant::now();
    let file = TraceFile::load(input).map_err(|e| e.to_string())?;
    let seq = &file.sequence;
    let ctx = context();
    validate(seq, &ctx)?;
    let solution = solver().solve(seq, &ctx);
    let ledger = reconciled_ledger(&solution)?;
    let jsonl = ledger.to_jsonl_string();
    std::fs::write(out, &jsonl).map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    let total_cost = solution.total_cost;
    Ok((wall, PassOutput { total_cost, jsonl }))
}

/// The traced pass: the same calls, each under a top-level span, then the
/// solve re-timed piece by piece on the same input.
pub fn traced_pass(
    input: &Path,
    out: &Path,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<PassOutput, String> {
    let root = rec.open("pass", None);
    let (file, load_s) = rec.time("trace.load", Some(root), || TraceFile::load(input));
    let file = file.map_err(|e| e.to_string())?;
    let seq = &file.sequence;
    let ctx = context();
    rec.time("engine.validate", Some(root), || validate(seq, &ctx))
        .0?;
    let (solution, solve_s) = rec.time("engine.solve", Some(root), || solver().solve(seq, &ctx));
    let (ledger, ledger_s) = rec.time("engine.ledger", Some(root), || reconciled_ledger(&solution));
    let ledger = ledger?;
    let (jsonl, encode_s) = rec.time("obs.encode", Some(root), || ledger.to_jsonl_string());
    let (written, write_s) = rec.time("obs.write", Some(root), || std::fs::write(out, &jsonl));
    written.map_err(|e| e.to_string())?;
    let pass_s = rec.close(root);

    let input_bytes = std::fs::metadata(input).map_err(|e| e.to_string())?.len() as f64;
    m.set("trace.load_s", load_s);
    m.set("trace.input_bytes", input_bytes);
    m.set("trace.load_mb_per_s", input_bytes / 1e6 / load_s);
    m.set("engine.solve_s", solve_s);
    m.set("engine.ledger_s", ledger_s);
    m.set("engine.ledger_events", ledger.len() as f64);
    m.set("obs.encode_s", encode_s);
    m.set("obs.write_s", write_s);
    m.set("obs.emit_bytes", jsonl.len() as f64);
    m.set("pass.traced_s", pass_s);
    m.set("pass.top_span_share", rec.children_seconds(root) / pass_s);

    breakdown(seq, &ctx, solution.total_cost, rec, None, m)?;
    m.set("engine.breakdown_share", breakdown_share(m));
    Ok(PassOutput {
        total_cost: solution.total_cost,
        jsonl,
    })
}

/// How much of `engine.solve_s` the re-timed pieces account for.
pub fn breakdown_share(m: &Metrics) -> f64 {
    let pieces = [
        "correlation.stats_s",
        "correlation.match_s",
        "core.phase2_s",
    ];
    let covered: f64 = pieces.iter().filter_map(|k| m.get(k)).sum();
    covered / m.get("engine.solve_s").unwrap_or(f64::NAN)
}

/// `Σ |D|·(|D|−1)/2` over the requests: the per-event Phase-1 kernel's work.
fn pair_events(seq: &RequestSeq) -> usize {
    seq.requests()
        .iter()
        .map(|r| r.items.len() * (r.items.len() - 1) / 2)
        .sum()
}

/// Whether `CoOccurrence::from_sequence` takes the bitset kernel under the
/// default `MCS_PHASE1=auto`: the rule of
/// `mcs_correlation::incidence::bitset_profitable_dense`, restated because
/// that function is private to its crate. It is not read from the
/// program, so the report prints it labelled as such, never as a metric.
fn bitset_selected(seq: &RequestSeq) -> bool {
    let k = seq.items() as usize;
    let n = seq.len();
    if k < 2 || n < PARALLEL_THRESHOLD {
        return false;
    }
    let triangle = k * (k - 1) / 2;
    triangle.saturating_mul(n.div_ceil(64)) <= pair_events(seq).saturating_mul(16)
}

/// A result computed on a worker thread, with when and where it ran.
struct Timed<T> {
    out: T,
    start: Instant,
    end: Instant,
    thread: String,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let out = f();
    Timed {
        out,
        start,
        end: Instant::now(),
        thread: thread_label(),
    }
}

/// Re-times the public pieces of the `dp_greedy` solve on `seq`, in the
/// solver's order — Phase-1 statistics, matching, then Phase 2 under
/// `par_map` — and checks that summing `PairReport::total()` and then the
/// singleton costs reproduces `expected` bit for bit. Times and counts are
/// added into `m`, so per-epoch calls accumulate.
pub fn breakdown(
    seq: &RequestSeq,
    ctx: &RunContext,
    expected: f64,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    m: &mut Metrics,
) -> Result<(), String> {
    let model = ctx.model();
    let config = DpGreedyConfig::new(model).with_theta(ctx.theta);
    let (co, count_s) = rec.time("correlation.cooccurrence", parent, || {
        CoOccurrence::from_sequence(seq)
    });
    let (matrix, jaccard_s) = rec.time("correlation.jaccard", parent, || {
        JaccardMatrix::from_cooccurrence(&co)
    });
    let (packing, match_s) = rec.time("correlation.match", parent, || {
        greedy_matching(&matrix, ctx.theta)
    });
    m.add("correlation.stats_s", count_s + jaccard_s);
    m.add("correlation.match_s", match_s);
    m.add("correlation.pair_events", pair_events(seq) as f64);
    m.add("correlation.pairs_packed", packing.pairs.len() as f64);

    let phase2 = rec.open("core.phase2", parent);
    let pairs = par_map(&packing.pairs, |&(a, b)| {
        timed(|| dp_greedy_pair(seq, a, b, &config))
    });
    let singletons = par_map(&packing.singletons, |&item| {
        timed(|| optimal(&seq.item_trace(item), &model).cost)
    });
    m.add("core.phase2_s", rec.close(phase2));

    let mut total = 0.0;
    let mut critical: f64 = 0.0;
    let mut summed = 0.0;
    let mut commodity = |name, start, end, thread: &String| {
        let id = rec.record(name, Some(phase2), start, end, thread.clone());
        let s = rec.span(id).seconds();
        critical = critical.max(s);
        summed += s;
    };
    for t in &pairs {
        total += t.out.total();
        commodity("core.pair", t.start, t.end, &t.thread);
    }
    for t in &singletons {
        total += t.out;
        commodity("core.singleton", t.start, t.end, &t.thread);
    }
    m.add("core.critical_commodity_s", critical);
    m.add("core.commodity_sum_s", summed);
    m.add("core.commodities", (pairs.len() + singletons.len()) as f64);
    if total.to_bits() != expected.to_bits() {
        return Err(format!(
            "re-timed Phase 2 sums to {total:?}, the solver reported {expected:?}"
        ));
    }
    split_commodities(seq, &model, &packing, rec, parent, m)
}

/// Splits each commodity's Phase-2 work into its projection
/// (`pair_view` + `package_trace`, or `item_trace`) and the covering DP
/// (`optimal`), re-timed serially, and checks every DP cost against
/// `optimal_fast_cost` to within 1e-9 relative.
pub fn split_commodities(
    seq: &RequestSeq,
    model: &CostModel,
    packing: &Packing,
    rec: &mut Recorder,
    parent: Option<SpanId>,
    m: &mut Metrics,
) -> Result<(), String> {
    let span = rec.open("split", parent);
    let pkg = model.scaled_for_package();
    let mut project_s = 0.0;
    for &(a, b) in &packing.pairs {
        let t = Instant::now();
        black_box(seq.pair_view(a, b));
        let co = seq.package_trace(a, b);
        project_s += t.elapsed().as_secs_f64();
        dp(&co, &pkg, m)?;
    }
    for &item in &packing.singletons {
        let t = Instant::now();
        let trace = seq.item_trace(item);
        project_s += t.elapsed().as_secs_f64();
        dp(&trace, model, m)?;
    }
    m.add("model.project_s", project_s);
    rec.close(span);
    Ok(())
}

fn dp(trace: &SingleItemTrace, model: &CostModel, m: &mut Metrics) -> Result<(), String> {
    let t = Instant::now();
    let cost = optimal(trace, model).cost;
    m.add("offline.dp_s", t.elapsed().as_secs_f64());
    let fast = optimal_fast_cost(trace, model);
    // Not bitwise: the two kernels round differently in the last bits.
    let rel = (cost - fast).abs() / cost.abs().max(fast.abs()).max(f64::MIN_POSITIVE);
    if rel > 1e-9 {
        return Err(format!(
            "DP cost {cost:?} disagrees with optimal_fast_cost {fast:?} on {} points",
            trace.points.len()
        ));
    }
    m.add(
        "offline.fast_bit_mismatches",
        f64::from(u8::from(cost.to_bits() != fast.to_bits())),
    );
    m.max("offline.fast_max_rel_diff", rel);
    let points = trace.points.len() as f64;
    m.add("offline.dp_points", points);
    m.max("offline.dp_max_points", points);
    // The quadratic DP relaxes every (node, later point) pair: the seed's
    // share of Phase-2 work, which sets how much `wall_s` varies by seed.
    m.add("offline.dp_points_sq", points * points);
    Ok(())
}

/// The per-commodity DP check on its own, for untraced runs. Returns the
/// seed's work counts.
pub fn check_commodities(seq: &RequestSeq) -> Result<Metrics, String> {
    let ctx = context();
    let matrix = JaccardMatrix::from_sequence(seq);
    let packing = greedy_matching(&matrix, ctx.theta);
    let mut m = Metrics::default();
    m.set("correlation.pairs_packed", packing.pairs.len() as f64);
    m.set(
        "correlation.bitset_selected",
        f64::from(u8::from(bitset_selected(seq))),
    );
    split_commodities(
        seq,
        &ctx.model(),
        &packing,
        &mut Recorder::default(),
        None,
        &mut m,
    )?;
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find as workload, truncate};

    /// Every count of the traced pass repeats exactly across two runs of
    /// one input, and the traced pass reproduces the untraced cost bits.
    #[test]
    fn traced_counts_repeat_and_costs_match() {
        let dir = crate::test_dir("batch");
        let w = workload("catalog-wide").unwrap();
        let (cfg, seq, _) = w.generate(11);
        let seq = truncate(&seq, 1_500);
        let input = dir.join(w.input_name());
        w.write_input(cfg, &seq, &input).unwrap();
        w.check_input(&input, &seq).unwrap();
        let out = dir.join("out.jsonl");

        let (_, untraced) = pass(&input, &out).unwrap();
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut m = Metrics::default();
            let traced = traced_pass(&input, &out, &mut Recorder::default(), &mut m).unwrap();
            assert_eq!(traced.total_cost.to_bits(), untraced.total_cost.to_bits());
            assert_eq!(traced.jsonl, untraced.jsonl);
            runs.push(m);
        }
        for name in crate::report::COUNTS {
            let counts: Vec<Option<f64>> = runs.iter().map(|m| m.get(name)).collect();
            if let Some(first) = counts[0] {
                assert!(
                    counts.iter().all(|c| *c == Some(first)),
                    "{name}: {counts:?}"
                );
            }
        }
        assert!(runs[0].get("core.commodities").unwrap() > 100.0);
        check_commodities(&seq).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
