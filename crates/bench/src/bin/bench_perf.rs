//! Performance-trajectory bench: measures DP_Greedy throughput across
//! trace sizes and worker-thread counts, verifies the parallel paths are
//! byte-identical to serial, and writes `BENCH_perf.json`.
//!
//! Per trace size the bench records:
//!
//! * end-to-end `dp_greedy` engine-solver throughput (requests/sec) at
//!   each thread count, with speedup relative to the 1-thread run;
//! * a byte-identity flag: the decision-ledger JSONL and the bit pattern
//!   of `total_cost` at every thread count must equal the serial run's.
//!
//! `--smoke` shrinks the sweep for CI and additionally diffs parallel vs
//! serial output byte-for-byte across **every** solver in the engine
//! registry. `--baseline BENCH_perf.json --max-regression 2.0`
//! gates serial throughput against a committed baseline, per trace size
//! where the sizes overlap (largest-vs-largest otherwise); the document
//! carries a `host` fingerprint, and a baseline taken on a different
//! machine shape only warns instead of gating.
//!
//! Thread counts are applied through the `MCS_THREADS` environment knob
//! (see `mcs_model::par`), set between measurements while only the main
//! thread is live — worker threads are scoped and joined inside each
//! measured call.
//!
//! Usage: `bench_perf [--smoke] [--sizes A,B,..] [--threads A,B,..]
//! [--taxis K] [--reps N] [--out PATH] [--baseline PATH]
//! [--max-regression X]`.

use std::time::Instant;

use mcs_bench::harness::black_box;
use mcs_bench::{bench_model, perf_workload};
use mcs_engine::{solvers, CachingSolver, RunContext};
use mcs_model::json::{parse, Json};
use mcs_model::par::THREADS_ENV;
use mcs_model::RequestSeq;

struct Args {
    smoke: bool,
    sizes: Vec<usize>,
    threads: Vec<usize>,
    taxis: usize,
    reps: usize,
    out: String,
    baseline: Option<String>,
    max_regression: f64,
}

fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("bad list entry `{p}`"))
        })
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        sizes: vec![4_000, 16_000, 64_000],
        threads: vec![1, 2, 4],
        taxis: 24,
        reps: 3,
        out: "BENCH_perf.json".to_string(),
        baseline: None,
        max_regression: 2.0,
    };
    let mut sizes_set = false;
    let mut threads_set = false;
    let mut reps_set = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--smoke" => args.smoke = true,
            "--sizes" => {
                args.sizes = parse_list(&val("--sizes")?)?;
                sizes_set = true;
            }
            "--threads" => {
                args.threads = parse_list(&val("--threads")?)?;
                threads_set = true;
            }
            "--taxis" => args.taxis = val("--taxis")?.parse().map_err(|_| "bad --taxis")?,
            "--reps" => {
                args.reps = val("--reps")?.parse::<usize>().map_err(|_| "bad --reps")?;
                reps_set = true;
            }
            "--out" => args.out = val("--out")?,
            "--baseline" => args.baseline = Some(val("--baseline")?),
            "--max-regression" => {
                args.max_regression = val("--max-regression")?
                    .parse()
                    .map_err(|_| "bad --max-regression")?
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.smoke {
        if !sizes_set {
            args.sizes = vec![200, 400];
        }
        if !threads_set {
            args.threads = vec![1, 2, 4];
        }
        if !reps_set {
            args.reps = 2;
        }
    }
    args.reps = args.reps.max(1);
    if args.sizes.is_empty() || args.threads.is_empty() {
        return Err("need at least one size and one thread count".into());
    }
    if !args.threads.contains(&1) {
        // The serial run is the correctness and speedup reference.
        args.threads.insert(0, 1);
    }
    args.threads.sort_unstable();
    args.threads.dedup();
    Ok(args)
}

fn set_threads(n: usize) {
    // Only the main thread is live here: every parallel section in the
    // workspace uses scoped threads joined before returning.
    std::env::set_var(THREADS_ENV, n.to_string());
}

/// The machine shape the numbers were taken on. Baselines are only
/// throughput-comparable when this shape matches.
fn host_fingerprint(threads: &[usize], available: usize) -> Json {
    Json::Obj(vec![
        ("logical_cores".into(), Json::Num(available as f64)),
        (
            "threads_swept".into(),
            Json::Arr(threads.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
    ])
}

fn min_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The serial reference output of one solver: ledger JSONL plus the bit
/// pattern of the claimed total. Byte equality of this pair across
/// thread counts is the bench's determinism contract.
fn solver_fingerprint(s: &dyn CachingSolver, seq: &RequestSeq, ctx: &RunContext) -> (String, u64) {
    let solution = s.solve(seq, ctx);
    (
        solution.ledger().to_jsonl_string(),
        solution.total_cost.to_bits(),
    )
}

/// Byte-diffs parallel vs serial output for every registry solver on
/// `seq`. Returns the names that mismatched (empty = all identical).
fn registry_identity_check(seq: &RequestSeq, ctx: &RunContext, threads: &[usize]) -> Vec<String> {
    let mut mismatches = Vec::new();
    for s in solvers() {
        if s.request_limit().is_some_and(|l| seq.len() > l) {
            continue;
        }
        set_threads(1);
        let reference = solver_fingerprint(*s, seq, ctx);
        for &t in threads.iter().filter(|&&t| t != 1) {
            set_threads(t);
            let got = solver_fingerprint(*s, seq, ctx);
            if got != reference {
                mismatches.push(format!("{} @ {t} threads", s.name()));
            }
        }
    }
    set_threads(1);
    mismatches
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_perf: {e}");
            eprintln!(
                "usage: bench_perf [--smoke] [--sizes A,B,..] [--threads A,B,..] [--taxis K] \
                 [--reps N] [--out PATH] [--baseline PATH] [--max-regression X]"
            );
            std::process::exit(2);
        }
    };

    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let model = bench_model();
    let ctx = RunContext::new(model);
    let solver = mcs_engine::find("dp_greedy").expect("dp_greedy is registered");
    println!(
        "bench_perf: sizes {:?} x threads {:?} ({} hw threads), taxis {}, {} reps",
        args.sizes, args.threads, available, args.taxis, args.reps
    );

    let mut failed = false;
    let mut size_docs = Vec::new();
    let mut serial_rps_by_steps: Vec<(usize, f64)> = Vec::new();
    let mut largest_serial_rps = 0.0f64;
    let mut largest_best_speedup = 0.0f64;

    for &steps in &args.sizes {
        let seq = perf_workload(steps, args.taxis);
        let requests = seq.len();
        println!(
            "== {steps} steps ({requests} requests, {} items)",
            seq.items()
        );

        // End-to-end solver throughput per thread count.
        set_threads(1);
        let reference = solver_fingerprint(solver, &seq, &ctx);
        let mut runs = Vec::new();
        let mut serial_secs = f64::NAN;
        for &t in &args.threads {
            set_threads(t);
            let secs = min_secs(args.reps, || solver.solve(&seq, &ctx));
            let identical = solver_fingerprint(solver, &seq, &ctx) == reference;
            if t == 1 {
                serial_secs = secs;
            }
            if !identical {
                eprintln!("bench_perf: output at {t} threads differs from serial!");
                failed = true;
            }
            let rps = requests as f64 / secs;
            let speedup = serial_secs / secs;
            println!(
                "  {t:>3} threads  {secs:>12.6} s  {rps:>12.0} req/s  {speedup:.2}x  identical={identical}"
            );
            runs.push(Json::Obj(vec![
                ("threads".into(), Json::Num(t as f64)),
                ("secs".into(), Json::Num(secs)),
                ("requests_per_sec".into(), Json::Num(rps)),
                ("speedup_vs_serial".into(), Json::Num(speedup)),
                ("output_identical".into(), Json::Bool(identical)),
            ]));
            if steps == *args.sizes.iter().max().unwrap() {
                largest_serial_rps = requests as f64 / serial_secs;
                largest_best_speedup = largest_best_speedup.max(speedup);
            }
        }
        serial_rps_by_steps.push((steps, requests as f64 / serial_secs));
        set_threads(1);

        size_docs.push(Json::Obj(vec![
            ("steps".into(), Json::Num(steps as f64)),
            ("requests".into(), Json::Num(requests as f64)),
            ("items".into(), Json::Num(seq.items() as f64)),
            ("runs".into(), Json::Arr(runs)),
        ]));
    }

    // Smoke mode: parallel-vs-serial byte identity across the registry.
    let mut registry_checked = false;
    if args.smoke {
        let seq = perf_workload(*args.sizes.first().unwrap(), 10);
        let mismatches = registry_identity_check(&seq, &ctx, &args.threads);
        registry_checked = true;
        if mismatches.is_empty() {
            println!(
                "registry identity: all solvers byte-identical across threads {:?}",
                args.threads
            );
        } else {
            eprintln!("bench_perf: registry mismatches: {}", mismatches.join(", "));
            failed = true;
        }
    }

    let doc = Json::Obj(vec![
        ("smoke".into(), Json::Bool(args.smoke)),
        ("threads_available".into(), Json::Num(available as f64)),
        ("host".into(), host_fingerprint(&args.threads, available)),
        ("taxis".into(), Json::Num(args.taxis as f64)),
        ("reps".into(), Json::Num(args.reps as f64)),
        (
            "registry_identity_checked".into(),
            Json::Bool(registry_checked),
        ),
        (
            "largest_serial_requests_per_sec".into(),
            Json::Num(largest_serial_rps),
        ),
        (
            "largest_best_speedup".into(),
            Json::Num(largest_best_speedup),
        ),
        ("sizes".into(), Json::Arr(size_docs)),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.to_string_pretty() + "\n") {
        eprintln!("bench_perf: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    println!("wrote {}", args.out);

    // Throughput gate against a committed baseline: every trace size the
    // baseline also measured is compared serial-vs-serial (apples to
    // apples); if no sizes overlap, fall back to largest-vs-largest.
    if let Some(path) = &args.baseline {
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|s| parse(&s).map_err(|e| format!("{e:?}")))
        {
            Ok(base) => {
                // Throughput is only comparable across identical machine
                // shapes; a baseline from a different host (or one with
                // no recorded shape) produces a warning, not a failure.
                let base_cores = base
                    .get("host")
                    .and_then(|h| h.get("logical_cores"))
                    .and_then(Json::as_f64);
                if base_cores != Some(available as f64) {
                    match base_cores {
                        Some(cores) => println!(
                            "bench_perf: baseline {path} was taken on {cores} logical cores, \
                             this host has {available}; skipping throughput gate (shape mismatch)"
                        ),
                        None => println!(
                            "bench_perf: baseline {path} has no host fingerprint; \
                             skipping throughput gate"
                        ),
                    }
                } else {
                    baseline_throughput_gate(
                        &base,
                        &serial_rps_by_steps,
                        largest_serial_rps,
                        args.max_regression,
                        &mut failed,
                    );
                }
            }
            Err(e) => {
                eprintln!("bench_perf: cannot read baseline {path}: {e}");
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}

/// Serial-throughput regression gate against a same-shape baseline:
/// every overlapping trace size is compared serial-vs-serial; if no
/// sizes overlap, fall back to largest-vs-largest.
fn baseline_throughput_gate(
    base: &Json,
    serial_rps_by_steps: &[(usize, f64)],
    largest_serial_rps: f64,
    max_regression: f64,
    failed: &mut bool,
) {
    let base_serial_rps = |steps: usize| -> Option<f64> {
        base.get("sizes")?.as_arr()?.iter().find_map(|size| {
            if size.get("steps")?.as_f64()? != steps as f64 {
                return None;
            }
            size.get("runs")?.as_arr()?.iter().find_map(|run| {
                if run.get("threads")?.as_f64()? == 1.0 {
                    run.get("requests_per_sec")?.as_f64()
                } else {
                    None
                }
            })
        })
    };
    let mut compared = 0usize;
    for &(steps, ours) in serial_rps_by_steps {
        let Some(base_rps) = base_serial_rps(steps) else {
            continue;
        };
        compared += 1;
        if ours * max_regression < base_rps {
            eprintln!(
                "bench_perf: serial throughput at {steps} steps ({ours:.0} req/s) \
                 regressed more than {max_regression}x against baseline {base_rps:.0} req/s"
            );
            *failed = true;
        } else {
            println!(
                "{steps} steps: {ours:.0} req/s within {max_regression}x of baseline {base_rps:.0} req/s"
            );
        }
    }
    if compared == 0 {
        let base_rps = base
            .get("largest_serial_requests_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if base_rps > 0.0 && largest_serial_rps * max_regression < base_rps {
            eprintln!(
                "bench_perf: serial throughput {largest_serial_rps:.0} req/s regressed \
                 more than {max_regression}x against baseline {base_rps:.0} req/s"
            );
            *failed = true;
        } else {
            println!(
                "no overlapping sizes; largest {largest_serial_rps:.0} req/s within \
                 {max_regression}x of baseline {base_rps:.0} req/s"
            );
        }
    }
}
