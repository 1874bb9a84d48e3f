//! End-to-end benchmark of the two user paths of the DP_Greedy suite:
//! `dpg trace solve` (batch) and `dpg serve` (the daemon).
//!
//! Run it from the repository root through `benchmark/run.py`, which
//! builds this benchmark binary and `dpg`, then runs
//!
//! ```text
//! e2e-bench --workload NAME --seed N --seconds S --trace 0|1 --dpg PATH
//! ```
//!
//! The benchmark generates the workload from the seed, writes it where the
//! user path reads it, checks that it loads back, and runs the real `dpg`
//! binary on it once for the reference output. It then runs passes for
//! `S` seconds, each in a fresh process (a CLI user pays a cold start on
//! every call), and checks every pass's output against the reference.
//! With `--trace 1` it alternates traced and untraced passes and reports
//! per-layer metrics. The last line of standard output is one JSON object;
//! the lines before it are the human-readable report.

mod batch;
mod metrics;
mod report;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use metrics::Metrics;
use spans::Recorder;
use stats::{median, percentile};
use workloads::Workload;

/// Fewest untraced passes per run, however long each takes.
const MIN_PASSES: usize = 3;
/// Fewest traced passes per traced run.
const MIN_TRACED: usize = 2;
/// The open-loop offered rate: about a quarter of the `serve` workload's
/// closed-loop capacity on a 2-vCPU host, where the median request does
/// not sit in the queue each settlement leaves behind.
const OPEN_LOOP_RATE: f64 = 4_000.0;
/// Recoveries timed per open-loop run; `recover_s` is their median.
const RECOVER_REPEATS: usize = 20;
/// Least program time in one `setup_s` sample. A single set-up takes
/// 10 to 50 ms, and the host's pace changes in phases of about 0.1 to
/// 0.3 s, so each sample repeats set-up until it spans several phases.
const SETUP_SAMPLE_S: f64 = 0.4;
/// Where runs keep their inputs and outputs, under the repository root.
const RUN_DIR: &str = ".bench_run";
/// Where traced runs leave their span files.
const SPANS_DIR: &str = ".bench_out";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("pass") {
        match pass(&args[1..]) {
            Ok(m) => {
                print!("{}", m.to_lines());
                0
            }
            Err(e) => {
                eprintln!("pass failed: {e}");
                1
            }
        }
    } else {
        match Opts::parse(&args).and_then(|o| run(&o)) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        }
    };
    std::process::exit(code);
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn io_err(what: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", what.display())
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dpg: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let name = flag(args, "--workload")?;
        let workload = workloads::find(name).ok_or_else(|| {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name} (expected one of {})",
                names.join(", ")
            )
        })?;
        let seed = flag(args, "--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = flag(args, "--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        let trace = match flag(args, "--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        let dpg = PathBuf::from(flag(args, "--dpg")?);
        Ok(Opts {
            workload,
            seed,
            seconds,
            trace,
            dpg,
        })
    }
}

/// A run's private directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = Path::new(RUN_DIR).join(format!("{workload}-{}", std::process::id()));
        serve::fresh_dir(&dir)?;
        Ok(WorkDir(dir))
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Attempts and failures. A batch unit is one pass or check; a serve
/// unit is one request, so a failed serve pass counts all its requests.
struct Tally {
    unit: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += self.unit;
        if let Err(e) = result {
            self.failed += self.unit;
            self.errors.push(format!("{what}: {e}"));
        }
    }

    fn pass(&mut self, what: &str, result: Result<Metrics, String>) -> Option<Metrics> {
        self.attempted += self.unit;
        match result {
            Ok(m) => {
                self.failed += m.get("failed_requests").unwrap_or(0.0) as u64;
                Some(m)
            }
            Err(e) => {
                self.failed += self.unit;
                self.errors.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Runs the real `dpg` binary once on the run's input and keeps its
/// output as the reference every pass is compared with, byte for byte.
fn cli_reference(o: &Opts, work: &WorkDir, input: &Path) -> Result<(), String> {
    let expect = work.join("expect");
    let dpg = |cmd: &mut Command| -> Result<Vec<u8>, String> {
        let out = cmd.output().map_err(io_err(&o.dpg))?;
        if !out.status.success() {
            return Err(format!(
                "dpg failed: {}",
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok(out.stdout)
    };
    if o.workload.is_serve() {
        let dir = work.join("cli-serve");
        dpg(Command::new(&o.dpg)
            .args(["serve", "--dir"])
            .arg(&dir)
            .arg("--input")
            .arg(input)
            .arg("--quiet"))?;
        let state = dpg(Command::new(&o.dpg)
            .args(["serve", "--dir"])
            .arg(&dir)
            .arg("--dump-state"))?;
        std::fs::write(&expect, state).map_err(io_err(&expect))?;
    } else {
        dpg(Command::new(&o.dpg)
            .args(["trace", "solve"])
            .arg(input)
            .arg("--out")
            .arg(&expect))?;
    }
    Ok(())
}

/// Runs one pass in a fresh process of this binary.
fn spawn(o: &Opts, kind: &str, work: &WorkDir, extra: &[&str]) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(&exe)
        .args(["pass", kind, "--workload", o.workload.name])
        .arg("--input")
        .arg(work.join(o.workload.input_name()))
        .arg("--expect")
        .arg(work.join("expect"))
        .arg("--dir")
        .arg(work.join(kind))
        .args(extra)
        .output()
        .map_err(io_err(&exe))?;
    if out.status.success() {
        Ok(Metrics::from_lines(&String::from_utf8_lossy(&out.stdout)))
    } else {
        Err(String::from_utf8_lossy(&out.stderr).trim().to_string())
    }
}

fn run(o: &Opts) -> Result<i32, String> {
    let w = o.workload;
    let work = WorkDir::create(w.name)?;
    let input = work.join(w.input_name());

    let (cfg, seq, _) = w.generate(o.seed);
    w.write_input(cfg, &seq, &input)?;

    let unit = if w.is_serve() { w.requests as u64 } else { 1 };
    let mut tally = Tally {
        unit,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    tally.check("input round trip", w.check_input(&input, &seq));
    cli_reference(o, &work, &input)?;
    let work_counts = if w.is_serve() {
        None
    } else {
        let checked = batch::check_commodities(&seq);
        let counts = checked.as_ref().ok().cloned();
        tally.check("DP against optimal_fast_cost", checked.map(drop));
        counts
    };
    drop(seq);

    std::fs::create_dir_all(SPANS_DIR).map_err(io_err(Path::new(SPANS_DIR)))?;
    let spans = format!("{SPANS_DIR}/{}-seed{}.spans.jsonl", w.name, o.seed);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(o.seconds);
    let (mut untraced, mut traced, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = 0;
    loop {
        rounds += 1;
        // Set-up repeats between passes, so its samples cover the same
        // stretch of host load the passes do.
        setup_s.push(setup_sample(w, o.seed, &work.join("setup-repeat"))?);
        untraced.extend(tally.pass("untraced pass", spawn(o, "untraced", &work, &[])));
        if o.trace {
            let extra: &[&str] = if traced.is_empty() {
                &["--spans", &spans]
            } else {
                &[]
            };
            traced.extend(tally.pass("traced pass", spawn(o, "traced", &work, extra)));
        }
        let enough = untraced.len() >= MIN_PASSES && (!o.trace || traced.len() >= MIN_TRACED);
        if Instant::now() >= deadline && (enough || rounds >= 2 * MIN_PASSES) {
            break;
        }
    }
    let measured_s = started.elapsed().as_secs_f64();
    let open = if w.is_serve() {
        tally.pass("open-loop run", spawn(o, "open-loop", &work, &[]))
    } else {
        None
    };
    if !w.is_serve() {
        let bits: Vec<u64> = untraced
            .iter()
            .chain(&traced)
            .filter_map(|m| m.get("total_cost"))
            .map(f64::to_bits)
            .collect();
        let same = bits.windows(2).all(|p| p[0] == p[1]);
        tally.check(
            "traced and untraced cost bits",
            same.then_some(())
                .ok_or_else(|| "passes disagree".to_string()),
        );
    }
    if untraced.is_empty() {
        return Err(format!("no pass succeeded: {}", tally.errors.join("; ")));
    }

    let column =
        |ms: &[Metrics], k: &str| -> Vec<f64> { ms.iter().filter_map(|m| m.get(k)).collect() };
    let walls = column(&untraced, "wall_s");
    let wall = median(&walls);
    let values = [wall, median(&column(&untraced, "rss_mb")), median(&setup_s)];
    let end_to_end: Vec<(&str, f64, &str)> = report::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    println!(
        "workload {} seed {}: {} requests; {} untraced and {} traced passes in {measured_s:.1} s; MCS_THREADS={}",
        w.name,
        o.seed,
        w.requests,
        untraced.len(),
        traced.len(),
        std::env::var("MCS_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    for (name, v, unit) in &end_to_end {
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    let req_per_s = w.requests as f64 / wall;
    println!("  {:<28} {req_per_s:>16.6} 1/s", "req_per_s");
    for (name, unit) in report::SERVE_ONLY {
        match open.as_ref().and_then(|m| m.get(name)) {
            Some(v) => println!("  {name:<28} {v:>16.6} {unit}"),
            None => println!("  {name:<28} {:>16} (serve path only)", "n/a"),
        }
    }
    let failed_share = tally.failed as f64 / tally.attempted as f64;
    println!("  {:<28} {failed_share:>16.6} 1", "failed_share");
    if walls.len() >= 2 {
        let [q1, q2, q3] = stats::quartiles(&walls);
        println!(
            "  wall_s over passes: quartiles {q1:.4} {q2:.4} {q3:.4} s, spread {:.1}%",
            stats::iqr_share(&walls) * 100.0
        );
    }
    let in_order = |vs: &[f64]| -> String {
        let vs: Vec<String> = vs.iter().map(|v| format!("{v:.5}")).collect();
        vs.join(" ")
    };
    println!("  wall_s per pass, in order: {}", in_order(&walls));
    println!("  setup_s per round, in order: {}", in_order(&setup_s));
    if let Some(c) = &work_counts {
        let get = |k: &str| c.get(k).unwrap_or(f64::NAN);
        println!(
            "  seed's Phase-2 work: {} pairs packed, {} DP points, largest commodity {}, sum of squared commodity sizes {:.4e}",
            get("correlation.pairs_packed"),
            get("offline.dp_points"),
            get("offline.dp_max_points"),
            get("offline.dp_points_sq"),
        );
        println!(
            "  DP check: {} commodities' costs differ from optimal_fast_cost in the last bits, by at most {:.2e} relative",
            get("offline.fast_bit_mismatches"),
            get("offline.fast_max_rel_diff"),
        );
        let kernel = if get("correlation.bitset_selected") == 1.0 {
            "bitset"
        } else {
            "per-event"
        };
        println!(
            "  Phase-1 kernel under MCS_PHASE1=auto: {kernel} (the crate-private rule restated here, not read from the program)"
        );
    }
    if let Some(m) = &open {
        println!(
            "  open loop: {OPEN_LOOP_RATE} req/s offered, {} samples, generator late p99 {:.2} us",
            m.get("samples").unwrap_or(0.0),
            m.get("serve.generator_late_p99_us").unwrap_or(f64::NAN)
        );
    }
    for e in &tally.errors {
        println!("  FAILED {e}");
    }

    let metrics = if o.trace {
        let layers = traced_layers(&traced, wall, open.as_ref())?;
        println!("  per-layer (median of {} traced passes):", traced.len());
        for name in report::LAYER_REPORT {
            // `#` marks a count, which repeats exactly for a seed.
            let mark = if report::COUNTS.contains(&name) {
                "#"
            } else {
                ""
            };
            let label = format!("{name}{mark}");
            match layers.get(name) {
                Some(v) => println!("    {label:<34} {v:>16.6}"),
                None => println!("    {label:<34} {:>16}", "n/a"),
            }
        }
        for line in report::shares(&w, &layers) {
            println!("  {line}");
        }
        println!("  spans: {spans}");
        report::per_layer(&w, &layers)?
    } else {
        end_to_end
    };
    let correct = tally.failed == 0;
    println!(
        "{}",
        report::json_line(correct, tally.attempted, tally.failed, &metrics)?
    );
    Ok(if correct { 0 } else { 1 })
}

/// One `setup_s` sample: the program's set-up calls, `generate` and then
/// `TraceFile::save` or `save_binary` into `path`, repeated until they
/// have taken [`SETUP_SAMPLE_S`]; returns the seconds per set-up. On
/// `serve` the frame stream is the benchmark's own format and counts
/// nothing, so the repeats leave it unwritten.
fn setup_sample(w: Workload, seed: u64, path: &Path) -> Result<f64, String> {
    let (mut total, mut repeats) = (0.0, 0u32);
    while total < SETUP_SAMPLE_S {
        let (cfg, seq, generate_s) = w.generate(seed);
        let write_s = if w.is_serve() {
            0.0
        } else {
            w.write_input(cfg, &seq, path)?
        };
        total += generate_s + write_s;
        repeats += 1;
    }
    Ok(total / f64::from(repeats))
}

/// Per-layer values: each metric's median over the traced passes, plus
/// the tracing overhead against the untraced passes of the same run.
fn traced_layers(traced: &[Metrics], wall: f64, open: Option<&Metrics>) -> Result<Metrics, String> {
    if traced.is_empty() {
        return Err("no traced pass succeeded".into());
    }
    let mut columns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for m in traced {
        for (k, v) in m.iter() {
            columns.entry(k).or_default().push(v);
        }
    }
    let mut layers = Metrics::default();
    for (k, vs) in &columns {
        layers.set(k, median(vs));
    }
    let traced_s = layers.get("pass.traced_s").ok_or("no traced pass time")?;
    layers.set("trace_overhead", traced_s / wall);
    if let Some(late) = open.and_then(|m| m.get("serve.generator_late_p99_us")) {
        layers.set("serve.generator_late_p99_us", late);
    }
    Ok(layers)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One pass, in this (fresh) process: `pass KIND --workload W --input F
/// --expect F --dir D [--spans F]`. Prints its metrics. An untraced pass
/// reads its peak resident set as soon as its timed work ends, before the
/// reference is loaded, so `rss_mb` counts only what the user path holds.
fn pass(args: &[String]) -> Result<Metrics, String> {
    let kind = args.first().ok_or("pass needs a kind")?;
    let name = flag(args, "--workload")?;
    let w = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let input = Path::new(flag(args, "--input")?);
    let expect_path = Path::new(flag(args, "--expect")?);
    let expected = || std::fs::read_to_string(expect_path).map_err(io_err(expect_path));
    let dir = Path::new(flag(args, "--dir")?);
    let mut m = Metrics::default();
    let mut rec = Recorder::default();
    match (w.is_serve(), kind.as_str()) {
        (false, "untraced" | "traced") => {
            std::fs::create_dir_all(dir).map_err(io_err(dir))?;
            let out = dir.join("out.jsonl");
            let output = if kind == "traced" {
                batch::traced_pass(input, &out, &mut rec, &mut m)?
            } else {
                let (wall, output) = batch::pass(input, &out)?;
                m.set("wall_s", wall);
                m.set("rss_mb", peak_rss_mb()?);
                output
            };
            // Each pass's output goes before the next pass starts.
            std::fs::remove_file(&out).map_err(io_err(&out))?;
            if output.jsonl != expected()? {
                return Err("ledger differs from `dpg trace solve`".into());
            }
            m.set("total_cost", output.total_cost);
        }
        (true, "untraced") => {
            let (wall, state, summary) = serve::closed_loop(input, dir)?;
            m.set("wall_s", wall);
            m.set("rss_mb", peak_rss_mb()?);
            let failed = serve::check_final(&state, &summary, dir, w.requests, &expected()?)?;
            m.set("failed_requests", failed as f64);
        }
        (true, "traced") => {
            let text = std::fs::read_to_string(input).map_err(io_err(input))?;
            let side = dir.with_extension("side");
            let (state, summary) = serve::traced_pass(&text, dir, &side, &mut rec, &mut m)?;
            let failed = serve::check_final(&state, &summary, dir, w.requests, &expected()?)?;
            m.set("failed_requests", failed as f64);
            serve::traced_recover(dir, &mut m)?;
        }
        (true, "open-loop") => {
            let text = std::fs::read_to_string(input).map_err(io_err(input))?;
            let seq = workloads::parse_frames(&text)?;
            let (run, state, summary) = serve::open_loop_run(&seq, dir, OPEN_LOOP_RATE)?;
            let failed = serve::check_final(&state, &summary, dir, w.requests, &expected()?)?;
            let us = |ns: &[f64]| -> Vec<f64> { ns.iter().map(|v| v / 1e3).collect() };
            let latency = us(&run.latency_ns);
            m.set("admit_p50_us", percentile(&latency, 50.0));
            m.set("admit_p99_us", percentile(&latency, 99.0));
            m.set("samples", latency.len() as f64);
            m.set(
                "serve.generator_late_p99_us",
                percentile(&us(&run.late_ns), 99.0),
            );
            let (recover, _) = serve::time_recover(dir, RECOVER_REPEATS)?;
            m.set("recover_s", median(&recover));
            m.set("failed_requests", failed as f64);
        }
        _ => return Err(format!("no {kind} pass for workload {}", w.name)),
    }
    if let Ok(path) = flag(args, "--spans") {
        rec.write_jsonl(Path::new(path))
            .map_err(io_err(Path::new(path)))?;
    }
    Ok(m)
}

/// A directory for unit tests, inside the run directory.
#[cfg(test)]
fn test_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(RUN_DIR)
        .join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
