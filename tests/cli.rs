//! End-to-end test of the `dpg` command-line tool: generate → stats →
//! `run --algo`, exercising the trace IO format across a process
//! boundary, plus exit codes, determinism and closed-stdout handling.

use std::path::PathBuf;
use std::process::Command;

fn dpg() -> Command {
    // Cargo builds the binary next to the test executable's parent dir.
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_dpg"));
    if !path.exists() {
        path = PathBuf::from("target/debug/dpg");
    }
    Command::new(path)
}

fn temp_trace_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dpg-cli-test-{tag}.json"))
}

/// Without a trace file `dpg explain` walks the Section V-C running
/// example to the paper's numbers: J(d1, d2), C12, C1', C2' and the
/// total of 14.96, over its seven decisions, two of which take the
/// package arm. The retired `dpg example` and `dpg trace example` are
/// unknown commands.
#[test]
fn file_less_explain_prints_the_paper_example() {
    let out = dpg().arg("explain").output().expect("run dpg explain");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("J = 0.4286, θ = 0.4, α = 0.8"), "{text}");
    assert!(
        text.contains("totals: C12 = 8.96, C1' = 3.10, C2' = 2.90 → 14.96 over 10 accesses"),
        "{text}"
    );
    assert_eq!(text.lines().filter(|l| l.starts_with("t=")).count(), 7);
    assert_eq!(text.matches(": package, paid 1.60").count(), 2, "{text}");

    for (argv, message) in [
        (&["example"][..], "error: unknown command example"),
        (
            &["trace", "example", "--out", "unused.jsonl"],
            "error: unknown trace subcommand example",
        ),
    ] {
        let out = dpg().args(argv).output().expect("run dpg");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with(message),
            "{argv:?}"
        );
    }
}

/// `dpg explain` prints the pair's ledger: one `t=` line per event of
/// the Solution built from `dp_greedy_pair` through `package_parts`, in time
/// order, and totals whose C12, C1' and C2' are the ledger's sums per
/// subject and whose total is the pair report's. Checked on the paper
/// example and on (d1, d2) of every fixture.
#[test]
fn explain_prints_one_line_per_ledger_event() {
    use dp_greedy_suite::dp_greedy::paper_example;
    use dp_greedy_suite::engine::solvers::package_parts;
    use dp_greedy_suite::engine::{Solution, SolverKind};
    use dp_greedy_suite::model::defaults::default_model;
    use dp_greedy_suite::obs::Subject;
    use dp_greedy_suite::prelude::*;
    use dp_greedy_suite::trace::io::TraceFile;

    let mut cases = vec![(
        None,
        paper_example::paper_sequence(),
        paper_example::paper_model(),
    )];
    for name in ["taxi_s1_200", "taxi_s42_150_t16", "taxi_s7_300"] {
        let path = format!("fixtures/traces/{name}.json");
        let seq = TraceFile::load(&path).expect("fixture").sequence;
        cases.push((Some(path), seq, default_model()));
    }
    for (path, seq, model) in cases {
        let report = dp_greedy_pair(&seq, ItemId(0), ItemId(1), &DpGreedyConfig::new(model));
        let total = report.total();
        let mut solution = Solution {
            algo: "dp_greedy",
            kind: SolverKind::Offline,
            total_cost: total,
            total_accesses: report.accesses,
            parts: Vec::new(),
        };
        package_parts(report, &model, 0.0, &mut solution.parts);
        let ledger = solution.ledger();
        let mut sums = [0.0; 3];
        for e in ledger.events() {
            let slot = match e.subject {
                Subject::Item(0) => 1,
                Subject::Item(_) => 2,
                _ => 0,
            };
            sums[slot] += e.cost;
        }

        let out = dpg().arg("explain").args(&path).output().expect("run dpg");
        assert!(out.status.success(), "{path:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let times: Vec<f64> = text
            .lines()
            .filter_map(|l| l.strip_prefix("t="))
            .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(times.len(), ledger.len(), "{path:?}: {text}");
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{path:?}");
        let totals = format!(
            "totals: C12 = {:.2}, C1' = {:.2}, C2' = {:.2} → {total:.2} over",
            sums[0], sums[1], sums[2]
        );
        assert!(text.contains(&totals), "{path:?}: {totals} not in {text}");
    }
}

#[test]
fn generate_stats_solve_round_trip() {
    let path = temp_trace_path("roundtrip");
    let out = dpg()
        .args([
            "generate",
            "--out",
            path.to_str().unwrap(),
            "--steps",
            "200",
            "--seed",
            "5",
        ])
        .output()
        .expect("run dpg generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(path.exists());

    let out = dpg()
        .args(["stats", path.to_str().unwrap()])
        .output()
        .expect("run dpg stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("requests"));
    assert!(text.contains("top pairs by Jaccard"));

    for algo in ["dpg", "optimal", "greedy", "package", "multi"] {
        let out = dpg()
            .args(["run", "--algo", algo, path.to_str().unwrap()])
            .output()
            .expect("run dpg run");
        assert!(
            out.status.success(),
            "algo {algo}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("ave_cost"), "algo {algo}: {text}");
    }

    std::fs::remove_file(&path).ok();
}

#[test]
fn svg_subcommand_writes_a_drawing() {
    let trace_path = temp_trace_path("svg");
    let svg_path = std::env::temp_dir().join("dpg-cli-test.svg");
    dpg()
        .args([
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--steps",
            "100",
        ])
        .output()
        .expect("generate");
    let out = dpg()
        .args([
            "svg",
            trace_path.to_str().unwrap(),
            "--out",
            svg_path.to_str().unwrap(),
            "--item",
            "1",
        ])
        .output()
        .expect("run dpg svg");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(svg.starts_with("<svg"));
    assert!(svg.contains("<circle"));
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&svg_path).ok();
}

/// `dpg svg` and `dpg stats` find the trace FILE among their flags, as
/// `dpg run` does: `dpg svg --out F FILE` writes the drawing. Without a
/// FILE both are usage errors.
#[test]
fn svg_and_stats_find_the_trace_among_their_flags() {
    let trace = "fixtures/traces/taxi_s1_200.json";
    let svg = std::env::temp_dir().join("dpg-cli-test-flags-first.svg");
    let svg = svg.to_str().unwrap();
    let out = dpg()
        .args(["svg", "--out", svg, trace])
        .output()
        .expect("run dpg svg");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let drawing = std::fs::read_to_string(svg).expect("svg written");
    assert!(drawing.starts_with("<svg"));
    std::fs::remove_file(svg).ok();
    for args in [vec!["svg", "--out", svg], vec!["stats"]] {
        let out = dpg().args(&args).output().expect("run dpg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("needs a trace file"), "{args:?}: {stderr}");
    }
}

/// An item id outside the trace, or one item named as both halves of a
/// pair, is a usage error naming the flag; a pair is explained in
/// ascending order whichever way round it is given.
#[test]
fn explain_and_svg_take_only_items_of_the_trace() {
    let trace = "fixtures/traces/taxi_s1_200.json"; // items 0..=9
    let svg = std::env::temp_dir().join("dpg-cli-test-items.svg");
    let svg = svg.to_str().unwrap();
    for (args, flag) in [
        (
            vec!["explain", trace, "--a", "999", "--b", "1000"],
            "--a 999",
        ),
        (vec!["explain", trace, "--a", "0", "--b", "10"], "--b 10"),
        (
            vec!["explain", trace, "--a", "1", "--b", "1"],
            "--a and --b",
        ),
        (
            vec!["svg", trace, "--out", svg, "--item", "999"],
            "--item 999",
        ),
        (
            vec!["svg", trace, "--out", svg, "--item", "10"],
            "--item 10",
        ),
    ] {
        let out = dpg().args(&args).output().expect("run dpg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag}")),
            "{args:?}: {stderr}"
        );
    }
    let explain = |a: &str, b: &str| {
        let out = dpg()
            .args(["explain", trace, "--a", a, "--b", b])
            .output()
            .expect("run dpg");
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let forward = explain("0", "1");
    assert!(forward.contains("pair (d1, d2)"), "{forward}");
    assert_eq!(explain("1", "0"), forward);
}

/// `dpg explain` builds the pair's Solution once and prints its ledger:
/// one covering DP per explained pair.
#[test]
fn explain_solves_the_package_dp_once() {
    let out = dpg()
        .args([
            "explain",
            "fixtures/traces/taxi_s1_200.json",
            "--a",
            "0",
            "--b",
            "1",
        ])
        .arg("--metrics")
        .output()
        .expect("run dpg");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some("offline.optimal"))
        .unwrap_or_else(|| panic!("no offline.optimal span in {stdout}"));
    assert_eq!(line.split_whitespace().nth(1), Some("n=1"), "{line}");
}

/// Above a solver's request limit `dpg run` and `dpg trace solve` fail
/// alike (exit 1), with one message naming the file.
#[test]
fn run_and_trace_solve_share_the_request_limit_error() {
    let trace = "fixtures/traces/taxi_s1_200.json"; // 444 requests
    let ledger = std::env::temp_dir().join("dpg-cli-test-limit.jsonl");
    let run = dpg()
        .args(["run", "--algo", "exhaustive", trace])
        .output()
        .expect("run dpg");
    let solve = dpg()
        .args(["trace", "solve", trace, "--algo", "exhaustive"])
        .args(["--out", ledger.to_str().unwrap()])
        .output()
        .expect("run dpg");
    for out in [&run, &solve] {
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty());
    }
    let message = String::from_utf8_lossy(&run.stderr);
    assert_eq!(
        message,
        format!("error: exhaustive handles at most 18 requests; {trace} has 444\n")
    );
    assert_eq!(String::from_utf8_lossy(&solve.stderr), message);
    assert!(!ledger.exists());
}

/// A trace above a solver's server limit fails `dpg run` and `dpg trace
/// solve` like the request limit above (exit 1, one line naming the
/// file), not as a usage error: nothing on the command line is wrong. A
/// cost plane the solver cannot price stays a usage error
/// (`tests/cost_plane.rs`).
#[test]
fn the_server_limit_is_a_runtime_error_like_the_request_limit() {
    let trace = "fixtures/traces/taxi_s1_200.json"; // 50 servers
    let ledger = std::env::temp_dir().join("dpg-cli-test-server-limit.jsonl");
    let run = dpg()
        .args(["run", "--algo", "hetero_exact", trace])
        .output()
        .expect("run dpg");
    let solve = dpg()
        .args(["trace", "solve", trace, "--algo", "hetero_exact"])
        .args(["--out", ledger.to_str().unwrap()])
        .output()
        .expect("run dpg");
    for out in [&run, &solve] {
        assert_eq!(out.status.code(), Some(1));
        assert!(out.stdout.is_empty());
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: hetero_exact handles at most 16 servers; {trace} has 50\n")
        );
    }
    assert!(!ledger.exists());
}

#[test]
fn solve_rejects_unknown_algorithms_and_missing_files() {
    let out = dpg()
        .args(["run", "--algo", "dpg", "/nonexistent/trace.json"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(1));

    let path = temp_trace_path("badalgo");
    dpg()
        .args(["generate", "--out", path.to_str().unwrap(), "--steps", "50"])
        .output()
        .expect("generate");
    let out = dpg()
        .args(["run", "--algo", "nope", path.to_str().unwrap()])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
    std::fs::remove_file(&path).ok();

    // The retired `dpg solve` is an unknown command.
    let out = dpg()
        .args(["solve", "/nonexistent/trace.json"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: unknown command solve"));
}

/// A reader that closes the pipe early (`dpg stats FILE | head -1`) ends
/// the report quietly: exit 0 and no panic, for every subcommand, the
/// `serve` daemon's summaries and the `top` monitor's frames included,
/// and for the `--metrics` summary.
#[test]
fn reports_to_a_closed_stdout_exit_zero_without_a_panic() {
    let path = temp_trace_path("closed-stdout");
    let out = dpg()
        .args(["generate", "--out", path.to_str().unwrap(), "--steps", "50"])
        .output()
        .expect("generate");
    assert!(out.status.success());
    let trace = path.to_str().unwrap();
    let scratch = |ext: &str| path.with_extension(ext).to_str().unwrap().to_string();
    let (copy, svg, jsonl, packed) = (
        scratch("copy.json"),
        scratch("svg"),
        scratch("jsonl"),
        scratch("dpgb"),
    );
    // A 40-request stream for the daemon, which leaves its telemetry
    // file for `top` to read.
    let (stream, dir, telemetry) = (scratch("stream"), scratch("serve"), scratch("prom"));
    let mut frames = String::from("hello 4 5\n");
    for i in 1..=40 {
        let items = if i % 5 < 2 { "0,1" } else { "4" };
        frames.push_str(&format!(
            "req {}.{:02} {} {items}\n",
            i / 4,
            i % 4 * 25,
            i % 4
        ));
    }
    std::fs::write(&stream, frames).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    for argv in [
        vec!["stats", trace],
        vec!["stats", trace, "--metrics"],
        vec!["run", "--algo", "dpg", trace],
        vec!["generate", "--out", &copy, "--steps", "50"],
        vec!["algos"],
        vec!["algos", "--json"],
        vec!["explain"],
        vec!["explain", trace],
        vec!["svg", trace, "--out", &svg],
        vec!["chaos", "--steps", "50"],
        vec!["version"],
        vec!["trace", "solve", trace, "--out", &jsonl],
        vec!["trace", "pack", trace, &packed],
        vec!["trace", "solve", "--out", &jsonl],
        vec![
            "serve",
            "--dir",
            &dir,
            "--input",
            &stream,
            "--epoch-len",
            "16",
            "--telemetry-file",
            &telemetry,
        ],
        vec!["serve", "--dir", &dir, "--dump-state"],
        vec!["serve", "--dir", &dir, "--dump-journal"],
        vec!["top", "--file", &telemetry, "--once"],
        vec!["top", "--file", &telemetry, "--raw", "metrics"],
        vec!["top", "--file", &telemetry, "--interval-ms", "10"],
        vec!["--help"],
        vec!["trace", "solve", "--help"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = dpg().args(&argv).stdout(writer).output().expect("run dpg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
    }
    for file in [trace, &copy, &svg, &jsonl, &packed, &stream, &telemetry] {
        std::fs::remove_file(file).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_args_prints_usage() {
    let out = dpg().output().expect("run dpg");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn usage_errors_exit_2_and_runtime_errors_exit_1() {
    // No arguments / unknown command / unknown flag → usage (2).
    let out = dpg().output().expect("run dpg");
    assert_eq!(out.status.code(), Some(2));

    let out = dpg().arg("frobnicate").output().expect("run dpg");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error: unknown command"));
    // The usage after an error goes to stderr with it, not to stdout.
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    assert!(out.stdout.is_empty());

    let out = dpg()
        .args(["chaos", "--bogus", "1"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: unknown flag --bogus for `dpg chaos`"),
        "{err}"
    );

    let out = dpg()
        .args(["run", "--algo", "dpg", "--mu"]) // flag without value
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(2));

    // Flags that decided nothing are gone: `figures --chaos` prints the
    // chaos grid, and no solver reads a daemon seed.
    for (argv, flag) in [
        (&["chaos", "--sweep"][..], "--sweep for `dpg chaos`"),
        (
            &["serve", "--dir", "/nonexistent/serve", "--seed", "7"],
            "--seed for `dpg serve`",
        ),
    ] {
        let out = dpg().args(argv).output().expect("run dpg");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("error: unknown flag {flag}")),
            "{err}"
        );
    }

    // A well-formed invocation that fails while running → runtime (1).
    let out = dpg()
        .args(["stats", "/nonexistent/trace.json"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: "));

    // Explicit help is not an error.
    let out = dpg().arg("--help").output().expect("run dpg");
    assert_eq!(out.status.code(), Some(0));
}

/// `--help` or `-h` after any subcommand prints the usage to stdout and
/// exits 0, as `dpg --help`, `dpg -h` and `dpg help` do, even beside
/// flags the subcommand would reject; nothing goes to stderr.
#[test]
fn every_subcommand_answers_help_with_the_usage() {
    for alone in ["--help", "-h", "help"] {
        let out = dpg().arg(alone).output().expect("run dpg");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "dpg {alone}");
        assert!(stdout.starts_with("usage:"), "dpg {alone}: {stdout}");
        assert!(out.stderr.is_empty(), "dpg {alone}");
    }
    let subcommands: [&[&str]; 13] = [
        &["generate"],
        &["stats"],
        &["algos"],
        &["run"],
        &["serve"],
        &["top"],
        &["svg"],
        &["explain"],
        &["trace"],
        &["trace", "solve"],
        &["trace", "pack"],
        &["chaos"],
        &["version"],
    ];
    for sub in subcommands {
        for (flag, extra) in [("--help", None), ("-h", Some("--no-such-flag"))] {
            let out = dpg()
                .args(sub)
                .args(extra)
                .arg(flag)
                .output()
                .expect("run dpg");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "dpg {sub:?} {flag}: {stderr}");
            assert!(stdout.starts_with("usage:"), "dpg {sub:?} {flag}: {stdout}");
            assert!(stderr.is_empty(), "dpg {sub:?} {flag}: {stderr}");
        }
    }
}

#[test]
fn chaos_subcommand_is_deterministic_for_a_fixed_seed() {
    let run = || {
        dpg()
            .args([
                "chaos",
                "--seed",
                "7",
                "--fault-rate",
                "0.1",
                "--steps",
                "300",
            ])
            .output()
            .expect("run dpg chaos")
    };
    let a = run();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let text = String::from_utf8_lossy(&a.stdout).to_string();
    assert!(text.contains("degradation ratio"), "{text}");
    assert!(text.contains("mean time to repair"), "{text}");
    let b = run();
    assert_eq!(
        text,
        String::from_utf8_lossy(&b.stdout),
        "chaos output must be reproducible"
    );
}

#[test]
fn version_subcommand_and_flag_exit_zero() {
    for argv in [&["version"][..], &["--version"], &["-V"]] {
        let out = dpg().args(argv).output().expect("run dpg version");
        assert_eq!(out.status.code(), Some(0), "argv {argv:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.starts_with(concat!("dpg ", env!("CARGO_PKG_VERSION"))),
            "argv {argv:?}: {text}"
        );
    }
}

#[test]
fn trace_solve_writes_deterministic_jsonl_that_reconciles() {
    let trace_path = temp_trace_path("trace-solve");
    dpg()
        .args([
            "generate",
            "--out",
            trace_path.to_str().unwrap(),
            "--steps",
            "200",
            "--seed",
            "11",
        ])
        .output()
        .expect("generate");

    let run = |tag: &str| {
        let out_path = std::env::temp_dir().join(format!("dpg-cli-test-ledger-{tag}.jsonl"));
        let out = dpg()
            .args([
                "trace",
                "solve",
                trace_path.to_str().unwrap(),
                "--algo",
                "dpg",
                "--out",
                out_path.to_str().unwrap(),
                "--metrics",
            ])
            .output()
            .expect("run dpg trace solve");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        let jsonl = std::fs::read_to_string(&out_path).expect("ledger written");
        std::fs::remove_file(&out_path).ok();
        (stdout, jsonl)
    };

    let (stdout, jsonl) = run("a");
    assert!(stdout.contains("reconciles with DP_Greedy"), "{stdout}");
    assert!(stdout.contains("breakdown:"), "{stdout}");
    assert!(stdout.contains("-- metrics"), "{stdout}");
    // Every line is one event with the fixed key order.
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"algo\":\"dp_greedy\""), "{line}");
        assert!(line.contains("\"option_chosen\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }

    // Byte-determinism: a second run emits the identical ledger.
    let (_, jsonl2) = run("b");
    assert_eq!(jsonl, jsonl2, "trace output must be byte-deterministic");
    std::fs::remove_file(&trace_path).ok();
}

/// Without a trace file `dpg trace solve` writes the running example's
/// ledger: seven events totalling the paper's 14.96.
#[test]
fn trace_example_reproduces_the_paper_breakdown() {
    let out_path = std::env::temp_dir().join("dpg-cli-test-ledger-example.jsonl");
    let out = dpg()
        .args(["trace", "solve", "--out", out_path.to_str().unwrap()])
        .output()
        .expect("run dpg trace solve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("7 events, total 14.9600"), "{text}");
    assert_eq!(
        std::fs::read_to_string(&out_path).unwrap().lines().count(),
        7
    );
    std::fs::remove_file(&out_path).ok();

    // `trace` without a known mode is a usage error.
    let out = dpg().arg("trace").output().expect("run dpg trace");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn chaos_rejects_out_of_range_fault_rates() {
    let out = dpg()
        .args(["chaos", "--fault-rate", "1.5"])
        .output()
        .expect("run dpg chaos");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--fault-rate"));
}

/// 200,000 nested arrays are a positioned parse error (exit 1), not a
/// stack overflow: the parser stops at the 129th level.
#[test]
fn stats_on_deeply_nested_json_is_a_positioned_error() {
    let path = temp_trace_path("deep");
    let depth = 200_000;
    std::fs::write(&path, "[".repeat(depth) + &"]".repeat(depth)).unwrap();
    let out = dpg()
        .args(["stats", path.to_str().unwrap()])
        .output()
        .expect("run dpg stats");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1, column 129: nesting deeper than 128 levels"),
        "{stderr}"
    );
    std::fs::remove_file(&path).ok();
}
