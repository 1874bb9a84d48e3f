//! The package knobs (`--max-group K`, `--adaptive`) decide what the
//! rows that read them pack, and are refused where they decide nothing.
//!
//! * `dp_greedy` reads the θ rule and the size cap: `dpg run --adaptive`
//!   returns the library's adaptive bits and prints the derived θ, and
//!   `dpg trace solve --max-group 3` packs the trio bundle as one
//!   package.
//! * `windowed` packs each window at the same cap.
//! * A row that does not read a knob set away from its default exits 2
//!   naming the rows that do.

use std::path::PathBuf;
use std::process::Command;

use dp_greedy_suite::dp_greedy::two_phase::DpGreedyConfig;
use dp_greedy_suite::dp_greedy::windowed::{dp_greedy_windowed, WindowedConfig};
use dp_greedy_suite::engine::solvers::WindowedSolver;
use dp_greedy_suite::engine::{find, RunContext};
use dp_greedy_suite::model::json::{parse, Json};
use dp_greedy_suite::model::{CostModel, RequestSeq, RequestSeqBuilder};
use dp_greedy_suite::trace::io::TraceFile;

fn dpg() -> Command {
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_dpg"));
    if !path.exists() {
        path = PathBuf::from("target/debug/dpg");
    }
    Command::new(path)
}

fn fixture(name: &str) -> String {
    format!("{}/fixtures/traces/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Items {0,1,2} co-requested eight times, then {0,1} three more times,
/// then item 3 once: a trio packs at K ≥ 3 (CI's kpack-smoke trio).
fn trio_bundle() -> RequestSeq {
    let mut b = RequestSeqBuilder::new(4, 4);
    for (i, server) in [1u32, 2, 3, 1, 2, 0, 3, 2].into_iter().enumerate() {
        b = b.push(server, 0.5 * (i + 1) as f64, [0, 1, 2]);
    }
    for (t, server) in [(4.9, 3u32), (5.8, 1), (6.7, 2)] {
        b = b.push(server, t, [0, 1]);
    }
    b.push(3u32, 7.6, [3]).build().unwrap()
}

#[test]
fn run_adaptive_returns_the_librarys_adaptive_bits_and_prints_its_theta() {
    let path = fixture("taxi_s7_300.json");
    let seq = TraceFile::load(&path).unwrap().sequence;
    let fixed = RunContext::default();
    let adaptive = fixed.clone().with_adaptive_theta();
    let dpg_row = find("dp_greedy").unwrap();
    let want = dpg_row.solve(&seq, &adaptive).total_cost;
    assert_ne!(
        want.to_bits(),
        dpg_row.solve(&seq, &fixed).total_cost.to_bits(),
        "the adaptive θ packs differently on this fixture"
    );

    let out = dpg()
        .args(["run", "--algo", "dpg", "--adaptive", "--json", &path])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(0));
    let doc = parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
    let got = doc.get("total_cost").and_then(Json::as_f64).unwrap();
    assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");

    let out = dpg()
        .args(["run", "--algo", "dpg", "--adaptive", &path])
        .output()
        .expect("run dpg");
    let header = String::from_utf8_lossy(&out.stdout);
    let theta = adaptive.theta_for(&seq);
    assert_ne!(theta, fixed.theta);
    assert!(
        header.contains(&format!(" θ={theta} adaptive")),
        "the header names the derived θ {theta}: {header}"
    );
}

#[test]
fn trace_solve_at_max_group_3_writes_the_trio_as_one_package() {
    let dir = std::env::temp_dir();
    let trace = dir.join("dpg-package-knobs-trio.json");
    TraceFile::external(trio_bundle()).save(&trace).unwrap();
    let solve = |extra: &[&str], out: &PathBuf| {
        let run = dpg()
            .args(["trace", "solve", trace.to_str().unwrap(), "--algo", "dpg"])
            .args([
                "--mu", "1", "--lambda", "1", "--alpha", "0.6", "--theta", "0.3",
            ])
            .args(extra)
            .args(["--out", out.to_str().unwrap()])
            .output()
            .expect("run dpg trace solve");
        assert_eq!(run.status.code(), Some(0), "{extra:?}");
        let summary = String::from_utf8_lossy(&run.stdout).to_string();
        (summary, std::fs::read_to_string(out).unwrap())
    };
    let (pairwise, pair_ledger) = solve(&[], &dir.join("dpg-package-knobs-k2.jsonl"));
    let (trio, trio_ledger) = solve(
        &["--max-group", "3"],
        &dir.join("dpg-package-knobs-k3.jsonl"),
    );
    assert!(trio.contains("total 32.0000"), "{trio}");
    assert!(pairwise.contains("total 36.2400"), "{pairwise}");
    assert!(trio_ledger.contains("\"package\":[0,1,2]"));
    assert!(!pair_ledger.contains("\"package\":"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn windowed_packs_each_window_at_the_contexts_cap() {
    let seq = trio_bundle();
    let model = CostModel::new(1.0, 1.0, 0.6).unwrap();
    let ctx = RunContext::new(model).with_theta(0.3).with_max_group(3);
    let row = find("windowed").unwrap().solve(&seq, &ctx);
    let config = WindowedConfig {
        inner: DpGreedyConfig::new(model).with_theta(0.3),
        window: WindowedSolver::window_for(&seq),
    };
    let direct = dp_greedy_windowed(&seq, &config, 3);
    assert_eq!(row.total_cost.to_bits(), direct.total_cost.to_bits());
    assert!(
        direct
            .windows
            .iter()
            .any(|(_, w)| w.packing.largest_package() == 3),
        "some window packs the trio"
    );
    let pairwise = find("windowed")
        .unwrap()
        .solve(&seq, &ctx.clone().with_max_group(2));
    assert_ne!(pairwise.total_cost.to_bits(), row.total_cost.to_bits());
}

#[test]
fn a_knob_the_row_does_not_read_is_a_usage_error() {
    for (cmd, algo, knob) in [
        ("run", "optimal", &["--max-group", "3"][..]),
        ("run", "multi", &["--max-group", "3"]),
        ("run", "package_served", &["--max-group", "3"]),
        ("run", "greedy", &["--adaptive"]),
        ("run", "online_dpg", &["--adaptive"]),
        ("trace solve", "optimal", &["--max-group", "3"]),
    ] {
        let out_file = std::env::temp_dir().join("dpg-package-knobs-refused.jsonl");
        let mut command = dpg();
        command
            .args(cmd.split(' '))
            .args(["--algo", algo])
            .args(knob);
        if cmd == "trace solve" {
            command.args(["--out", out_file.to_str().unwrap()]);
        }
        let out = command.output().expect("run dpg");
        assert_eq!(out.status.code(), Some(2), "{cmd} {algo} {knob:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.starts_with(&format!("error: {algo} does not read {}", knob[0])),
            "{first}"
        );
        assert!(first.contains("dp_greedy"), "names the readers: {first}");
    }
    // The defaults decide nothing new, so every row takes them.
    let out = dpg()
        .args(["run", "--algo", "optimal", "--max-group", "2"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(0));
    // `multi` reads the θ rule.
    let out = dpg()
        .args(["run", "--algo", "multi", "--adaptive"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(0));
}
