//! Golden test for the registry-facing CLI: `dpg algos --json` must
//! mirror the `mcs-engine` registry exactly, and `dpg run --algo NAME`
//! must smoke-pass for every registered name under the usual exit-code
//! taxonomy (0 success, 1 runtime, 2 usage).

use std::path::PathBuf;
use std::process::Command;

use dp_greedy_suite::engine::{aliases, solvers};
use dp_greedy_suite::model::json::{parse, Json};

fn dpg() -> Command {
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_dpg"));
    if !path.exists() {
        path = PathBuf::from("target/debug/dpg");
    }
    Command::new(path)
}

#[test]
fn algos_json_matches_the_registry() {
    let out = dpg().args(["algos", "--json"]).output().expect("run dpg");
    assert_eq!(out.status.code(), Some(0));
    let doc = parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");

    let rows = doc
        .get("algos")
        .and_then(Json::as_arr)
        .expect("algos array");
    assert_eq!(rows.len(), solvers().len());
    for (row, solver) in rows.iter().zip(solvers()) {
        assert_eq!(
            row.get("name").and_then(Json::as_str),
            Some(solver.name()),
            "registry order must be preserved"
        );
        assert_eq!(
            row.get("kind").and_then(Json::as_str),
            Some(solver.kind().label())
        );
        assert_eq!(
            row.get("description").and_then(Json::as_str),
            Some(solver.description())
        );
        match solver.request_limit() {
            Some(l) => assert_eq!(
                row.get("request_limit").and_then(Json::as_f64),
                Some(l as f64)
            ),
            None => assert_eq!(row.get("request_limit"), Some(&Json::Null)),
        }
    }

    let alias_rows = doc
        .get("aliases")
        .and_then(Json::as_arr)
        .expect("aliases array");
    assert_eq!(alias_rows.len(), aliases().len());
    for (row, (alias, target)) in alias_rows.iter().zip(aliases()) {
        assert_eq!(row.get("alias").and_then(Json::as_str), Some(*alias));
        assert_eq!(row.get("target").and_then(Json::as_str), Some(*target));
    }
}

#[test]
fn run_smoke_passes_for_every_registered_solver() {
    // The 7-request paper example is under every request_limit, so each
    // registered name must solve, reconcile, and exit 0.
    for solver in solvers() {
        let out = dpg()
            .args(["run", "--algo", solver.name(), "--json"])
            .output()
            .expect("run dpg run");
        assert_eq!(
            out.status.code(),
            Some(0),
            "algo {}: {}",
            solver.name(),
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON");
        assert_eq!(
            doc.get("algo").and_then(Json::as_str),
            Some(solver.name()),
            "aliases resolve to the canonical name"
        );
        let gap = doc
            .get("reconciliation_gap")
            .and_then(Json::as_f64)
            .expect("gap field");
        assert!(gap < 1e-6, "algo {}: gap {gap}", solver.name());
    }
}

#[test]
fn run_follows_the_exit_code_taxonomy() {
    // Missing --algo and unknown names are usage errors (2).
    let out = dpg().arg("run").output().expect("run dpg");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--algo"));

    // No row sees a fault plan, so the crash-aware policy is no row: it
    // runs under `dpg chaos`, and `resilient` names no algorithm.
    for name in ["definitely-not-a-solver", "resilient"] {
        let out = dpg()
            .args(["run", "--algo", name])
            .output()
            .expect("run dpg");
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown algorithm {name}")),
            "{stderr}"
        );
    }

    // A good invocation that fails while running is a runtime error (1).
    let out = dpg()
        .args(["run", "--algo", "dpg", "/nonexistent/trace.json"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(1));

    // The historical aliases still resolve.
    let out = dpg()
        .args(["run", "--algo", "dpg"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("dp_greedy"));
}

#[test]
fn cost_model_failures_follow_the_exit_code_taxonomy() {
    // A malformed --cost-model file is a usage error (2), reported with
    // the file position; a missing file is a runtime error (1).
    let bad = std::env::temp_dir().join("dpg-cli-registry-bad-plane.json");
    std::fs::write(&bad, "{\"shape\": \"hetero\"").unwrap();
    let out = dpg()
        .args([
            "run",
            "--algo",
            "dpg",
            "--cost-model",
            bad.to_str().unwrap(),
        ])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("dpg-cli-registry-bad-plane.json:1:"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = dpg()
        .args([
            "run",
            "--algo",
            "dpg",
            "--cost-model",
            "/nonexistent/plane.json",
        ])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(1));

    // --cost-model with no value token is a usage error (2).
    let out = dpg()
        .args(["run", "--algo", "dpg", "--cost-model"])
        .output()
        .expect("run dpg");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--cost-model needs a value"));
}
