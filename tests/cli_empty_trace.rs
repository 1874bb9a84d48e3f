//! `dpg run --algo NAME` on a trace with zero requests must produce the
//! zero-cost empty solution — with an explicit stderr warning — for
//! *every* solver in the registry, instead of whatever each algorithm's
//! edge case happens to do; `dpg trace solve` must write an empty ledger
//! that totals `0.0000`, not `-0.0000`.

use std::path::PathBuf;
use std::process::Command;

use dp_greedy_suite::engine::{aliases, solvers};

fn dpg() -> Command {
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_dpg"));
    if !path.exists() {
        path = PathBuf::from("target/debug/dpg");
    }
    Command::new(path)
}

/// Writes an empty trace to a file named for `test`: the tests run in
/// parallel, so each needs its own file to write and delete.
fn empty_trace(test: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "dpg-empty-trace-{test}-{}.json",
        std::process::id()
    ));
    std::fs::write(
        &path,
        "{\"version\": 1, \"config\": null, \
         \"sequence\": {\"servers\": 3, \"items\": 4, \"requests\": []}}",
    )
    .unwrap();
    path
}

#[test]
fn every_registered_solver_handles_an_empty_trace() {
    let path = empty_trace("registry");
    let ledger = path.with_extension("jsonl");
    let names = solvers()
        .iter()
        .map(|s| s.name())
        .chain(aliases().iter().map(|(alias, _)| *alias));
    for name in names {
        let out = dpg()
            .args(["run", "--algo", name, path.to_str().unwrap(), "--json"])
            .output()
            .expect("run dpg");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{name} failed on the empty trace: {stderr}"
        );
        assert!(
            stderr.contains("contains no requests"),
            "{name}: missing the explicit warning, stderr: {stderr}"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        for needle in [
            "\"total_cost\": 0",
            "\"ave_cost\": 0",
            "\"total_accesses\": 0",
            "\"reconciliation_gap\": 0",
        ] {
            assert!(stdout.contains(needle), "{name}: {needle} not in {stdout}");
        }
        let out = dpg()
            .args(["trace", "solve", path.to_str().unwrap(), "--algo", name])
            .args(["--out", ledger.to_str().unwrap()])
            .output()
            .expect("run dpg");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name}: trace solve failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("0 events, total 0.0000"),
            "{name}: trace solve on the empty trace printed {stdout}"
        );
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&ledger).ok();
}

#[test]
fn empty_trace_text_mode_reports_zero_cost() {
    let path = empty_trace("text");
    let out = dpg()
        .args(["run", "--algo", "dp_greedy", path.to_str().unwrap()])
        .output()
        .expect("run dpg");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("total=0.0000") && stdout.contains("0 item accesses"),
        "stdout: {stdout}"
    );
    std::fs::remove_file(&path).ok();
}
