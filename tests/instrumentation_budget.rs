//! The instrumentation budget: how many times each span may record on a
//! real `dpg` run. A batch solve records each phase span once and the
//! covering DP once per commodity (packed pair or unpacked item); the
//! daemon records its solve spans once per settled epoch, its other
//! spans at most that often, and one admission sample per request. A
//! span placed inside a per-request or per-event loop breaks these
//! counts on the first run, however cheap it is.
//!
//! Each test spawns the `dpg` binary, so the metrics registry it reads
//! belongs to that process alone.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn dpg() -> Command {
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_dpg"));
    if !path.exists() {
        path = PathBuf::from("target/debug/dpg");
    }
    Command::new(path)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpg-budget-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `cmd` and returns its stdout, failing on a non-zero exit.
fn stdout_of(cmd: &mut Command) -> String {
    let out = cmd.output().expect("run dpg");
    assert!(
        out.status.success(),
        "{cmd:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn arg(path: &Path) -> &str {
    path.to_str().unwrap()
}

/// The `--metrics` table: each span's observation count and each
/// counter's or gauge's value, by name.
struct Metrics {
    spans: BTreeMap<String, u64>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    fn parse(stdout: &str) -> Metrics {
        let (_, table) = stdout.split_once("-- metrics").expect("a --metrics table");
        let mut m = Metrics {
            spans: BTreeMap::new(),
            values: BTreeMap::new(),
        };
        for line in table.lines().skip(1) {
            let mut words = line.split_whitespace();
            let (Some(name), Some(value)) = (words.next(), words.next()) else {
                continue;
            };
            if let Some(n) = value.strip_prefix("n=") {
                m.spans.insert(name.into(), n.parse().unwrap());
            } else {
                m.values.insert(name.into(), value.parse().unwrap());
            }
        }
        m
    }

    fn span(&self, name: &str) -> u64 {
        *self
            .spans
            .get(name)
            .unwrap_or_else(|| panic!("no span {name}"))
    }

    fn count(&self, name: &str) -> u64 {
        let v = *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("no counter {name}"));
        v as u64
    }
}

#[test]
fn a_batch_solve_records_each_phase_once_and_one_dp_per_commodity() {
    let dir = temp_dir("solve");
    let trace = dir.join("trace.json");
    let generated = stdout_of(
        dpg()
            .args(["generate", "--taxis", "2000", "--steps", "200"])
            .args(["--seed", "7", "--out", arg(&trace)]),
    );
    // Above 4,096 requests Phase 2 runs on worker threads, whose buffers
    // merge into the registry when they are joined.
    let requests: usize = generated
        .strip_prefix("generated ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("generate printed {generated}"));
    assert!(requests > 4_096, "{requests} requests");

    let out = stdout_of(
        dpg()
            .env("MCS_THREADS", "2")
            .args(["trace", "solve", arg(&trace), "--algo", "dpg", "--metrics"])
            .args(["--out", arg(&dir.join("events.jsonl"))]),
    );
    let m = Metrics::parse(&out);
    for name in [
        "dpg.phase1.jaccard",
        "dpg.phase2.pairs",
        "dpg.phase2.singletons",
        "ledger.emit",
    ] {
        assert_eq!(m.span(name), 1, "{name}");
    }
    for (name, &n) in &m.spans {
        if name != "offline.optimal" {
            assert_eq!(n, 1, "span {name} recorded {n} times in one solve");
        }
    }
    let commodities = m.count("dpg.pairs_packed") + m.count("dpg.items_unpacked");
    assert!(commodities > 1_000, "{commodities} commodities");
    assert_eq!(m.span("offline.optimal"), commodities);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_served_stream_records_spans_per_epoch_and_admissions_per_request() {
    let dir = temp_dir("serve");
    // 200 requests over 12 items on 8 servers from an integer LCG: an
    // item, often its neighbour, sometimes a third.
    let mut x: u64 = 12_345;
    let mut next = |modulus: u64| {
        x = x * 48_271 % 2_147_483_647;
        x % modulus
    };
    let mut stream = String::from("hello 8 12\n");
    for i in 1..=200 {
        let a = next(12);
        let mut items = a.to_string();
        let r = next(10);
        if r < 6 {
            items += &format!(",{}", (a + 1) % 12);
        }
        if r == 0 {
            items += &format!(",{}", next(12));
        }
        stream += &format!("req {:.2} {} {items}\n", f64::from(i) * 0.25, next(8));
    }
    let input = dir.join("stream.txt");
    std::fs::write(&input, stream).unwrap();

    let out = stdout_of(
        dpg()
            .args(["serve", "--dir", arg(&dir.join("state"))])
            .args([
                "--input",
                arg(&input),
                "--epoch-len",
                "16",
                "--quiet",
                "--metrics",
            ]),
    );
    let m = Metrics::parse(&out);
    let epochs = m.count("serve.epochs_ok");
    assert_eq!(epochs, 200 / 16);
    assert_eq!(m.count("serve.admitted"), 200);
    assert!(m.count("dpg.pairs_packed") > 0);
    for name in ["dpg.phase2.pairs", "serve.solve", "serve.fold"] {
        m.span(name);
    }
    for (name, &n) in &m.spans {
        if name.starts_with("dpg.") || name == "serve.solve" {
            assert_eq!(n, epochs, "span {name}: {n} records for {epochs} epochs");
        } else if name == "offline.optimal" {
            let commodities = m.count("dpg.pairs_packed") + m.count("dpg.items_unpacked");
            assert_eq!(n, commodities, "one covering DP per commodity");
        } else if name == "serve.admit_seconds" {
            assert_eq!(n, m.count("serve.admitted"), "one sample per admission");
        } else if name.starts_with("serve.") {
            assert!(n <= epochs, "span {name}: {n} records for {epochs} epochs");
        } else {
            panic!("span {name} ({n} records) has no budget");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
