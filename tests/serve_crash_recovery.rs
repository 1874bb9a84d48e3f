//! Crash-recovery gate for `dpg serve`: SIGKILL the daemon mid-epoch,
//! restart it over the same input, and require the recovered state —
//! streaming statistics, placement, cumulative cost, every `f64` bit —
//! to be byte-identical to a run that never crashed. Also pins the
//! degraded modes (injected solver panic), the malformed-line reporting
//! across a process boundary, that `--dump-state` and `--dump-journal`
//! leave the directory they read as they found it, and that a row the
//! daemon cannot run is refused before anything is written.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use dp_greedy_suite::model::json::{parse, FromJson};
use dp_greedy_suite::serve::DaemonState;

fn dpg() -> Command {
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_dpg"));
    if !path.exists() {
        path = PathBuf::from("target/debug/dpg");
    }
    Command::new(path)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpg-serve-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A correlated workload: items 0/1 and 2/3 are frequent co-requests
/// (they should pack), 4 is independent. 40 requests → 5 epochs of 8.
fn workload() -> String {
    let mut s = String::from("# serve crash-recovery workload\nhello 4 5\n");
    for i in 0..40u32 {
        let t = 0.25 * f64::from(i + 1);
        let items = match i % 5 {
            0 | 3 => "0,1",
            1 => "2,3",
            2 => "0,1,4",
            _ => "4",
        };
        s.push_str(&format!("req {t:?} {} {items}\n", i % 4));
    }
    s
}

fn serve_args(dir: &std::path::Path, input: &std::path::Path) -> Vec<String> {
    vec![
        "serve".into(),
        "--dir".into(),
        dir.to_str().unwrap().into(),
        "--input".into(),
        input.to_str().unwrap().into(),
        "--epoch-len".into(),
        "8".into(),
        "--decay".into(),
        "0.9".into(),
        "--quiet".into(),
    ]
}

fn dump_state(dir: &std::path::Path) -> String {
    let out = dpg()
        .args([
            "serve",
            "--dir",
            dir.to_str().unwrap(),
            "--dump-state",
            "--quiet",
        ])
        .output()
        .expect("run dpg serve --dump-state");
    assert!(
        out.status.success(),
        "dump-state failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("canonical state is UTF-8")
}

#[test]
fn sigkill_mid_epoch_recovers_byte_identically() {
    let scratch = temp_dir("sigkill");
    let input = scratch.join("in.txt");
    std::fs::write(&input, workload()).unwrap();

    // Reference: the never-crashed run.
    let ref_dir = scratch.join("reference");
    let out = dpg()
        .args(serve_args(&ref_dir, &input))
        .output()
        .expect("reference serve run");
    assert!(
        out.status.success(),
        "reference run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reference = dump_state(&ref_dir);

    // Crash run: throttled so 40 requests take ~1.2 s, SIGKILLed at
    // ~0.4 s — mid-run, mid-epoch, possibly mid-write.
    let crash_dir = scratch.join("crashed");
    let mut args = serve_args(&crash_dir, &input);
    args.extend(["--throttle-us".into(), "30000".into()]);
    let mut child = dpg()
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn throttled serve");
    std::thread::sleep(Duration::from_millis(600));
    child.kill().expect("SIGKILL the daemon");
    let status = child.wait().expect("reap the daemon");
    assert!(!status.success(), "daemon should have died by signal");

    // The kill must have landed mid-run for the test to mean anything:
    // durable state exists but is short of the full 40 requests. (A very
    // slow machine may get killed before the first checkpoint — then the
    // WAL alone must already hold admissions.)
    if crash_dir.join("checkpoint.json").exists() {
        let partial = DaemonState::from_json(&parse(&dump_state(&crash_dir)).unwrap())
            .expect("partial state parses");
        assert!(
            partial.admitted < 40,
            "kill landed after the run finished; timing too coarse"
        );
    } else {
        let wal = std::fs::read_to_string(crash_dir.join("wal-0.log")).unwrap_or_default();
        assert!(
            !wal.is_empty(),
            "kill landed before any admission; timing too coarse"
        );
    }

    // Restart over the same input: WAL replay + stale-skip resume.
    let out = dpg()
        .args(serve_args(&crash_dir, &input))
        .output()
        .expect("recovery serve run");
    assert!(
        out.status.success(),
        "recovery run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let recovered = dump_state(&crash_dir);
    assert_eq!(
        recovered, reference,
        "recovered state must be byte-identical to the never-crashed run"
    );

    // Belt and braces: the bits, not just the bytes.
    let a = DaemonState::from_json(&parse(&recovered).unwrap()).unwrap();
    let b = DaemonState::from_json(&parse(&reference).unwrap()).unwrap();
    assert_eq!(a.cum_cost.to_bits(), b.cum_cost.to_bits());
    assert_eq!(a.placement_pairs, b.placement_pairs);
    assert_eq!(a.streaming, b.streaming);
    assert_eq!(a.epoch, 5);
    assert_eq!(a.admitted, 40);
    assert_eq!(a.degraded_epochs, Vec::<u64>::new());

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn injected_panic_degrades_one_epoch_and_serving_continues() {
    let scratch = temp_dir("panic");
    let input = scratch.join("in.txt");
    std::fs::write(&input, workload()).unwrap();
    let dir = scratch.join("state");
    let mut args = serve_args(&dir, &input);
    args.extend(["--inject-panic-epoch".into(), "2".into()]);
    let out = dpg().args(&args).output().expect("panic-injected serve");
    assert!(
        out.status.success(),
        "a solver panic must not kill the daemon: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let state = DaemonState::from_json(&parse(&dump_state(&dir)).unwrap()).unwrap();
    assert_eq!(state.degraded_epochs, vec![2]);
    assert_eq!(state.epoch, 5, "settlement continued past the panic");
    assert!(state.degraded_cost > 0.0);
    assert!(state.ok_cost > 0.0);
    // The ratio compares *different epochs'* workload mixes, so it can
    // land either side of 1.0 — pin that it is defined, positive, finite.
    let ratio = state
        .degradation_ratio()
        .expect("both epoch kinds settled, ratio defined");
    assert!(ratio.is_finite() && ratio > 0.0, "ratio {ratio}");
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn malformed_and_invalid_frames_are_reported_with_line_numbers_and_survived() {
    let scratch = temp_dir("badframes");
    let dir = scratch.join("state");
    let input = "hello 2 3\n\
                 req 1.0 0 0,1\n\
                 req nonsense 0 0\n\
                 req 2.0 7 0\n\
                 req 3.0 1 2\n";
    let mut child = dpg()
        .args(["serve", "--dir", dir.to_str().unwrap(), "--epoch-len", "8"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stdin-fed serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("serve over stdin");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 3: bad time"), "stderr: {err}");
    assert!(
        err.contains("line 4: rejected: server 7 out of range"),
        "stderr: {err}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("admitted=2") && stdout.contains("malformed=1"),
        "stdout: {stdout}"
    );
    let state = DaemonState::from_json(&parse(&dump_state(&dir)).unwrap()).unwrap();
    assert_eq!(state.admitted, 2);
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn handshake_mismatch_after_recovery_is_a_runtime_error() {
    let scratch = temp_dir("handshake");
    let input = scratch.join("in.txt");
    std::fs::write(&input, workload()).unwrap();
    let dir = scratch.join("state");
    assert!(dpg()
        .args(serve_args(&dir, &input))
        .output()
        .unwrap()
        .status
        .success());
    let other = scratch.join("other.txt");
    std::fs::write(&other, "hello 9 9\n").unwrap();
    let out = dpg()
        .args(serve_args(&dir, &other))
        .output()
        .expect("mismatched serve");
    assert_eq!(out.status.code(), Some(1), "runtime error, exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not match"), "stderr: {err}");
    std::fs::remove_dir_all(&scratch).ok();
}

/// The files of `dir`, sorted by name, with their bytes.
fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// Dumps are read-only. Served at `--epoch-len 256`, 400 requests leave
/// 144 unsettled, more than the default epoch of 64, and the open segment
/// ends in a torn record. A bare `--dump-state` (default epoch length)
/// and `--dump-journal` must print those 144 as pending and leave every
/// file byte-identical: a dump that settled them as an epoch of 64 wrote
/// a settle record and a checkpoint, and the stream resumed at 256 then
/// ended elsewhere than the run that was never dumped.
#[test]
fn dumps_leave_the_directory_as_they_found_it() {
    let scratch = temp_dir("dump-read-only");
    let stream = |n: u32| {
        let mut s = String::from("hello 4 10\n");
        for i in 1..=n {
            let a = i * 7 % 10;
            let items = match i % 3 {
                0 => format!("{a}"),
                1 => format!("{a},{}", (a + 1) % 10),
                _ => format!("{a},{},{}", (a + 1) % 10, (a + 5) % 10),
            };
            s.push_str(&format!(
                "req {:?} {} {items}\n",
                0.25 * f64::from(i),
                i % 4
            ));
        }
        s
    };
    let (head, full) = (scratch.join("head.txt"), scratch.join("full.txt"));
    std::fs::write(&head, stream(400)).unwrap();
    std::fs::write(&full, stream(700)).unwrap();
    let serve = |dir: &std::path::Path, input: &std::path::Path| {
        let out = dpg()
            .args(["serve", "--dir", dir.to_str().unwrap(), "--input"])
            .arg(input)
            .args(["--epoch-len", "256", "--quiet"])
            .output()
            .expect("run dpg serve");
        assert!(
            out.status.success(),
            "serve failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let (dumped, never) = (scratch.join("dumped"), scratch.join("never"));
    for dir in [&dumped, &never] {
        serve(dir, &head);
        let open = dir.join("wal-1.log");
        let mut log = std::fs::read(&open).expect("the open epoch's segment");
        log.extend_from_slice(b"req 100.5 1 3,");
        std::fs::write(&open, log).unwrap();
    }

    let before = files(&dumped);
    let state = DaemonState::from_json(&parse(&dump_state(&dumped)).unwrap()).unwrap();
    assert_eq!((state.epoch, state.pending.len()), (1, 144));
    let out = dpg()
        .args(["serve", "--dir", dumped.to_str().unwrap(), "--dump-journal"])
        .output()
        .expect("run dpg serve --dump-journal");
    assert!(out.status.success());
    let journal = String::from_utf8_lossy(&out.stdout);
    assert!(
        journal
            .lines()
            .any(|l| l.contains("\"kind\":\"recovery-replay\"")
                && l.contains("\"epoch\":1,\"replayed\":144")),
        "{journal}"
    );
    assert!(
        files(&dumped) == before,
        "a dump changed the directory it read"
    );

    serve(&dumped, &full);
    serve(&never, &full);
    assert_eq!(dump_state(&dumped), dump_state(&never));
    std::fs::remove_dir_all(&scratch).ok();
}

/// CI serve-smoke's 200-request stream over 4 servers and 5 items.
fn smoke_stream() -> String {
    let mut s = String::from("hello 4 5\n");
    for i in 1..=200u32 {
        let items = match i % 5 {
            0 | 3 => "0,1",
            1 => "2,3",
            2 => "0,1,4",
            _ => "4",
        };
        s.push_str(&format!(
            "req {:.2} {} {items}\n",
            f64::from(i) * 0.25,
            i % 4
        ));
    }
    s
}

/// A row that cannot solve an epoch is refused before the daemon writes
/// anything, as a runtime error: `exhaustive` handles 18 requests, fewer
/// than the default epoch of 64, and `hetero_exact` 16 servers. Serving
/// it anyway panicked in every epoch and settled each one degraded. At
/// `--epoch-len 16` `exhaustive` settles every epoch at `optimal`'s cost,
/// and a recovered directory is refused like a fresh one, untouched.
#[test]
fn a_row_the_daemon_cannot_run_is_refused_before_anything_is_written() {
    let scratch = temp_dir("refused");
    let input = scratch.join("stream.txt");
    std::fs::write(&input, smoke_stream()).unwrap();
    let serve = |dir: &std::path::Path, input: &std::path::Path, args: &[&str]| {
        dpg()
            .args(["serve", "--dir", dir.to_str().unwrap(), "--input"])
            .arg(input)
            .args(args)
            .arg("--quiet")
            .output()
            .expect("run dpg serve")
    };
    let refused_with = |out: std::process::Output, line: &str| {
        assert_eq!(out.status.code(), Some(1), "runtime error, exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr, format!("error: serve: {line}\n"));
        assert!(out.stdout.is_empty());
    };

    let refused = scratch.join("refused");
    refused_with(
        serve(&refused, &input, &["--algo", "exhaustive"]),
        "exhaustive handles at most 18 requests; an epoch holds 64",
    );
    assert!(!refused.join("checkpoint.json").exists());
    assert!(!refused.exists(), "a refused row wrote its directory");

    let summary = |out: std::process::Output| {
        assert!(
            out.status.success(),
            "serve failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let (exhaustive, optimal) = (scratch.join("exhaustive"), scratch.join("optimal"));
    let epoch_16 = |algo| ["--algo", algo, "--epoch-len", "16"];
    let out = summary(serve(&exhaustive, &input, &epoch_16("exhaustive")));
    assert!(out.contains("degraded_epochs=[]"), "{out}");
    assert_eq!(out, summary(serve(&optimal, &input, &epoch_16("optimal"))));

    let before = files(&exhaustive);
    refused_with(
        serve(&exhaustive, &input, &["--algo", "exhaustive"]),
        "exhaustive handles at most 18 requests; an epoch holds 64",
    );
    assert!(files(&exhaustive) == before, "a refused recovery wrote");

    let wide = scratch.join("wide.txt");
    std::fs::write(&wide, smoke_stream().replacen("hello 4 5", "hello 20 5", 1)).unwrap();
    let fleet = scratch.join("fleet");
    refused_with(
        serve(&fleet, &wide, &epoch_16("hetero_exact")),
        "hetero_exact handles at most 16 servers; the fleet has 20",
    );
    assert!(!fleet.exists(), "a refused row wrote its directory");
    std::fs::remove_dir_all(&scratch).ok();
}
