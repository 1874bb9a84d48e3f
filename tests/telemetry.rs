//! The live telemetry plane, end to end: exposition golden bytes, the
//! bucketed-quantile error bound, the journal's recovery events, and the
//! `dpg top` exit taxonomy across a process boundary.
//!
//! Tests that touch the process-global metrics registry or journal
//! serialize on [`GLOBAL_OBS`] — `cargo test` runs tests in threads of
//! one process, and a concurrent `reset()` would race.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Mutex;

use dp_greedy_suite::obs::metrics::HistSummary;
use dp_greedy_suite::obs::{journal, prometheus_text, MetricsSnapshot};
use dp_greedy_suite::serve::{serve_stream, Daemon, ServeConfig};

static GLOBAL_OBS: Mutex<()> = Mutex::new(());

fn dpg() -> Command {
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_dpg"));
    if !path.exists() {
        path = PathBuf::from("target/debug/dpg");
    }
    Command::new(path)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpg-telemetry-test-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Satellite: the `/metrics` exposition is pinned byte for byte. The
/// histogram observations (0.125, 0.25, 2.0) are powers of two, so the
/// sum (2.375) and every bucket bound render exactly.
#[test]
fn metrics_exposition_golden_bytes() {
    let mut h = HistSummary::new();
    h.observe(0.25);
    h.observe(0.125);
    h.observe(2.0);
    let snap = MetricsSnapshot {
        counters: vec![("serve.admitted", 7)],
        fcounters: vec![("serve.ok_cost", 2.5)],
        gauges: vec![("serve.degradation_ratio", 0.25)],
        hists: vec![("serve.admit_seconds", h)],
    };
    let expected = "\
# TYPE serve_admitted_total counter
serve_admitted_total 7
# TYPE serve_ok_cost_total counter
serve_ok_cost_total 2.5
# TYPE serve_degradation_ratio gauge
serve_degradation_ratio 0.25
# TYPE serve_admit_seconds histogram
serve_admit_seconds_bucket{le=\"0.25\"} 1
serve_admit_seconds_bucket{le=\"0.5\"} 2
serve_admit_seconds_bucket{le=\"4\"} 3
serve_admit_seconds_bucket{le=\"+Inf\"} 3
serve_admit_seconds_sum 2.375
serve_admit_seconds_count 3
";
    assert_eq!(prometheus_text(&snap), expected);
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Satellite: for random samples, the bucketed quantile estimate
/// brackets the exact sample quantile to within one log₂ bucket — the
/// estimate is an upper bound no more than 2× the exact value (and never
/// above the observed max, thanks to the min/max clamp).
#[test]
fn bucketed_quantiles_bracket_exact_quantiles_within_one_bucket() {
    let mut state = 0x5eed_u64;
    for trial in 0..50 {
        let n = 1 + (splitmix64(&mut state) % 400) as usize;
        let mut h = HistSummary::new();
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            // Spread over ~12 orders of magnitude, away from the grid's
            // clamped extremes (the grid spans 2^-40 .. 2^24).
            let exp = (splitmix64(&mut state) % 40) as i32 - 30;
            let frac = (splitmix64(&mut state) % 1_000_000) as f64 / 1_000_000.0;
            let v = (1.0 + frac) * 2f64.powi(exp);
            h.observe(v);
            samples.push(v);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[rank - 1];
            let est = h.quantile(q);
            assert!(
                exact <= est && est <= 2.0 * exact,
                "trial {trial} n={n} q={q}: exact {exact} not bracketed by estimate {est}"
            );
            assert!(
                est <= h.max,
                "trial {trial} q={q}: {est} above max {}",
                h.max
            );
        }
    }
}

/// Tentpole: recovery journals what it replayed. A stream of 10 requests
/// at epoch-len 4 settles epochs 0 and 1 and leaves 2 requests pending
/// in epoch 2's WAL; recovering that directory must journal a
/// `recovery-replay` event carrying exactly that epoch and count.
#[test]
fn recovery_journals_a_replay_event_with_the_recovered_epoch() {
    let _guard = GLOBAL_OBS.lock().unwrap();
    let dir = temp_dir("recovery-journal");
    let mut cfg = ServeConfig::new(dir.clone());
    cfg.epoch_len = 4;
    cfg.quiet = true;
    let mut input = String::from("hello 3 6\n");
    for i in 0..10 {
        // Times start at 1: admission rejects non-positive times.
        input.push_str(&format!("req {} {} {}\n", i + 1, i % 3, i % 6));
    }
    serve_stream(cfg.clone(), input.as_bytes()).expect("serve the stream");

    journal::reset();
    let daemon = Daemon::recover(cfg)
        .expect("recover")
        .expect("state exists");
    assert_eq!(daemon.current_state().epoch, 2);
    let tail = journal::tail_jsonl(usize::MAX);
    let replay: Vec<&str> = tail
        .lines()
        .filter(|l| l.contains("\"kind\":\"recovery-replay\""))
        .collect();
    assert_eq!(replay.len(), 1, "journal:\n{tail}");
    assert!(
        replay[0].contains("\"epoch\":2") && replay[0].contains("\"replayed\":2"),
        "unexpected replay event: {}",
        replay[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: `dpg top` against nothing is a runtime failure (exit 1)
/// with a diagnostic, not a panic.
#[test]
fn top_exits_1_when_the_daemon_is_unreachable() {
    // Reserve a port, then close it so the connect is refused.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let out = dpg()
        .args(["top", "--addr", &addr.to_string(), "--once"])
        .output()
        .expect("run dpg top");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot reach daemon"), "{err}");
}

/// Satellite: once `dpg top` has connected, a daemon that vanishes
/// between polls produces a "daemon gone" diagnostic and exit 1 — never
/// a panic. A throwaway listener answers exactly one poll (one /metrics
/// and one /journal scrape), then goes away.
#[test]
fn top_reports_daemon_gone_after_a_successful_poll() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 512];
            let _ = stream.read(&mut buf);
            let body = "serve_scrape_t_mono 1.5\n";
            let _ = stream.write_all(
                format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            );
        }
        // Listener drops here: the next poll's connect is refused.
    });
    let out = dpg()
        .args(["top", "--addr", &addr.to_string(), "--interval-ms", "50"])
        .output()
        .expect("run dpg top");
    server.join().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("daemon gone"), "{err}");
    let rendered = String::from_utf8_lossy(&out.stdout);
    assert!(rendered.contains("dpg top"), "{rendered}");
}

/// Tentpole: the whole plane across a process boundary — `dpg serve
/// --telemetry-file` publishes an exposition that `dpg top --file`
/// renders, and `dpg serve --dump-journal` prints recovery's journal.
#[test]
fn serve_publishes_telemetry_file_and_dump_journal_prints_events() {
    let dir = temp_dir("cli-plane");
    std::fs::create_dir_all(&dir).unwrap();
    let stream_path = dir.join("stream.txt");
    let tele_path = dir.join("tele.prom");
    let mut input = String::from("hello 3 6\n");
    for i in 0..20 {
        input.push_str(&format!("req {} {} {}\n", i + 1, i % 3, i % 6));
    }
    std::fs::write(&stream_path, input).unwrap();

    let state_dir = dir.join("state");
    let out = dpg()
        .args([
            "serve",
            "--dir",
            state_dir.to_str().unwrap(),
            "--input",
            stream_path.to_str().unwrap(),
            "--epoch-len",
            "8",
            "--telemetry-file",
            tele_path.to_str().unwrap(),
            "--quiet",
        ])
        .output()
        .expect("run dpg serve");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let exposition = std::fs::read_to_string(&tele_path).unwrap();
    assert!(exposition.contains("serve_admit_seconds_bucket{le=\""));
    assert!(exposition.contains("serve_degradation_ratio"));
    assert!(exposition.contains("serve_scrape_t_mono"));

    let out = dpg()
        .args(["top", "--file", tele_path.to_str().unwrap(), "--once"])
        .output()
        .expect("run dpg top");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let rendered = String::from_utf8_lossy(&out.stdout);
    assert!(rendered.contains("admission"), "{rendered}");
    assert!(rendered.contains("degradation_ratio="), "{rendered}");

    let out = dpg()
        .args([
            "serve",
            "--dir",
            state_dir.to_str().unwrap(),
            "--dump-journal",
        ])
        .output()
        .expect("run dpg serve --dump-journal");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let journal = String::from_utf8_lossy(&out.stdout);
    // 20 requests at epoch-len 8: epochs 0 and 1 settled, 4 pending in
    // epoch 2 — recovery replays those 4.
    assert!(
        journal
            .lines()
            .any(|l| l.contains("\"kind\":\"recovery-replay\"")
                && l.contains("\"epoch\":2")
                && l.contains("\"replayed\":4")),
        "{journal}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `dpg serve --metrics` counts the daemon's structure and every epoch's
/// solve: one settlement thread for the run, one WAL segment per
/// checkpoint, and a `dpg.phase1.jaccard` span per settled epoch — the
/// worker publishes its spans before it answers, not when it exits.
#[test]
fn serve_metrics_count_one_worker_a_segment_per_checkpoint_and_every_solve() {
    let dir = temp_dir("cli-structure");
    std::fs::create_dir_all(&dir).unwrap();
    let stream_path = dir.join("stream.txt");
    let mut input = String::from("hello 4 12\n");
    for i in 0..400u32 {
        let a = i * 7 % 12;
        input.push_str(&format!("req {} {} {a},{}\n", i + 1, i % 4, (a + 1) % 12));
    }
    std::fs::write(&stream_path, input).unwrap();
    let out = dpg()
        .args([
            "serve",
            "--dir",
            dir.join("state").to_str().unwrap(),
            "--input",
            stream_path.to_str().unwrap(),
            "--epoch-len",
            "8",
            "--quiet",
            "--metrics",
        ])
        .output()
        .expect("run dpg serve --metrics");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table = String::from_utf8_lossy(&out.stdout);
    let value = |name: &str| -> String {
        table
            .lines()
            .find_map(|l| {
                let mut words = l.split_whitespace();
                (words.next() == Some(name)).then(|| words.next().unwrap_or("").to_string())
            })
            .unwrap_or_else(|| panic!("no {name} in:\n{table}"))
    };
    assert_eq!(value("serve.epochs_ok"), "50", "{table}");
    assert_eq!(value("dpg.phase1.jaccard"), "n=50", "{table}");
    assert_eq!(value("serve.settle_workers"), "1", "{table}");
    let checkpoints = value("serve.checkpoints");
    assert!(checkpoints.parse::<u32>().unwrap() < 50, "{table}");
    assert_eq!(value("serve.wal_segments"), checkpoints, "{table}");
    std::fs::remove_dir_all(&dir).ok();
}
