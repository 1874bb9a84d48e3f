//! The serving daemon's checkpoint: written in one pass through a bounded
//! buffer, at a cadence proportional to the log, and loaded with its
//! catalog checked.
//!
//! * `DaemonState::canonical_json` streams the state through the JSON
//!   writer without building a tree; it must equal the tree rendering
//!   `to_json().to_string_pretty() + "\n"` byte for byte on random states:
//!   decayed statistics, degraded epochs, a non-empty `pending`, placement
//!   pairs, empty vectors and the numbers at the writer's edges. `save`
//!   writes those bytes, also for states larger than its 64 KB buffer.
//! * After every settlement of a live daemon, recovering a copy of its
//!   directory reproduces the served state; whenever `checkpoint.json`
//!   changes it equals the tree of the settled state at that boundary, and
//!   after a clean end of input it holds the last settled state.
//! * The cadence's bounds hold on random streams: checkpoints but the last
//!   cost at most the WAL written, the log on disk stays within one
//!   checkpoint plus the open epoch, and each checkpoint opens the one
//!   segment the epochs after it append to, deleting the ones it covers.
//!   A recovery refreshes the placement once, at the last `ok` epoch it
//!   replays, and ignores segments a crash left behind: older ones, and
//!   the one a checkpoint that never got renamed into place opened.
//! * A directory in the per-epoch layout of earlier versions recovers to
//!   the state of a run that never crashed, without rewriting the open
//!   epoch's segment, so a recovery cut short before its checkpoint loses
//!   no request.
//! * A checkpoint naming items outside the handshake's catalog is a
//!   `corrupt checkpoint` error at load and for `serve_stream`, never a
//!   panic at the next settlement; so is one nested too deep to parse.

use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use dp_greedy_suite::correlation::matching::greedy_matching_from_pairs;
use dp_greedy_suite::correlation::StreamingCooccurrence;
use dp_greedy_suite::model::json::{parse, FromJson, ToJson};
use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::{ItemId, Request, ServerId};
use dp_greedy_suite::serve::checkpoint::checkpoint_path;
use dp_greedy_suite::serve::{
    serve_stream, Admission, Daemon, DaemonState, PendingReq, ServeConfig, CHECKPOINT_VERSION,
};

fn dpg() -> Command {
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_dpg"));
    if !path.exists() {
        path = PathBuf::from("target/debug/dpg");
    }
    Command::new(path)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpg-checkpoint-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tree(state: &DaemonState) -> String {
    state.to_json().to_string_pretty() + "\n"
}

/// Floats at the edges of the number writer: the integer form's range,
/// shortest round trip, subnormals, and non-finite values (`null`).
const EDGES: [f64; 13] = [
    -0.0,
    0.1 + 0.2,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9e15,
    -9e15,
    8_999_999_999_999_999.0,
    1e300,
    5e-324,
    -1.5,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn float(rng: &mut Rng) -> f64 {
    if rng.gen_bool(0.5) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        (rng.gen_f64() - 0.3) * 10f64.powi(rng.gen_range(0..12u32) as i32 - 4)
    }
}

/// Counts near and beyond 2⁵³, where `u64 as f64` rounds.
fn count(rng: &mut Rng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => (1u64 << 53) - 1 + rng.gen_range(0..3u64),
        1 => u64::MAX - rng.gen_range(0..2u64),
        _ => rng.gen_range(0..100_000u64),
    }
}

/// A random state over fewer than `max_items` items whose statistics saw
/// fewer than `max_requests` requests of up to `max_len - 1` items.
fn random_state(rng: &mut Rng, max_items: u32, max_requests: usize, max_len: u32) -> DaemonState {
    let items = rng.gen_range(1..max_items);
    let decay = [1.0, 0.9, 0.3, 0.05][rng.gen_range(0..4usize)];
    let mut stream = StreamingCooccurrence::new(decay);
    for i in 0..rng.gen_range(0..max_requests) {
        let mut ids: Vec<ItemId> = (0..rng.gen_range(1..max_len))
            .map(|_| ItemId(rng.gen_range(0..items)))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        stream.observe(&Request {
            server: ServerId(0),
            time: i as f64,
            items: ids,
        });
    }
    let mut streaming = stream.snapshot();
    // The writer takes any number, so put the edges into the counts too.
    for (_, c) in streaming.item_counts.iter_mut().take(3) {
        *c = float(rng);
    }
    if let Some(last) = streaming.pair_counts.last_mut() {
        last.2 = float(rng);
    }
    let list = |rng: &mut Rng, max: usize| rng.gen_range(0..=max);
    DaemonState {
        version: CHECKPOINT_VERSION,
        servers: rng.gen_range(1..9u32),
        items,
        epoch: count(rng),
        admitted: count(rng),
        last_time: float(rng),
        cum_cost: float(rng),
        ok_cost: float(rng),
        ok_accesses: count(rng),
        degraded_cost: float(rng),
        degraded_accesses: count(rng),
        degraded_epochs: (0..list(rng, 4)).map(|_| count(rng)).collect(),
        placement_pairs: (0..list(rng, 3))
            .map(|_| {
                (
                    ItemId(rng.gen_range(0..items)),
                    ItemId(rng.next_u64() as u32),
                )
            })
            .collect(),
        streaming,
        pending: (0..list(rng, 4))
            .map(|_| PendingReq {
                time: float(rng),
                server: rng.gen_range(0..9u32),
                items: (0..list(rng, 3)).map(|_| rng.gen_range(0..items)).collect(),
            })
            .collect(),
    }
}

#[test]
fn one_pass_checkpoint_equals_the_tree_rendering_on_random_states() {
    for case in 0..200u64 {
        let mut rng = Rng::seed_from_u64(0xC4EC + case);
        let state = random_state(&mut rng, 40, 400, 4);
        assert_eq!(state.canonical_json(), tree(&state), "case {case}");
    }
    // The empty state: every vector empty, every container `[]`.
    let fresh = DaemonState::fresh(1, 1, 1.0);
    assert_eq!(fresh.canonical_json(), tree(&fresh));
    assert!(fresh.canonical_json().contains("\"pending\": []\n}"));
}

/// `save` hands its buffer to the file every 64 KB; the file must hold
/// exactly `canonical_json()`, including states many buffers long.
#[test]
fn save_writes_the_canonical_bytes_through_a_bounded_buffer() {
    let dir = temp_dir("save-bytes");
    let mut largest = 0;
    for case in 0..60u64 {
        let mut rng = Rng::seed_from_u64(0x5A7E + case);
        let mut state = if case % 3 == 0 {
            random_state(&mut rng, 300, 3_000, 8)
        } else {
            random_state(&mut rng, 40, 400, 4)
        };
        // Checkpoints never hold the open epoch.
        state.pending.clear();
        state.save(&dir).unwrap();
        let on_disk = std::fs::read_to_string(checkpoint_path(&dir)).unwrap();
        assert_eq!(on_disk, state.canonical_json(), "case {case}");
        largest = largest.max(on_disk.len());
    }
    assert!(largest > 4 * 64 * 1024, "largest state {largest} B");
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    left.sort();
    assert_eq!(left, ["checkpoint.json"], "no temporary file is left");
    std::fs::remove_dir_all(&dir).ok();
}

/// Copies the files of `from` into a fresh directory `to`.
fn copy_dir(from: &Path, to: &Path) {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The state `Daemon::recover` rebuilds from a copy of `dir`.
fn recovered(cfg: &ServeConfig, copy: &Path) -> DaemonState {
    copy_dir(&cfg.dir, copy);
    let mut cfg = cfg.clone();
    cfg.dir = copy.to_path_buf();
    cfg.inject_panic_epoch = None;
    cfg.inject_slow_epoch = None;
    Daemon::recover(cfg).unwrap().unwrap().current_state()
}

/// `(time, server, items)` requests as `req` frames behind a `hello`.
fn frames(servers: u32, items: u32, requests: &[(f64, u32, Vec<ItemId>)]) -> String {
    let mut text = format!("hello {servers} {items}\n");
    for (t, server, ids) in requests {
        let csv: Vec<String> = ids.iter().map(|i| i.0.to_string()).collect();
        text.push_str(&format!("req {t:?} {server} {}\n", csv.join(",")));
    }
    text
}

#[test]
fn every_checkpoint_on_disk_equals_the_served_state_and_the_tree() {
    for (run, decay) in [1.0, 0.9, 0.05].into_iter().enumerate() {
        let dir = temp_dir(&format!("settle-{run}"));
        let copy = temp_dir(&format!("settle-copy-{run}"));
        let mut cfg = ServeConfig::new(dir.clone());
        cfg.quiet = true;
        cfg.epoch_len = 8;
        cfg.decay = decay;
        cfg.inject_panic_epoch = Some(2);
        let items = 12;
        let mut daemon = Daemon::fresh(cfg.clone(), 3, items).unwrap();
        let mut on_disk = std::fs::read_to_string(checkpoint_path(&dir)).unwrap();
        assert_eq!(on_disk, tree(&daemon.current_state()), "fresh");
        let mut rng = Rng::seed_from_u64(0x5E77 + run as u64);
        let mut requests = Vec::new();
        let mut t = 0.0;
        let mut written = 0;
        let mut settled = daemon.current_state();
        for epoch in 0..30 {
            for _ in 0..8 {
                t += 0.25;
                let first = rng.gen_range(0..items);
                let mut ids = vec![ItemId(first)];
                if rng.gen_bool(0.7) {
                    ids.push(ItemId(first ^ 1));
                }
                let server = rng.gen_range(0..3u32);
                requests.push((t, server, ids.clone()));
                assert_eq!(
                    daemon.admit(t, ServerId(server), ids).unwrap(),
                    Admission::Admitted
                );
            }
            let what = format!("decay {decay}, epoch {epoch}");
            assert_eq!(daemon.summary().epochs_settled, epoch + 1);
            settled = daemon.current_state();
            assert!(settled.pending.is_empty(), "{what}: epochs close full");
            if !settled.degraded_epochs.contains(&epoch) {
                // An ok epoch packs the statistics it settled into.
                let stats = StreamingCooccurrence::from_snapshot(&settled.streaming).unwrap();
                let packing =
                    greedy_matching_from_pairs(stats.pairs_above(cfg.theta), items, cfg.theta);
                assert_eq!(settled.placement_pairs, packing.pairs, "{what}: placement");
            }
            let live = settled.canonical_json();
            assert_eq!(live, tree(&settled), "{what}: tree");
            assert_eq!(
                recovered(&cfg, &copy).canonical_json(),
                live,
                "{what}: recovery"
            );
            let now = std::fs::read_to_string(checkpoint_path(&dir)).unwrap();
            if now != on_disk {
                assert_eq!(now, tree(&settled), "{what}: checkpoint");
                on_disk = now;
                written += 1;
            }
        }
        assert!(
            (2..20).contains(&written),
            "decay {decay}: {written} checkpoints in 30 epochs"
        );
        assert_eq!(settled.degraded_epochs, vec![2]);
        assert!(!settled.placement_pairs.is_empty());

        // A clean end of input, three requests into the next epoch,
        // leaves the last settled state in the checkpoint.
        for k in 1..=3 {
            requests.push((t + 0.25 * f64::from(k), 0, vec![ItemId(k)]));
        }
        let clean = temp_dir(&format!("settle-clean-{run}"));
        let mut clean_cfg = cfg.clone();
        clean_cfg.dir = clean.clone();
        let (state, summary) =
            serve_stream(clean_cfg, Cursor::new(frames(3, items, &requests))).unwrap();
        assert_eq!((summary.epochs_settled, state.pending.len()), (30, 3));
        let on_disk = std::fs::read_to_string(checkpoint_path(&clean)).unwrap();
        assert_eq!(on_disk, tree(&settled), "decay {decay}: clean end");
        for d in [dir, copy, clean] {
            std::fs::remove_dir_all(&d).ok();
        }
    }
}

/// The WAL segments in `dir`, by epoch, with their sizes.
fn segments(dir: &Path) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if name == "checkpoint.json" {
            continue;
        }
        let epoch = name
            .strip_prefix("wal-")
            .and_then(|n| n.strip_suffix(".log"))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected file {name} in the serve directory"));
        out.push((epoch, entry.metadata().unwrap().len()));
    }
    out.sort_unstable();
    out
}

/// Random streams (3–40 items, epochs of 1–64 requests, decays below 1
/// down to the `scale < 1e-200` renormalisation, one injected degraded
/// epoch) keep both bounds of the cadence at every epoch boundary, and
/// the directory holds only the checkpoint and the log it needs.
#[test]
fn checkpoint_cadence_bounds_hold_on_random_streams() {
    let mut renormalised = 0;
    for case in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0xCADE + case);
        let dir = temp_dir(&format!("cadence-{case}"));
        let items = rng.gen_range(3..=40u32);
        let mut cfg = ServeConfig::new(dir.clone());
        cfg.quiet = true;
        cfg.epoch_len = [1, 3, 8, 16, 64][rng.gen_range(0..5usize)];
        cfg.decay = [0.999, 0.9, 0.5, 0.05][case as usize % 4];
        let requests = rng.gen_range(160..400usize);
        let epochs = (requests / cfg.epoch_len) as u64;
        cfg.inject_panic_epoch = (epochs > 1).then(|| rng.gen_range(0..epochs));
        let what = format!(
            "case {case}: {items} items, epochs of {}, decay {}",
            cfg.epoch_len, cfg.decay
        );
        let mut daemon = Daemon::fresh(cfg.clone(), 2, items).unwrap();
        let mut checkpoint = std::fs::read_to_string(checkpoint_path(&dir)).unwrap();
        let mut checkpoint_epoch = 0;
        let mut earlier_checkpoints = 0u64;
        let mut t = 0.0;
        for _ in 0..requests {
            t += 0.5;
            let mut ids: Vec<ItemId> = (0..rng.gen_range(1..5u32))
                .map(|_| ItemId(rng.gen_range(0..items)))
                .collect();
            ids.sort_unstable();
            ids.dedup();
            let before = daemon.summary().epochs_settled;
            daemon.admit(t, ServerId(0), ids).unwrap();
            if daemon.summary().epochs_settled == before {
                continue;
            }
            let now = std::fs::read_to_string(checkpoint_path(&dir)).unwrap();
            if now != checkpoint {
                earlier_checkpoints += checkpoint.len() as u64;
                checkpoint = now;
                checkpoint_epoch = DaemonState::from_json(&parse(&checkpoint).unwrap())
                    .unwrap()
                    .epoch;
            }
            let summary = daemon.summary();
            assert!(
                earlier_checkpoints <= summary.wal_bytes,
                "{what}: {earlier_checkpoints} B of checkpoints for {} B of log",
                summary.wal_bytes
            );
            let open = summary.epochs_settled;
            let logs = segments(&dir);
            assert!(
                logs.iter()
                    .all(|&(e, _)| checkpoint_epoch <= e && e <= open),
                "{what}: segments {logs:?} around checkpoint {checkpoint_epoch} and open {open}"
            );
            // Only the last checkpoint's segment is left.
            assert_eq!(
                logs.iter().map(|l| l.0).collect::<Vec<_>>(),
                vec![checkpoint_epoch],
                "{what}"
            );
            let settled_log: u64 = logs.iter().filter(|&&(e, _)| e < open).map(|l| l.1).sum();
            assert!(
                settled_log <= checkpoint.len() as u64,
                "{what}: {settled_log} B of settled log behind a {} B checkpoint",
                checkpoint.len()
            );
        }
        let state = daemon.current_state();
        assert!(
            state.streaming.observed as u64 == state.admitted,
            "{what}: every admitted request reached the statistics"
        );
        // Without renormalising, the scale would have fallen below 1e-200.
        if state.admitted as f64 * cfg.decay.ln() < 1e-200f64.ln() {
            renormalised += 1;
        }
        let copy = temp_dir(&format!("cadence-copy-{case}"));
        assert_eq!(
            recovered(&cfg, &copy).canonical_json(),
            state.canonical_json(),
            "{what}: recovery"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&copy).ok();
    }
    assert!(renormalised >= 4, "{renormalised} streams renormalised");
}

/// After a checkpoint, ok epochs, then degraded ones (a slow solver: one
/// deadline miss, then busy epochs behind the straggler) whose requests
/// would pack a new pair, then a crash. Recovery replays them all,
/// restores the live placement — the one the last ok epoch chose — and
/// refreshes it once.
#[test]
fn recovery_after_ok_then_degraded_epochs_restores_the_live_placement_once() {
    let dir = temp_dir("ok-then-degraded");
    let mut cfg = ServeConfig::new(dir.clone());
    cfg.quiet = true;
    cfg.epoch_len = 8;
    cfg.settle_timeout = Duration::from_millis(500);
    // Warm-up over items 8..40 ends cleanly, so the checkpoint holds
    // epoch 5 and outweighs the log of the epochs that follow.
    let mut rng = Rng::seed_from_u64(0xDE6);
    let warm_up: Vec<_> = (1..=40)
        .map(|i| {
            let a = rng.gen_range(8..39u32);
            (
                f64::from(i),
                0,
                vec![ItemId(a), ItemId(rng.gen_range(a + 1..40))],
            )
        })
        .collect();
    serve_stream(cfg.clone(), Cursor::new(frames(2, 40, &warm_up))).unwrap();
    let slow = 9;
    cfg.inject_slow_epoch = Some((slow, Duration::from_secs(5)));
    let mut daemon = Daemon::recover(cfg.clone()).unwrap().unwrap();
    let mut t = 40.0;
    let mut feed = |daemon: &mut Daemon, pair: [u32; 2], n: usize| {
        for _ in 0..n {
            t += 0.5;
            let ids = vec![ItemId(pair[0]), ItemId(pair[1])];
            assert_eq!(
                daemon.admit(t, ServerId(0), ids).unwrap(),
                Admission::Admitted
            );
        }
    };
    for epoch in 5..slow {
        let first = (epoch % 2) as u32 * 2;
        feed(&mut daemon, [first, first + 1], 8);
    }
    feed(&mut daemon, [4, 5], 3 * 8 + 3);
    let live = daemon.current_state();
    assert_eq!(live.degraded_epochs, vec![slow, slow + 1, slow + 2]);
    for pair in [(0, 1), (2, 3)] {
        assert!(live
            .placement_pairs
            .contains(&(ItemId(pair.0), ItemId(pair.1))));
    }
    assert!(!live.placement_pairs.contains(&(ItemId(4), ItemId(5))));
    assert_eq!(DaemonState::load(&dir).unwrap().unwrap().epoch, 5);
    drop(daemon); // a crash: no clean end, no final checkpoint

    let copy = temp_dir("ok-then-degraded-copy");
    copy_dir(&dir, &copy);
    let mut again = cfg.clone();
    again.dir = copy.clone();
    again.inject_slow_epoch = None;
    let daemon = Daemon::recover(again).unwrap().unwrap();
    assert_eq!(daemon.summary().replayed, 7 * 8 + 3);
    assert_eq!(daemon.summary().placement_refreshes, 1);
    assert_eq!(
        daemon.current_state().canonical_json(),
        live.canonical_json()
    );
    // Refreshing after the degraded epochs would have packed (4, 5).
    let late = StreamingCooccurrence::from_snapshot(&live.streaming).unwrap();
    assert!(late.jaccard(ItemId(4), ItemId(5)) > cfg.theta);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

/// A crash between the checkpoint's rename and the deletion of the
/// segments it covers leaves them behind: recovery must not read them
/// (these are garbage, which reading would report as corruption), and the
/// next checkpoint removes them.
#[test]
fn segments_left_behind_by_a_crash_are_ignored_and_removed_later() {
    let dir = temp_dir("leftover");
    let mut cfg = ServeConfig::new(dir.clone());
    cfg.quiet = true;
    cfg.epoch_len = 4;
    let mut input = String::from("hello 2 6\n");
    for i in 1..=42 {
        input.push_str(&format!("req {i}.0 {} {},{}\n", i % 2, i % 6, (i + 1) % 6));
    }
    let (served, _) = serve_stream(cfg.clone(), Cursor::new(input)).unwrap();
    assert_eq!(
        segments(&dir),
        vec![(10, std::fs::metadata(dir.join("wal-10.log")).unwrap().len())]
    );
    for epoch in [3, 8, 9] {
        std::fs::write(
            dir.join(format!("wal-{epoch}.log")),
            "req 1.0 0 0\nnot a record\nreq 2.0 0 0\n",
        )
        .unwrap();
    }
    let mut daemon = Daemon::recover(cfg).unwrap().unwrap();
    assert_eq!(
        daemon.current_state().canonical_json(),
        served.canonical_json()
    );
    let before = std::fs::read_to_string(checkpoint_path(&dir)).unwrap();
    let mut t = 42.0;
    while std::fs::read_to_string(checkpoint_path(&dir)).unwrap() == before {
        let left: Vec<u64> = segments(&dir)
            .iter()
            .map(|s| s.0)
            .filter(|&e| e < 10)
            .collect();
        assert_eq!(left, vec![3, 8, 9], "left in place until a checkpoint");
        t += 1.0;
        daemon
            .admit(t, ServerId(0), vec![ItemId(0), ItemId(1)])
            .unwrap();
        assert!(t < 1_000.0, "no checkpoint written");
    }
    let open = daemon.current_state().epoch;
    assert_eq!(
        segments(&dir).iter().map(|s| s.0).collect::<Vec<_>>(),
        vec![open]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `n` requests over `items` items at times 0.5, 1.0, …: two or three
/// ids each, from two servers.
fn random_requests(rng: &mut Rng, n: usize, items: u32) -> Vec<(f64, u32, Vec<ItemId>)> {
    (1..=n)
        .map(|i| {
            let a = rng.gen_range(0..items - 1);
            let mut ids = vec![ItemId(a), ItemId(rng.gen_range(a + 1..items))];
            if rng.gen_bool(0.3) {
                ids.push(ItemId(rng.gen_range(0..items)));
                ids.sort_unstable();
                ids.dedup();
            }
            (i as f64 * 0.5, rng.gen_range(0..2u32), ids)
        })
        .collect()
}

/// A serve directory holding the checkpoint of `epoch` (epochs of 4
/// requests over 40 items), written by a clean end of input at that
/// epoch's boundary, and its empty segment.
fn checkpointed_at(tag: &str, epoch: usize, requests: &[(f64, u32, Vec<ItemId>)]) -> ServeConfig {
    let mut cfg = ServeConfig::new(temp_dir(tag));
    cfg.quiet = true;
    cfg.epoch_len = 4;
    serve_stream(
        cfg.clone(),
        Cursor::new(frames(2, 40, &requests[..4 * epoch])),
    )
    .unwrap();
    assert_eq!(
        DaemonState::load(&cfg.dir).unwrap().unwrap().epoch,
        epoch as u64
    );
    cfg
}

/// A directory in the per-epoch layout earlier versions wrote — the
/// checkpoint of epoch E, `wal-E` … `wal-E+2` each ending in its `settle`
/// record, and the open `wal-E+3` — with the canonical state of a run
/// over the same requests that never crashed. Epochs of 4 requests over
/// 40 items, E = 6, two requests in the open epoch.
fn per_epoch_layout(tag: &str) -> (ServeConfig, String) {
    let e = 6;
    let mut rng = Rng::seed_from_u64(0x01D);
    let requests = random_requests(&mut rng, 4 * (e + 3) + 2, 40);
    let admit_all = |daemon: &mut Daemon, requests: &[(f64, u32, Vec<ItemId>)]| {
        for (t, server, ids) in requests {
            let admitted = daemon.admit(*t, ServerId(*server), ids.clone()).unwrap();
            assert_eq!(admitted, Admission::Admitted);
        }
    };

    let mut never = ServeConfig::new(temp_dir(&format!("{tag}-never")));
    never.quiet = true;
    never.epoch_len = 4;
    let mut daemon = Daemon::fresh(never.clone(), 2, 40).unwrap();
    admit_all(&mut daemon, &requests);
    let want = daemon.current_state().canonical_json();
    drop(daemon);

    // The records of epochs E to E+3, in the segment of the checkpoint of
    // E, which outweighs them: the bytes both layouts write.
    let cfg = checkpointed_at(tag, e, &requests);
    let records = temp_dir(&format!("{tag}-records"));
    copy_dir(&cfg.dir, &records);
    let mut writer = cfg.clone();
    writer.dir = records.clone();
    let mut daemon = Daemon::recover(writer).unwrap().unwrap();
    admit_all(&mut daemon, &requests[4 * e..]);
    drop(daemon);
    assert_eq!(
        DaemonState::load(&records).unwrap().unwrap().epoch,
        e as u64
    );
    let log = std::fs::read_to_string(records.join(format!("wal-{e}.log"))).unwrap();

    // Split them into one file per epoch, each ending in its settlement.
    let mut epoch = e;
    let mut file = String::new();
    for line in log.split_inclusive('\n') {
        file.push_str(line);
        if line.starts_with("settle ") {
            std::fs::write(cfg.dir.join(format!("wal-{epoch}.log")), &file).unwrap();
            file.clear();
            epoch += 1;
        }
    }
    std::fs::write(cfg.dir.join(format!("wal-{epoch}.log")), &file).unwrap();
    assert_eq!(epoch, e + 3);
    let per_epoch: Vec<u64> = segments(&cfg.dir).iter().map(|s| s.0).collect();
    assert_eq!(per_epoch, (e..=e + 3).map(|x| x as u64).collect::<Vec<_>>());
    for d in [never.dir, records] {
        std::fs::remove_dir_all(&d).ok();
    }
    (cfg, want)
}

/// The bytes and modification time of a file.
fn stamp(path: &Path) -> (Vec<u8>, std::time::SystemTime) {
    let modified = std::fs::metadata(path).unwrap().modified().unwrap();
    (std::fs::read(path).unwrap(), modified)
}

/// The per-epoch layout recovers byte for byte to the never-crashed state,
/// and its recovery checkpoint leaves one segment.
#[test]
fn a_directory_in_the_per_epoch_layout_recovers_to_the_never_crashed_state() {
    let (cfg, want) = per_epoch_layout("per-epoch");
    let daemon = Daemon::recover(cfg.clone()).unwrap().unwrap();
    assert_eq!(daemon.summary().replayed, 14);
    assert_eq!(daemon.current_state().canonical_json(), want);
    let left: Vec<u64> = segments(&cfg.dir).iter().map(|s| s.0).collect();
    assert_eq!(left, vec![9]);
    std::fs::remove_dir_all(&cfg.dir).ok();
}

/// Recovering the per-epoch layout checkpoints epoch E+3, whose segment
/// `wal-E+3` is the only durable copy of the open epoch's requests until
/// that checkpoint is renamed into place. The recovery appends to it and
/// never rewrites it, so a recovery cut short before the rename — here the
/// checkpoint's temporary file cannot be created — leaves every segment
/// as it found it, and the next recovery still reaches the never-crashed
/// state. Rewriting the segment (truncate, then copy) would have left a
/// window in which a crash loses admitted requests.
#[test]
fn a_per_epoch_recovery_cut_short_before_its_checkpoint_loses_no_request() {
    let (cfg, want) = per_epoch_layout("per-epoch-cut");
    let open = cfg.dir.join("wal-9.log");
    // A modification time no write could leave, so any write shows.
    let long_ago = std::time::UNIX_EPOCH + Duration::from_secs(86_400);
    std::fs::File::options()
        .append(true)
        .open(&open)
        .unwrap()
        .set_modified(long_ago)
        .unwrap();
    let found: Vec<_> = (6..=9)
        .map(|e| stamp(&cfg.dir.join(format!("wal-{e}.log"))))
        .collect();

    let blocker = cfg.dir.join("checkpoint.json.tmp");
    std::fs::create_dir(&blocker).unwrap();
    assert!(Daemon::recover(cfg.clone()).is_err());
    std::fs::remove_dir(&blocker).unwrap();
    let after: Vec<_> = (6..=9)
        .map(|e| stamp(&cfg.dir.join(format!("wal-{e}.log"))))
        .collect();
    assert_eq!(after, found, "the cut-short recovery wrote to a segment");
    assert_eq!(DaemonState::load(&cfg.dir).unwrap().unwrap().epoch, 6);

    let daemon = Daemon::recover(cfg.clone()).unwrap().unwrap();
    assert_eq!(daemon.current_state().canonical_json(), want);
    drop(daemon);
    assert_eq!(
        stamp(&open),
        found[3],
        "the open epoch's segment was rewritten"
    );
    let left: Vec<u64> = segments(&cfg.dir).iter().map(|s| s.0).collect();
    assert_eq!(left, vec![9]);
    assert_eq!(DaemonState::load(&cfg.dir).unwrap().unwrap().epoch, 9);
    std::fs::remove_dir_all(&cfg.dir).ok();
}

/// A checkpoint of epoch E first writes `wal-E.log`; a crash before its
/// rename leaves that segment behind the old checkpoint. Recovery must
/// not replay it — its copies of the open epoch's requests are also in
/// the old segment — and the checkpoint of E that recovery writes
/// truncates it. With requests pending the old segment ends in one, so
/// recovery stops there; with none it ends in a `settle` record, and the
/// leftover a rotation right after a settlement leaves is empty.
#[test]
fn a_segment_left_by_a_rotation_that_never_renamed_is_not_replayed() {
    let e = 6;
    for pending in [3, 0] {
        let mut rng = Rng::seed_from_u64(0x1EF7 + pending as u64);
        let requests = random_requests(&mut rng, 4 * (e + 2) + pending, 40);
        let cfg = checkpointed_at(&format!("left-{pending}"), e, &requests);
        let mut daemon = Daemon::recover(cfg.clone()).unwrap().unwrap();
        for (t, server, ids) in &requests[4 * e..] {
            daemon.admit(*t, ServerId(*server), ids.clone()).unwrap();
        }
        let live = daemon.current_state();
        assert_eq!((live.epoch, live.pending.len()), (e as u64 + 2, pending));
        drop(daemon); // a crash: no clean end, no final checkpoint
        assert_eq!(
            DaemonState::load(&cfg.dir).unwrap().unwrap().epoch,
            e as u64
        );

        // The crashed rotation of epoch E+2: its copies, and the torn
        // start of a write after them.
        let old = std::fs::read_to_string(cfg.dir.join(format!("wal-{e}.log"))).unwrap();
        let lines: Vec<&str> = old.split_inclusive('\n').collect();
        let copies = lines[lines.len() - pending..].concat();
        assert!(copies.lines().all(|l| l.starts_with("req ")));
        let leftover = cfg.dir.join(format!("wal-{}.log", e + 2));
        let torn = if pending > 0 { "req 99.5 1 3," } else { "" };
        std::fs::write(&leftover, format!("{copies}{torn}")).unwrap();

        let daemon = Daemon::recover(cfg.clone()).unwrap().unwrap();
        let what = format!("{pending} pending");
        assert_eq!(daemon.summary().replayed, 8 + pending as u64, "{what}");
        assert_eq!(
            daemon.current_state().canonical_json(),
            live.canonical_json(),
            "{what}"
        );
        assert_eq!(
            std::fs::read_to_string(&leftover).unwrap(),
            copies,
            "{what}"
        );
        let left: Vec<u64> = segments(&cfg.dir).iter().map(|s| s.0).collect();
        assert_eq!(left, vec![e as u64 + 2], "{what}");
        assert_eq!(
            DaemonState::load(&cfg.dir).unwrap().unwrap().epoch,
            e as u64 + 2
        );
        std::fs::remove_dir_all(&cfg.dir).ok();
    }
}

/// A checkpoint nested deeper than the parser's limit is a positioned
/// `corrupt checkpoint` error (exit 1), not a stack overflow.
#[test]
fn a_deeply_nested_checkpoint_is_a_positioned_error() {
    let dir = temp_dir("deep");
    let depth = 100_000;
    let text = format!(
        "{{\"version\": {}{}}}\n",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    std::fs::write(checkpoint_path(&dir), text).unwrap();
    let err = DaemonState::load(&dir).unwrap_err();
    assert!(err.contains("at line 1, column 140"), "{err}");
    let out = dpg()
        .args(["serve", "--dir", dir.to_str().unwrap(), "--dump-state"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("corrupt checkpoint") && stderr.contains("nesting deeper than 128 levels"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A 3-item run whose checkpoint then gains statistics for items 7 and 8.
fn out_of_catalog_checkpoint(tag: &str) -> (PathBuf, ServeConfig, String) {
    let dir = temp_dir(tag);
    let mut cfg = ServeConfig::new(dir.clone());
    cfg.quiet = true;
    cfg.epoch_len = 4;
    let mut input = String::from("hello 2 3\n");
    for i in 1..=12 {
        input.push_str(&format!("req {}.0 {} 0,{}\n", i, i % 2, 1 + i % 2));
    }
    serve_stream(cfg.clone(), Cursor::new(input.clone())).unwrap();
    let mut state = DaemonState::load(&dir).unwrap().unwrap();
    let streaming = &mut state.streaming;
    streaming
        .item_counts
        .extend([(ItemId(7), 5.0), (ItemId(8), 5.0)]);
    streaming.pair_counts.push((ItemId(7), ItemId(8), 5.0));
    std::fs::write(checkpoint_path(&dir), state.canonical_json()).unwrap();
    // More requests, so the next settlement would pack the (7, 8) pair.
    for i in 13..=20 {
        input.push_str(&format!("req {}.0 0 0,1\n", i));
    }
    (dir, cfg, input)
}

#[test]
fn a_checkpoint_naming_items_outside_the_catalog_fails_to_load() {
    let (dir, _, _) = out_of_catalog_checkpoint("load");
    let err = DaemonState::load(&dir).unwrap_err();
    assert!(err.contains("corrupt checkpoint"), "{err}");
    assert!(
        err.contains("item 8 outside the catalog of 3 items"),
        "{err}"
    );

    // Pair ids and the placement are checked on their own too.
    let mut state = DaemonState::fresh(2, 3, 1.0);
    state
        .streaming
        .pair_counts
        .push((ItemId(0), ItemId(3), 1.0));
    std::fs::write(checkpoint_path(&dir), state.canonical_json()).unwrap();
    let err = DaemonState::load(&dir).unwrap_err();
    assert!(err.contains("streaming.pair_counts names item 3"), "{err}");
    let mut state = DaemonState::fresh(2, 3, 1.0);
    state.placement_pairs.push((ItemId(1), ItemId(5)));
    std::fs::write(checkpoint_path(&dir), state.canonical_json()).unwrap();
    let err = DaemonState::load(&dir).unwrap_err();
    assert!(err.contains("placement_pairs names item 5"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The open epoch lives in the WAL; a checkpoint that buffers requests
/// would have them silently dropped, so it does not load.
#[test]
fn a_checkpoint_holding_pending_requests_fails_to_load() {
    let dir = temp_dir("pending");
    let mut state = DaemonState::fresh(2, 3, 1.0);
    state.pending.push(PendingReq {
        time: 1.0,
        server: 0,
        items: vec![0, 1],
    });
    std::fs::write(checkpoint_path(&dir), state.canonical_json()).unwrap();
    let err = DaemonState::load(&dir).unwrap_err();
    assert!(
        err.contains("corrupt checkpoint") && err.contains("1 pending requests"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serving_on_a_checkpoint_naming_items_outside_the_catalog_is_an_error() {
    let (dir, cfg, input) = out_of_catalog_checkpoint("serve");
    let err = serve_stream(cfg, Cursor::new(input)).unwrap_err();
    assert!(err.to_string().contains("corrupt checkpoint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
