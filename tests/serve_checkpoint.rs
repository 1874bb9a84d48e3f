//! The serving daemon's checkpoint, written in one pass and loaded with
//! its catalog checked.
//!
//! * `DaemonState::canonical_json` streams the state through the JSON
//!   writer without building a tree; it must equal the tree rendering
//!   `to_json().to_string_pretty() + "\n"` byte for byte on random states:
//!   decayed statistics, degraded epochs, a non-empty `pending`, placement
//!   pairs, empty vectors and the numbers at the writer's edges.
//! * After every settlement of a live daemon, `checkpoint.json` on disk
//!   equals both `current_state().canonical_json()` and the tree.
//! * A checkpoint naming items outside the handshake's catalog is a
//!   `corrupt checkpoint` error at load and for `serve_stream`, never a
//!   panic at the next settlement.

use std::io::Cursor;
use std::path::{Path, PathBuf};

use dp_greedy_suite::correlation::StreamingCooccurrence;
use dp_greedy_suite::model::json::ToJson;
use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::{ItemId, Request, ServerId};
use dp_greedy_suite::serve::checkpoint::checkpoint_path;
use dp_greedy_suite::serve::{
    serve_stream, Admission, Daemon, DaemonState, PendingReq, ServeConfig, CHECKPOINT_VERSION,
};

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

fn random_state(rng: &mut Rng) -> DaemonState {
    let items = rng.gen_range(1..40u32);
    let decay = [1.0, 0.9, 0.3, 0.05][rng.gen_range(0..4usize)];
    let mut stream = StreamingCooccurrence::new(decay);
    for i in 0..rng.gen_range(0..400usize) {
        let mut ids: Vec<ItemId> = (0..rng.gen_range(1..4u32))
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
        let state = random_state(&mut rng);
        assert_eq!(state.canonical_json(), tree(&state), "case {case}");
    }
    // The empty state: every vector empty, every container `[]`.
    let fresh = DaemonState::fresh(1, 1, 1.0);
    assert_eq!(fresh.canonical_json(), tree(&fresh));
    assert!(fresh.canonical_json().contains("\"pending\": []\n}"));
}

/// Requests over `items` items: mostly one of a few correlated pairs.
fn feed(daemon: &mut Daemon, rng: &mut Rng, items: u32, n: usize, t: &mut f64) {
    for _ in 0..n {
        *t += 0.25;
        let first = rng.gen_range(0..items);
        let mut ids = vec![ItemId(first)];
        if rng.gen_bool(0.7) {
            ids.push(ItemId(first ^ 1));
        }
        let server = ServerId(rng.gen_range(0..3u32));
        assert_eq!(daemon.admit(*t, server, ids).unwrap(), Admission::Admitted);
    }
}

fn assert_checkpoint_is_current(daemon: &Daemon, dir: &Path, what: &str) {
    let on_disk = std::fs::read_to_string(checkpoint_path(dir)).unwrap();
    let state = daemon.current_state();
    assert!(state.pending.is_empty(), "{what}: checkpoints close epochs");
    assert_eq!(on_disk, state.canonical_json(), "{what}: in memory");
    assert_eq!(on_disk, tree(&state), "{what}: tree");
}

#[test]
fn every_checkpoint_on_disk_equals_the_served_state_and_the_tree() {
    for (run, decay) in [1.0, 0.9, 0.05].into_iter().enumerate() {
        let dir = temp_dir(&format!("settle-{run}"));
        let mut cfg = ServeConfig::new(dir.clone());
        cfg.quiet = true;
        cfg.epoch_len = 8;
        cfg.decay = decay;
        cfg.inject_panic_epoch = Some(2);
        let items = 12;
        let mut daemon = Daemon::fresh(cfg, 3, items).unwrap();
        assert_checkpoint_is_current(&daemon, &dir, "fresh");
        let mut rng = Rng::seed_from_u64(0x5E77 + run as u64);
        let mut t = 0.0;
        for epoch in 0..30 {
            feed(&mut daemon, &mut rng, items, 8, &mut t);
            assert_eq!(daemon.summary().epochs_settled, epoch + 1);
            assert_checkpoint_is_current(&daemon, &dir, &format!("decay {decay}, epoch {epoch}"));
        }
        let state = daemon.current_state();
        assert_eq!(state.degraded_epochs, vec![2]);
        assert!(!state.placement_pairs.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
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

#[test]
fn serving_on_a_checkpoint_naming_items_outside_the_catalog_is_an_error() {
    let (dir, cfg, input) = out_of_catalog_checkpoint("serve");
    let err = serve_stream(cfg, Cursor::new(input)).unwrap_err();
    assert!(err.to_string().contains("corrupt checkpoint"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
