//! Overlapped settlement leaves no trace in the result. `serve_stream`
//! admits the next epoch's requests while the worker solves the last
//! epoch; a loop of `Daemon::admit` waits for every settlement. On the
//! same stream both end in the same canonical state with the same counts,
//! and both directories recover to that state with equal
//! `checkpoint.json` bytes.
//!
//! The streams are random: 3–100 items, 200–3,000 requests, epochs of 1,
//! 7 and 64 requests at decays 1, 0.9 and 0.05, plus one stream with an
//! injected solver panic.

use std::io::Cursor;
use std::path::PathBuf;

use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::{ItemId, ServerId};
use dp_greedy_suite::serve::checkpoint::checkpoint_path;
use dp_greedy_suite::serve::{serve_stream, Admission, Daemon, ServeConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpg-overlap-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `(time, server, items)` requests.
type Requests = Vec<(f64, u32, Vec<u32>)>;

/// A random stream: fleet and catalog sizes, then requests at increasing
/// times. Each request names an item, often its neighbour too (so pairs
/// pack), and sometimes a random third.
fn random_stream(rng: &mut Rng) -> (u32, u32, Requests) {
    let servers = rng.gen_range(1..=8u32);
    let items = rng.gen_range(3..=100u32);
    let mut t = 0.0;
    let requests = (0..rng.gen_range(200..=3_000usize))
        .map(|_| {
            t += 0.125 * f64::from(rng.gen_range(1..=4u32));
            let a = rng.gen_range(0..items);
            let mut ids = vec![a];
            if rng.gen_bool(0.6) {
                ids.push((a + 1) % items);
            }
            if rng.gen_bool(0.2) {
                ids.push(rng.gen_range(0..items));
            }
            (t, rng.gen_range(0..servers), ids)
        })
        .collect();
    (servers, items, requests)
}

fn frames(servers: u32, items: u32, requests: &[(f64, u32, Vec<u32>)]) -> String {
    let mut text = format!("hello {servers} {items}\n");
    for (t, server, ids) in requests {
        let csv: Vec<String> = ids.iter().map(u32::to_string).collect();
        text.push_str(&format!("req {t:?} {server} {}\n", csv.join(",")));
    }
    text
}

#[test]
fn overlapped_serving_ends_where_waiting_for_every_settlement_does() {
    let mut cases: Vec<(usize, f64, bool)> = Vec::new();
    for epoch_len in [1, 7, 64] {
        for decay in [1.0, 0.9, 0.05] {
            cases.push((epoch_len, decay, false));
        }
    }
    cases.push((7, 0.9, true));
    for (case, &(epoch_len, decay, panic)) in cases.iter().enumerate() {
        let mut rng = Rng::seed_from_u64(0x0E7A + case as u64);
        let (servers, items, requests) = random_stream(&mut rng);
        let what = format!(
            "case {case}: {} requests over {items} items, epochs of {epoch_len}, decay {decay}",
            requests.len()
        );
        let (overlapped, waiting) = (
            temp_dir(&format!("served-{case}")),
            temp_dir(&format!("waited-{case}")),
        );
        let mut cfg = ServeConfig::new(overlapped.clone());
        cfg.quiet = true;
        cfg.epoch_len = epoch_len;
        cfg.decay = decay;
        let epochs = (requests.len() / epoch_len) as u64;
        if panic {
            cfg.inject_panic_epoch = Some(rng.gen_range(0..epochs));
        }

        let (served, summary) =
            serve_stream(cfg.clone(), Cursor::new(frames(servers, items, &requests))).unwrap();
        let mut waiting_cfg = cfg.clone();
        waiting_cfg.dir = waiting.clone();
        let mut daemon = Daemon::fresh(waiting_cfg.clone(), servers, items).unwrap();
        for (t, server, ids) in &requests {
            let ids = ids.iter().map(|&i| ItemId(i)).collect();
            assert_eq!(
                daemon.admit(*t, ServerId(*server), ids).unwrap(),
                Admission::Admitted,
                "{what}"
            );
        }
        let want = daemon.current_state().canonical_json();
        assert_eq!(served.canonical_json(), want, "{what}");
        let waited = daemon.summary();
        let counts = |s: dp_greedy_suite::serve::ServeSummary| {
            (s.admitted, s.epochs_settled, s.placement_refreshes)
        };
        assert_eq!(counts(summary), counts(waited), "{what}");
        assert_eq!(summary.epochs_settled, epochs, "{what}");
        let degraded = cfg.inject_panic_epoch.map_or(vec![], |e| vec![e]);
        assert_eq!(served.degraded_epochs, degraded, "{what}");
        drop(daemon);

        for c in [&cfg, &waiting_cfg] {
            let recovered = Daemon::recover(c.clone()).unwrap().unwrap();
            assert_eq!(
                recovered.current_state().canonical_json(),
                want,
                "{what}: recovering {}",
                c.dir.display()
            );
        }
        assert_eq!(
            std::fs::read(checkpoint_path(&overlapped)).unwrap(),
            std::fs::read(checkpoint_path(&waiting)).unwrap(),
            "{what}: checkpoint.json"
        );
        std::fs::remove_dir_all(&overlapped).ok();
        std::fs::remove_dir_all(&waiting).ok();
    }
}
