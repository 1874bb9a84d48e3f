//! Identity sweep: every `RequestSeq` projection and count, which read the
//! sequence's per-item posting index, equals a plain full scan of the
//! requests — on random sequences with catalogs up to a few hundred
//! items, on empty sequences, for `a == b`, and for item ids outside the
//! universe. The row walk `count_row`, and `pair_spectrum` on top of it,
//! equal the full scan and the `pair_view` partition on catalogs with
//! never-requested items. `dp_greedy_pair`, whose co-requests and
//! per-item event lists come from the posting lists, equals a run on
//! full-scan inputs, and equality, `Debug` and `clone` ignore whether the index
//! exists. Random sequences, empty ones included, survive a JSON round
//! trip.

use dp_greedy_suite::dp_greedy::singleton_greedy::{singleton_greedy, PairItemEvent};
use dp_greedy_suite::dp_greedy::two_phase::{dp_greedy_pair, DpGreedyConfig};
use dp_greedy_suite::model::json::{parse, FromJson, ToJson};
use dp_greedy_suite::model::request::{PairView, SingleItemTrace, TracePoint};
use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::{CostModel, ItemId, PairRow, Request, RequestSeq, RequestSeqBuilder};
use dp_greedy_suite::offline::optimal;
use dp_greedy_suite::trace::stats::{pair_spectrum, PairSpectrumRow};

/// A valid sequence of `n` requests over `k` items, `D_i` of 1–`width`
/// items drawn from a hot range so pairs co-occur.
fn sequence(seed: u64, n: usize, k: u32, width: u32) -> RequestSeq {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = RequestSeqBuilder::new(5, k);
    let mut t = 0.0;
    for _ in 0..n {
        t += 0.01 + rng.gen_f64();
        let base = rng.gen_range(0..k);
        let mut items = vec![base];
        for _ in 0..rng.gen_range(0..width) {
            let near = (base + rng.gen_range(0..8u32)) % k;
            let far = rng.gen_range(0..k);
            let next = if rng.gen_bool(0.7) { near } else { far };
            if !items.contains(&next) {
                items.push(next);
            }
        }
        b = b.push(rng.gen_range(0..5u32), t, items);
    }
    b.build().unwrap()
}

fn point(r: &Request) -> TracePoint {
    TracePoint {
        time: r.time,
        server: r.server,
    }
}

fn scan_trace(seq: &RequestSeq, keep: impl Fn(&Request) -> bool) -> SingleItemTrace {
    SingleItemTrace {
        servers: seq.servers(),
        points: seq
            .requests()
            .iter()
            .filter(|r| keep(r))
            .map(point)
            .collect(),
    }
}

fn scan_pair_view(seq: &RequestSeq, a: ItemId, b: ItemId) -> PairView {
    let mut view = PairView {
        a,
        b,
        both: Vec::new(),
        only_a: Vec::new(),
        only_b: Vec::new(),
    };
    for (i, r) in seq.requests().iter().enumerate() {
        match (r.contains(a), r.contains(b)) {
            (true, true) => view.both.push(i),
            (true, false) => view.only_a.push(i),
            (false, true) => view.only_b.push(i),
            (false, false) => {}
        }
    }
    view
}

/// Every projection and count of `(a, b)` against its full scan.
fn assert_projections_match(seq: &RequestSeq, a: ItemId, b: ItemId, label: &str) {
    let at = format!("{label}, a={a:?}, b={b:?}");
    assert_eq!(
        seq.count_containing(a),
        seq.requests().iter().filter(|r| r.contains(a)).count(),
        "{at}"
    );
    let posting: Vec<usize> = seq.posting_list(a).iter().map(|&i| i as usize).collect();
    let scanned: Vec<usize> = (0..seq.len()).filter(|&i| seq.get(i).contains(a)).collect();
    assert_eq!(posting, scanned, "{at}");
    assert_eq!(
        seq.count_pair(a, b),
        seq.requests()
            .iter()
            .filter(|r| r.contains_both(a, b))
            .count(),
        "{at}"
    );
    assert_eq!(
        seq.item_trace(a),
        scan_trace(seq, |r| r.contains(a)),
        "{at}"
    );
    assert_eq!(seq.pair_view(a, b), scan_pair_view(seq, a, b), "{at}");
    assert_eq!(
        seq.package_trace(a, b),
        scan_trace(seq, |r| r.contains_both(a, b)),
        "{at}"
    );
    assert_eq!(
        seq.union_trace(a, b),
        scan_trace(seq, |r| r.contains(a) || r.contains(b)),
        "{at}"
    );
}

#[test]
fn projections_equal_a_full_scan_on_random_sequences() {
    let shapes = [
        // (n, k, width)
        (1usize, 1u32, 1u32),
        (30, 4, 3),
        (200, 12, 4),
        (600, 60, 6),
        (800, 300, 8),
    ];
    for (case, &(n, k, width)) in shapes.iter().enumerate() {
        let seq = sequence(0x9057 + case as u64, n, k, width);
        let label = format!("seq(n={n}, k={k}, width={width})");
        let mut rng = Rng::seed_from_u64(case as u64);
        let mut pairs: Vec<(u32, u32)> = (0..k.min(12))
            .flat_map(|a| (0..k.min(12)).map(move |b| (a, b)))
            .collect();
        for _ in 0..200 {
            pairs.push((rng.gen_range(0..k), rng.gen_range(0..k)));
        }
        for (a, b) in pairs {
            assert_projections_match(&seq, ItemId(a), ItemId(b), &label);
        }
    }
}

#[test]
fn random_sequences_survive_a_json_round_trip() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(case);
        let n = rng.gen_range(0..=20usize);
        let k = rng.gen_range(1..=4u32);
        let width = rng.gen_range(1..=4u32);
        let seq = sequence(0x750 + case, n, k, width);
        let text = seq.to_json().to_string();
        let back = RequestSeq::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(back, seq, "case {case}: {text}");
    }
}

/// `seq` over a catalog `extra` items wider, which no request names.
fn with_silent_items(seq: RequestSeq, extra: u32) -> RequestSeq {
    let mut b = RequestSeqBuilder::new(seq.servers(), seq.items() + extra);
    for r in seq.requests() {
        b = b.push(r.server, r.time, r.items.iter().map(|i| i.0));
    }
    b.build().unwrap()
}

/// Items 0–4: row 0 visits 4 pair events over its width of 4 and row 3
/// one over its width of 1 (dense at equality), while rows 1 and 2
/// visit fewer events than they have later items (sparse).
fn equality_rows() -> RequestSeq {
    RequestSeqBuilder::new(2, 5)
        .push(0u32, 1.0, [0, 1, 2])
        .push(1u32, 2.0, [0, 3, 4])
        .build()
        .unwrap()
}

/// One scratch walks every row of every sequence below, first in
/// ascending order (each request's cursor moves forward) and then in a
/// shuffled order (cursors past the row's item fall back to a search).
/// The scratch is never reset, so each sequence after the first starts
/// from cursors another sequence left. The sequences include
/// never-requested items and rows on both sides of the dense rule
/// (pair events reaching the row's width `k − a − 1`), one of them at
/// equality. Each count equals the full scan of `(a, b)` for `b > a` and
/// is zero otherwise, the touched list holds each nonzero entry once, in
/// ascending order in a dense row, and the row totals add up to
/// `total_pair_events`.
#[test]
fn row_walks_equal_a_full_scan_and_sum_to_the_pair_events() {
    let shapes = [
        (0usize, 3u32, 2u32),
        (1, 1, 1),
        (60, 9, 4),
        (400, 40, 6),
        (300, 12, 8),
        (50, 300, 2),
    ];
    let random = shapes.iter().enumerate().map(|(case, &(n, k, width))| {
        with_silent_items(sequence(0x20AD + case as u64, n, k, width), 5)
    });
    let mut row = PairRow::default();
    // Rows with pair events below, at and above their width.
    let mut sides = [0usize; 3];
    for (case, seq) in random.chain([equality_rows()]).enumerate() {
        let ascending: Vec<u32> = (0..seq.items()).collect();
        let mut shuffled = ascending.clone();
        Rng::seed_from_u64(case as u64).shuffle(&mut shuffled);
        for order in [ascending, shuffled] {
            let mut events = 0usize;
            for a in order.into_iter().map(ItemId) {
                seq.count_row(a, &mut row);
                let mut touched: Vec<ItemId> = row.touched().to_vec();
                touched.sort();
                touched.dedup();
                assert_eq!(touched.len(), row.touched().len(), "a={a:?}");
                let mut row_events = 0;
                for b in (0..seq.items()).map(ItemId) {
                    let expected = if b > a { seq.count_pair(a, b) } else { 0 };
                    assert_eq!(
                        row.count(b) as usize,
                        expected,
                        "case {case}, a={a:?}, b={b:?}"
                    );
                    assert_eq!(touched.binary_search(&b).is_ok(), expected > 0);
                    row_events += expected;
                }
                let width = (seq.items() - a.0 - 1) as usize;
                if row_events >= width {
                    assert_eq!(row.touched(), touched, "case {case}, dense row {a:?}");
                }
                // The last row's width is 0, at equality in any sequence.
                if width > 0 {
                    sides[(row_events.cmp(&width) as i8 + 1) as usize] += 1;
                }
                events += row_events;
            }
            assert_eq!(events, seq.total_pair_events(), "case {case}");
        }
    }
    assert!(
        sides.iter().all(|&rows| rows > 0),
        "rows below, at, above: {sides:?}"
    );
}

/// `pair_spectrum` counts rows with the walk; every row equals the
/// `pair_view` of its pair, and the order equals the stable sort of the
/// `pair_view` rows listed in `(a, b)` order.
#[test]
fn pair_spectrum_equals_the_pair_view_reference() {
    for (case, &(n, k, width)) in [(0usize, 3u32, 2u32), (80, 10, 4), (500, 30, 6)]
        .iter()
        .enumerate()
    {
        let seq = with_silent_items(sequence(0x5BEC + case as u64, n, k, width), 4);
        let mut reference = Vec::new();
        for a in (0..seq.items()).map(ItemId) {
            for b in (a.0 + 1..seq.items()).map(ItemId) {
                let view = seq.pair_view(a, b);
                reference.push(PairSpectrumRow {
                    a,
                    b,
                    frequency: view.both.len(),
                    jaccard: view.jaccard(),
                });
            }
        }
        reference.sort_by(|x, y| {
            y.jaccard
                .partial_cmp(&x.jaccard)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.a.cmp(&y.a))
        });
        let spectrum = pair_spectrum(&seq);
        assert_eq!(spectrum.len(), reference.len(), "n={n}, k={k}");
        for (got, want) in spectrum.iter().zip(&reference) {
            assert_eq!(
                (got.a, got.b, got.frequency),
                (want.a, want.b, want.frequency)
            );
            assert_eq!(
                got.jaccard.to_bits(),
                want.jaccard.to_bits(),
                "n={n}, k={k}"
            );
        }
    }
}

#[test]
fn a_pair_with_itself_sends_every_hit_to_both() {
    let seq = sequence(7, 300, 20, 4);
    for item in (0..20).map(ItemId) {
        let view = seq.pair_view(item, item);
        assert!(view.only_a.is_empty() && view.only_b.is_empty());
        assert_eq!(view.both.len(), seq.count_containing(item));
        assert_eq!(seq.count_pair(item, item), seq.count_containing(item));
        assert_eq!(seq.package_trace(item, item), seq.item_trace(item));
        assert_eq!(seq.union_trace(item, item), seq.item_trace(item));
        assert_projections_match(&seq, item, item, "self pair");
    }
}

#[test]
fn empty_sequences_and_out_of_range_items_project_to_nothing() {
    let empty = RequestSeqBuilder::new(3, 4).build().unwrap();
    let no_items = RequestSeqBuilder::new(3, 0).build().unwrap();
    let seq = sequence(11, 100, 6, 3);
    for s in [&empty, &no_items, &seq] {
        for (a, b) in [(0, 1), (3, 3), (6, 0), (0, 6), (7, 9), (u32::MAX, 2)] {
            assert_projections_match(s, ItemId(a), ItemId(b), "edge");
        }
        for item in [s.items(), s.items() + 1, u32::MAX].map(ItemId) {
            assert!(s.posting_list(item).is_empty());
            assert_eq!(s.count_containing(item), 0);
            assert!(s.item_trace(item).is_empty());
            let view = s.pair_view(item, ItemId(u32::MAX));
            assert!(view.both.is_empty() && view.only_a.is_empty() && view.only_b.is_empty());
        }
    }
}

#[test]
fn equality_debug_and_clone_ignore_the_index() {
    let built = sequence(3, 150, 30, 5);
    let fresh = sequence(3, 150, 30, 5);
    let before = format!("{built:?}");
    let clone_before = built.clone();
    built.pair_view(ItemId(0), ItemId(1));
    assert_eq!(built, fresh);
    assert_eq!(fresh, built);
    assert_eq!(format!("{built:?}"), before);
    assert_eq!(format!("{built:#?}"), format!("{fresh:#?}"));
    let clone_after = built.clone();
    assert_eq!(clone_after, clone_before);
    assert_eq!(format!("{clone_after:?}"), before);
    // A clone answers every projection like its source.
    for (a, b) in [(0, 1), (2, 9), (29, 29)] {
        let (a, b) = (ItemId(a), ItemId(b));
        assert_eq!(clone_after.pair_view(a, b), built.pair_view(a, b));
        assert_eq!(clone_before.item_trace(a), fresh.item_trace(a));
    }
    assert_ne!(built, sequence(4, 150, 30, 5));
}

/// `dp_greedy_pair` against its inputs built by full scans: the package
/// DP on the scanned co-request trace and the three-arm greedy on each
/// item's scanned event list, compared bit for bit.
#[test]
fn dp_greedy_pair_equals_a_run_on_full_scan_inputs() {
    let config = DpGreedyConfig::new(CostModel::paper_example()).with_theta(0.2);
    for seed in 0..6u64 {
        let seq = sequence(0xD9 + seed, 250, 16, 4);
        for (a, b) in [(0, 1), (2, 3), (1, 7), (5, 5), (0, 15)] {
            let (a, b) = (ItemId(a), ItemId(b));
            let report = dp_greedy_pair(&seq, a, b, &config);
            let co = scan_trace(&seq, |r| r.contains_both(a, b));
            let pkg = optimal(&co, &config.model.scaled_for_package());
            assert_eq!(report.package_cost.to_bits(), pkg.cost.to_bits());
            assert_eq!(report.package_schedule, pkg.schedule);
            let view = scan_pair_view(&seq, a, b);
            assert_eq!(report.accesses, view.count_a() + view.count_b());
            let horizon = if co.is_empty() {
                Some(f64::NEG_INFINITY)
            } else {
                None
            };
            let greedy = &report.members_greedy;
            for (item, partner, outcome) in [(a, b, &greedy[0]), (b, a, &greedy[1])] {
                let events: Vec<PairItemEvent> = seq
                    .requests()
                    .iter()
                    .filter(|r| r.contains(item))
                    .map(|r| PairItemEvent {
                        time: r.time,
                        server: r.server,
                        is_co: r.contains(partner),
                    })
                    .collect();
                let delivery = config.model.package_delivery_cost();
                let expected =
                    singleton_greedy(&events, seq.servers(), &config.model, delivery, horizon);
                assert_eq!(*outcome, expected, "seed {seed}, pair ({a:?}, {b:?})");
                assert_eq!(outcome.cost.to_bits(), expected.cost.to_bits());
            }
        }
    }
}
