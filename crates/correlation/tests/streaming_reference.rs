//! `StreamingCooccurrence` against its reference: the ordered-map
//! implementation it replaced, kept here bit for bit.
//!
//! The reference stores item counts in a `BTreeMap<ItemId, f64>` and pair
//! counts in a `BTreeMap<(ItemId, ItemId), f64>`, so its listings come out
//! in ascending id order by construction. The flat id-indexed rows must
//! reproduce every returned bit: snapshots (the serving daemon's
//! checkpoints pin their bytes), `pairs_above` at every θ, `pairs`, and
//! `count` / `pair_count` / `jaccard` on stored and unobserved pairs. The
//! seeded sweep covers every decay branch (renormalisation included),
//! catalogs of 2–2,000 items with only high ids requested in some,
//! unsorted and repeated request items, JSON round trips in mid-stream,
//! and snapshots whose lists are permuted or repeat keys.

use std::collections::BTreeMap;

use mcs_correlation::{StreamingCooccurrence, StreamingSnapshot};
use mcs_model::json::{parse, FromJson, ToJson};
use mcs_model::rng::Rng;
use mcs_model::{ItemId, Request, ServerId};

/// The ordered-map implementation, as it served the daemon before the
/// flat rows.
#[derive(Clone)]
struct Reference {
    decay: f64,
    scale: f64,
    item_counts: BTreeMap<ItemId, f64>,
    pair_counts: BTreeMap<(ItemId, ItemId), f64>,
    observed: usize,
    /// Times `observe` renormalised.
    renormalised: usize,
}

impl Reference {
    fn new(decay: f64) -> Self {
        Reference {
            decay,
            scale: 1.0,
            item_counts: BTreeMap::new(),
            pair_counts: BTreeMap::new(),
            observed: 0,
            renormalised: 0,
        }
    }

    fn snapshot(&self) -> StreamingSnapshot {
        StreamingSnapshot {
            decay: self.decay,
            scale: self.scale,
            observed: self.observed,
            item_counts: self.item_counts.iter().map(|(&k, &v)| (k, v)).collect(),
            pair_counts: self
                .pair_counts
                .iter()
                .map(|(&(a, b), &v)| (a, b, v))
                .collect(),
        }
    }

    fn from_snapshot(snap: &StreamingSnapshot) -> Result<Self, String> {
        if !(snap.decay > 0.0 && snap.decay <= 1.0) {
            return Err(format!("decay must lie in (0, 1], got {}", snap.decay));
        }
        if !(snap.scale > 0.0 && snap.scale.is_finite()) {
            return Err(format!(
                "scale must be positive and finite, got {}",
                snap.scale
            ));
        }
        if let Some((item, c)) = snap
            .item_counts
            .iter()
            .find(|(_, c)| !c.is_finite())
            .copied()
        {
            return Err(format!("non-finite count {c} for {item}"));
        }
        if let Some(&(a, b, c)) = snap.pair_counts.iter().find(|(_, _, c)| !c.is_finite()) {
            return Err(format!("non-finite count {c} for pair ({a}, {b})"));
        }
        Ok(Reference {
            decay: snap.decay,
            scale: snap.scale,
            item_counts: snap.item_counts.iter().copied().collect(),
            pair_counts: snap
                .pair_counts
                .iter()
                .map(|&(a, b, v)| ((a, b), v))
                .collect(),
            observed: snap.observed,
            renormalised: 0,
        })
    }

    fn observe(&mut self, request: &Request) {
        self.scale *= self.decay;
        if self.scale < 1e-200 {
            let s = self.scale;
            for v in self.item_counts.values_mut() {
                *v *= s;
            }
            for v in self.pair_counts.values_mut() {
                *v *= s;
            }
            self.scale = 1.0;
            self.renormalised += 1;
        }
        let w = 1.0 / self.scale;
        for (i, &a) in request.items.iter().enumerate() {
            *self.item_counts.entry(a).or_insert(0.0) += w;
            for &b in &request.items[i + 1..] {
                *self.pair_counts.entry((a, b)).or_insert(0.0) += w;
            }
        }
        self.observed += 1;
    }

    fn count(&self, item: ItemId) -> f64 {
        self.item_counts.get(&item).copied().unwrap_or(0.0) * self.scale
    }

    fn pair_count(&self, a: ItemId, b: ItemId) -> f64 {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.pair_counts.get(&key).copied().unwrap_or(0.0) * self.scale
    }

    fn jaccard(&self, a: ItemId, b: ItemId) -> f64 {
        if a == b {
            return 1.0;
        }
        similarity(self.pair_count(a, b), self.count(a), self.count(b))
    }

    fn pairs_above(&self, theta: f64) -> Vec<(ItemId, ItemId, f64)> {
        let table_len = self
            .item_counts
            .last_key_value()
            .map_or(0, |(id, _)| id.index() + 1);
        let mut counts = vec![0.0; table_len];
        for (&id, &stored) in &self.item_counts {
            counts[id.index()] = stored * self.scale;
        }
        let count = |id: ItemId| counts.get(id.index()).copied().unwrap_or(0.0);
        self.pair_counts
            .iter()
            .filter_map(|(&(a, b), &stored)| {
                let j = if a < b {
                    similarity(stored * self.scale, count(a), count(b))
                } else {
                    self.jaccard(a, b)
                };
                (j > theta).then_some((a, b, j))
            })
            .collect()
    }

    fn pairs(&self) -> Vec<(ItemId, ItemId, f64)> {
        let mut out = self.pairs_above(f64::NEG_INFINITY);
        out.sort_by(|x, y| y.2.total_cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        out
    }
}

fn similarity(both: f64, count_a: f64, count_b: f64) -> f64 {
    let union = count_a + count_b - both;
    if union <= 0.0 {
        0.0
    } else {
        (both / union).clamp(0.0, 1.0)
    }
}

const DECAYS: [f64; 4] = [1.0, 0.9, 0.5, 0.05];
const THETAS: [f64; 7] = [f64::NEG_INFINITY, -0.5, 0.0, 0.3, 0.99, 1.0, f64::NAN];

type SnapshotBits = (
    u64,
    u64,
    usize,
    Vec<(ItemId, u64)>,
    Vec<(ItemId, ItemId, u64)>,
);

fn snapshot_bits(s: &StreamingSnapshot) -> SnapshotBits {
    (
        s.decay.to_bits(),
        s.scale.to_bits(),
        s.observed,
        s.item_counts
            .iter()
            .map(|&(i, c)| (i, c.to_bits()))
            .collect(),
        s.pair_counts
            .iter()
            .map(|&(a, b, c)| (a, b, c.to_bits()))
            .collect(),
    )
}

fn pair_bits(pairs: &[(ItemId, ItemId, f64)]) -> Vec<(ItemId, ItemId, u64)> {
    pairs.iter().map(|&(a, b, j)| (a, b, j.to_bits())).collect()
}

/// Every listing and, on `rng`-sampled ids below `k + 3` plus the first
/// 256 stored keys both ways round, every point query: equal to the last
/// bit.
fn assert_agree(
    flat: &StreamingCooccurrence,
    reference: &Reference,
    k: u32,
    rng: &mut Rng,
    at: &str,
) {
    let snap = reference.snapshot();
    assert_eq!(
        snapshot_bits(&flat.snapshot()),
        snapshot_bits(&snap),
        "{at}: snapshot"
    );
    assert_eq!(flat.observed(), reference.observed, "{at}: observed");
    assert_eq!(
        flat.stored_pairs(),
        snap.pair_counts.len(),
        "{at}: stored pairs"
    );
    for theta in THETAS {
        assert_eq!(
            pair_bits(&flat.pairs_above(theta)),
            pair_bits(&reference.pairs_above(theta)),
            "{at}: pairs_above({theta})"
        );
    }
    assert_eq!(
        pair_bits(&flat.pairs()),
        pair_bits(&reference.pairs()),
        "{at}: pairs()"
    );
    let stored = snap
        .pair_counts
        .iter()
        .flat_map(|&(a, b, _)| [(a, b), (b, a)]);
    let sampled: Vec<(ItemId, ItemId)> = (0..64)
        .map(|_| {
            (
                ItemId(rng.gen_range(0..k + 3)),
                ItemId(rng.gen_range(0..k + 3)),
            )
        })
        .collect();
    for (a, b) in stored.take(256).chain(sampled) {
        assert_eq!(
            flat.count(a).to_bits(),
            reference.count(a).to_bits(),
            "{at}: count({a})"
        );
        assert_eq!(
            flat.pair_count(a, b).to_bits(),
            reference.pair_count(a, b).to_bits(),
            "{at}: pair_count({a}, {b})"
        );
        assert_eq!(
            flat.jaccard(a, b).to_bits(),
            reference.jaccard(a, b).to_bits(),
            "{at}: jaccard({a}, {b})"
        );
    }
}

/// A request over items `lo..k`: mostly near neighbours so similarities
/// spread over `[0, 1]`; the `i % 7 == 3` request lists its items in
/// drawn order with repeats, every other one sorted and distinct.
fn request(rng: &mut Rng, i: usize, lo: u32, k: u32) -> Request {
    let span = k - lo;
    let first = lo + rng.gen_range(0..span);
    let mut items = vec![ItemId(first)];
    for _ in 0..rng.gen_range(0..6u32) {
        let next = if rng.gen_bool(0.7) {
            ItemId(lo + (first - lo + rng.gen_range(0..4u32)) % span)
        } else {
            ItemId(lo + rng.gen_range(0..span))
        };
        if i % 7 == 3 || !items.contains(&next) {
            items.push(next);
        }
    }
    if i % 7 != 3 {
        items.sort_unstable();
    }
    Request {
        server: ServerId(0),
        time: i as f64 + 1.0,
        items,
    }
}

/// `snap` with both lists shuffled and some entries listed again with
/// another count after their first listing: what `from_snapshot` must
/// read as the last count listed for each key.
fn permuted_with_repeats(snap: &StreamingSnapshot, rng: &mut Rng) -> StreamingSnapshot {
    let mut out = snap.clone();
    rng.shuffle(&mut out.item_counts);
    rng.shuffle(&mut out.pair_counts);
    for _ in 0..4 {
        if let Some(&(i, c)) = rng.choose(&snap.item_counts) {
            out.item_counts.push((i, c * 0.5 + 1.0));
        }
        if let Some(&(a, b, c)) = rng.choose(&snap.pair_counts) {
            out.pair_counts.push((a, b, c * 0.25 + 0.5));
        }
    }
    out
}

#[test]
fn flat_rows_equal_the_ordered_map_reference_bit_for_bit() {
    let mut renormalised = [false; 4];
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_F1A7 + case);
        let which = (case % 4) as usize;
        let decay = DECAYS[which];
        let k = match case % 3 {
            0 => rng.gen_range(2..=12u32),
            1 => rng.gen_range(13..=200u32),
            _ => rng.gen_range(201..=2000u32),
        };
        // Some catalogs see only their highest ids.
        let lo = if case % 5 == 1 {
            k - rng.gen_range(1..=k.min(9))
        } else {
            0
        };
        // Long enough at 0.9 to reach the renormalisation (~4,372 requests).
        let n = if decay == 0.9 && case % 8 == 1 {
            rng.gen_range(4_500..5_000usize)
        } else {
            rng.gen_range(0..900usize)
        };
        let chunk = (n / 6).max(1);
        let at = |i: usize| format!("case {case} (decay {decay}, k {k}, lo {lo}) after {i}");

        let mut flat = StreamingCooccurrence::new(decay);
        let mut reference = Reference::new(decay);
        let mut reference_renormalised = 0;
        for i in 0..n {
            let r = request(&mut rng, i, lo, k);
            flat.observe(&r);
            reference.observe(&r);
            if (i + 1) % chunk != 0 {
                continue;
            }
            assert_agree(&flat, &reference, k, &mut rng, &at(i + 1));
            match (i + 1) / chunk {
                // Mid-stream, through the checkpoint format.
                2 => {
                    let text = flat.snapshot().to_json().to_string_pretty();
                    let snap = StreamingSnapshot::from_json(&parse(&text).unwrap()).unwrap();
                    flat = StreamingCooccurrence::from_snapshot(&snap).unwrap();
                    assert_agree(&flat, &reference, k, &mut rng, &at(i + 1));
                }
                // Both rebuilt from a shuffled snapshot that repeats keys.
                4 => {
                    let snap = permuted_with_repeats(&reference.snapshot(), &mut rng);
                    flat = StreamingCooccurrence::from_snapshot(&snap).unwrap();
                    reference_renormalised += reference.renormalised;
                    reference = Reference::from_snapshot(&snap).unwrap();
                    assert_agree(&flat, &reference, k, &mut rng, &at(i + 1));
                }
                _ => {}
            }
        }
        assert_agree(&flat, &reference, k, &mut rng, &at(n));
        renormalised[which] |= reference_renormalised + reference.renormalised > 0;
    }
    assert_eq!(
        renormalised,
        [false, true, true, true],
        "renormalisation reached at decays {DECAYS:?}"
    );
}

/// Snapshots the stream never writes: ids with no item count, pairs whose
/// first id is the larger, keys listed twice, empty lists, and the
/// rejected ones, with the reference's error text.
#[test]
fn from_snapshot_reads_and_rejects_what_the_reference_does() {
    let mut rng = Rng::seed_from_u64(0xF00D);
    let item = |i: u32, c: f64| (ItemId(i), c);
    let pair = |a: u32, b: u32, c: f64| (ItemId(a), ItemId(b), c);
    let odd = StreamingSnapshot {
        decay: 0.5,
        scale: 3.0e-150,
        observed: 7,
        item_counts: vec![item(9, 2.0), item(3, -0.0), item(9, 5.0), item(0, 0.0)],
        pair_counts: vec![
            pair(4, 2, 1.5),
            pair(0, 7, 2.0),
            pair(4, 4, 0.25),
            pair(0, 7, 3.0),
            pair(1_000, 1, 1.0),
            pair(0, 3, -2.0),
        ],
    };
    for snap in [odd.clone(), StreamingCooccurrence::new(1.0).snapshot()] {
        let flat = StreamingCooccurrence::from_snapshot(&snap).unwrap();
        let reference = Reference::from_snapshot(&snap).unwrap();
        assert_agree(&flat, &reference, 1_001, &mut rng, "odd snapshot");
    }
    for bad in [
        StreamingSnapshot {
            decay: 0.0,
            ..odd.clone()
        },
        StreamingSnapshot {
            decay: 1.5,
            ..odd.clone()
        },
        StreamingSnapshot {
            scale: 0.0,
            ..odd.clone()
        },
        StreamingSnapshot {
            scale: f64::INFINITY,
            ..odd.clone()
        },
        StreamingSnapshot {
            item_counts: vec![item(2, f64::NAN)],
            ..odd.clone()
        },
        StreamingSnapshot {
            pair_counts: vec![pair(2, 3, 1.0), pair(0, 1, f64::NEG_INFINITY)],
            ..odd.clone()
        },
    ] {
        assert_eq!(
            StreamingCooccurrence::from_snapshot(&bad).unwrap_err(),
            Reference::from_snapshot(&bad).err().unwrap()
        );
    }
}
