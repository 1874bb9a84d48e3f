//! Streaming co-occurrence with exponential decay — Phase 1 for on-line
//! and drift-prone settings.
//!
//! The batch [`crate::CoOccurrence`] weights the whole history equally; a
//! drifting workload needs recency. This structure maintains decayed
//! counts: on each observed request every stored count is implicitly
//! multiplied by `decay^(Δ requests)`, applied lazily through a global
//! scale factor, so a request never walks the stored counts.
//!
//! # Storage and costs
//!
//! The counts live in flat storage indexed by item id: a stored count per
//! id, and per first item `a` one row of `(b, stored count)` entries for
//! the stored keys `(a, b)`, sorted by `b`. Memory is `O(max id + P)` for
//! `P` stored pairs. With `r` the longest row:
//!
//! * [`StreamingCooccurrence::observe`] of a request `D` is `O(|D|)` item
//!   updates plus `O(|D|² log r)` pair updates, each a binary search of its
//!   row; a pair seen for the first time is inserted into its row, which
//!   shifts the entries after it. Every `scale < 1e-200` (about every
//!   `200 / log10(1/decay)` requests) the stored counts are renormalised
//!   in one `O(max id + P)` pass.
//! * [`StreamingCooccurrence::count`] is `O(1)`;
//!   [`StreamingCooccurrence::pair_count`] and
//!   [`StreamingCooccurrence::jaccard`] are `O(log r)`.
//! * [`StreamingCooccurrence::pairs_above`] walks the rows once,
//!   `O(max id + P)` with no search per pair, keeping only the pairs that
//!   can pass a `J > θ` gate. That is the placement refresh the serving
//!   daemon and `online_dpg` run at every epoch.
//!
//! # Snapshot order
//!
//! Rows are visited in ascending `a` and each is sorted by `b`, so
//! [`StreamingCooccurrence::snapshot`] lists items and pairs in ascending
//! id order without a sort: the order the serving daemon's checkpoints
//! pin byte for byte.
//!
//! With `decay = 1` the statistics equal the batch counts exactly; the
//! tests assert both that identity and the drift-tracking behaviour.

use mcs_model::{ItemId, Request};

/// A deterministic, serializable image of a [`StreamingCooccurrence`].
///
/// Counts are listed in ascending id order (the order they are stored
/// in), and every float is carried verbatim — restoring a
/// snapshot reproduces the source instance *bit for bit*: `jaccard`,
/// `count`, and `pair_count` return identical bits before and after a
/// round-trip, including through the JSON layer (whose shortest-
/// round-trip float writer is exact). This is what makes the serving
/// daemon's checkpoint/recovery invariant possible (see `mcs-serve`).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingSnapshot {
    /// Per-request decay factor in `(0, 1]`.
    pub decay: f64,
    /// The lazy global scale at snapshot time.
    pub scale: f64,
    /// Requests observed.
    pub observed: usize,
    /// `(item, stored count)` ascending by item.
    pub item_counts: Vec<(ItemId, f64)>,
    /// `((a, b), stored count)` with `a <= b`, ascending by `(a, b)`.
    pub pair_counts: Vec<(ItemId, ItemId, f64)>,
}

mcs_model::impl_json!(StreamingSnapshot {
    decay,
    scale,
    observed,
    item_counts,
    pair_counts
});

/// One first item's stored pairs: partners ascending, and the stored count
/// of each. Searches read only the partners.
#[derive(Debug, Clone, Default)]
struct Row {
    partners: Vec<ItemId>,
    counts: Vec<f64>,
}

/// Exponentially decayed co-occurrence statistics.
#[derive(Debug, Clone)]
pub struct StreamingCooccurrence {
    /// Per-request decay factor in `(0, 1]`.
    decay: f64,
    /// Global scale: stored values are true values divided by `scale`, so
    /// decaying everything is one multiplication of `scale`.
    scale: f64,
    /// Stored count of each item id; `None` for an id never observed.
    item_counts: Vec<Option<f64>>,
    /// Row `a` holds the stored keys `(a, b)`.
    rows: Vec<Row>,
    /// Entries across all rows.
    stored_pairs: usize,
    observed: usize,
}

impl StreamingCooccurrence {
    /// Creates an empty stream with the given per-request decay.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < decay <= 1`.
    pub fn new(decay: f64) -> Self {
        assert!(
            decay > 0.0 && decay <= 1.0,
            "decay must lie in (0, 1], got {decay}"
        );
        StreamingCooccurrence {
            decay,
            scale: 1.0,
            item_counts: Vec::new(),
            rows: Vec::new(),
            stored_pairs: 0,
            observed: 0,
        }
    }

    /// Number of requests observed.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Number of stored pair keys: the size that [`Self::pairs_above`]
    /// and renormalisation walk, and that a snapshot lists. `O(1)`.
    pub fn stored_pairs(&self) -> usize {
        self.stored_pairs
    }

    /// Captures the full state as a deterministic, serializable
    /// [`StreamingSnapshot`]. Restoring it with [`Self::from_snapshot`]
    /// yields an instance whose every query agrees bit for bit.
    pub fn snapshot(&self) -> StreamingSnapshot {
        let mut pair_counts = Vec::with_capacity(self.stored_pairs);
        for (a, row) in self.rows.iter().enumerate() {
            pair_counts.extend(row.entries().map(|(b, c)| (item(a), b, c)));
        }
        StreamingSnapshot {
            decay: self.decay,
            scale: self.scale,
            observed: self.observed,
            item_counts: self
                .item_counts
                .iter()
                .enumerate()
                .filter_map(|(id, c)| c.map(|c| (item(id), c)))
                .collect(),
            pair_counts,
        }
    }

    /// Rebuilds an instance from a snapshot. The lists may come in any
    /// order; for a key listed more than once, the last count wins.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose `decay` lies outside `(0, 1]`, whose
    /// `scale` is not a positive finite number, or whose counts are
    /// non-finite — the states [`Self::observe`] can never produce.
    pub fn from_snapshot(snap: &StreamingSnapshot) -> Result<Self, String> {
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
        let mut stream = StreamingCooccurrence {
            decay: snap.decay,
            scale: snap.scale,
            item_counts: Vec::new(),
            rows: Vec::new(),
            stored_pairs: 0,
            observed: snap.observed,
        };
        for &(id, c) in &snap.item_counts {
            *stream.item_slot(id) = Some(c);
        }
        let mut listed: Vec<Vec<(ItemId, f64)>> = Vec::new();
        for &(a, b, c) in &snap.pair_counts {
            if a.index() >= listed.len() {
                listed.resize_with(a.index() + 1, Vec::new);
            }
            listed[a.index()].push((b, c));
        }
        stream.rows = listed
            .into_iter()
            .map(|mut entries| {
                // A snapshot lists each row in order, which the stable sort
                // checks in one pass. Of a repeated key's entries, which
                // the sort leaves in list order, the last one is kept.
                entries.sort_by_key(|&(b, _)| b);
                entries.dedup_by(|later, kept| {
                    let repeated = later.0 == kept.0;
                    if repeated {
                        kept.1 = later.1;
                    }
                    repeated
                });
                stream.stored_pairs += entries.len();
                let (partners, counts) = entries.into_iter().unzip();
                Row { partners, counts }
            })
            .collect();
        Ok(stream)
    }

    /// Feeds one request.
    pub fn observe(&mut self, request: &Request) {
        // Lazy decay: past counts shrink by `decay`; new increments enter
        // at weight 1, i.e. stored as 1/scale after the scale update.
        self.scale *= self.decay;
        // Renormalise occasionally to avoid underflow on long streams.
        if self.scale < 1e-200 {
            let s = self.scale;
            for v in self.item_counts.iter_mut().flatten() {
                *v *= s;
            }
            for v in self.rows.iter_mut().flat_map(|row| &mut row.counts) {
                *v *= s;
            }
            self.scale = 1.0;
        }
        let w = 1.0 / self.scale;
        for (i, &a) in request.items.iter().enumerate() {
            *self.item_slot(a).get_or_insert(0.0) += w;
            let partners = &request.items[i + 1..];
            if partners.is_empty() {
                continue;
            }
            // Keys are stored as listed, `(a, b)` for `b` after `a`, so a
            // request with unsorted or repeated items stores keys with
            // `a >= b` as their own entries.
            if a.index() >= self.rows.len() {
                self.rows.resize_with(a.index() + 1, Row::default);
            }
            let row = &mut self.rows[a.index()];
            for &b in partners {
                let at = match row.partners.binary_search(&b) {
                    Ok(at) => at,
                    Err(at) => {
                        row.partners.insert(at, b);
                        row.counts.insert(at, 0.0);
                        self.stored_pairs += 1;
                        at
                    }
                };
                row.counts[at] += w;
            }
        }
        self.observed += 1;
    }

    /// Decayed `|d_i|`.
    pub fn count(&self, item: ItemId) -> f64 {
        self.item_counts
            .get(item.index())
            .copied()
            .flatten()
            .unwrap_or(0.0)
            * self.scale
    }

    /// Decayed `|(d_i, d_j)|` (symmetric).
    pub fn pair_count(&self, a: ItemId, b: ItemId) -> f64 {
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let stored = self.rows.get(a.index()).and_then(|row| {
            let at = row.partners.binary_search(&b).ok()?;
            Some(row.counts[at])
        });
        stored.unwrap_or(0.0) * self.scale
    }

    /// Decayed Jaccard similarity per Eq. (5), clamped to `[0, 1]`.
    ///
    /// The clamp is a correctness guard, not cosmetics: the decayed
    /// counts are float sums, and when an item almost always co-occurs
    /// with its partner the union `|d_a| + |d_b| − |(d_a, d_b)|`
    /// cancels almost to `both` — rounding can then leave
    /// `union < both`, i.e. J > 1, which would spuriously pass any
    /// `J > θ` gate in [`crate::matching::greedy_matching_from_pairs`].
    pub fn jaccard(&self, a: ItemId, b: ItemId) -> f64 {
        if a == b {
            return 1.0;
        }
        similarity(self.pair_count(a, b), self.count(a), self.count(b))
    }

    /// Every stored pair whose similarity is strictly above `theta`, as
    /// `(a, b, J)` in ascending `(a, b)` order — the only pairs a `J > θ`
    /// matching can accept, so this list can feed
    /// [`crate::matching::greedy_matching_from_pairs`] in place of
    /// [`Self::pairs`]. Each `J` has the bits [`Self::jaccard`] returns,
    /// and NaN (possible only on degenerate float states) never passes.
    ///
    /// One walk over the rows against a table of decayed item counts:
    /// `O(max id + P)`, with no search per pair.
    pub fn pairs_above(&self, theta: f64) -> Vec<(ItemId, ItemId, f64)> {
        let counts: Vec<f64> = self
            .item_counts
            .iter()
            .map(|c| c.unwrap_or(0.0) * self.scale)
            .collect();
        let count = |id: ItemId| counts.get(id.index()).copied().unwrap_or(0.0);
        let mut out = Vec::new();
        for (a, row) in self.rows.iter().enumerate() {
            let a = item(a);
            let count_a = count(a);
            for (b, stored) in row.entries() {
                // `observe` stores `a < b` for sorted requests; any other
                // key (a request built with unsorted or repeated items)
                // takes the general path, which normalises it as
                // `jaccard` does.
                let j = if a < b {
                    similarity(stored * self.scale, count_a, count(b))
                } else {
                    self.jaccard(a, b)
                };
                if j > theta {
                    out.push((a, b, j));
                }
            }
        }
        out
    }

    /// All pairs with positive decayed co-occurrence, with similarities,
    /// sorted by descending similarity then ascending ids: the
    /// enumeration of [`Self::pairs_above`] at `θ = −∞`. Non-finite
    /// similarities (possible only on degenerate float states) are
    /// dropped so the ordering is total and deterministic.
    pub fn pairs(&self) -> Vec<(ItemId, ItemId, f64)> {
        let mut out = self.pairs_above(f64::NEG_INFINITY);
        out.sort_by(|x, y| y.2.total_cmp(&x.2).then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        out
    }

    /// The stored count of `id`, growing the table to hold it.
    fn item_slot(&mut self, id: ItemId) -> &mut Option<f64> {
        if id.index() >= self.item_counts.len() {
            self.item_counts.resize(id.index() + 1, None);
        }
        &mut self.item_counts[id.index()]
    }
}

impl Row {
    /// `(partner, stored count)`, ascending by partner.
    fn entries(&self) -> impl Iterator<Item = (ItemId, f64)> + '_ {
        self.partners
            .iter()
            .copied()
            .zip(self.counts.iter().copied())
    }
}

/// The id of a table index.
fn item(index: usize) -> ItemId {
    ItemId(u32::try_from(index).expect("every table is sized by a u32 id"))
}

/// Eq. (5) on decayed counts, clamped to `[0, 1]` (see
/// [`StreamingCooccurrence::jaccard`] for why the clamp is needed).
fn similarity(both: f64, count_a: f64, count_b: f64) -> f64 {
    let union = count_a + count_b - both;
    if union <= 0.0 {
        0.0
    } else {
        (both / union).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::CoOccurrence;
    use mcs_model::{approx_eq, RequestSeqBuilder};

    #[test]
    fn no_decay_matches_batch_counts() {
        let seq = RequestSeqBuilder::new(2, 3)
            .push(0u32, 1.0, [0, 1])
            .push(1u32, 2.0, [1, 2])
            .push(0u32, 3.0, [0, 1, 2])
            .push(1u32, 4.0, [0])
            .build()
            .unwrap();
        let mut stream = StreamingCooccurrence::new(1.0);
        for r in seq.requests() {
            stream.observe(r);
        }
        let batch = CoOccurrence::from_sequence(&seq);
        for i in 0..3u32 {
            assert!(approx_eq(
                stream.count(ItemId(i)),
                batch.count(ItemId(i)) as f64
            ));
            for j in (i + 1)..3u32 {
                assert!(approx_eq(
                    stream.pair_count(ItemId(i), ItemId(j)),
                    batch.pair_count(ItemId(i), ItemId(j)) as f64
                ));
                assert!(approx_eq(
                    stream.jaccard(ItemId(i), ItemId(j)),
                    batch.jaccard(ItemId(i), ItemId(j))
                ));
            }
        }
        assert_eq!(stream.observed(), 4);
    }

    #[test]
    fn decay_tracks_drift() {
        // 50 requests pairing (0,1), then 50 pairing (0,2).
        let mut b = RequestSeqBuilder::new(1, 3);
        let mut t = 0.0;
        for i in 0..100 {
            t += 1.0;
            b = b.push(0u32, t, if i < 50 { [0u32, 1] } else { [0u32, 2] });
        }
        let seq = b.build().unwrap();
        let mut stream = StreamingCooccurrence::new(0.9);
        for r in seq.requests() {
            stream.observe(r);
        }
        // Recent partner dominates under decay...
        assert!(
            stream.jaccard(ItemId(0), ItemId(2)) > 0.8,
            "recent pair J = {}",
            stream.jaccard(ItemId(0), ItemId(2))
        );
        assert!(
            stream.jaccard(ItemId(0), ItemId(1)) < 0.1,
            "stale pair J = {}",
            stream.jaccard(ItemId(0), ItemId(1))
        );
        // ...whereas the batch view is split roughly 50/50.
        let batch = CoOccurrence::from_sequence(&seq);
        assert!(batch.jaccard(ItemId(0), ItemId(1)) > 0.3);
        assert!(batch.jaccard(ItemId(0), ItemId(2)) > 0.3);
    }

    #[test]
    fn long_streams_do_not_underflow() {
        let seq = RequestSeqBuilder::new(1, 2)
            .push(0u32, 1.0, [0, 1])
            .build()
            .unwrap();
        let r = &seq.requests()[0];
        let mut stream = StreamingCooccurrence::new(0.5);
        for _ in 0..10_000 {
            stream.observe(r);
        }
        let j = stream.jaccard(ItemId(0), ItemId(1));
        assert!(j.is_finite());
        assert!(
            approx_eq(j, 1.0),
            "constant pair must stay at J = 1, got {j}"
        );
    }

    /// Property test: on random decayed streams every similarity must lie
    /// in `[0, 1]`. Without the clamp in `jaccard` this fails — decayed
    /// float counts can cancel so that `both > union` for pairs that
    /// almost always co-occur.
    #[test]
    fn jaccard_stays_within_unit_interval_on_random_decayed_streams() {
        use mcs_model::rng::Rng;
        for case in 0..60u64 {
            let mut rng = Rng::seed_from_u64(0x01AC_CA4D + case);
            let decay = match case % 3 {
                0 => 1.0,
                1 => 0.5 + rng.gen_f64() * 0.5,
                _ => 0.01 + rng.gen_f64() * 0.2,
            };
            let k = rng.gen_range(2u32..=6);
            let n = rng.gen_range(20usize..=400);
            let mut stream = StreamingCooccurrence::new(decay);
            let mut b = RequestSeqBuilder::new(1, k);
            let mut t = 0.0;
            for _ in 0..n {
                t += 0.25;
                let first = rng.gen_range(0u32..k);
                let mut items = vec![first];
                // Heavily correlated partner to stress the cancellation.
                if rng.gen_bool(0.9) {
                    items.push((first + 1) % k);
                }
                b = b.push(0u32, t, items);
            }
            let seq = b.build().unwrap();
            for r in seq.requests() {
                stream.observe(r);
            }
            for i in 0..k {
                for j in 0..k {
                    let jac = stream.jaccard(ItemId(i), ItemId(j));
                    assert!(
                        (0.0..=1.0).contains(&jac),
                        "case {case} (decay {decay}): J({i},{j}) = {jac}"
                    );
                }
            }
            for (a, b, jac) in stream.pairs() {
                assert!(
                    jac.is_finite() && (0.0..=1.0).contains(&jac),
                    "case {case}: listed J({a:?},{b:?}) = {jac}"
                );
            }
        }
    }

    /// Forces the `scale < 1e-200` renormalisation branch in `observe`
    /// (decay 0.1 underflows the lazy scale after ~200 requests) and
    /// checks the stored counts stay finite and equal the directly
    /// computed decayed sums within tolerance.
    #[test]
    fn underflow_renormalisation_preserves_decayed_counts() {
        let decay = 0.1;
        let n = 520; // three renormalisations deep (0.1^520 vs 1e-200)
        let mut b = RequestSeqBuilder::new(1, 3);
        let mut t = 0.0;
        for i in 0..n {
            t += 1.0;
            // Item 0 in every request; item 1 in every other; item 2 never.
            if i % 2 == 0 {
                b = b.push(0u32, t, [0u32, 1]);
            } else {
                b = b.push(0u32, t, [0u32]);
            }
        }
        let seq = b.build().unwrap();
        let mut stream = StreamingCooccurrence::new(decay);
        // Reference decayed counts, computed eagerly (no lazy scale).
        let (mut ref0, mut ref1, mut ref01) = (0.0f64, 0.0, 0.0);
        for r in seq.requests() {
            ref0 = ref0 * decay + 1.0;
            let has1 = r.items.len() == 2;
            ref1 = ref1 * decay + if has1 { 1.0 } else { 0.0 };
            ref01 = ref01 * decay + if has1 { 1.0 } else { 0.0 };
            stream.observe(r);
        }
        let c0 = stream.count(ItemId(0));
        let c1 = stream.count(ItemId(1));
        let p01 = stream.pair_count(ItemId(0), ItemId(1));
        assert!(c0.is_finite() && c1.is_finite() && p01.is_finite());
        assert!((c0 - ref0).abs() < 1e-9, "count0 {c0} vs {ref0}");
        assert!((c1 - ref1).abs() < 1e-9, "count1 {c1} vs {ref1}");
        assert!((p01 - ref01).abs() < 1e-9, "pair {p01} vs {ref01}");
        assert_eq!(stream.count(ItemId(2)), 0.0);
        let j = stream.jaccard(ItemId(0), ItemId(1));
        assert!((0.0..=1.0).contains(&j), "J = {j}");
        assert_eq!(stream.observed(), n);
    }

    #[test]
    fn pairs_listing_is_sorted() {
        let seq = RequestSeqBuilder::new(1, 3)
            .push(0u32, 1.0, [0, 1])
            .push(0u32, 2.0, [0, 1])
            .push(0u32, 3.0, [1, 2])
            .build()
            .unwrap();
        let mut stream = StreamingCooccurrence::new(1.0);
        for r in seq.requests() {
            stream.observe(r);
        }
        let pairs = stream.pairs();
        assert_eq!(pairs.len(), 2);
        assert!(pairs[0].2 >= pairs[1].2);
        assert_eq!((pairs[0].0, pairs[0].1), (ItemId(0), ItemId(1)));
    }

    #[test]
    #[should_panic(expected = "decay must lie")]
    fn zero_decay_is_rejected() {
        let _ = StreamingCooccurrence::new(0.0);
    }

    /// Property test (satellite of the serving-daemon PR): snapshot →
    /// JSON → restore must reproduce the never-serialized instance *bit
    /// for bit* on random decayed streams — the recovery invariant the
    /// `mcs-serve` checkpoints rely on. Checked both at rest (every
    /// `jaccard`/`count` identical to the last bit) and in motion (both
    /// instances keep agreeing after observing a further shared suffix).
    #[test]
    fn checkpoint_round_trip_is_bit_identical_on_random_streams() {
        use mcs_model::json::{parse, FromJson, ToJson};
        use mcs_model::rng::Rng;
        for case in 0..40u64 {
            let mut rng = Rng::seed_from_u64(0xC4EC_4001 + case);
            let decay = match case % 3 {
                0 => 1.0,
                1 => 0.5 + rng.gen_f64() * 0.5,
                _ => 0.05 + rng.gen_f64() * 0.3, // deep decay exercises `scale`
            };
            let k = rng.gen_range(2u32..=8);
            let n = rng.gen_range(10usize..=300);
            let mut b = RequestSeqBuilder::new(1, k);
            let mut t = 0.0;
            for _ in 0..n + 20 {
                t += 0.5;
                let first = rng.gen_range(0u32..k);
                let mut items = vec![first];
                if rng.gen_bool(0.6) {
                    items.push((first + 1 + rng.gen_range(0u32..k - 1)) % k);
                    items.dedup();
                }
                b = b.push(0u32, t, items);
            }
            let seq = b.build().unwrap();
            let (prefix, suffix) = seq.requests().split_at(n);

            let mut live = StreamingCooccurrence::new(decay);
            for r in prefix {
                live.observe(r);
            }
            let text = live.snapshot().to_json().to_string_pretty();
            let snap = StreamingSnapshot::from_json(&parse(&text).unwrap()).unwrap();
            let mut restored = StreamingCooccurrence::from_snapshot(&snap).unwrap();

            let assert_bitwise_equal =
                |a: &StreamingCooccurrence, b: &StreamingCooccurrence, when: &str| {
                    assert_eq!(a.observed(), b.observed(), "case {case} {when}");
                    for i in 0..k {
                        assert_eq!(
                            a.count(ItemId(i)).to_bits(),
                            b.count(ItemId(i)).to_bits(),
                            "case {case} {when}: count({i})"
                        );
                        for j in 0..k {
                            assert_eq!(
                                a.jaccard(ItemId(i), ItemId(j)).to_bits(),
                                b.jaccard(ItemId(i), ItemId(j)).to_bits(),
                                "case {case} {when}: J({i},{j})"
                            );
                        }
                    }
                    assert_eq!(a.pairs(), b.pairs(), "case {case} {when}: pair listing");
                };
            assert_bitwise_equal(&live, &restored, "at rest");
            for r in suffix {
                live.observe(r);
                restored.observe(r);
            }
            assert_bitwise_equal(&live, &restored, "after shared suffix");
        }
    }

    #[test]
    fn bad_snapshots_are_rejected() {
        let good = StreamingCooccurrence::new(0.5).snapshot();
        for (mutate, what) in [
            (
                Box::new(|s: &mut StreamingSnapshot| s.decay = 0.0)
                    as Box<dyn Fn(&mut StreamingSnapshot)>,
                "decay",
            ),
            (Box::new(|s: &mut StreamingSnapshot| s.decay = 1.5), "decay"),
            (Box::new(|s: &mut StreamingSnapshot| s.scale = 0.0), "scale"),
            (
                Box::new(|s: &mut StreamingSnapshot| s.scale = f64::INFINITY),
                "scale",
            ),
            (
                Box::new(|s: &mut StreamingSnapshot| {
                    s.item_counts.push((ItemId(0), f64::NAN));
                }),
                "count",
            ),
            (
                Box::new(|s: &mut StreamingSnapshot| {
                    s.pair_counts.push((ItemId(0), ItemId(1), f64::INFINITY));
                }),
                "count",
            ),
        ] {
            let mut bad = good.clone();
            mutate(&mut bad);
            let err = StreamingCooccurrence::from_snapshot(&bad).unwrap_err();
            assert!(err.contains(what), "{err}");
        }
    }
}
