//! The Phase-1 pair statistics the solvers run on.
//!
//! Both structures here are built by walking the request sequence's
//! posting index one item row at a time ([`RequestSeq::count_row`]): for
//! an item `a`, the walk counts `|(d_a, d_b)|` for every later item `b`
//! into a reused dense scratch, and `|d_a|`, `|d_b|` are posting-list
//! lengths. Rows are walked in ascending order within each worker, so
//! each request's tail after `a` is found from a cursor, not a search.
//! Time is `O(Σ|D_r|² + k)` — one step per co-requested pair, and no
//! row scans more of its partners' slots than it visits pair events —
//! and memory is `O(k + n)` per worker plus what each structure keeps:
//!
//! * [`pairs_above`] keeps only the pairs with `J > θ`, the candidates of
//!   the greedy matching (Algorithm 1, lines 7–27);
//! * [`PairTable`] keeps every observed pair in compressed rows, 8 bytes
//!   per pair, for the arbitrary-pair lookups of the agglomerative
//!   K-matcher.
//!
//! Every similarity is [`jaccard_from_counts`] over the integers the
//! dense reference ([`crate::CoOccurrence`]) counts, so each one has the
//! reference's bits, and every packing equals the reference packing.

use mcs_model::par::{par_map_with_threads, threads_for};
use mcs_model::request::jaccard_from_counts;
use mcs_model::{ItemId, PairRow, RequestSeq};

use crate::grouping::PairwiseSimilarity;

/// Request count from which [`pairs_above`] splits its rows across worker
/// threads: the workspace's one rule, [`mcs_model::par::threads_for`].
pub use mcs_model::par::PARALLEL_THRESHOLD;

/// Every pair `a < b` with `J(a, b) > θ`, as `(a, b, J)` in an order that
/// depends on the worker count — the candidates
/// [`crate::matching::greedy_matching_from_pairs`] packs exactly as
/// [`crate::greedy_matching`] packs the dense matrix.
///
/// Unobserved pairs have `J = 0`, so they are emitted only for `θ < 0`,
/// and a NaN `θ` emits nothing, as the strict `J > θ` test dictates. From
/// [`PARALLEL_THRESHOLD`] requests on, rows are split across
/// `MCS_THREADS` workers ([`pairs_above_sharded`]).
pub fn pairs_above(seq: &RequestSeq, theta: f64) -> Vec<(ItemId, ItemId, f64)> {
    pairs_above_sharded(seq, theta, threads_for(seq.len()))
}

/// [`pairs_above`] over `shards` workers, each taking every `shards`-th
/// row so the long low-numbered rows are spread evenly. The same pairs
/// with the same bits for every shard count.
pub fn pairs_above_sharded(
    seq: &RequestSeq,
    theta: f64,
    shards: usize,
) -> Vec<(ItemId, ItemId, f64)> {
    let k = seq.items();
    let shards = shards.clamp(1, (k as usize).max(1));
    let firsts: Vec<u32> = (0..shards as u32).collect();
    let counts = item_counts(seq);
    par_map_with_threads(&firsts, shards, |&first| {
        let mut row = PairRow::default();
        let mut out = Vec::new();
        for a in (first..k).step_by(shards).map(ItemId) {
            seq.count_row(a, &mut row);
            let count_a = counts[a.index()] as usize;
            let mut emit = |b: ItemId| {
                let both = row.count(b) as usize;
                let j = jaccard_from_counts(both, count_a, counts[b.index()] as usize);
                if j > theta {
                    out.push((a, b, j));
                }
            };
            if theta < 0.0 {
                (a.0 + 1..k).map(ItemId).for_each(&mut emit);
            } else {
                row.touched().iter().copied().for_each(&mut emit);
            }
        }
        out
    })
    .concat()
}

/// `|d_i|` for every item, read off the posting lists once.
fn item_counts(seq: &RequestSeq) -> Vec<u32> {
    (0..seq.items())
        .map(|i| seq.count_containing(ItemId(i)) as u32)
        .collect()
}

/// Every observed pair of a sequence with its co-request count, in
/// compressed sparse rows: row `a` lists the partners `b > a` with
/// `|(d_a, d_b)| > 0`, ascending, as a `u32` id and a `u32` count.
///
/// Memory is 8 bytes per observed pair plus `O(k)`; a lookup is a binary
/// search in the smaller id's row. Unobserved pairs read as count 0, so
/// [`Self::jaccard`] equals [`crate::CoOccurrence::jaccard`] bit for bit
/// on every pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairTable {
    /// `|d_i|` for every item.
    counts: Vec<u32>,
    /// Row `a` is `partners[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
    /// `(b, |(d_a, d_b)|)` per observed pair, ascending `b` within a row.
    partners: Vec<(u32, u32)>,
}

impl PairTable {
    /// Counts every row of `seq` with the posting-list walk.
    pub fn from_sequence(seq: &RequestSeq) -> Self {
        let k = seq.items();
        let mut row = PairRow::default();
        let mut offsets = Vec::with_capacity(k as usize + 1);
        let mut partners = Vec::new();
        offsets.push(0);
        for a in (0..k).map(ItemId) {
            seq.count_row(a, &mut row);
            let start = partners.len();
            partners.extend(row.touched().iter().map(|&b| (b.0, row.count(b))));
            partners[start..].sort_unstable();
            offsets.push(partners.len());
        }
        PairTable {
            counts: item_counts(seq),
            offsets,
            partners,
        }
    }

    /// Number of items `k`.
    #[inline]
    pub fn items(&self) -> usize {
        self.counts.len()
    }

    /// Number of distinct co-requested pairs stored.
    #[inline]
    pub fn observed_pairs(&self) -> usize {
        self.partners.len()
    }

    /// `|(d_a, d_b)|` — requests containing both items (symmetric; `a == b`
    /// returns `|d_a|`; unobserved pairs return 0).
    pub fn pair_count(&self, a: ItemId, b: ItemId) -> usize {
        let (lo, hi) = match a.cmp(&b) {
            std::cmp::Ordering::Less => (a, b),
            std::cmp::Ordering::Greater => (b, a),
            std::cmp::Ordering::Equal => return self.counts[a.index()] as usize,
        };
        let row = &self.partners[self.offsets[lo.index()]..self.offsets[lo.index() + 1]];
        row.binary_search_by_key(&hi.0, |&(b, _)| b)
            .map_or(0, |at| row[at].1 as usize)
    }

    /// Jaccard similarity per Eq. (5); `1` on the diagonal, `0` for a
    /// zero union.
    pub fn jaccard(&self, a: ItemId, b: ItemId) -> f64 {
        if a == b {
            return 1.0;
        }
        jaccard_from_counts(
            self.pair_count(a, b),
            self.counts[a.index()] as usize,
            self.counts[b.index()] as usize,
        )
    }
}

impl PairwiseSimilarity for PairTable {
    fn items(&self) -> usize {
        PairTable::items(self)
    }
    fn similarity(&self, a: ItemId, b: ItemId) -> f64 {
        self.jaccard(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::CoOccurrence;
    use crate::matching::greedy_matching_from_pairs;
    use mcs_model::RequestSeqBuilder;

    /// Items 0–2 co-occur, 3 is requested alone, 4 and 5 never are.
    fn sequence() -> RequestSeq {
        RequestSeqBuilder::new(2, 6)
            .push(0u32, 1.0, [0, 1])
            .push(1u32, 2.0, [0, 1, 2])
            .push(0u32, 3.0, [3])
            .push(1u32, 4.0, [1, 2])
            .build()
            .unwrap()
    }

    #[test]
    fn table_rows_hold_only_observed_pairs() {
        let seq = sequence();
        let table = PairTable::from_sequence(&seq);
        let co = CoOccurrence::from_sequence(&seq);
        assert_eq!(table.items(), 6);
        assert_eq!(table.observed_pairs(), 3);
        assert_eq!(
            std::mem::size_of_val(&table.partners[..]),
            8 * table.observed_pairs()
        );
        for a in (0..6).map(ItemId) {
            for b in (0..6).map(ItemId) {
                assert_eq!(table.pair_count(a, b), co.pair_count(a, b));
                assert_eq!(table.jaccard(a, b).to_bits(), co.jaccard(a, b).to_bits());
            }
        }
        assert_eq!(
            table.jaccard(ItemId(4), ItemId(5)).to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn pairs_above_filters_strictly_and_covers_unobserved_pairs_below_zero() {
        let seq = sequence();
        let sorted = |theta: f64| {
            let mut pairs = pairs_above(&seq, theta);
            pairs.sort_by_key(|&(a, b, _)| (a, b));
            pairs
        };
        // J(0,1) = 2/3, J(0,2) = 1/3, J(1,2) = 2/3.
        assert_eq!(
            sorted(0.5),
            vec![
                (ItemId(0), ItemId(1), 2.0 / 3.0),
                (ItemId(1), ItemId(2), 2.0 / 3.0)
            ]
        );
        assert!(sorted(2.0 / 3.0).is_empty());
        assert_eq!(sorted(0.0).len(), 3);
        assert_eq!(sorted(-0.5).len(), 6 * 5 / 2);
        assert!(sorted(f64::NAN).is_empty());
    }

    #[test]
    fn empty_and_single_item_catalogs() {
        for k in [0u32, 1] {
            let mut b = RequestSeqBuilder::new(1, k);
            if k == 1 {
                b = b.push(0u32, 1.0, [0]);
            }
            let seq = b.build().unwrap();
            for shards in [1, 3] {
                assert!(pairs_above_sharded(&seq, -1.0, shards).is_empty());
            }
            let table = PairTable::from_sequence(&seq);
            assert_eq!(table.items(), k as usize);
            assert_eq!(table.observed_pairs(), 0);
            let packing = greedy_matching_from_pairs(pairs_above(&seq, 0.3), k, 0.3);
            assert!(packing.pairs.is_empty());
            assert_eq!(packing.singletons, (0..k).map(ItemId).collect::<Vec<_>>());
        }
    }

    /// 2,000 items of which only two are ever requested together: one
    /// stored pair, one packed pair, 1,998 singletons.
    #[test]
    fn a_wide_catalog_with_one_observed_pair() {
        let seq = RequestSeqBuilder::new(1, 2000)
            .push(0u32, 1.0, [0, 1])
            .push(0u32, 2.0, [0, 1])
            .push(0u32, 3.0, [1999])
            .build()
            .unwrap();
        let table = PairTable::from_sequence(&seq);
        assert_eq!(table.observed_pairs(), 1);
        assert_eq!(table.jaccard(ItemId(1), ItemId(0)), 1.0);
        let packing = greedy_matching_from_pairs(pairs_above(&seq, 0.3), 2000, 0.3);
        assert_eq!(packing.pairs, vec![(ItemId(0), ItemId(1))]);
        assert_eq!(packing.singletons.len(), 1998);
    }
}
