//! Co-occurrence counting and the Jaccard similarity matrix (Eq. 4/5).
//!
//! `J(d_i, d_j) = |(d_i, d_j)| / (|d_i| + |d_j| − |(d_i, d_j)|)`, where
//! `|(d_i, d_j)|` counts requests in which both items appear and `|d_i|`
//! counts requests containing `d_i`. The paper chooses Jaccard over raw
//! co-occurrence "since we expect the DP_Greedy algorithm to perform well
//! when both the frequency and the Jaccard similarity for two data items
//! are high".
//!
//! This module is the dense reference: [`CoOccurrence`] counts the whole
//! `k·(k−1)/2` pair triangle in one serial pass and [`JaccardMatrix`]
//! materialises the `k×k` matrix, both quadratic in the catalog. The
//! solvers run on [`crate::pairs`] instead, whose row walk divides the
//! same integers; the tests hold every pair structure, every packing and
//! the paper's worked example to this reference, and the ablations that
//! need a full matrix (exact matching) read it.

use mcs_model::request::jaccard_from_counts;
use mcs_model::{ItemId, RequestSeq};

/// Re-exported from [`mcs_model::par`], where the rule that uses it lives.
pub use crate::pairs::PARALLEL_THRESHOLD;

/// Raw co-occurrence statistics of a request sequence: per-item request
/// counts and upper-triangular pair counts.
///
/// ```
/// use mcs_correlation::CoOccurrence;
/// use mcs_model::{ItemId, RequestSeqBuilder};
///
/// let seq = RequestSeqBuilder::new(2, 2)
///     .push(0u32, 1.0, [0, 1])
///     .push(1u32, 2.0, [0])
///     .build()
///     .unwrap();
/// let co = CoOccurrence::from_sequence(&seq);
/// assert_eq!(co.pair_count(ItemId(0), ItemId(1)), 1);
/// assert!((co.jaccard(ItemId(0), ItemId(1)) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoOccurrence {
    k: usize,
    /// `|d_i|` — number of requests containing item `i`.
    item_counts: Vec<usize>,
    /// Upper-triangular pair counts, row-major: entry for `(i, j)` with
    /// `i < j` lives at `tri_index(i, j)`.
    pair_counts: Vec<usize>,
}

#[inline]
fn tri_index(k: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < k);
    // Offset of row i in the packed upper triangle, then the column.
    i * k - i * (i + 1) / 2 + (j - i - 1)
}

impl CoOccurrence {
    /// Counts item and pair occurrences over a request sequence in one
    /// serial pass, incrementing the dense `k·(k−1)/2` triangle once per
    /// pair event: `O(k²)` memory and `O(k² + Σ|D_r|²)` time.
    pub fn from_sequence(seq: &RequestSeq) -> Self {
        let k = seq.items() as usize;
        let mut item_counts = vec![0usize; k];
        let mut pair_counts = vec![0usize; k * k.saturating_sub(1) / 2];
        for r in seq.requests() {
            for (a_pos, &a) in r.items.iter().enumerate() {
                item_counts[a.index()] += 1;
                for &b in &r.items[a_pos + 1..] {
                    // Builder guarantees sorted, duplicate-free item lists.
                    pair_counts[tri_index(k, a.index(), b.index())] += 1;
                }
            }
        }
        CoOccurrence {
            k,
            item_counts,
            pair_counts,
        }
    }

    /// Number of items `k`.
    #[inline]
    pub fn items(&self) -> usize {
        self.k
    }

    /// `|d_i|` — requests containing `item`.
    #[inline]
    pub fn count(&self, item: ItemId) -> usize {
        self.item_counts[item.index()]
    }

    /// `|(d_i, d_j)|` — requests containing both items (symmetric;
    /// `i == j` returns `|d_i|`).
    pub fn pair_count(&self, a: ItemId, b: ItemId) -> usize {
        let (i, j) = (a.index(), b.index());
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.pair_counts[tri_index(self.k, i, j)],
            std::cmp::Ordering::Greater => self.pair_counts[tri_index(self.k, j, i)],
            std::cmp::Ordering::Equal => self.item_counts[i],
        }
    }

    /// Jaccard similarity of a pair per Eq. (5); `0` when neither item is
    /// ever requested (zero-union guard — never NaN).
    pub fn jaccard(&self, a: ItemId, b: ItemId) -> f64 {
        if a == b {
            // Eq. (4): the diagonal of the correlation matrix is 1.
            return 1.0;
        }
        jaccard_from_counts(self.pair_count(a, b), self.count(a), self.count(b))
    }
}

/// The symmetric correlation matrix `A` of Eq. (4), materialised.
#[derive(Debug, Clone, PartialEq)]
pub struct JaccardMatrix {
    k: usize,
    /// Row-major `k×k` values; diagonal fixed at 1.
    values: Vec<f64>,
}

impl JaccardMatrix {
    /// Builds the full matrix from co-occurrence statistics: one Eq. (5)
    /// evaluation per `i < j` pair, mirrored below the diagonal, with the
    /// diagonal fixed at 1 — entry for entry what [`CoOccurrence::jaccard`]
    /// returns.
    pub fn from_cooccurrence(co: &CoOccurrence) -> Self {
        let k = co.items();
        let mut values = vec![0.0; k * k];
        // Row i of the packed triangle holds the counts of (i, i+1..k).
        let mut row_start = 0;
        for i in 0..k {
            values[i * k + i] = 1.0;
            let row = &co.pair_counts[row_start..row_start + (k - i - 1)];
            row_start += row.len();
            for (j, &both) in (i + 1..k).zip(row) {
                let v = jaccard_from_counts(both, co.item_counts[i], co.item_counts[j]);
                values[i * k + j] = v;
                values[j * k + i] = v;
            }
        }
        JaccardMatrix { k, values }
    }

    /// Convenience: straight from a request sequence.
    pub fn from_sequence(seq: &RequestSeq) -> Self {
        Self::from_cooccurrence(&CoOccurrence::from_sequence(seq))
    }

    /// Number of items `k`.
    #[inline]
    pub fn items(&self) -> usize {
        self.k
    }

    /// `A(i, j)`.
    #[inline]
    pub fn get(&self, a: ItemId, b: ItemId) -> f64 {
        self.values[a.index() * self.k + b.index()]
    }

    /// All `i < j` pairs with their similarity, in unspecified order.
    pub fn pairs(&self) -> Vec<(ItemId, ItemId, f64)> {
        let mut out = Vec::with_capacity(self.k * (self.k.saturating_sub(1)) / 2);
        for i in 0..self.k {
            for j in (i + 1)..self.k {
                out.push((
                    ItemId(i as u32),
                    ItemId(j as u32),
                    self.values[i * self.k + j],
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{approx_eq, RequestSeqBuilder};

    fn paper_sequence() -> RequestSeq {
        RequestSeqBuilder::new(4, 2)
            .push(1u32, 0.5, [0])
            .push(2u32, 0.8, [0, 1])
            .push(3u32, 1.1, [1])
            .push(0u32, 1.4, [0, 1])
            .push(1u32, 2.6, [0])
            .push(1u32, 3.2, [1])
            .push(2u32, 4.0, [0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn paper_example_jaccard_is_three_sevenths() {
        let co = CoOccurrence::from_sequence(&paper_sequence());
        assert_eq!(co.count(ItemId(0)), 5);
        assert_eq!(co.count(ItemId(1)), 5);
        assert_eq!(co.pair_count(ItemId(0), ItemId(1)), 3);
        assert!(approx_eq(co.jaccard(ItemId(0), ItemId(1)), 3.0 / 7.0));
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let seq = RequestSeqBuilder::new(2, 3)
            .push(0u32, 1.0, [0, 1])
            .push(1u32, 2.0, [1, 2])
            .push(0u32, 3.0, [0, 1, 2])
            .push(1u32, 4.0, [0])
            .build()
            .unwrap();
        let m = JaccardMatrix::from_sequence(&seq);
        for i in 0..3 {
            assert!(approx_eq(m.get(ItemId(i), ItemId(i)), 1.0));
            for j in 0..3 {
                assert!(approx_eq(
                    m.get(ItemId(i), ItemId(j)),
                    m.get(ItemId(j), ItemId(i))
                ));
            }
        }
        // d1: requests {0,2,3}; d2: {0,1,2}; both: {0,2} → 2/4.
        assert!(approx_eq(m.get(ItemId(0), ItemId(1)), 0.5));
        // d1 & d3: both {2}, union {0,1,2,3} → 1/4.
        assert!(approx_eq(m.get(ItemId(0), ItemId(2)), 0.25));
    }

    #[test]
    fn never_requested_items_have_zero_similarity() {
        let seq = RequestSeqBuilder::new(1, 3)
            .push(0u32, 1.0, [0])
            .build()
            .unwrap();
        let co = CoOccurrence::from_sequence(&seq);
        assert!(approx_eq(co.jaccard(ItemId(1), ItemId(2)), 0.0));
        assert!(approx_eq(co.jaccard(ItemId(0), ItemId(1)), 0.0));
    }

    #[test]
    fn identical_access_patterns_have_similarity_one() {
        let seq = RequestSeqBuilder::new(1, 2)
            .push(0u32, 1.0, [0, 1])
            .push(0u32, 2.0, [0, 1])
            .build()
            .unwrap();
        let co = CoOccurrence::from_sequence(&seq);
        assert!(approx_eq(co.jaccard(ItemId(0), ItemId(1)), 1.0));
    }

    #[test]
    fn pair_counts_match_sequence_scan() {
        let co = CoOccurrence::from_sequence(&paper_sequence());
        let seq = paper_sequence();
        assert_eq!(
            co.pair_count(ItemId(0), ItemId(1)),
            seq.count_pair(ItemId(0), ItemId(1))
        );
        assert_eq!(
            co.pair_count(ItemId(1), ItemId(0)),
            seq.count_pair(ItemId(0), ItemId(1))
        );
    }

    #[test]
    fn zero_item_universe_is_empty_but_valid() {
        // k = 0: no requests can exist (every request needs a non-empty
        // item set), but the statistics must still construct cleanly.
        let seq = RequestSeqBuilder::new(2, 0).build().unwrap();
        let co = CoOccurrence::from_sequence(&seq);
        assert_eq!(co.items(), 0);
        let m = JaccardMatrix::from_cooccurrence(&co);
        assert_eq!(m.items(), 0);
        assert!(m.pairs().is_empty());
    }

    #[test]
    fn single_item_universe_has_no_pairs() {
        // k = 1: the pair triangle is empty; the diagonal is still 1.
        let seq = RequestSeqBuilder::new(1, 1)
            .push(0u32, 1.0, [0])
            .push(0u32, 2.0, [0])
            .build()
            .unwrap();
        let co = CoOccurrence::from_sequence(&seq);
        assert_eq!(co.items(), 1);
        assert_eq!(co.count(ItemId(0)), 2);
        assert_eq!(co.pair_count(ItemId(0), ItemId(0)), 2);
        assert!(approx_eq(co.jaccard(ItemId(0), ItemId(0)), 1.0));
        let m = JaccardMatrix::from_cooccurrence(&co);
        assert!(m.pairs().is_empty());
        assert!(approx_eq(m.get(ItemId(0), ItemId(0)), 1.0));
    }

    #[test]
    fn tri_index_is_a_bijection() {
        let k = 7;
        let mut seen = std::collections::HashSet::new();
        for i in 0..k {
            for j in (i + 1)..k {
                assert!(seen.insert(tri_index(k, i, j)));
            }
        }
        assert_eq!(seen.len(), k * (k - 1) / 2);
        assert_eq!(seen.iter().max(), Some(&(k * (k - 1) / 2 - 1)));
    }
}
