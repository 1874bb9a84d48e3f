//! Trace statistics backing Figs. 9 and 10 of the paper: the spatial
//! request distribution over zones and the frequency/Jaccard spectrum of
//! item pairs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mcs_model::request::jaccard_from_counts;
use mcs_model::{ItemId, PairRow, RequestSeq, ServerId};

/// Summary statistics of a request sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Requests per server (zone) — the Fig. 9 histogram.
    pub zone_histogram: Vec<usize>,
    /// Total requests `n`.
    pub requests: usize,
    /// Total item accesses `Σ|D_i|`.
    pub item_accesses: usize,
    /// Mean items per request.
    pub mean_items_per_request: f64,
    /// Horizon (time of the last request).
    pub horizon: f64,
}

impl TraceStats {
    /// Computes statistics in one pass.
    pub fn from_sequence(seq: &RequestSeq) -> Self {
        let mut zone_histogram = vec![0usize; seq.servers() as usize];
        let mut item_accesses = 0usize;
        for r in seq.requests() {
            zone_histogram[r.server.index()] += 1;
            item_accesses += r.items.len();
        }
        let requests = seq.len();
        TraceStats {
            zone_histogram,
            requests,
            item_accesses,
            mean_items_per_request: if requests == 0 {
                0.0
            } else {
                item_accesses as f64 / requests as f64
            },
            horizon: seq.horizon(),
        }
    }

    /// The busiest zone and its request count.
    pub fn hottest_zone(&self) -> Option<(ServerId, usize)> {
        self.zone_histogram
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .map(|(z, &c)| (ServerId(z as u32), c))
    }

    /// Gini-style skew indicator: share of requests landing in the top
    /// `top` zones. The paper's Fig. 9 shows a strongly skewed spatial
    /// distribution.
    pub fn top_zone_share(&self, top: usize) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        let mut counts = self.zone_histogram.clone();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        counts.iter().take(top).sum::<usize>() as f64 / self.requests as f64
    }
}

/// One row of the Fig. 10 table: an item pair with its co-occurrence
/// frequency and Jaccard similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSpectrumRow {
    /// First item.
    pub a: ItemId,
    /// Second item.
    pub b: ItemId,
    /// `|(d_a, d_b)|` — co-occurrence frequency.
    pub frequency: usize,
    /// Jaccard similarity per Eq. (5).
    pub jaccard: f64,
}

/// The pair frequency/Jaccard spectrum of every item pair, sorted by
/// descending Jaccard — the content of the paper's Fig. 10.
///
/// Each row `a` is counted by one posting-list walk
/// ([`RequestSeq::count_row`], `O(Σ|D_r|² + k)` over every row), and
/// listing every `(a, b)` reads `O(k²)` counts; the rows are listed in
/// `(a, b)` order before the stable sort.
pub fn pair_spectrum(seq: &RequestSeq) -> Vec<PairSpectrumRow> {
    let k = seq.items();
    let mut rows = Vec::with_capacity((k as usize * (k as usize).saturating_sub(1)) / 2);
    let mut row = PairRow::default();
    for a in (0..k).map(ItemId) {
        seq.count_row(a, &mut row);
        let count_a = seq.count_containing(a);
        for b in (a.0 + 1..k).map(ItemId) {
            let both = row.count(b) as usize;
            rows.push(PairSpectrumRow {
                a,
                b,
                frequency: both,
                jaccard: jaccard_from_counts(both, count_a, seq.count_containing(b)),
            });
        }
    }
    rows.sort_by(|x, y| {
        y.jaccard
            .partial_cmp(&x.jaccard)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.a.cmp(&y.a))
    });
    rows
}

/// The first `n` rows of [`pair_spectrum`] — the same rows in the same
/// order (`J` descending, then `a`, then `b`) — holding only `n` of them.
///
/// Each row `a` is counted by the same posting-list walk, which costs
/// `O(Σ|D_r|² + k)` over every row. Once `n` rows with `J > 0` are held,
/// a pair that was never co-requested (`J = 0`) cannot enter, so the rest
/// of the walk reads only the touched partners: `O(pair events + k)`
/// after that point, and `O(n + k + requests)` memory.
pub fn top_pairs(seq: &RequestSeq, n: usize) -> Vec<PairSpectrumRow> {
    if n == 0 {
        return Vec::new();
    }
    // Keys that sort in spectrum order — `J` is never NaN or negative, so
    // its bits order like its value — in a max-heap whose top is the
    // worst row held.
    let mut held: BinaryHeap<(Reverse<u64>, ItemId, ItemId, usize)> =
        BinaryHeap::with_capacity(n + 1);
    let mut row = PairRow::default();
    for a in (0..seq.items()).map(ItemId) {
        seq.count_row(a, &mut row);
        let count_a = seq.count_containing(a);
        let full_of_positive = held.len() == n && held.peek().is_some_and(|w| w.0 .0 > 0);
        let mut offer = |b: ItemId| {
            let both = row.count(b) as usize;
            let jaccard = jaccard_from_counts(both, count_a, seq.count_containing(b));
            let candidate = (Reverse(jaccard.to_bits()), a, b, both);
            if held.len() < n {
                held.push(candidate);
            } else if let Some(mut worst) = held.peek_mut() {
                if candidate < *worst {
                    *worst = candidate;
                }
            }
        };
        if full_of_positive {
            row.touched().iter().for_each(|&b| offer(b));
        } else {
            (a.0 + 1..seq.items()).map(ItemId).for_each(&mut offer);
        }
    }
    held.into_sorted_vec()
        .into_iter()
        .map(|(Reverse(jaccard), a, b, frequency)| PairSpectrumRow {
            a,
            b,
            frequency,
            jaccard: f64::from_bits(jaccard),
        })
        .collect()
}

mcs_model::impl_to_json!(PairSpectrumRow {
    a,
    b,
    frequency,
    jaccard
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadConfig};
    use mcs_model::RequestSeqBuilder;

    #[test]
    fn stats_count_correctly() {
        let seq = RequestSeqBuilder::new(3, 2)
            .push(0u32, 1.0, [0])
            .push(1u32, 2.0, [0, 1])
            .push(1u32, 3.0, [1])
            .build()
            .unwrap();
        let st = TraceStats::from_sequence(&seq);
        assert_eq!(st.zone_histogram, vec![1, 2, 0]);
        assert_eq!(st.requests, 3);
        assert_eq!(st.item_accesses, 4);
        assert!((st.mean_items_per_request - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(st.hottest_zone(), Some((ServerId(1), 2)));
        assert!((st.horizon - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sequence_stats() {
        let seq = RequestSeqBuilder::new(2, 1).build().unwrap();
        let st = TraceStats::from_sequence(&seq);
        assert_eq!(st.requests, 0);
        assert_eq!(st.mean_items_per_request, 0.0);
        assert_eq!(st.top_zone_share(3), 0.0);
    }

    #[test]
    fn synthetic_city_is_spatially_skewed_like_fig9() {
        let seq = generate(&WorkloadConfig::paper_like(21));
        let st = TraceStats::from_sequence(&seq);
        // 50 zones: under uniformity the top 10 zones would hold 20% of the
        // requests; hotspot attraction must skew this strongly.
        let share = st.top_zone_share(10);
        assert!(
            share > 0.4,
            "expected skewed distribution, top-10 share = {share}"
        );
    }

    #[test]
    fn pair_spectrum_is_sorted_and_complete() {
        let seq = generate(&WorkloadConfig::small(13));
        let rows = pair_spectrum(&seq);
        assert_eq!(rows.len(), 4 * 3 / 2);
        for w in rows.windows(2) {
            assert!(w[0].jaccard >= w[1].jaccard);
        }
        // Frequencies agree with direct counting.
        for row in &rows {
            assert_eq!(row.frequency, seq.count_pair(row.a, row.b));
        }
    }

    #[test]
    fn designed_pairs_dominate_the_spectrum() {
        // The paired taxis (0,1) and (2,3) should outrank cross pairs.
        let seq = generate(&WorkloadConfig::small(29));
        let rows = pair_spectrum(&seq);
        let top = rows[0];
        let is_designed = |r: &PairSpectrumRow| {
            (r.a == ItemId(0) && r.b == ItemId(1)) || (r.a == ItemId(2) && r.b == ItemId(3))
        };
        assert!(
            is_designed(&top),
            "top pair should be a designed pair, got {top:?}"
        );
    }
}
