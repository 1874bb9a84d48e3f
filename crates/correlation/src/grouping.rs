//! K-package matching — agglomerative merging under average linkage.
//!
//! "Although as a proof of concept, the proposed algorithm only considers
//! to pack two correlative data items, it can be naturally extended to the
//! case where multiple data items could be packed." This module provides
//! that extension as the crate's real K path: greedy agglomerative
//! grouping under *average-linkage* Jaccard similarity — two groups merge
//! while the mean pairwise similarity across the cut strictly exceeds the
//! threshold — generic over the similarity backend via
//! [`PairwiseSimilarity`], so the solvers' [`crate::PairTable`] (memory
//! linear in the observed pairs) and the dense reference [`JaccardMatrix`]
//! drive the *same* merge loop and tie-breaking. The per-round candidate
//! scan fans out over worker threads with [`mcs_model::par::par_map`],
//! reduced in row order so the outcome is bit-identical to the serial
//! scan for any thread count.
//!
//! The result is a [`PackageSet`] — the unified Phase-1 outcome shared
//! with the pairwise matcher ([`crate::matching`]).

use crate::jaccard::JaccardMatrix;
use crate::package_set::PackageSet;
use mcs_model::par::par_map;
use mcs_model::ItemId;

/// A symmetric pairwise similarity oracle over items `0..items()` — the
/// seam that lets the agglomerative matcher run identically over the
/// dense matrix and the compressed pair table.
pub trait PairwiseSimilarity {
    /// Number of items `k`.
    fn items(&self) -> usize;
    /// Similarity of `a` and `b` (symmetric; `1.0` on the diagonal).
    fn similarity(&self, a: ItemId, b: ItemId) -> f64;
}

impl PairwiseSimilarity for JaccardMatrix {
    fn items(&self) -> usize {
        JaccardMatrix::items(self)
    }
    fn similarity(&self, a: ItemId, b: ItemId) -> f64 {
        self.get(a, b)
    }
}

/// Mean pairwise similarity across two groups.
fn average_linkage<S: PairwiseSimilarity + ?Sized>(sim: &S, a: &[ItemId], b: &[ItemId]) -> f64 {
    let mut total = 0.0;
    for &x in a {
        for &y in b {
            total += sim.similarity(x, y);
        }
    }
    total / (a.len() * b.len()) as f64
}

/// Below this many live groups the per-round candidate scan stays serial
/// (thread fan-out costs more than it saves); above it, rows fan out via
/// `par_map`. Either path produces the identical best candidate.
const PAR_SCAN_MIN_GROUPS: usize = 64;

/// Best merge candidate of one round: the `(i, j, w)` with the highest
/// average linkage `w > theta`, ties broken toward the smallest `(i, j)`
/// scan position (first found wins, exactly like the serial double loop).
fn best_candidate<S: PairwiseSimilarity + Sync + ?Sized>(
    sim: &S,
    groups: &[Vec<ItemId>],
    theta: f64,
    max_group: usize,
) -> Option<(usize, usize, f64)> {
    // One row's best partner: scan j > i ascending, keep strictly-greater
    // linkage — identical to the inner loop of the serial scan.
    let row_best = |i: usize| -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for j in (i + 1)..groups.len() {
            if groups[i].len() + groups[j].len() > max_group {
                continue;
            }
            let w = average_linkage(sim, &groups[i], &groups[j]);
            let better = match best {
                None => w > theta,
                Some((_, bw)) => w > theta && w > bw,
            };
            if better {
                best = Some((j, w));
            }
        }
        best
    };
    let per_row: Vec<Option<(usize, f64)>> = if groups.len() >= PAR_SCAN_MIN_GROUPS {
        let rows: Vec<usize> = (0..groups.len()).collect();
        par_map(&rows, |&i| row_best(i))
    } else {
        (0..groups.len()).map(row_best).collect()
    };
    // Cross-row reduction in row order with a strict comparison keeps the
    // serial first-found tie-break: an equal-linkage later row never
    // displaces an earlier one.
    let mut best: Option<(usize, usize, f64)> = None;
    for (i, rb) in per_row.into_iter().enumerate() {
        if let Some((j, w)) = rb {
            if best.is_none_or(|(_, _, bw)| w > bw) {
                best = Some((i, j, w));
            }
        }
    }
    best
}

/// Greedy agglomerative K-matching over any similarity backend:
/// repeatedly merge the two groups with the highest average-linkage
/// similarity while it strictly exceeds `theta`. `max_group` caps the
/// package size (`usize::MAX` for unbounded; the paper's pairwise shape
/// corresponds to `max_group = 2`).
///
/// Packages are returned fully sorted (members ascending, packages in
/// ascending lexicographic order) so the outcome is independent of the
/// merge history's internal list order.
pub fn agglomerative_packages<S: PairwiseSimilarity + Sync + ?Sized>(
    sim: &S,
    theta: f64,
    max_group: usize,
) -> PackageSet {
    let k = sim.items();
    let mut groups: Vec<Vec<ItemId>> = (0..k as u32).map(|i| vec![ItemId(i)]).collect();

    while let Some((i, j, _)) = best_candidate(sim, &groups, theta, max_group) {
        let mut merged = groups.swap_remove(j);
        merged.append(&mut groups[i]);
        merged.sort();
        groups[i] = merged;
    }

    for g in &mut groups {
        g.sort();
    }
    groups.sort();
    let (packages, singles): (Vec<_>, Vec<_>) = groups.into_iter().partition(|g| g.len() >= 2);
    let singletons = singles.into_iter().map(|g| g[0]).collect();
    PackageSet::new(packages, singletons, theta)
}

/// Picks the packing threshold `θ` per trace from the prescan's observed
/// co-request density — the *adaptive* mode of the K-package solver.
///
/// Let `δ` be the fraction of item accesses arriving as part of a
/// co-requested pair: twice the number of pair events
/// `Σ_r |D_r|·(|D_r|−1)/2` over the number of item accesses `Σ_r |D_r|`,
/// clamped to 1 ([`mcs_model::RequestSeq::total_pair_events`] and
/// [`mcs_model::RequestSeq::total_item_accesses`]). The rule is
///
/// ```text
/// θ(δ, α) = clamp( (0.15 + 0.5·max(0, α − 0.5)) · (1 − δ), 0.02, 0.95 )
/// ```
///
/// * the **base** grows with `α`: a weak package discount (α near 1)
///   demands stronger correlation evidence before packing pays;
/// * the `(1 − δ)` factor relaxes the threshold on co-access-dense
///   traces, where packages amortise well;
/// * at the paper's `α = 0.8` on a trace with vanishing co-request
///   density the rule reduces to the workspace default `θ = 0.3`.
///
/// Deterministic: a pure function of the two integer totals and `α`.
pub fn adaptive_theta(item_accesses: usize, pair_events: usize, alpha: f64) -> f64 {
    if item_accesses == 0 {
        return mcs_model::defaults::DEFAULT_THETA;
    }
    let density = ((2 * pair_events) as f64 / item_accesses as f64).min(1.0);
    let base = 0.15 + 0.5 * (alpha - 0.5).max(0.0);
    (base * (1.0 - density)).clamp(0.02, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::CoOccurrence;
    use crate::pairs::PairTable;
    use mcs_model::{approx_eq, RequestSeq, RequestSeqBuilder};

    /// Three items that always co-occur, plus an unrelated fourth.
    fn trio_sequence() -> RequestSeq {
        let mut b = RequestSeqBuilder::new(1, 4);
        let mut t = 0.0;
        for _ in 0..5 {
            t += 1.0;
            b = b.push(0u32, t, [0, 1, 2]);
        }
        t += 1.0;
        b = b.push(0u32, t, [3]);
        b.build().unwrap()
    }

    fn trio_matrix() -> JaccardMatrix {
        JaccardMatrix::from_cooccurrence(&CoOccurrence::from_sequence(&trio_sequence()))
    }

    #[test]
    fn groups_the_trio_and_isolates_the_stranger() {
        let g = agglomerative_packages(&trio_matrix(), 0.3, usize::MAX);
        assert_eq!(g.package_count(), 1);
        assert_eq!(g.total_items(), 4);
        assert_eq!(g.packages, vec![vec![ItemId(0), ItemId(1), ItemId(2)]]);
        assert_eq!(g.singletons, vec![ItemId(3)]);
    }

    #[test]
    fn max_group_two_reduces_to_pairing() {
        let g = agglomerative_packages(&trio_matrix(), 0.3, 2);
        // Only a pair can form out of the trio; the third stays single.
        assert_eq!(g.package_count(), 1);
        assert_eq!(g.packages[0].len(), 2);
        assert_eq!(g.singletons.len(), 2);
    }

    #[test]
    fn threshold_blocks_all_merging() {
        let g = agglomerative_packages(&trio_matrix(), 1.1, usize::MAX);
        assert_eq!(g.package_count(), 0);
        assert_eq!(g.singletons.len(), 4);
    }

    #[test]
    fn pair_table_backend_matches_dense_on_the_trio() {
        let table = PairTable::from_sequence(&trio_sequence());
        for max_group in [2usize, 3, usize::MAX] {
            for theta in [0.0, 0.3, 0.6] {
                assert_eq!(
                    agglomerative_packages(&table, theta, max_group),
                    agglomerative_packages(&trio_matrix(), theta, max_group),
                    "theta = {theta}, max_group = {max_group}"
                );
            }
        }
    }

    fn theta_of(seq: &RequestSeq, alpha: f64) -> f64 {
        adaptive_theta(seq.total_item_accesses(), seq.total_pair_events(), alpha)
    }

    #[test]
    fn adaptive_theta_anchors() {
        // Co-request-free trace: the rule reduces to the workspace
        // default θ = 0.3 at the paper's α = 0.8.
        let lonely = RequestSeqBuilder::new(1, 2)
            .push(0u32, 1.0, [0])
            .push(0u32, 2.0, [1])
            .build()
            .unwrap();
        assert!(approx_eq(theta_of(&lonely, 0.8), 0.3));
        // Stronger discount → lower base.
        assert!(theta_of(&lonely, 0.4) < theta_of(&lonely, 0.9));

        // Fully co-requested trace: density 1 → floor.
        let t = theta_of(&trio_sequence(), 0.8);
        assert!(t < 0.3, "dense co-access must relax θ, got {t}");
        assert!(t >= 0.02);

        // Empty prescan falls back to the default.
        let empty = RequestSeqBuilder::new(1, 0).build().unwrap();
        assert!(approx_eq(theta_of(&empty, 0.8), 0.3));
    }
}
