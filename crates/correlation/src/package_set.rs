//! The unified Phase-1 outcome: packages of any size behind one type.
//!
//! [`PackageSet`] holds packages of size ≥ 2 in one list and unpacked
//! singletons in another: the outcome of the agglomerative K-matcher
//! ([`crate::grouping`]), which the package-generic Phase 2 of the
//! engine's `dp_greedy` (above a size cap of 2) and `multi` rows serves. [`crate::matching::Packing`]
//! stays the pairwise outcome of Algorithm 1 that DP_Greedy serves.

use mcs_model::ItemId;

/// Disjoint item packages of size ≥ 2 plus unpacked singletons — the
/// K-generalised `package_list` of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageSet {
    /// Packages (each sorted ascending, size ≥ 2), in the order the
    /// producing matcher emitted them: fully sorted for the agglomerative
    /// K-matcher.
    pub packages: Vec<Vec<ItemId>>,
    /// Items served individually, ascending.
    pub singletons: Vec<ItemId>,
    /// The threshold `θ` the packing was computed under.
    pub theta: f64,
}

impl PackageSet {
    /// Builds a package set. Packages must be disjoint (each item in at
    /// most one package) and of size ≥ 2; members are sorted ascending
    /// here so callers can pass them in any order.
    pub fn new(mut packages: Vec<Vec<ItemId>>, singletons: Vec<ItemId>, theta: f64) -> Self {
        for p in &mut packages {
            debug_assert!(p.len() >= 2, "packages have at least two members");
            p.sort();
        }
        PackageSet {
            packages,
            singletons,
            theta,
        }
    }

    /// Number of packages (size ≥ 2 by construction).
    pub fn package_count(&self) -> usize {
        self.packages.len()
    }

    /// Total items covered (packages + singletons).
    pub fn total_items(&self) -> usize {
        self.packages.iter().map(Vec::len).sum::<usize>() + self.singletons.len()
    }

    /// Size of the largest package (0 when nothing is packed).
    pub fn largest_package(&self) -> usize {
        self.packages.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_sorted_and_counted() {
        let ps = PackageSet::new(
            vec![
                vec![ItemId(2), ItemId(0), ItemId(4)],
                vec![ItemId(1), ItemId(3)],
            ],
            vec![ItemId(5)],
            0.3,
        );
        assert_eq!(ps.package_count(), 2);
        assert_eq!(ps.total_items(), 6);
        assert_eq!(ps.largest_package(), 3);
        assert_eq!(ps.packages[0], vec![ItemId(0), ItemId(2), ItemId(4)]);
    }

    #[test]
    fn empty_set_is_legal() {
        let ps = PackageSet::new(Vec::new(), Vec::new(), 0.3);
        assert_eq!(ps.package_count(), 0);
        assert_eq!(ps.total_items(), 0);
        assert_eq!(ps.largest_package(), 0);
    }
}
