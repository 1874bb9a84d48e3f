//! The complete running example of Section V-C, as executable constants.
//!
//! The request sequence is reconstructed from the paper's worked
//! arithmetic and the Fig. 8 walk-through (the `A[7]` pointer chase puts
//! the `0.8` and `4.0` requests on the same server; the `D(1.4)` term
//! anchors the `1.4` package request on the origin server; the `D(2.6)`
//! term puts both `d_1` singletons on one server; `D(3.2) = +∞` puts the
//! second `d_2` singleton on a server with no prior `d_2` copy):
//!
//! | t    | server | items        |
//! |------|--------|--------------|
//! | 0.5  | s2     | d1           |
//! | 0.8  | s3     | d1, d2 (pkg) |
//! | 1.1  | s4     | d2           |
//! | 1.4  | s1     | d1, d2 (pkg) |
//! | 2.6  | s2     | d1           |
//! | 3.2  | s2     | d2           |
//! | 4.0  | s3     | d1, d2 (pkg) |
//!
//! With `θ = 0.4`, `μ = λ = 1`, `α = 0.8` the paper derives
//! `J(d1, d2) = 3/7 > θ`, package cost `C(4.0) = 8.96`, greedy costs
//! `3.1` (d1) and `2.9` (d2), total **14.96**. All of these — including
//! the intermediate prefix costs `C(0.8) = 2.88` and `C(1.4) = 3.84` of
//! the paper's printed recurrence — are reproduced exactly by this crate
//! and asserted in the tests below.

use mcs_model::{CostModel, RequestSeq, RequestSeqBuilder};

use crate::two_phase::{dp_greedy, DpGreedyConfig, DpGreedyReport};

/// The paper's threshold for the running example.
pub const THETA: f64 = 0.4;

/// The paper's expected package-DP cost (`C(4.0)`).
pub const EXPECTED_PACKAGE_COST: f64 = 8.96;

/// The paper's expected greedy cost for `d_1`.
pub const EXPECTED_D1_COST: f64 = 3.1;

/// The paper's expected greedy cost for `d_2`.
pub const EXPECTED_D2_COST: f64 = 2.9;

/// The paper's expected schedule total.
pub const EXPECTED_TOTAL: f64 = 14.96;

/// Prefix costs of the paper's printed package recurrence:
/// `C(0.8) = 2.88`, `C(1.4) = 3.84`, `C(4.0) = 8.96`.
pub const EXPECTED_PACKAGE_PREFIXES: [f64; 3] = [2.88, 3.84, 8.96];

/// Builds the running example's request sequence.
pub fn paper_sequence() -> RequestSeq {
    RequestSeqBuilder::new(4, 2)
        .push(1u32, 0.5, [0])
        .push(2u32, 0.8, [0, 1])
        .push(3u32, 1.1, [1])
        .push(0u32, 1.4, [0, 1])
        .push(1u32, 2.6, [0])
        .push(1u32, 3.2, [1])
        .push(2u32, 4.0, [0, 1])
        .build()
        .expect("the paper sequence is valid")
}

/// The running example's cost model (`μ = 1`, `λ = 1`, `α = 0.8`).
pub fn paper_model() -> CostModel {
    CostModel::paper_example()
}

/// Runs DP_Greedy exactly as Section V-C does and returns the full report.
pub fn paper_report() -> DpGreedyReport {
    let config = DpGreedyConfig::new(paper_model()).with_theta(THETA);
    dp_greedy(&paper_sequence(), &config, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::approx_eq;
    use mcs_model::request::SingleItemTrace;
    use mcs_offline::optimal;

    #[test]
    fn full_example_total_is_14_96() {
        let r = paper_report();
        assert!(
            approx_eq(r.total_cost, EXPECTED_TOTAL),
            "total={}",
            r.total_cost
        );
        let pair = &r.packages[0];
        assert!(approx_eq(pair.package_cost, EXPECTED_PACKAGE_COST));
        assert!(approx_eq(pair.members_greedy[0].cost, EXPECTED_D1_COST));
        assert!(approx_eq(pair.members_greedy[1].cost, EXPECTED_D2_COST));
    }

    #[test]
    fn printed_recurrence_prefixes_match_prefix_optima() {
        // The paper prints cumulative package costs C(0.8), C(1.4), C(4.0);
        // each equals the optimal cost of the corresponding co-request
        // prefix under package rates.
        let pkg_model = paper_model().scaled_for_package();
        let co_points = [(0.8, 2u32), (1.4, 0u32), (4.0, 2u32)];
        for (len, expected) in EXPECTED_PACKAGE_PREFIXES.iter().enumerate() {
            let trace = SingleItemTrace::from_pairs(4, &co_points[..=len]);
            let c = optimal(&trace, &pkg_model).cost;
            assert!(
                approx_eq(c, *expected),
                "prefix {} expected {expected}, got {c}",
                len + 1
            );
        }
    }

    #[test]
    fn ave_cost_matches_algorithm_1_line_50() {
        let r = paper_report();
        assert_eq!(r.total_accesses, 10);
        assert!(approx_eq(r.ave_cost(), EXPECTED_TOTAL / 10.0));
    }
}
