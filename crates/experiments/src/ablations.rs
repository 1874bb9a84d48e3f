//! Quality-side ablations of the design choices in DESIGN.md §7.
//!
//! * **Matching order** — Phase 1's greedy descending-J matching vs the
//!   exact maximum-weight matching: total packed similarity and resulting
//!   DP_Greedy cost on a 16-item workload.
//! * **Package arm** — Observation 2's third arm on/strict/off: switching
//!   it off degenerates the singleton greedy to the simple two-arm greedy.
//! * **Bridging / covering DP** — the substrate's covering DP vs the
//!   always-bridge greedy per item (the gap the cut argument bounds by 2×).
//! * **Threshold θ** — full-pipeline `ave_cost` across θ, motivating the
//!   paper's θ = 0.3.

use dp_greedy::two_phase::{dp_greedy, DpGreedyConfig};
use mcs_correlation::exact::{exact_matching, packing_weight};
use mcs_correlation::{greedy_matching, JaccardMatrix};
use mcs_model::par::{par_map, par_map_range};
use mcs_model::{CostModel, ItemId};
use mcs_offline::{greedy::greedy, optimal};
use mcs_trace::workload::{generate, WorkloadConfig};

use crate::table::{fmt_f, Table};

/// All ablation results.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// (greedy weight, exact weight, greedy pairs, exact pairs) on k = 16.
    pub matching: MatchingAblation,
    /// DP_Greedy totals: faithful / strict / no package arm.
    pub package_arm: PackageArmAblation,
    /// Per-item covering-DP vs always-bridge totals and the worst ratio.
    pub bridging: BridgingAblation,
    /// θ sweep: (θ, ave_cost).
    pub theta_sweep: Vec<(f64, f64)>,
}

/// Matching ablation outcome.
#[derive(Debug, Clone)]
pub struct MatchingAblation {
    /// Total packed similarity of greedy matching.
    pub greedy_weight: f64,
    /// Total packed similarity of exact matching.
    pub exact_weight: f64,
    /// Pairs packed by greedy.
    pub greedy_pairs: usize,
    /// Pairs packed by exact.
    pub exact_pairs: usize,
}

/// Package-arm ablation outcome.
#[derive(Debug, Clone)]
pub struct PackageArmAblation {
    /// Faithful (paper) total cost.
    pub faithful: f64,
    /// Strict-window total cost.
    pub strict: f64,
    /// Arm disabled (two-arm greedy) total cost.
    pub disabled: f64,
}

/// Bridging ablation outcome.
#[derive(Debug, Clone)]
pub struct BridgingAblation {
    /// Sum of per-item optimal costs.
    pub covering_dp: f64,
    /// Sum of per-item greedy costs.
    pub always_bridge: f64,
    /// Worst per-item greedy/optimal ratio observed (must be ≤ 2).
    pub worst_item_ratio: f64,
}

/// Runs every ablation.
pub fn run(config: &WorkloadConfig) -> Ablations {
    let seq = generate(config);
    let model = CostModel::new(2.0, 4.0, 0.8).expect("valid model");

    // -- Matching (needs a bigger item universe) --------------------------
    let mut cfg16 = config.clone();
    cfg16.taxis = 16;
    cfg16.pair_affinity = vec![0.9, 0.75, 0.6, 0.45, 0.3, 0.2, 0.1, 0.05];
    let seq16 = generate(&cfg16);
    let matrix = JaccardMatrix::from_sequence(&seq16);
    let g = greedy_matching(&matrix, 0.1);
    let e = exact_matching(&matrix, 0.1);
    let matching = MatchingAblation {
        greedy_weight: packing_weight(&matrix, &g),
        exact_weight: packing_weight(&matrix, &e),
        greedy_pairs: g.pairs.len(),
        exact_pairs: e.pairs.len(),
    };

    // -- Package arm -------------------------------------------------------
    let base = DpGreedyConfig::new(model).with_theta(0.3);
    let package_arm = PackageArmAblation {
        faithful: dp_greedy(&seq, &base, 2).total_cost,
        strict: dp_greedy(&seq, &base.strict(), 2).total_cost,
        disabled: dp_greedy(&seq, &base.without_package_arm(), 2).total_cost,
    };

    // -- Bridging ----------------------------------------------------------
    let per_item: Vec<(f64, f64)> = par_map_range(seq.items() as usize, |i| {
        let trace = seq.item_trace(ItemId(i as u32));
        (optimal(&trace, &model).cost, greedy(&trace, &model).cost)
    });
    let covering_dp: f64 = per_item.iter().map(|&(o, _)| o).sum();
    let always_bridge: f64 = per_item.iter().map(|&(_, g)| g).sum();
    let worst_item_ratio = per_item
        .iter()
        .filter(|&&(o, _)| o > 0.0)
        .map(|&(o, g)| g / o)
        .fold(1.0, f64::max);
    let bridging = BridgingAblation {
        covering_dp,
        always_bridge,
        worst_item_ratio,
    };

    // -- θ sweep -----------------------------------------------------------
    let thetas = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9];
    let theta_sweep: Vec<(f64, f64)> = par_map(&thetas, |&theta| {
        let cfg = DpGreedyConfig::new(model).with_theta(theta);
        (theta, dp_greedy(&seq, &cfg, 2).ave_cost())
    });

    Ablations {
        matching,
        package_arm,
        bridging,
        theta_sweep,
    }
}

impl Ablations {
    /// Renders all ablations into tables.
    pub fn tables(&self) -> Vec<Table> {
        let mut out = Vec::new();

        let mut t = Table::new(
            "Ablation — Phase 1 matching: greedy vs exact (k = 16, θ = 0.1)",
            &["matcher", "pairs", "total packed J"],
        );
        t.push(vec![
            "greedy (paper)".into(),
            self.matching.greedy_pairs.to_string(),
            fmt_f(self.matching.greedy_weight),
        ]);
        t.push(vec![
            "exact max-weight".into(),
            self.matching.exact_pairs.to_string(),
            fmt_f(self.matching.exact_weight),
        ]);
        out.push(t);

        let mut t = Table::new(
            "Ablation — package arm of the singleton greedy",
            &["mode", "DP_Greedy total"],
        );
        t.push(vec![
            "faithful (paper)".into(),
            fmt_f(self.package_arm.faithful),
        ]);
        t.push(vec!["strict window".into(), fmt_f(self.package_arm.strict)]);
        t.push(vec![
            "disabled (2-arm)".into(),
            fmt_f(self.package_arm.disabled),
        ]);
        out.push(t);

        let mut t = Table::new(
            "Ablation — covering DP vs always-bridge greedy (per-item substrate)",
            &["algorithm", "total", "worst item ratio"],
        );
        t.push(vec![
            "covering DP (optimal)".into(),
            fmt_f(self.bridging.covering_dp),
            "1.0000".into(),
        ]);
        t.push(vec![
            "always-bridge greedy".into(),
            fmt_f(self.bridging.always_bridge),
            fmt_f(self.bridging.worst_item_ratio),
        ]);
        out.push(t);

        let mut t = Table::new(
            "Ablation — threshold θ sweep (why the paper picks θ = 0.3)",
            &["theta", "ave_cost"],
        );
        for &(theta, ave) in &self.theta_sweep {
            t.push(vec![fmt_f(theta), fmt_f(ave)]);
        }
        out.push(t);

        out
    }
}

mcs_model::impl_to_json!(Ablations {
    matching,
    package_arm,
    bridging,
    theta_sweep
});
mcs_model::impl_to_json!(MatchingAblation {
    greedy_weight,
    exact_weight,
    greedy_pairs,
    exact_pairs
});
mcs_model::impl_to_json!(PackageArmAblation {
    faithful,
    strict,
    disabled
});
mcs_model::impl_to_json!(BridgingAblation {
    covering_dp,
    always_bridge,
    worst_item_ratio
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_workload, DEFAULT_SEED};

    fn small() -> Ablations {
        let mut cfg = paper_workload(DEFAULT_SEED);
        cfg.steps = 600;
        run(&cfg)
    }

    #[test]
    fn exact_matching_dominates_greedy_weight() {
        let a = small();
        assert!(a.matching.exact_weight >= a.matching.greedy_weight - 1e-9);
    }

    #[test]
    fn package_arm_ordering_holds() {
        // faithful ≤ strict ≤ disabled: each mode removes options.
        let a = small();
        assert!(a.package_arm.faithful <= a.package_arm.strict + 1e-9);
        assert!(a.package_arm.strict <= a.package_arm.disabled + 1e-9);
    }

    #[test]
    fn covering_dp_beats_bridging_within_factor_two() {
        let a = small();
        assert!(a.bridging.covering_dp <= a.bridging.always_bridge + 1e-9);
        assert!(
            a.bridging.worst_item_ratio <= 2.0 + 1e-9,
            "cut-argument bound violated: {}",
            a.bridging.worst_item_ratio
        );
    }

    #[test]
    fn theta_sweep_has_an_interior_or_boundary_optimum() {
        let a = small();
        let best = a
            .theta_sweep
            .iter()
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .unwrap();
        // The best θ should not be the prohibitive 0.9 (packing helps).
        assert!(best.0 < 0.9, "best θ = {} (ave {})", best.0, best.1);
    }
}
