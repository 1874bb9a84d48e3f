//! Workspace-wide default parameters.
//!
//! The paper's evaluation pins one canonical operating point — `μ = 2`,
//! `λ = 4` (the `ρ = 2` peak of Fig. 12 under `λ + μ = 6`), `α = 0.8`
//! and `θ = 0.3` — and every runner, bench, and CLI default should agree
//! on it. These constants are the single source of truth; re-declaring
//! them locally (the pre-engine state of `dpg.rs` and several experiment
//! runners) risks silent drift between figures.

use crate::cost::CostModel;

/// Default cache rate `μ` (Fig. 12's ρ = 2 operating point).
pub const DEFAULT_MU: f64 = 2.0;

/// Default transfer cost `λ` (Fig. 12's ρ = 2 operating point).
pub const DEFAULT_LAMBDA: f64 = 4.0;

/// Default package discount `α` (the paper's headline setting).
pub const DEFAULT_ALPHA: f64 = 0.8;

/// Default packing threshold `θ` (justified by the Fig. 11 sweep).
pub const DEFAULT_THETA: f64 = 0.3;

/// Default workload seed (the CLUSTER 2019 conference date; kept stable
/// so `EXPERIMENTS.md` numbers are reproducible).
pub const DEFAULT_SEED: u64 = 20190923;

/// The rate-sum constraint of the Fig. 12 sweep: `λ + μ = 6`.
pub const RATE_SUM: f64 = 6.0;

/// The default cost model assembled from the constants above.
pub fn default_model() -> CostModel {
    CostModel::new(DEFAULT_MU, DEFAULT_LAMBDA, DEFAULT_ALPHA).expect("default model is valid")
}

/// Default intra-server tier move cost (one level crossing) for the
/// tiered waterfall — a quarter of a cross-server transfer, so promotion
/// is cheap relative to a re-fetch but not free.
pub const DEFAULT_MOVE_COST: f64 = 1.0;

/// Default origin-fetch cost for the tiered waterfall: `2λ` — the
/// backing store is farther than any peer server.
pub const DEFAULT_ORIGIN_FETCH: f64 = 2.0 * DEFAULT_LAMBDA;

/// Default L2 slot count per server for the tiered waterfall.
pub const DEFAULT_L2_SLOTS: u32 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_matches_the_constants() {
        let m = default_model();
        assert_eq!(m.mu(), DEFAULT_MU);
        assert_eq!(m.lambda(), DEFAULT_LAMBDA);
        assert_eq!(m.alpha(), DEFAULT_ALPHA);
    }

    #[test]
    fn defaults_sit_on_the_fig12_constraint() {
        assert_eq!(DEFAULT_MU + DEFAULT_LAMBDA, RATE_SUM);
    }
}
