//! # mcs-engine — the unified solver engine
//!
//! Every algorithm in the workspace — DP_Greedy and its multi-item and
//! windowed extensions, the off-line `optimal`/`greedy`/`exhaustive`
//! substrate, the Package_Served baseline, and the on-line ski-rental
//! family — is reachable through one seam:
//!
//! * [`CachingSolver`] — the trait: `name()`, `kind()` (offline/online),
//!   and `solve(&RequestSeq, &RunContext) -> Solution`. A row implements
//!   only [`CachingSolver::solve_parts`] (its total and its parts); the
//!   provided `solve` is the one place a [`Solution`] is built.
//! * [`RunContext`] — the shared run parameters: a [`mcs_model::CostPlane`]
//!   (homogeneous [`mcs_model::CostModel`], per-server heterogeneous, or
//!   tiered), the packing threshold `θ` and its adaptive rule, the
//!   package-size cap, and a seed. Observability handles are the
//!   process-global `mcs-obs` registry, so solvers need no plumbing to
//!   emit spans and counters.
//! * [`Solution`] — the unified result: total cost, the `Σ|d_i|`
//!   denominator of the paper's `ave_cost` metric, and a list of
//!   [`solution::SolutionPart`]s (explicit schedules, recorded serve-arm
//!   choices, and aggregate channel costs) from which one *generic*
//!   ledger derivation ([`Solution::ledger`]) produces the decision
//!   ledger. It is the workspace's only source of ledger events: the
//!   per-pair experiments build their parts with
//!   [`solvers::package_parts`], and `mcs_sim::chaos_solution` replays a
//!   `Solution`'s schedules under faults. `dp_greedy`, `multi` and
//!   `windowed` run the one two-phase pipeline,
//!   `dp_greedy::two_phase::dp_greedy` (once per window for `windowed`),
//!   in which only Phase 1 depends on the package-size cap; the engine
//!   only turns its reports into parts.
//! * [`registry`] — the static solver registry: iterate all solvers with
//!   [`registry::solvers`], look one up (aliases included) with
//!   [`registry::find`]. Adding an algorithm is one `impl CachingSolver`
//!   plus one registry entry; the CLI (`dpg algos`, `dpg run --algo`),
//!   the experiment runners and the workspace-level reconciliation
//!   property test all pick it up automatically.
//!
//! The engine sits above the algorithm crates and below the consumers
//! (`sim`, `experiments`, CLI): algorithm crates stay free of
//! trait plumbing and the consumers stay free of per-algorithm glue.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod registry;
pub mod solution;
pub mod solvers;

use mcs_model::defaults::{DEFAULT_SEED, DEFAULT_THETA};
use mcs_model::{CostModel, CostPlane, RequestSeq};

pub use registry::{aliases, find, solvers};
pub use solution::{Commodity, ServeChoice, Solution, SolutionPart};

/// Whether a solver sees the whole request sequence up front (offline)
/// or serves requests one at a time with no knowledge of the future
/// (online).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Off-line: the full trajectory is known (the paper's model).
    Offline,
    /// On-line: requests arrive one at a time.
    Online,
}

impl SolverKind {
    /// Stable lowercase label (`"offline"` / `"online"`), used by the
    /// CLI's JSON output.
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Offline => "offline",
            SolverKind::Online => "online",
        }
    }
}

/// Shared parameters of one solver run.
///
/// Observability is deliberately *not* a field: `mcs-obs` is a
/// process-global registry and solvers emit spans/counters through it
/// directly, so a `RunContext` stays cheap to clone and serializable.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// The cost plane: homogeneous (`μ`, `λ`, `α`), per-server
    /// heterogeneous, or tiered. The paper-model solvers read the
    /// homogeneous projection via [`RunContext::model`]; plane-aware
    /// solvers match on the shape directly.
    pub plane: CostPlane,
    /// Packing threshold `θ` for correlation-aware solvers.
    pub theta: f64,
    /// Seed for solvers with internal randomness or derived workloads.
    /// No registered solver reads it; the daemon still derives one per
    /// epoch ([`RunContext::for_epoch`]).
    pub seed: u64,
    /// Maximum package size for the rows that declare
    /// [`PackageKnobs::ThetaAndCap`] (`dp_greedy`, `windowed`): `2` is the
    /// paper's pairwise shape, larger values allow bigger bundles.
    pub max_group: usize,
    /// When set, the rows that read the θ rule ([`PackageKnobs::Theta`]
    /// and above) derive `θ` per trace from its co-request density
    /// ([`RunContext::theta_for`]) instead of using the fixed `theta`.
    pub adaptive: bool,
}

impl RunContext {
    /// A context with the workspace defaults for `θ` and the seed,
    /// pairwise packages (`max_group = 2`), and the fixed-θ mode.
    pub fn new(model: CostModel) -> Self {
        RunContext::from_plane(CostPlane::Homogeneous(model))
    }

    /// A context over an arbitrary [`CostPlane`] (same defaults as
    /// [`RunContext::new`]).
    pub fn from_plane(plane: CostPlane) -> Self {
        RunContext {
            plane,
            theta: DEFAULT_THETA,
            seed: DEFAULT_SEED,
            max_group: 2,
            adaptive: false,
        }
    }

    /// The homogeneous projection of the context's cost plane: the exact
    /// embedded model for a homogeneous (or uniformly-collapsible) plane,
    /// a deterministic mean-rate summary otherwise. The paper-model
    /// solvers price everything through this, which is why the registry
    /// byte-identity guarantee only holds on collapsible planes — their
    /// [`CachingSolver::validate`] gate enforces exactly that.
    pub fn model(&self) -> CostModel {
        self.plane.projected_homogeneous()
    }

    /// The Section V-C running-example context (`μ = λ = 1`, `α = 0.8`,
    /// `θ = 0.4`).
    pub fn paper_example() -> Self {
        RunContext::new(CostModel::paper_example()).with_theta(dp_greedy::paper_example::THETA)
    }

    /// Sets the packing threshold.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the package size for the rows that read it (`2` = pairs).
    pub fn with_max_group(mut self, max_group: usize) -> Self {
        self.max_group = max_group;
        self
    }

    /// Switches the θ-reading rows to the adaptive per-trace θ rule
    /// ([`RunContext::theta_for`]).
    pub fn with_adaptive_theta(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// The packing threshold a solve over `seq` packs at: the fixed
    /// `theta`, or under `adaptive` the rule
    /// [`mcs_correlation::adaptive_theta`] over `seq`'s co-request
    /// density at the model's `α`. The one θ rule of every row that
    /// packs.
    pub fn theta_for(&self, seq: &RequestSeq) -> f64 {
        if self.adaptive {
            mcs_correlation::adaptive_theta(
                seq.total_item_accesses(),
                seq.total_pair_events(),
                self.model().alpha(),
            )
        } else {
            self.theta
        }
    }

    /// A derived context for re-entrant epoch-by-epoch use (the serving
    /// daemon settles each epoch through the registry): same plane and
    /// package knobs, but a per-epoch seed mixed with SplitMix64 so
    /// epochs draw independent randomness while staying a pure function
    /// of `(base seed, epoch)` — recovery replays the exact context.
    #[must_use]
    pub fn for_epoch(&self, epoch: u64) -> Self {
        let mut derived = self.clone();
        derived.seed = mcs_model::rng::mix64(self.seed ^ epoch.rotate_left(17));
        derived
    }
}

impl Default for RunContext {
    fn default() -> Self {
        RunContext::new(mcs_model::defaults::default_model())
    }
}

/// Which of a [`RunContext`]'s package knobs a solver reads
/// ([`CachingSolver::package_knobs`]); a caller refuses a knob set away
/// from its default on a row that does not read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PackageKnobs {
    /// Neither `adaptive` nor `max_group`.
    None,
    /// The θ rule ([`RunContext::theta_for`]) but no size cap.
    Theta,
    /// The θ rule and the size cap `max_group`.
    ThetaAndCap,
}

/// One caching algorithm behind the engine seam.
///
/// Implementations are zero-sized registry entries; all run state lives
/// in the [`RunContext`] and the returned [`Solution`].
pub trait CachingSolver: Sync {
    /// Stable registry name (snake_case; the `--algo` spelling).
    fn name(&self) -> &'static str;

    /// Off-line or on-line.
    fn kind(&self) -> SolverKind;

    /// One-line human description for `dpg algos`.
    fn description(&self) -> &'static str;

    /// Runs the algorithm over `seq` under `ctx`, returning the total cost
    /// it reports and its parts, in emission order.
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>);

    /// Runs the algorithm over `seq` under `ctx`: the one place a
    /// [`Solution`] is built, from the row's name and kind,
    /// [`Self::solve_parts`], and `seq`'s item accesses as the `ave_cost`
    /// denominator.
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let (total_cost, parts) = self.solve_parts(seq, ctx);
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }

    /// Checks that this solver can price `seq` under `ctx`'s cost plane,
    /// returning a human-readable reason when it cannot. Callers (the
    /// CLI, the experiment runners) gate on this, and on the trace
    /// limits [`Self::server_limit`] and [`Self::request_limit`],
    /// *before* `solve`; a failed precondition inside `solve` itself is a
    /// bug.
    ///
    /// The default requires a homogeneous plane (or a uniform one that
    /// collapses to it bitwise) — the paper's cost model, which every
    /// pre-plane solver prices under. Plane-aware solvers override this
    /// with their own shape checks.
    fn validate(&self, _seq: &RequestSeq, ctx: &RunContext) -> Result<(), String> {
        if ctx.plane.collapse_homogeneous().is_some() {
            Ok(())
        } else {
            Err(format!(
                "solver '{}' prices the paper's homogeneous model; the given '{}' cost plane \
                 does not collapse to one (try hetero_greedy, hetero_exact, or tiered_waterfall)",
                self.name(),
                ctx.plane.shape()
            ))
        }
    }

    /// Upper bound on the request-sequence length this solver stays
    /// tractable at, or `None` for the polynomial solvers. The
    /// registry-wide property tests clamp their random workloads to this
    /// (the exhaustive solver is exponential — historically its
    /// cross-validation capped traces at ~10 points).
    fn request_limit(&self) -> Option<usize> {
        None
    }

    /// Upper bound on the server count `m` this solver handles, or `None`
    /// for the solvers polynomial in `m`.
    fn server_limit(&self) -> Option<u32> {
        None
    }

    /// The package knobs this solver reads; the default reads none.
    fn package_knobs(&self) -> PackageKnobs {
        PackageKnobs::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_uses_the_workspace_defaults() {
        let ctx = RunContext::default();
        assert_eq!(ctx.theta, DEFAULT_THETA);
        assert_eq!(ctx.seed, DEFAULT_SEED);
        assert_eq!(ctx.max_group, 2);
        assert!(!ctx.adaptive);
        assert_eq!(ctx.model().mu(), mcs_model::defaults::DEFAULT_MU);
        assert_eq!(ctx.plane.shape(), "homogeneous");
    }

    #[test]
    fn paper_context_matches_the_running_example() {
        let ctx = RunContext::paper_example();
        assert_eq!(ctx.model().mu(), 1.0);
        assert_eq!(ctx.model().lambda(), 1.0);
        assert_eq!(ctx.theta, 0.4);
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(SolverKind::Offline.label(), "offline");
        assert_eq!(SolverKind::Online.label(), "online");
    }

    #[test]
    fn epoch_contexts_are_deterministic_and_distinct() {
        let base = RunContext::default()
            .with_seed(42)
            .with_theta(0.7)
            .with_max_group(5)
            .with_adaptive_theta();
        // Pure function of (seed, epoch): recovery replays it exactly.
        assert_eq!(base.for_epoch(3).seed, base.for_epoch(3).seed);
        // Distinct epochs (and distinct base seeds) draw distinct seeds.
        let mut seeds: Vec<u64> = (0..50).map(|e| base.for_epoch(e).seed).collect();
        seeds.push(RunContext::default().with_seed(43).for_epoch(0).seed);
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), n, "epoch seed collision");
        // Everything except the seed is inherited.
        let derived = base.for_epoch(9);
        assert_eq!(derived.theta, base.theta);
        assert_eq!(derived.model().mu(), base.model().mu());
        assert_eq!(derived.max_group, 5);
        assert!(derived.adaptive);
    }
}
