//! The registered [`CachingSolver`] implementations.
//!
//! Every solver is a zero-sized struct wrapping one of the workspace's
//! algorithm entry points. The interesting work is building the
//! [`SolutionPart`] list so the generic ledger derivation reconciles
//! (`Σ event.cost == total_cost`) for every solver:
//!
//! * Schedule-producing solvers (`dp_greedy`, `optimal`, `greedy`,
//!   `package_served`, `windowed`, `ski_rental`) emit their explicit
//!   schedules, priced at the rates they were computed under.
//! * Cost-only exact solvers (`optimal_fast`, `exhaustive`) prove the
//!   same optimum as `optimal`, so their parts are derived from
//!   `optimal`'s schedule — the reconciliation check then doubles as a
//!   cross-validation of the fast/exhaustive cost against the covering
//!   DP's schedule.
//! * Aggregate-only solvers (`online_dpg`, `resilient`, the partial
//!   serving of `multi`) emit channel-attributed lump costs.
//!
//! Whole-run aggregates that have no natural single subject are
//! attributed to `Subject::Item(0)` by convention.

use dp_greedy::baselines::package_served_pair;
use dp_greedy::ledger::arm_name;
use dp_greedy::multi_item::{
    dp_greedy_multi, dp_greedy_packages, MultiItemConfig, MultiItemReport,
};
use dp_greedy::singleton_greedy::SingletonGreedyOutcome;
use dp_greedy::two_phase::{dp_greedy, DpGreedyConfig, DpGreedyReport};
use dp_greedy::windowed::slice_windows;
use mcs_correlation::matching::greedy_matching_from_pairs;
use mcs_correlation::{adaptive_theta, agglomerative_packages, pairs_above, PairTable};
use mcs_model::fault::FaultPlan;
use mcs_model::request::SingleItemTrace;
use mcs_model::{CostModel, ItemId, RequestSeq, Schedule};
use mcs_obs::Subject;
use mcs_offline::exhaustive::exhaustive_optimal;
use mcs_offline::hetero::{hetero_exact, hetero_greedy_report, MAX_SERVERS};
use mcs_offline::{greedy::greedy, optimal, optimal_fast_cost};
use mcs_online::online_dpg::{online_dp_greedy, OnlineDpgConfig};
use mcs_online::tiered::tiered_run;
use mcs_online::{resilient_ski_rental, ski_rental};

use crate::solution::{ServeChoice, Solution, SolutionPart};
use crate::{CachingSolver, RunContext, SolverKind};

fn serve_part(item: ItemId, greedy_out: &SingletonGreedyOutcome, shift: f64) -> SolutionPart {
    SolutionPart::Serve {
        phase: "phase2.serve",
        subject: Subject::Item(item.0),
        choices: greedy_out
            .choices
            .iter()
            .map(|c| ServeChoice {
                option_chosen: arm_name(c.arm),
                option_costs: c.option_costs,
                t: c.time + shift,
                cost: c.cost,
            })
            .collect(),
    }
}

/// Shifts every time in `schedule` by `dt` (used to lift window-relative
/// schedules back to global time for the ledger).
fn shift_schedule(mut schedule: Schedule, dt: f64) -> Schedule {
    if dt != 0.0 {
        for iv in &mut schedule.intervals {
            iv.span.start += dt;
            iv.span.end += dt;
        }
        for tr in &mut schedule.transfers {
            tr.time += dt;
        }
    }
    schedule
}

/// Emits the parts of one DP_Greedy report, in the order the original
/// `dp_greedy_ledger` builder walked it (pairs first: package schedule,
/// then the two serve streams; then unpacked singletons). `shift` lifts
/// window-relative times to global time (0 for a whole-sequence run).
fn dp_greedy_parts(
    report: DpGreedyReport,
    model: &CostModel,
    shift: f64,
    parts: &mut Vec<SolutionPart>,
) {
    let pkg = model.scaled_for_package();
    for pair in report.pairs {
        parts.push(SolutionPart::Schedule {
            phase: "phase2.package",
            subject: Subject::Pair(pair.a.0, pair.b.0),
            schedule: shift_schedule(pair.package_schedule, shift),
            mu: pkg.mu(),
            lambda: pkg.lambda(),
        });
        parts.push(serve_part(pair.a, &pair.a_greedy, shift));
        parts.push(serve_part(pair.b, &pair.b_greedy, shift));
    }
    for s in report.singletons {
        parts.push(SolutionPart::Schedule {
            phase: "phase2.unpacked",
            subject: Subject::Item(s.item.0),
            schedule: shift_schedule(s.schedule, shift),
            mu: model.mu(),
            lambda: model.lambda(),
        });
    }
}

/// Per-item schedule parts for the non-packing baselines: runs `solve`
/// on every item trace, summing costs. Returns (parts, total).
///
/// Items are independent, so from `PARALLEL_THRESHOLD` requests on the
/// solves fan out over worker threads (`mcs_model::par::threads_for`;
/// `MCS_THREADS=1` forces serial). Order is preserved and costs are
/// summed in item order afterwards, so parts and total are bit-identical
/// to a sequential loop for any thread count.
fn per_item_parts(
    seq: &RequestSeq,
    model: &CostModel,
    phase: &'static str,
    solve: impl Fn(&SingleItemTrace, &CostModel) -> (Schedule, f64) + Sync,
) -> (Vec<SolutionPart>, f64) {
    let items: Vec<ItemId> = (0..seq.items()).map(ItemId).collect();
    let threads = mcs_model::par::threads_for(seq.len());
    let solved = mcs_model::par::par_map_with_threads(&items, threads, |&item| {
        solve(&seq.item_trace(item), model)
    });
    let mut parts = Vec::with_capacity(solved.len());
    let mut total = 0.0;
    for (item, (schedule, cost)) in items.into_iter().zip(solved) {
        total += cost;
        parts.push(SolutionPart::Schedule {
            phase,
            subject: Subject::Item(item.0),
            schedule,
            mu: model.mu(),
            lambda: model.lambda(),
        });
    }
    (parts, total)
}

/// The paper's two-phase DP_Greedy algorithm.
pub struct DpGreedySolver;

impl CachingSolver for DpGreedySolver {
    fn name(&self) -> &'static str {
        "dp_greedy"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "two-phase DP_Greedy: Jaccard pair packing + package DP + three-arm greedy"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = ctx.model();
        let report = dp_greedy(seq, &DpGreedyConfig::new(model).with_theta(ctx.theta));
        let (total_cost, total_accesses) = (report.total_cost, report.total_accesses);
        let mut parts = Vec::new();
        dp_greedy_parts(report, &model, 0.0, &mut parts);
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost,
            total_accesses,
            parts,
        }
    }
}

/// The non-packing Optimal yardstick (per-item covering DP of \[6\]).
pub struct OptimalSolver;

impl CachingSolver for OptimalSolver {
    fn name(&self) -> &'static str {
        "optimal"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "per-item optimal off-line caching (covering DP of [6]); no packing"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let (parts, total) = per_item_parts(seq, &ctx.model(), "offline", |trace, model| {
            let out = optimal(trace, model);
            (out.schedule, out.cost)
        });
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// The O(n log n) fast variant of the optimal solver (cost only); ledger
/// parts come from the covering DP's schedule, whose cost is provably
/// equal — so reconciliation cross-validates the fast cost.
pub struct OptimalFastSolver;

impl CachingSolver for OptimalFastSolver {
    fn name(&self) -> &'static str {
        "optimal_fast"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "fast per-item optimal (cost-only); ledger derived from the covering DP"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        // The per-item closure returns (ledger schedule, fast cost): the
        // schedule comes from the covering DP, the summed total from the
        // fast recurrence — reconciliation then cross-validates them.
        let (parts, total) = per_item_parts(seq, &ctx.model(), "offline", |trace, model| {
            let fast = optimal_fast_cost(trace, model);
            let out = optimal(trace, model);
            (out.schedule, fast)
        });
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// The simple per-item greedy of Fig. 4 (the 2-approximation baseline).
pub struct GreedySolver;

impl CachingSolver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "per-item simple greedy of Fig. 4 (within 2x of optimal); no packing"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let (parts, total) = per_item_parts(seq, &ctx.model(), "offline", |trace, model| {
            let out = greedy(trace, model);
            (out.schedule, out.cost)
        });
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// Exact optimum by exhaustive subset enumeration (exponential; exists to
/// cross-check the covering DP). Ledger parts come from the covering
/// DP's schedule, as for [`OptimalFastSolver`].
pub struct ExhaustiveSolver;

impl CachingSolver for ExhaustiveSolver {
    fn name(&self) -> &'static str {
        "exhaustive"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "exact optimum by exhaustive enumeration (small traces only)"
    }
    fn request_limit(&self) -> Option<usize> {
        // Exponential in the cacheable-request count per item; cap the
        // whole sequence well below `exhaustive::MAX_CACHEABLE`.
        Some(18)
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let (parts, total) = per_item_parts(seq, &ctx.model(), "offline", |trace, model| {
            let exact = exhaustive_optimal(trace, model);
            let out = optimal(trace, model);
            (out.schedule, exact)
        });
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// The Package_Served extreme of Fig. 13: matched pairs are always
/// packed (optimal DP over the union trace at package rates); leftovers
/// served per-item optimally.
pub struct PackageServedSolver;

impl CachingSolver for PackageServedSolver {
    fn name(&self) -> &'static str {
        "package_served"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "always-pack extreme: matched pairs served entirely by package"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = &ctx.model();
        let packing =
            greedy_matching_from_pairs(pairs_above(seq, ctx.theta), seq.items(), ctx.theta);
        let pkg = model.scaled_for_package();

        let mut parts = Vec::new();
        let mut total = 0.0;
        for &(a, b) in &packing.pairs {
            let union = seq.union_trace(a, b);
            let out = optimal(&union, &pkg);
            debug_assert!((out.cost - package_served_pair(seq, a, b, model)).abs() < 1e-9);
            total += out.cost;
            parts.push(SolutionPart::Schedule {
                phase: "phase2.package",
                subject: Subject::Pair(a.0, b.0),
                schedule: out.schedule,
                mu: pkg.mu(),
                lambda: pkg.lambda(),
            });
        }
        for &item in &packing.singletons {
            let out = optimal(&seq.item_trace(item), model);
            total += out.cost;
            parts.push(SolutionPart::Schedule {
                phase: "offline",
                subject: Subject::Item(item.0),
                schedule: out.schedule,
                mu: model.mu(),
                lambda: model.lambda(),
            });
        }
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// Emits the parts of one [`MultiItemReport`]: per package, an explicit
/// schedule at group rates plus aggregate package/transfer channels for
/// the partial-subset serving; per singleton, the re-derived per-item
/// optimal schedule. Shared by [`MultiSolver`] and [`KPackSolver`].
fn multi_report_parts(
    seq: &RequestSeq,
    report: &MultiItemReport,
    model: &CostModel,
) -> Vec<SolutionPart> {
    let horizon = seq.horizon();
    let mut parts = Vec::new();
    for g in &report.groups {
        let k = g.items.len() as u32;
        let subject = Subject::Pair(g.items[0].0, g.items[1].0);
        parts.push(SolutionPart::Schedule {
            phase: "phase2.package",
            subject,
            schedule: g.package_schedule.clone(),
            mu: model.cache_rate_package(k),
            lambda: model.transfer_cost_package(k),
        });
        // Partial-subset serving: `group_deliveries` shipments at the
        // group transfer cost went over the package channel; the rest
        // of the partial cost is individual serving.
        let delivered = g.group_deliveries as f64 * model.transfer_cost_package(k);
        if delivered > 0.0 {
            parts.push(SolutionPart::Aggregate {
                phase: "phase2.partial",
                subject,
                channel: "package",
                t: horizon,
                cost: delivered,
            });
        }
        let individual = g.partial_cost - delivered;
        if individual != 0.0 {
            parts.push(SolutionPart::Aggregate {
                phase: "phase2.partial",
                subject,
                channel: "transfer",
                t: horizon,
                cost: individual,
            });
        }
    }
    for &(item, _) in &report.singletons {
        // Singleton cost is the per-item optimum; re-derive the
        // schedule (deterministic) for exact events.
        let out = optimal(&seq.item_trace(item), model);
        parts.push(SolutionPart::Schedule {
            phase: "offline",
            subject: Subject::Item(item.0),
            schedule: out.schedule,
            mu: model.mu(),
            lambda: model.lambda(),
        });
    }
    parts
}

/// Multi-item DP_Greedy (groups beyond pairs). Full-group co-requests
/// get an explicit package schedule at group rates; partial-subset
/// serving is aggregate-only, split into its package-delivery portion
/// and the individually-served remainder.
pub struct MultiSolver;

impl CachingSolver for MultiSolver {
    fn name(&self) -> &'static str {
        "multi"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "multi-item DP_Greedy: agglomerative grouping beyond pairs"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = &ctx.model();
        let report = dp_greedy_multi(seq, &MultiItemConfig::new(*model).with_theta(ctx.theta));
        let parts = multi_report_parts(seq, &report, model);
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: report.total_cost,
            total_accesses: report.total_accesses,
            parts,
        }
    }
}

/// Adaptive K-package DP_Greedy behind the registry seam: the greedy pair
/// matcher at `max_group = 2`, the agglomerative K-matcher over a
/// [`PairTable`] (memory linear in the observed pairs) above it.
/// `--adaptive` derives `θ` per trace from the sequence's co-request
/// density ([`adaptive_theta`]). At `max_group = 2` the solver delegates
/// to the exact `dp_greedy` pipeline, so cost bits and ledger parts are
/// identical to [`DpGreedySolver`] (modulo the `algo` label) for the same
/// `θ` — the K = 2 reduction the workspace tests pin.
pub struct KPackSolver;

impl CachingSolver for KPackSolver {
    fn name(&self) -> &'static str {
        "dpg_k"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "K-package DP_Greedy: sparse agglomerative matching up to max_group, adaptive theta"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = &ctx.model();
        let theta = if ctx.adaptive {
            adaptive_theta(
                seq.total_item_accesses(),
                seq.total_pair_events(),
                model.alpha(),
            )
        } else {
            ctx.theta
        };
        if ctx.max_group <= 2 {
            // Pairwise shape: the exact two-phase pipeline (Algorithm 1).
            let report = dp_greedy(seq, &DpGreedyConfig::new(*model).with_theta(theta));
            let (total_cost, total_accesses) = (report.total_cost, report.total_accesses);
            let mut parts = Vec::new();
            dp_greedy_parts(report, model, 0.0, &mut parts);
            return Solution {
                algo: self.name(),
                kind: self.kind(),
                total_cost,
                total_accesses,
                parts,
            };
        }
        let packages = agglomerative_packages(&PairTable::from_sequence(seq), theta, ctx.max_group);
        let report = dp_greedy_packages(seq, &packages, model);
        let parts = multi_report_parts(seq, &report, model);
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: report.total_cost,
            total_accesses: report.total_accesses,
            parts,
        }
    }
}

/// Windowed DP_Greedy: both phases re-run per time window (quarter of
/// the horizon) so the packing adapts to correlation drift.
pub struct WindowedSolver;

impl WindowedSolver {
    /// Window length for a given sequence: a quarter of the horizon, so
    /// the packing gets four chances to adapt.
    pub fn window_for(seq: &RequestSeq) -> f64 {
        (seq.horizon() / 4.0).max(f64::MIN_POSITIVE)
    }
}

impl CachingSolver for WindowedSolver {
    fn name(&self) -> &'static str {
        "windowed"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "windowed DP_Greedy: re-packs per quarter-horizon window (drift-adaptive)"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let mut parts = Vec::new();
        let mut total = 0.0;
        if !seq.is_empty() {
            let model = ctx.model();
            let window = WindowedSolver::window_for(seq);
            let inner = DpGreedyConfig::new(model).with_theta(ctx.theta);
            for (start, _, slice) in slice_windows(seq, window) {
                let report = dp_greedy(&slice, &inner);
                total += report.total_cost;
                dp_greedy_parts(report, &model, start, &mut parts);
            }
        }
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// Per-item on-line ski-rental (rent-or-buy with a moving backbone).
pub struct SkiRentalSolver;

impl CachingSolver for SkiRentalSolver {
    fn name(&self) -> &'static str {
        "ski_rental"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Online
    }
    fn description(&self) -> &'static str {
        "per-item on-line ski-rental (rent-or-buy; 3-competitive family)"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let (parts, total) = per_item_parts(seq, &ctx.model(), "online", |trace, model| {
            let out = ski_rental(trace, model);
            (out.schedule, out.cost)
        });
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// Per-item exact offline caching under a heterogeneous cost plane
/// (per-server `μ_s`, per-link `λ_st`). The DP state space is the server
/// power set, so the solver is gated to [`MAX_SERVERS`] servers and a
/// short request budget; its `validate` turns both gates into typed
/// usage errors instead of panics.
///
/// The heterogeneous DP proves a cost but no explicit schedule, so each
/// item contributes one aggregate event on the `cache` channel (the
/// dominant residence term); the total is folded in ledger-event order,
/// making the reconciliation gap exactly zero.
pub struct HeteroExactSolver;

impl CachingSolver for HeteroExactSolver {
    fn name(&self) -> &'static str {
        "hetero_exact"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "per-item exact offline caching under per-server mu and per-link lambda (<=16 servers)"
    }
    fn request_limit(&self) -> Option<usize> {
        // The subset DP is exponential in the fleet size; keep the
        // registry property tests and the paper example in range while
        // excusing this solver from the large perf workloads.
        Some(32)
    }
    fn validate(&self, seq: &RequestSeq, ctx: &RunContext) -> Result<(), String> {
        if seq.servers() > MAX_SERVERS {
            return Err(format!(
                "hetero_exact handles at most {MAX_SERVERS} servers but the trace has {}",
                seq.servers()
            ));
        }
        ctx.plane
            .hetero_view(seq.servers())
            .map(|_| ())
            .map_err(|e| format!("hetero_exact: {e}"))
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = ctx
            .plane
            .hetero_view(seq.servers())
            .expect("validated: plane has a heterogeneous view");
        let horizon = seq.horizon();
        let items: Vec<ItemId> = (0..seq.items()).map(ItemId).collect();
        let costs = mcs_model::par::par_map(&items, |&item| {
            hetero_exact(&seq.item_trace(item), &model).expect("validated: model sized for trace")
        });
        let mut parts = Vec::new();
        let mut total = 0.0;
        for (item, cost) in items.into_iter().zip(costs) {
            total += cost;
            if cost != 0.0 {
                parts.push(SolutionPart::Aggregate {
                    phase: "offline",
                    subject: Subject::Item(item.0),
                    channel: "cache",
                    t: horizon,
                    cost,
                });
            }
        }
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// Per-item greedy serving under a heterogeneous cost plane: at each
/// request, bridge the cache from the previous holder or re-transfer
/// over the cheapest link, whichever is cheaper (ties cache). Polynomial
/// — the fleet-size companion to [`HeteroExactSolver`]'s yardstick.
///
/// Each item emits its `cache`/`transfer` channel split from
/// [`hetero_greedy_report`]; the total is folded in ledger-event order
/// so the reconciliation gap is exactly zero.
pub struct HeteroGreedySolver;

impl CachingSolver for HeteroGreedySolver {
    fn name(&self) -> &'static str {
        "hetero_greedy"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "per-item greedy serving under per-server mu and per-link lambda (any fleet size)"
    }
    fn validate(&self, seq: &RequestSeq, ctx: &RunContext) -> Result<(), String> {
        ctx.plane
            .hetero_view(seq.servers())
            .map(|_| ())
            .map_err(|e| format!("hetero_greedy: {e}"))
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = ctx
            .plane
            .hetero_view(seq.servers())
            .expect("validated: plane has a heterogeneous view");
        let horizon = seq.horizon();
        let items: Vec<ItemId> = (0..seq.items()).map(ItemId).collect();
        let reports = mcs_model::par::par_map(&items, |&item| {
            hetero_greedy_report(&seq.item_trace(item), &model)
                .expect("validated: model sized for trace")
        });
        let mut parts = Vec::new();
        let mut total = 0.0;
        for (item, report) in items.into_iter().zip(reports) {
            for (channel, cost) in [
                ("cache", report.cache_cost),
                ("transfer", report.transfer_cost),
            ] {
                if cost != 0.0 {
                    total += cost;
                    parts.push(SolutionPart::Aggregate {
                        phase: "offline",
                        subject: Subject::Item(item.0),
                        channel,
                        t: horizon,
                        cost,
                    });
                }
            }
        }
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// On-line tiered waterfall caching ([`mcs_online::tiered`]): per-server
/// L1→…→Lk storage ladders with promotion on hit, LRU demotion cascades
/// under capacity pressure, and peer-vs-origin fetch on miss.
///
/// The run reports a whole-fleet outcome, emitted as two aggregate
/// events — residence on `cache`, fetches plus tier moves on `transfer`
/// — whose association order matches [`mcs_online::tiered::TieredOutcome`],
/// so the reconciliation gap is exactly zero.
pub struct TieredWaterfallSolver;

impl CachingSolver for TieredWaterfallSolver {
    fn name(&self) -> &'static str {
        "tiered_waterfall"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Online
    }
    fn description(&self) -> &'static str {
        "on-line tiered waterfall: per-server storage ladders, promotion/demotion, peer fetch"
    }
    fn validate(&self, seq: &RequestSeq, ctx: &RunContext) -> Result<(), String> {
        ctx.plane
            .tiered_view(seq.servers())
            .map(|_| ())
            .map_err(|e| format!("tiered_waterfall: {e}"))
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = ctx
            .plane
            .tiered_view(seq.servers())
            .expect("validated: plane has a tiered view");
        let out = tiered_run(seq, &model).expect("validated: model sized for trace");
        let horizon = seq.horizon();
        let mut parts = Vec::new();
        for (channel, cost) in [
            ("cache", out.cache_cost),
            ("transfer", out.transfer_cost + out.move_cost),
        ] {
            if cost != 0.0 {
                parts.push(SolutionPart::Aggregate {
                    phase: "online",
                    subject: Subject::Item(0),
                    channel,
                    t: horizon,
                    cost,
                });
            }
        }
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: out.cost,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// On-line DP_Greedy: incremental Jaccard tracking + package-aware
/// ski-rental serving. Aggregate-only (the policy reports counters, not
/// schedules); the cache channel is the residual after transfers.
pub struct OnlineDpgSolver;

impl CachingSolver for OnlineDpgSolver {
    fn name(&self) -> &'static str {
        "online_dpg"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Online
    }
    fn description(&self) -> &'static str {
        "on-line DP_Greedy: streaming Jaccard packing + package-aware ski-rental"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = ctx.model();
        let mut config = OnlineDpgConfig::new(model);
        config.theta = ctx.theta;
        let out = online_dp_greedy(seq, &config);
        let horizon = seq.horizon();
        let transfer = out.transfers as f64 * model.lambda();
        let package = out.package_transfers as f64 * model.package_delivery_cost();
        let cache = out.cost - transfer - package;
        let mut parts = Vec::new();
        for (channel, cost) in [
            ("cache", cache),
            ("transfer", transfer),
            ("package", package),
        ] {
            if cost != 0.0 {
                parts.push(SolutionPart::Aggregate {
                    phase: "online",
                    subject: Subject::Item(0),
                    channel,
                    t: horizon,
                    cost,
                });
            }
        }
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: out.cost,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}

/// Crash-aware ski-rental run under the context's fault plan (ideal
/// fleet when none is set). Aggregate-only per item: `λ`·attempts on the
/// transfer channel, the rent residual on the cache channel.
pub struct ResilientSolver;

impl CachingSolver for ResilientSolver {
    fn name(&self) -> &'static str {
        "resilient"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Online
    }
    fn description(&self) -> &'static str {
        "crash-aware ski-rental under the context's FaultPlan (re-plans on loss)"
    }
    fn solve(&self, seq: &RequestSeq, ctx: &RunContext) -> Solution {
        let model = &ctx.model();
        let none = FaultPlan::none();
        let plan = ctx.fault_plan.as_ref().unwrap_or(&none);
        let mut parts = Vec::new();
        let mut total = 0.0;
        for i in 0..seq.items() {
            let item = ItemId(i);
            let trace = seq.item_trace(item);
            if trace.is_empty() {
                continue;
            }
            let horizon = trace.points.last().map_or(0.0, |p| p.time);
            let out = resilient_ski_rental(&trace, model, plan);
            total += out.cost;
            let transfer = out.attempts as f64 * model.lambda();
            let cache = out.cost - transfer;
            for (channel, cost) in [("cache", cache), ("transfer", transfer)] {
                if cost != 0.0 {
                    parts.push(SolutionPart::Aggregate {
                        phase: "online",
                        subject: Subject::Item(item.0),
                        channel,
                        t: horizon,
                        cost,
                    });
                }
            }
        }
        Solution {
            algo: self.name(),
            kind: self.kind(),
            total_cost: total,
            total_accesses: seq.total_item_accesses(),
            parts,
        }
    }
}
