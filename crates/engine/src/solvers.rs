//! The registered [`CachingSolver`] implementations.
//!
//! Every solver is a zero-sized struct wrapping one of the workspace's
//! algorithm entry points. A row implements only
//! [`CachingSolver::solve_parts`], its total and its [`SolutionPart`]
//! list, and the trait's provided `solve` builds the
//! [`crate::Solution`]. The interesting work is building parts whose
//! generic ledger derivation reconciles (`Σ event.cost == total_cost`)
//! for every solver:
//!
//! * Schedule-producing solvers (`dp_greedy`, `multi`, `optimal`,
//!   `greedy`, `package_served`, `windowed`, `ski_rental`)
//!   emit their explicit schedules, priced at the rates they were
//!   computed under.
//! * The cost-only exact solver (`exhaustive`) proves the same optimum
//!   as `optimal`, so its parts are derived from `optimal`'s schedule —
//!   the reconciliation check then doubles as a cross-validation of the
//!   enumerated cost against the covering DP's schedule.
//! * Aggregate-only solvers (`online_dpg`, `hetero_*`,
//!   `tiered_waterfall`) emit channel-attributed lump costs.
//!
//! `dp_greedy`, `multi` and `windowed` run the one two-phase pipeline,
//! `dp_greedy::two_phase::dp_greedy` (per window for `windowed`, through
//! `dp_greedy::windowed::dp_greedy_windowed`), in which only Phase 1
//! depends on the package-size cap K; the engine only turns its reports
//! into parts (`report_parts`). Every row that packs takes θ from
//! [`RunContext::theta_for`]. The rows that serve each item on its own
//! (`optimal`, `greedy`, `exhaustive`, `ski_rental`, `hetero_*`) run
//! through one per-item loop (`per_item`).
//!
//! Whole-run aggregates that have no natural single subject are
//! attributed to `Commodity::Item(0)` by convention.

use dp_greedy::baselines::package_served_pair;
use dp_greedy::singleton_greedy::{Arm, ArmChoice};
use dp_greedy::two_phase::{
    dp_greedy, pair_packing, DpGreedyConfig, DpGreedyReport, PackageReport,
};
use dp_greedy::windowed::{dp_greedy_windowed, WindowedConfig};
use mcs_model::par::{max_threads, par_map_with_threads, threads_for};
use mcs_model::request::SingleItemTrace;
use mcs_model::{CostModel, ItemId, RequestSeq, Schedule};
use mcs_offline::exhaustive::exhaustive_optimal;
use mcs_offline::hetero::{hetero_exact, hetero_greedy_report, MAX_SERVERS};
use mcs_offline::{greedy::greedy, optimal};
use mcs_online::online_dpg::{online_dp_greedy, OnlineDpgConfig};
use mcs_online::ski_rental;
use mcs_online::tiered::tiered_run;

use crate::solution::{Commodity, ServeChoice, SolutionPart};
use crate::{CachingSolver, PackageKnobs, RunContext, SolverKind};

/// The ledger spelling of a three-arm choice, one of
/// `mcs_obs::ledger::OPTION_NAMES`.
fn arm_name(arm: Arm) -> &'static str {
    match arm {
        Arm::Cache => "cache",
        Arm::Transfer => "transfer",
        Arm::Package => "package",
    }
}

fn serve_part(subject: Commodity, choices: &[ArmChoice], shift: f64) -> SolutionPart {
    SolutionPart::Serve {
        phase: "phase2.serve",
        subject,
        choices: choices
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

/// Emits the parts of one package's Phase-2 run: the package schedule
/// at the rates of `g` items (`αgμ`, `αgλ`), then each member's serve
/// choices in member order, then the shared deliveries on the package
/// (none for a pair). Their ledger reconciles with
/// [`PackageReport::total`]. `shift` lifts window-relative times to
/// global time (0 for a whole-sequence run). The per-pair experiments of
/// Figs. 11 and 13 derive their cost breakdowns from it, and `dpg
/// explain` prints its ledger.
pub fn package_parts(
    report: PackageReport,
    model: &CostModel,
    shift: f64,
    parts: &mut Vec<SolutionPart>,
) {
    let g = report.members.len() as u32;
    let package = match *report.members {
        [a, b] => Commodity::Pair(a.0, b.0),
        _ => Commodity::Package(report.members.iter().map(|m| m.0).collect()),
    };
    parts.push(SolutionPart::Schedule {
        phase: "phase2.package",
        subject: package.clone(),
        schedule: shift_schedule(report.package_schedule, shift),
        mu: model.cache_rate_package(g),
        lambda: model.transfer_cost_package(g),
    });
    for (member, greedy) in report.members.iter().zip(&report.members_greedy) {
        parts.push(serve_part(
            Commodity::Item(member.0),
            &greedy.choices,
            shift,
        ));
    }
    if !report.deliveries.is_empty() {
        parts.push(serve_part(package, &report.deliveries, shift));
    }
}

/// Appends the parts of a two-phase report: every package's
/// [`package_parts`], then the unpacked items' schedules
/// (`phase2.unpacked`), the order [`DpGreedyReport::total_cost`] sums
/// them in. `shift` lifts window-relative times to global time (0 for a
/// whole-sequence run).
fn report_parts(
    report: DpGreedyReport,
    model: &CostModel,
    shift: f64,
    parts: &mut Vec<SolutionPart>,
) {
    for package in report.packages {
        package_parts(package, model, shift, parts);
    }
    for s in report.singletons {
        parts.push(SolutionPart::Schedule {
            phase: "phase2.unpacked",
            subject: Commodity::Item(s.item.0),
            schedule: shift_schedule(s.schedule, shift),
            mu: model.mu(),
            lambda: model.lambda(),
        });
    }
}

/// [`dp_greedy`] over the whole sequence at the size cap `max_group` and
/// `ctx`'s θ rule: its total and parts.
fn two_phase_parts(
    seq: &RequestSeq,
    ctx: &RunContext,
    max_group: usize,
) -> (f64, Vec<SolutionPart>) {
    let config = DpGreedyConfig::new(ctx.model()).with_theta(ctx.theta_for(seq));
    let report = dp_greedy(seq, &config, max_group);
    let total = report.total_cost;
    let mut parts = Vec::new();
    report_parts(report, &config.model, 0.0, &mut parts);
    (total, parts)
}

/// The one per-item loop, behind every row that serves each item on
/// its own: runs `solve` on every item's trace over `threads` workers,
/// then adds each `(cost, part)` it returns to the total, in item order
/// and in the order returned, and keeps the parts that are `Some` (a
/// zero cost that writes no event leaves the total's bits as they are).
///
/// The caller picks `threads`: [`threads_for`] the request count, or
/// [`max_threads`] for an exponential per-item search. Workers keep
/// input order, so parts and total are bit-identical for any count.
fn per_item<R>(
    seq: &RequestSeq,
    threads: usize,
    solve: impl Fn(Commodity, &SingleItemTrace) -> R + Sync,
) -> (f64, Vec<SolutionPart>)
where
    R: IntoIterator<Item = (f64, Option<SolutionPart>)> + Send,
{
    let items: Vec<u32> = (0..seq.items()).collect();
    let solved = par_map_with_threads(&items, threads, |&item| {
        solve(Commodity::Item(item), &seq.item_trace(ItemId(item)))
    });
    let mut total = 0.0;
    let mut parts = Vec::with_capacity(items.len());
    for (cost, part) in solved.into_iter().flatten() {
        total += cost;
        parts.extend(part);
    }
    (total, parts)
}

/// [`per_item`] for the rows that price one explicit schedule per item at
/// the base rates: `solve` returns an item's schedule and the cost the
/// row adds for it.
fn per_item_schedules(
    seq: &RequestSeq,
    ctx: &RunContext,
    phase: &'static str,
    solve: impl Fn(&SingleItemTrace, &CostModel) -> (Schedule, f64) + Sync,
) -> (f64, Vec<SolutionPart>) {
    let model = ctx.model();
    per_item(seq, threads_for(seq.len()), |subject, trace| {
        let (schedule, cost) = solve(trace, &model);
        let part = SolutionPart::Schedule {
            phase,
            subject,
            schedule,
            mu: model.mu(),
            lambda: model.lambda(),
        };
        [(cost, Some(part))]
    })
}

/// A lump cost on one channel, or `None` for a zero cost, which writes no
/// event.
fn aggregate(
    phase: &'static str,
    subject: Commodity,
    channel: &'static str,
    t: f64,
    cost: f64,
) -> Option<SolutionPart> {
    (cost != 0.0).then_some(SolutionPart::Aggregate {
        phase,
        subject,
        channel,
        t,
        cost,
    })
}

/// The paper's two-phase DP_Greedy algorithm at the context's
/// package-size cap (`max_group`; 2 is the paper's pairwise algorithm,
/// above it Phase 1 is the agglomerative K-matcher over a
/// `mcs_correlation::PairTable`) and θ rule. The aliases `dpg`, `dpg_k`
/// and `kpack` name it.
pub struct DpGreedySolver;

impl CachingSolver for DpGreedySolver {
    fn name(&self) -> &'static str {
        "dp_greedy"
    }
    fn kind(&self) -> SolverKind {
        SolverKind::Offline
    }
    fn description(&self) -> &'static str {
        "two-phase DP_Greedy: Jaccard packing up to max_group (pairs) + package DP + three-arm greedy"
    }
    fn package_knobs(&self) -> PackageKnobs {
        PackageKnobs::ThetaAndCap
    }
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        two_phase_parts(seq, ctx, ctx.max_group)
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
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        per_item_schedules(seq, ctx, "offline", |trace, model| {
            let out = optimal(trace, model);
            (out.schedule, out.cost)
        })
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
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        per_item_schedules(seq, ctx, "offline", |trace, model| {
            let out = greedy(trace, model);
            (out.schedule, out.cost)
        })
    }
}

/// Exact optimum by exhaustive subset enumeration (exponential; exists to
/// cross-check the covering DP). Ledger parts come from the covering
/// DP's schedule, whose cost is provably equal — so reconciliation
/// cross-validates the enumerated cost.
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
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        per_item_schedules(seq, ctx, "offline", |trace, model| {
            let exact = exhaustive_optimal(trace, model);
            (optimal(trace, model).schedule, exact)
        })
    }
}

/// The Package_Served extreme of Fig. 13: the pairs of Phase 1
/// ([`pair_packing`] at the context's θ rule) are always packed (optimal
/// DP over the union trace at package rates); leftovers served per-item
/// optimally. Pairs only, so it reads no size cap.
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
    fn package_knobs(&self) -> PackageKnobs {
        PackageKnobs::Theta
    }
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        let model = &ctx.model();
        let packing = pair_packing(seq, ctx.theta_for(seq));
        let pkg = model.scaled_for_package();

        let mut parts = Vec::new();
        let mut total = 0.0;
        for &(a, b) in &packing.pairs {
            let out = package_served_pair(seq, a, b, model);
            total += out.cost;
            parts.push(SolutionPart::Schedule {
                phase: "phase2.package",
                subject: Commodity::Pair(a.0, b.0),
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
                subject: Commodity::Item(item.0),
                schedule: out.schedule,
                mu: model.mu(),
                lambda: model.lambda(),
            });
        }
        (total, parts)
    }
}

/// Multi-item DP_Greedy (groups beyond pairs): [`DpGreedySolver`]'s
/// pipeline at K = ∞ and the context's θ rule; it reads no size cap.
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
    fn package_knobs(&self) -> PackageKnobs {
        PackageKnobs::Theta
    }
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        two_phase_parts(seq, ctx, usize::MAX)
    }
}

/// Windowed DP_Greedy: both phases re-run per time window (quarter of
/// the horizon) at the context's size cap, so the packing adapts to
/// correlation drift. θ comes from the whole sequence's θ rule.
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
    fn package_knobs(&self) -> PackageKnobs {
        PackageKnobs::ThetaAndCap
    }
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        let model = ctx.model();
        let config = WindowedConfig {
            inner: DpGreedyConfig::new(model).with_theta(ctx.theta_for(seq)),
            window: WindowedSolver::window_for(seq),
        };
        let report = dp_greedy_windowed(seq, &config, ctx.max_group);
        let mut parts = Vec::new();
        for (start, window) in report.windows {
            report_parts(window, &model, start, &mut parts);
        }
        (report.total_cost, parts)
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
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        per_item_schedules(seq, ctx, "online", |trace, model| {
            let out = ski_rental(trace, model);
            (out.schedule, out.cost)
        })
    }
}

/// Per-item exact offline caching under a heterogeneous cost plane
/// (per-server `μ_s`, per-link `λ_st`). The DP state space is the server
/// power set, so the solver declares a limit of [`MAX_SERVERS`] servers
/// and a short request budget, which callers check before `solve`.
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
    fn server_limit(&self) -> Option<u32> {
        Some(MAX_SERVERS)
    }
    fn validate(&self, seq: &RequestSeq, ctx: &RunContext) -> Result<(), String> {
        ctx.plane
            .hetero_view(seq.servers())
            .map(|_| ())
            .map_err(|e| format!("hetero_exact: {e}"))
    }
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        let model = ctx
            .plane
            .hetero_view(seq.servers())
            .expect("validated: plane has a heterogeneous view");
        let horizon = seq.horizon();
        per_item(seq, max_threads(), |subject, trace| {
            let cost = hetero_exact(trace, &model).expect("validated: model sized for trace");
            [(cost, aggregate("offline", subject, "cache", horizon, cost))]
        })
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
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        let model = ctx
            .plane
            .hetero_view(seq.servers())
            .expect("validated: plane has a heterogeneous view");
        let horizon = seq.horizon();
        per_item(seq, max_threads(), |subject, trace| {
            let report =
                hetero_greedy_report(trace, &model).expect("validated: model sized for trace");
            [
                ("cache", report.cache_cost),
                ("transfer", report.transfer_cost),
            ]
            .map(|(channel, cost)| {
                let part = aggregate("offline", subject.clone(), channel, horizon, cost);
                (cost, part)
            })
        })
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
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        let model = ctx
            .plane
            .tiered_view(seq.servers())
            .expect("validated: plane has a tiered view");
        let out = tiered_run(seq, &model).expect("validated: model sized for trace");
        let horizon = seq.horizon();
        let parts = [
            ("cache", out.cache_cost),
            ("transfer", out.transfer_cost + out.move_cost),
        ]
        .into_iter()
        .filter_map(|(channel, cost)| {
            aggregate("online", Commodity::Item(0), channel, horizon, cost)
        })
        .collect();
        (out.cost, parts)
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
    fn solve_parts(&self, seq: &RequestSeq, ctx: &RunContext) -> (f64, Vec<SolutionPart>) {
        let model = ctx.model();
        let mut config = OnlineDpgConfig::new(model);
        config.theta = ctx.theta;
        let out = online_dp_greedy(seq, &config);
        let horizon = seq.horizon();
        let transfer = out.transfers as f64 * model.lambda();
        let package = out.package_transfers as f64 * model.package_delivery_cost();
        let cache = out.cost - transfer - package;
        let parts = [
            ("cache", cache),
            ("transfer", transfer),
            ("package", package),
        ]
        .into_iter()
        .filter_map(|(channel, cost)| {
            aggregate("online", Commodity::Item(0), channel, horizon, cost)
        })
        .collect();
        (out.cost, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find, Solution};
    use dp_greedy::baselines::optimal_pair;
    use dp_greedy::paper_example::paper_sequence;
    use mcs_model::approx_eq;

    /// Solves `seq` with the registry row `name` under `model` and `theta`.
    fn run(name: &str, seq: &RequestSeq, model: CostModel, theta: f64) -> Solution {
        let ctx = RunContext::new(model).with_theta(theta);
        find(name).expect("registered").solve(seq, &ctx)
    }

    #[test]
    fn optimal_baseline_sums_per_item_optima() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let r = run("optimal", &seq, model, 0.3);
        assert_eq!(r.parts.len(), 2);
        assert!(approx_eq(
            r.total_cost,
            r.parts.iter().map(SolutionPart::cost).sum::<f64>()
        ));
        assert!(approx_eq(
            r.total_cost,
            optimal_pair(&seq, ItemId(0), ItemId(1), &model)
        ));
        assert_eq!(r.total_accesses, 10);
    }

    #[test]
    fn greedy_baseline_is_at_least_optimal() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let o = run("optimal", &seq, model, 0.3);
        let g = run("greedy", &seq, model, 0.3);
        assert!(g.total_cost >= o.total_cost - 1e-9);
        assert!(g.total_cost <= 2.0 * o.total_cost + 1e-9);
    }

    #[test]
    fn tiny_alpha_makes_package_served_win() {
        // With α → small the always-pack extreme must beat per-item optimal
        // (Fig. 13, α = 0.2 panel).
        let seq = paper_sequence();
        let model = CostModel::new(1.0, 1.0, 0.2).unwrap();
        let ps = run("package_served", &seq, model, 0.3);
        let opt = run("optimal", &seq, model, 0.3);
        assert!(ps.total_cost < opt.total_cost);
    }

    #[test]
    fn large_alpha_makes_package_served_lose() {
        // With α = 1 there is no discount: always-packing pays double rates
        // on the union trace and must lose (Fig. 13, α = 0.8 trend).
        let seq = paper_sequence();
        let model = CostModel::new(1.0, 1.0, 1.0).unwrap();
        let ps = run("package_served", &seq, model, 0.3);
        let opt = run("optimal", &seq, model, 0.3);
        assert!(ps.total_cost > opt.total_cost);
    }

    #[test]
    fn package_served_with_prohibitive_theta_equals_optimal() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let ps = run("package_served", &seq, model, 0.99);
        let opt = run("optimal", &seq, model, 0.99);
        assert!(approx_eq(ps.total_cost, opt.total_cost));
    }

    #[test]
    fn reports_expose_ave_cost() {
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let r = run("optimal", &seq, model, 0.3);
        assert!(approx_eq(r.ave_cost(), r.total_cost / 10.0));
    }
}
