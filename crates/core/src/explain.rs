//! Human-readable decision traces: *why* DP_Greedy served each request the
//! way it did.
//!
//! Operators debugging a cost regression need more than a total — they
//! need the per-request story: which arm won, what the alternatives would
//! have cost, where the package DP placed cache intervals. This module
//! renders that narrative for a packed pair, line by line, in time order.

use std::fmt::Write as _;

use mcs_model::request::SingleItemTrace;
use mcs_model::{ItemId, RequestSeq, Schedule, ServerId};
use mcs_offline::ServeDecision;

use crate::singleton_greedy::Arm;
use crate::two_phase::{dp_greedy_pair, DpGreedyConfig, PairReport};

/// One explained serving decision.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Request time.
    pub time: f64,
    /// Human-readable line.
    pub line: String,
}

/// Explains every serving decision Phase 2 makes for the pair `(a, b)`.
///
/// Returns the pair report together with the time-ordered explanation
/// lines (one per request touching the pair).
pub fn explain_pair(
    seq: &RequestSeq,
    a: ItemId,
    b: ItemId,
    config: &DpGreedyConfig,
) -> (PairReport, Vec<Explanation>) {
    let report = dp_greedy_pair(seq, a, b, config);
    let mut lines = Vec::new();

    // Package DP decisions over co-requests.
    let co_trace = seq.package_trace(a, b);
    let pkg_model = config.model.scaled_for_package();
    let decisions = package_decisions(&report.package_schedule, &co_trace);
    for (p, d) in co_trace.points.iter().zip(decisions) {
        let how = match d {
            ServeDecision::Cache => "extends the package cache interval",
            ServeDecision::Transfer => "receives a package transfer",
        };
        lines.push(Explanation {
            time: p.time,
            line: format!(
                "t={:>6.2}  co-request ({}, {}) at {}: {how} (package rates 2αμ={:.2}, 2αλ={:.2})",
                p.time,
                a,
                b,
                p.server,
                pkg_model.mu(),
                pkg_model.lambda(),
            ),
        });
    }

    // Singleton greedy arms for each item.
    for (item, partner, greedy) in [(a, b, &report.a_greedy), (b, a, &report.b_greedy)] {
        // choice.event_index indexes the merged event list (singles +
        // co-requests in request order), which is the item's posting list.
        let postings = seq.posting_list(item);
        for choice in &greedy.choices {
            let r = seq.get(postings[choice.event_index] as usize);
            debug_assert!(!r.contains(partner), "a single, not a co-request");
            let how = match choice.arm {
                Arm::Cache => format!(
                    "cached locally from the previous {item} copy at {} (D arm)",
                    r.server
                ),
                Arm::Transfer => "transferred from the most recent copy (Tr arm)".into(),
                Arm::Package => format!(
                    "served by shipping the whole package at 2αλ={:.2} (P arm)",
                    config.model.package_delivery_cost()
                ),
            };
            lines.push(Explanation {
                time: r.time,
                line: format!(
                    "t={:>6.2}  singleton {item} at {}: {how}, paid {:.2}",
                    r.time, r.server, choice.cost
                ),
            });
        }
    }

    lines.sort_by(|x, y| x.time.partial_cmp(&y.time).expect("finite times"));
    (report, lines)
}

/// The package DP's decision for each co-request, read off the pair's
/// schedule instead of solving the DP again: the DP ships a transfer to a
/// request's server at its time exactly when it transfer-serves that
/// request, and co-request times strictly increase, so each time carries
/// at most one transfer.
fn package_decisions(schedule: &Schedule, co_trace: &SingleItemTrace) -> Vec<ServeDecision> {
    let mut transfers: Vec<(f64, ServerId)> = schedule
        .transfers
        .iter()
        .map(|tr| (tr.time, tr.to))
        .collect();
    transfers.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut transfers = transfers.into_iter().peekable();
    co_trace
        .points
        .iter()
        .map(|p| match transfers.next_if_eq(&(p.time, p.server)) {
            Some(_) => ServeDecision::Transfer,
            None => ServeDecision::Cache,
        })
        .collect()
}

/// Renders the full explanation as one string (header + lines + totals).
pub fn explain_pair_text(
    seq: &RequestSeq,
    a: ItemId,
    b: ItemId,
    config: &DpGreedyConfig,
) -> String {
    let (report, lines) = explain_pair(seq, a, b, config);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "DP_Greedy decisions for pair ({a}, {b}) — J = {:.4}, θ = {}, α = {}",
        report.jaccard,
        config.theta,
        config.model.alpha()
    );
    for l in &lines {
        let _ = writeln!(out, "{}", l.line);
    }
    let _ = writeln!(
        out,
        "totals: C12 = {:.2}, C1' = {:.2}, C2' = {:.2} → {:.2} over {} accesses (ave {:.4})",
        report.package_cost,
        report.a_singleton_cost,
        report.b_singleton_cost,
        report.total(),
        report.accesses,
        report.ave_cost()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{paper_model, paper_sequence};
    use mcs_model::rng::Rng;
    use mcs_model::{CostModel, RequestSeqBuilder};
    use mcs_offline::optimal;

    fn config() -> DpGreedyConfig {
        DpGreedyConfig::new(paper_model()).with_theta(0.4)
    }

    #[test]
    fn explains_every_request_of_the_running_example() {
        let seq = paper_sequence();
        let (report, lines) = explain_pair(&seq, ItemId(0), ItemId(1), &config());
        // 3 co-requests + 2 d1 singles + 2 d2 singles = 7 lines.
        assert_eq!(lines.len(), 7);
        // Time-ordered.
        for w in lines.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!((report.total() - 14.96).abs() < 1e-9);
    }

    #[test]
    fn narrative_matches_the_papers_arms() {
        let seq = paper_sequence();
        let text = explain_pair_text(&seq, ItemId(0), ItemId(1), &config());
        // The 0.5 singleton transfers; the 2.6 and 3.2 singletons use the
        // package arm (Section V-C steps 5–6).
        assert!(text.contains("t=  0.50"), "{text}");
        let package_lines = text.matches("P arm").count();
        assert_eq!(package_lines, 2, "{text}");
        let transfer_lines = text.matches("Tr arm").count();
        assert_eq!(transfer_lines, 2, "{text}");
        assert!(text.contains("totals: C12 = 8.96"), "{text}");
    }

    #[test]
    fn co_request_lines_name_the_package_rates() {
        let seq = paper_sequence();
        let text = explain_pair_text(&seq, ItemId(0), ItemId(1), &config());
        assert!(text.contains("2αμ=1.60"));
        assert_eq!(text.matches("co-request").count(), 3);
    }

    /// A random two-item instance over 2–5 servers with up to 60 requests
    /// at strictly increasing integer times (ties between the DP's arms
    /// are common), each for d1, d2 or both.
    fn random_pair_sequence(rng: &mut Rng) -> RequestSeq {
        let m = rng.gen_range(2u32..=5);
        let n = rng.gen_range(1usize..=60);
        let mut ticks: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..=120)).collect();
        ticks.sort_unstable();
        ticks.dedup();
        let mut b = RequestSeqBuilder::new(m, 2);
        for &t in &ticks {
            let items: &[u32] = match rng.gen_range(0u32..4) {
                0 => &[0],
                1 => &[1],
                _ => &[0, 1],
            };
            b = b.push(rng.gen_range(0..m), t as f64, items.iter().copied());
        }
        b.build().unwrap()
    }

    #[test]
    fn schedule_decisions_equal_the_package_dps_on_random_instances() {
        let mut co_requests = 0;
        for case in 0..512 {
            let mut rng = Rng::seed_from_u64(0xE5B1A1 + case);
            let seq = random_pair_sequence(&mut rng);
            let model = CostModel::new(
                rng.gen_range(1u32..=8) as f64 / 2.0,
                rng.gen_range(1u32..=8) as f64 / 2.0,
                rng.gen_range(2u32..=10) as f64 / 10.0,
            )
            .unwrap();
            let config = DpGreedyConfig::new(model);
            let report = dp_greedy_pair(&seq, ItemId(0), ItemId(1), &config);
            let co_trace = seq.package_trace(ItemId(0), ItemId(1));
            let solved = optimal(&co_trace, &model.scaled_for_package());
            assert_eq!(
                package_decisions(&report.package_schedule, &co_trace),
                solved.decisions,
                "case {case}"
            );
            co_requests += co_trace.len();
        }
        assert!(co_requests > 5_000, "only {co_requests} co-requests");
    }
}
