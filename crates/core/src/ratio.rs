//! Empirical verification of Theorem 1: `C_DPG / C* ≤ 2/α`.
//!
//! `C*` is the optimum of the paper's *packed* cost model (Section III):
//! copies of the two packed items that are co-located cache at the package
//! rate `2αμ` (vs `2μ` apart), and a joint transfer of both items costs
//! `2αλ` (vs `λ` each). This module computes `C*` exactly on small
//! instances by a layered dynamic program over
//! `(servers holding d_1, servers holding d_2)` states — the two-item
//! generalisation of [`mcs_offline::statespace`] — and compares it against
//! the DP_Greedy pair cost.
//!
//! Exponential in `m` (`O(n · 9^m)`); keep `m ≤ 6`.

use mcs_model::request::merge_postings;
use mcs_model::{CostModel, ItemId, RequestSeq, ServerId};

use crate::two_phase::{dp_greedy_pair, DpGreedyConfig};

/// Maximum server count accepted by the packed exact solver.
pub const MAX_SERVERS: u32 = 8;

/// Result of one ratio check.
#[derive(Debug, Clone, Copy)]
pub struct RatioCheck {
    /// DP_Greedy cost for the pair (`C_12 + C_1' + C_2'`).
    pub dpg: f64,
    /// Exact packed-model optimum `C*`.
    pub exact: f64,
    /// `dpg / exact` (`1.0` when both are zero).
    pub ratio: f64,
    /// Theorem 1's bound `2/α`.
    pub bound: f64,
}

/// Exact optimal cost of serving every request containing `a` or `b` under
/// the packed cost model.
///
/// # Panics
///
/// Panics if the sequence uses more than [`MAX_SERVERS`] servers.
pub fn packed_exact_optimal(seq: &RequestSeq, a: ItemId, b: ItemId, model: &CostModel) -> f64 {
    let m = seq.servers();
    assert!(
        m <= MAX_SERVERS,
        "packed exact solver limited to {MAX_SERVERS} servers, got {m}"
    );
    let mu = model.mu();
    let lambda = model.lambda();
    let alpha = model.alpha();
    let full = 1usize << m;
    let origin_bit = 1usize << ServerId::ORIGIN.index();

    // Relevant events: every request touching a or b, with need flags,
    // from one merge of the two posting lists.
    let mut events: Vec<(f64, usize, bool, bool)> = Vec::new();
    merge_postings(
        seq.posting_list(a),
        seq.posting_list(b),
        |index, need_a, need_b| {
            let r = seq.get(index);
            events.push((r.time, 1usize << r.server.index(), need_a, need_b));
        },
    );
    if events.is_empty() {
        return 0.0;
    }

    // dp[(mask_a << m) | mask_b] = min cost; start with both at the origin.
    let size = full * full;
    let idx = |ma: usize, mb: usize| (ma << m) | mb;
    let mut dp = vec![f64::INFINITY; size];
    dp[idx(origin_bit, origin_bit)] = 0.0;
    let mut prev_time = 0.0_f64;

    for &(time, s_bit, need_a, need_b) in &events {
        let dt = time - prev_time;
        prev_time = time;
        let mut next = vec![f64::INFINITY; size];

        for ma in 0..full {
            for mb in 0..full {
                let cost = dp[idx(ma, mb)];
                if !cost.is_finite() {
                    continue;
                }
                // Keep any subsets across the gap; co-located copies enjoy
                // the package caching rate (2αμ per co-located pair).
                let mut ka = ma;
                'ka: loop {
                    let mut kb = mb;
                    loop {
                        let singles = (ka | kb).count_ones() - (ka & kb).count_ones();
                        let pairs = (ka & kb).count_ones();
                        let hold =
                            cost + mu * dt * singles as f64 + 2.0 * alpha * mu * dt * pairs as f64;

                        serve(
                            &mut next, m, ka, kb, s_bit, need_a, need_b, hold, lambda, alpha,
                        );

                        if kb == 0 {
                            break;
                        }
                        kb = (kb - 1) & mb;
                    }
                    if ka == 0 {
                        break 'ka;
                    }
                    ka = (ka - 1) & ma;
                }
            }
        }
        dp = next;
    }

    dp.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Applies every way of satisfying the request's needs from kept masks
/// `(ka, kb)` and relaxes the successor states.
#[allow(clippy::too_many_arguments)]
fn serve(
    next: &mut [f64],
    m: u32,
    ka: usize,
    kb: usize,
    s_bit: usize,
    need_a: bool,
    need_b: bool,
    hold: f64,
    lambda: f64,
    alpha: f64,
) {
    let idx = |ma: usize, mb: usize| (ma << m) | mb;
    let missing_a = need_a && ka & s_bit == 0;
    let missing_b = need_b && kb & s_bit == 0;
    let has_joint_source = ka & kb != 0;
    let pkg = 2.0 * alpha * lambda;

    let mut relax = |ma: usize, mb: usize, c: f64| {
        let slot = &mut next[idx(ma, mb)];
        if c < *slot {
            *slot = c;
        }
    };

    match (missing_a, missing_b) {
        (false, false) => relax(ka, kb, hold),
        (true, false) => {
            if ka != 0 {
                // Individual transfer of a.
                relax(ka | s_bit, kb, hold + lambda);
            }
            if has_joint_source {
                // Package delivery also drops a copy of b at s.
                relax(ka | s_bit, kb | s_bit, hold + pkg);
            }
        }
        (false, true) => {
            if kb != 0 {
                relax(ka, kb | s_bit, hold + lambda);
            }
            if has_joint_source {
                relax(ka | s_bit, kb | s_bit, hold + pkg);
            }
        }
        (true, true) => {
            if ka != 0 && kb != 0 {
                // Two individual transfers.
                relax(ka | s_bit, kb | s_bit, hold + 2.0 * lambda);
            }
            if has_joint_source {
                relax(ka | s_bit, kb | s_bit, hold + pkg);
            }
        }
    }
}

/// Runs DP_Greedy on the pair and compares against the exact packed
/// optimum.
pub fn ratio_check(seq: &RequestSeq, a: ItemId, b: ItemId, config: &DpGreedyConfig) -> RatioCheck {
    let dpg = dp_greedy_pair(seq, a, b, config).total();
    let exact = packed_exact_optimal(seq, a, b, &config.model);
    let ratio = if exact == 0.0 { 1.0 } else { dpg / exact };
    RatioCheck {
        dpg,
        exact,
        ratio,
        bound: config.model.approximation_bound(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::rng::Rng;
    use mcs_model::{approx_eq, RequestSeq, RequestSeqBuilder};
    use mcs_offline::optimal;

    fn paper_sequence() -> RequestSeq {
        RequestSeqBuilder::new(4, 2)
            .push(1u32, 0.5, [0])
            .push(2u32, 0.8, [0, 1])
            .push(3u32, 1.1, [1])
            .push(0u32, 1.4, [0, 1])
            .push(1u32, 2.6, [0])
            .push(1u32, 3.2, [1])
            .push(2u32, 4.0, [0, 1])
            .build()
            .unwrap()
    }

    #[test]
    fn exact_packed_reduces_to_single_item_when_b_absent() {
        // No requests for b: the packed model degenerates to single-item
        // optimal for a (b's copy dies immediately at zero cost).
        let seq = RequestSeqBuilder::new(3, 2)
            .push(1u32, 1.0, [0])
            .push(2u32, 2.0, [0])
            .push(1u32, 3.0, [0])
            .build()
            .unwrap();
        let model = CostModel::paper_example();
        let exact = packed_exact_optimal(&seq, ItemId(0), ItemId(1), &model);
        let single = optimal(&seq.item_trace(ItemId(0)), &model).cost;
        assert!(approx_eq(exact, single), "exact={exact} single={single}");
    }

    #[test]
    fn exact_packed_is_at_most_package_dp_on_pure_co_sequences() {
        // All requests are co-requests: DP_Greedy's package DP is one
        // feasible strategy of the packed model, so C* ≤ C_12.
        let seq = RequestSeqBuilder::new(4, 2)
            .push(2u32, 0.8, [0, 1])
            .push(0u32, 1.4, [0, 1])
            .push(2u32, 4.0, [0, 1])
            .build()
            .unwrap();
        let model = CostModel::paper_example();
        let exact = packed_exact_optimal(&seq, ItemId(0), ItemId(1), &model);
        let pkg = optimal(
            &seq.package_trace(ItemId(0), ItemId(1)),
            &model.scaled_for_package(),
        )
        .cost;
        assert!(exact <= pkg + 1e-9, "exact={exact} pkg={pkg}");
    }

    #[test]
    fn theorem_1_holds_on_the_running_example() {
        let seq = paper_sequence();
        let config = DpGreedyConfig::new(CostModel::paper_example()).with_theta(0.4);
        let check = ratio_check(&seq, ItemId(0), ItemId(1), &config);
        assert!(approx_eq(check.dpg, 14.96));
        assert!(check.exact > 0.0);
        assert!(
            check.ratio <= check.bound + 1e-9,
            "ratio {} exceeds bound {}",
            check.ratio,
            check.bound
        );
    }

    #[test]
    fn lemma_1_lower_bound_holds_on_the_running_example() {
        // C* ≥ α (C_1opt + C_2opt).
        let seq = paper_sequence();
        let model = CostModel::paper_example();
        let exact = packed_exact_optimal(&seq, ItemId(0), ItemId(1), &model);
        let opt_pair = crate::baselines::optimal_pair(&seq, ItemId(0), ItemId(1), &model);
        assert!(
            exact >= model.alpha() * opt_pair - 1e-9,
            "C*={exact} < α(C1opt+C2opt)={}",
            model.alpha() * opt_pair
        );
    }

    /// A random two-item instance over 2–3 servers with 1–7 requests at
    /// strictly increasing tenth-unit times, each for d1, d2 or both.
    fn random_pair_sequence(rng: &mut Rng) -> RequestSeq {
        let m = rng.gen_range(2u32..=3);
        let n = rng.gen_range(1usize..=7);
        let mut ticks: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..=40)).collect();
        ticks.sort_unstable();
        ticks.dedup();
        let mut b = RequestSeqBuilder::new(m, 2);
        for &t in &ticks {
            let items: &[u32] = match rng.gen_range(0u32..3) {
                0 => &[0],
                1 => &[1],
                _ => &[0, 1],
            };
            b = b.push(rng.gen_range(0..m), t as f64 / 10.0, items.iter().copied());
        }
        b.build().unwrap()
    }

    #[test]
    fn strict_mode_and_lemma_1_bracket_the_exact_optimum_on_random_instances() {
        for case in 0..256 {
            let mut rng = Rng::seed_from_u64(0x1E33A + case);
            let seq = random_pair_sequence(&mut rng);
            let model = CostModel::new(
                rng.gen_range(1u32..=30) as f64 / 10.0,
                rng.gen_range(1u32..=30) as f64 / 10.0,
                rng.gen_range(2u32..=10) as f64 / 10.0,
            )
            .unwrap();
            let exact = packed_exact_optimal(&seq, ItemId(0), ItemId(1), &model);
            // Strict mode packs only while the package copy provably
            // exists, so its plan is realizable and cannot beat C*.
            let config = DpGreedyConfig::new(model).strict();
            let dpg = dp_greedy_pair(&seq, ItemId(0), ItemId(1), &config).total();
            assert!(
                dpg >= exact - 1e-9,
                "case {case}: strict DP_Greedy {dpg} beat the exact packed optimum {exact}"
            );
            // Lemma 1: C* ≥ α (C_1opt + C_2opt).
            let opt_pair = crate::baselines::optimal_pair(&seq, ItemId(0), ItemId(1), &model);
            assert!(
                exact >= model.alpha() * opt_pair - 1e-9,
                "case {case}: C*={exact} < α(C1opt+C2opt)={}",
                model.alpha() * opt_pair
            );
        }
    }
}
