//! E7 / Theorem 1 — empirical approximation ratio `C_DPG / C*` vs `2/α`.
//!
//! Random small two-item instances (where the exact packed optimum is
//! computable) are solved by both DP_Greedy and the exact packed-model DP;
//! the worst observed ratio per α is reported against the theorem's bound.

use dp_greedy::ratio::ratio_check;
use dp_greedy::two_phase::DpGreedyConfig;
use mcs_model::par::par_map_range;
use mcs_model::rng::Rng;
use mcs_model::{CostModel, ItemId, RequestSeq, RequestSeqBuilder};

use crate::table::{fmt_f, Table};

/// Aggregated ratios for one α.
#[derive(Debug, Clone, Copy)]
pub struct RatioRow {
    /// Discount factor.
    pub alpha: f64,
    /// Theorem 1's bound `2/α`.
    pub bound: f64,
    /// Worst observed `C_DPG / C*`.
    pub max_ratio: f64,
    /// Mean observed ratio.
    pub mean_ratio: f64,
    /// Number of instances.
    pub samples: usize,
}

/// Output of the ratio experiment.
#[derive(Debug, Clone)]
pub struct RatioExp {
    /// One row per α.
    pub rows: Vec<RatioRow>,
}

/// Generates one random two-item instance.
fn random_instance(rng: &mut Rng, servers: u32, max_n: usize) -> RequestSeq {
    let n = rng.gen_range(2..=max_n);
    let mut ticks: Vec<u32> = (0..n).map(|_| rng.gen_range(1..=80)).collect();
    ticks.sort_unstable();
    ticks.dedup();
    let mut b = RequestSeqBuilder::new(servers, 2);
    for &t in &ticks {
        let items: Vec<u32> = match rng.gen_range(0u32..3) {
            0 => vec![0],
            1 => vec![1],
            _ => vec![0, 1],
        };
        b = b.push(rng.gen_range(0..servers), t as f64 / 10.0, items);
    }
    b.build().expect("instance is valid")
}

/// Runs `samples` random instances per α (parallel across instances).
pub fn run(samples: usize, seed: u64) -> RatioExp {
    let alphas = [0.2, 0.4, 0.6, 0.8, 1.0];
    let rows = alphas
        .iter()
        .map(|&alpha| {
            let ratios: Vec<f64> = par_map_range(samples, |i| {
                let mut rng = Rng::seed_from_u64(seed ^ (i as u64) << 8 ^ (alpha * 100.0) as u64);
                let seq = random_instance(&mut rng, 3, 9);
                let model = CostModel::new(
                    rng.gen_range(1u32..=30) as f64 / 10.0,
                    rng.gen_range(1u32..=30) as f64 / 10.0,
                    alpha,
                )
                .expect("valid");
                let config = DpGreedyConfig::new(model);
                ratio_check(&seq, ItemId(0), ItemId(1), &config).ratio
            });
            let max_ratio = ratios.iter().copied().fold(0.0, f64::max);
            let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
            RatioRow {
                alpha,
                bound: 2.0 / alpha,
                max_ratio,
                mean_ratio,
                samples: ratios.len(),
            }
        })
        .collect();
    RatioExp { rows }
}

impl RatioExp {
    /// Renders the summary table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Theorem 1 — empirical approximation ratio vs the 2/α bound",
            &["alpha", "bound 2/α", "max ratio", "mean ratio", "samples"],
        );
        for r in &self.rows {
            t.push(vec![
                fmt_f(r.alpha),
                fmt_f(r.bound),
                fmt_f(r.max_ratio),
                fmt_f(r.mean_ratio),
                r.samples.to_string(),
            ]);
        }
        t
    }
}

mcs_model::impl_to_json!(RatioRow {
    alpha,
    bound,
    max_ratio,
    mean_ratio,
    samples
});
mcs_model::impl_to_json!(RatioExp { rows });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_across_alphas() {
        let e = run(60, 77);
        assert_eq!(e.rows.len(), 5);
        for r in &e.rows {
            assert!(
                r.max_ratio <= r.bound + 1e-9,
                "α={}: max ratio {} exceeds bound {}",
                r.alpha,
                r.max_ratio,
                r.bound
            );
            assert!(r.mean_ratio >= 0.9, "degenerate mean {}", r.mean_ratio);
        }
    }
}
