//! Shared workload builders for the benchmark harness.

#![warn(missing_docs)]

pub mod harness;

use mcs_model::request::SingleItemTrace;
use mcs_model::{CostModel, RequestSeq};
use mcs_trace::workload::{generate, WorkloadConfig};

/// Deterministic benchmark seed.
pub const BENCH_SEED: u64 = 0xD9_65;

/// A paper-like workload scaled to roughly `steps` simulation steps.
pub fn bench_workload(steps: usize) -> RequestSeq {
    let mut cfg = WorkloadConfig::paper_like(BENCH_SEED);
    cfg.steps = steps;
    generate(&cfg)
}

/// A single-item trace with `n` points over `m` servers, round-robin-ish
/// placement with deterministic jitter (no RNG: benches must be stable).
pub fn bench_trace(n: usize, m: u32) -> SingleItemTrace {
    let pairs: Vec<(f64, u32)> = (1..=n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (i as f64 * 0.37, ((h >> 33) % m as u64) as u32)
        })
        .collect();
    SingleItemTrace::from_pairs(m, &pairs)
}

/// The benchmark cost model — the workspace defaults (`μ = 2`, `λ = 4`,
/// `α = 0.8`; the Fig.-12 peak mix ρ = 2).
pub fn bench_model() -> CostModel {
    mcs_model::defaults::default_model()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic_and_sized() {
        assert_eq!(bench_workload(200), bench_workload(200));
        let t = bench_trace(100, 5);
        assert_eq!(t.len(), 100);
        assert_eq!(t.servers, 5);
        let t2 = bench_trace(100, 5);
        assert_eq!(t.points, t2.points);
    }
}
