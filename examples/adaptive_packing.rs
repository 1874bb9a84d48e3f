//! Adaptive packing under correlation drift — the windowed off-line
//! variant and the decayed on-line variant side by side.
//!
//! Workload: item d1 co-occurs with d2 for the first half of the trace and
//! with d3 for the second. A single whole-trace Phase 1 (the paper's
//! algorithm) can only pack d1 with one partner; both adaptive variants
//! re-learn the packing and serve both phases well.
//!
//! ```text
//! cargo run --release --example adaptive_packing
//! ```

use dp_greedy_suite::dp_greedy::windowed::{dp_greedy_windowed, WindowedConfig};
use dp_greedy_suite::experiments::drift_exp::drift_workload;
use dp_greedy_suite::online::online_dpg::{online_dp_greedy, OnlineDpgConfig};
use dp_greedy_suite::prelude::*;

fn main() {
    let (seq, boundary) = drift_workload(800, true, 2026);
    println!(
        "drifting workload: {} requests, phase boundary at t={boundary:.1}",
        seq.len()
    );

    let model = CostModel::new(2.0, 4.0, 0.4).expect("valid model");
    let config = DpGreedyConfig::new(model).with_theta(0.3);

    // The paper's algorithm: one global packing.
    let global = dp_greedy(&seq, &config, 2);
    println!("\nglobal DP_Greedy packs {:?}", global.packing.packages);
    println!("  ave_cost = {:.4}", global.ave_cost());

    // Windowed off-line variant: re-pack per phase.
    let windowed = dp_greedy_windowed(
        &seq,
        &WindowedConfig {
            inner: config,
            window: boundary,
        },
        2,
    );
    println!("\nwindowed DP_Greedy ({} windows):", windowed.windows.len());
    for (start, w) in &windowed.windows {
        println!(
            "  [{:>6.1}, {:>6.1})  pairs {:?}  cost {:.1}",
            start,
            start + boundary,
            w.packing.packages,
            w.total_cost
        );
    }
    println!(
        "  ave_cost = {:.4}  (adapted: {})",
        windowed.ave_cost(),
        windowed.adapted()
    );

    // On-line variant: streaming decayed correlation, no oracle at all.
    let online = online_dp_greedy(&seq, &OnlineDpgConfig::new(model).with_decay(0.95));
    println!(
        "\non-line DP_Greedy (decay 0.95): cost {:.1}, {} package transfers, {} repackings",
        online.cost, online.package_transfers, online.repackings
    );

    let opt = find("optimal")
        .expect("registered")
        .solve(&seq, &RunContext::new(model));
    println!(
        "\nreference: non-packing Optimal ave_cost = {:.4}",
        opt.ave_cost()
    );
    println!(
        "\nsummary: windowed saves {:.1}% over global; both beat the non-packing optimum.",
        100.0 * (1.0 - windowed.total_cost / global.total_cost)
    );
}
