//! Taxi fleet scenario: the paper's evaluation workload end to end.
//!
//! Generates the synthetic Shenzhen-like city (50 zones, 10 taxis, one
//! data item per taxi), inspects its spatial and correlation statistics
//! (the Figs. 9/10 artefacts), then compares DP_Greedy against the
//! non-packing Optimal, the all-greedy baseline, and Package_Served.
//!
//! ```text
//! cargo run --release --example taxi_fleet
//! ```

use dp_greedy_suite::prelude::*;
use dp_greedy_suite::trace::stats::{pair_spectrum, TraceStats};

fn main() {
    let config = WorkloadConfig::paper_like(20190923);
    let seq = generate(&config);

    let stats = TraceStats::from_sequence(&seq);
    println!(
        "workload: {} requests, {} item accesses over {} zones (horizon t={:.1})",
        stats.requests,
        stats.item_accesses,
        seq.servers(),
        stats.horizon
    );
    println!(
        "spatial skew: top-10 zones hold {:.1}% of requests (uniform would be 20%)",
        100.0 * stats.top_zone_share(10)
    );

    println!("\ntop item pairs by Jaccard similarity:");
    for row in pair_spectrum(&seq).iter().take(6) {
        println!(
            "  ({}, {})  frequency = {:<5} J = {:.4}",
            row.a, row.b, row.frequency, row.jaccard
        );
    }

    // The paper's parameters: θ = 0.3, α = 0.8; rates at the ρ = 2 mix.
    let model = CostModel::new(2.0, 4.0, 0.8).expect("valid model");
    let config = DpGreedyConfig::new(model).with_theta(0.3);

    let dpg = dp_greedy(&seq, &config, 2);
    let ctx = RunContext::new(model).with_theta(0.3);
    let [opt, grd, pkg] = ["optimal", "greedy", "package_served"]
        .map(|name| find(name).expect("registered").solve(&seq, &ctx));

    println!("\npacked pairs (J > 0.3): {:?}", dpg.packing.packages);
    println!("\n{:<16} {:>12} {:>10}", "algorithm", "total", "ave_cost");
    for (name, total, ave) in [
        ("DP_Greedy", dpg.total_cost, dpg.ave_cost()),
        ("Optimal", opt.total_cost, opt.ave_cost()),
        ("Greedy", grd.total_cost, grd.ave_cost()),
        ("Package_Served", pkg.total_cost, pkg.ave_cost()),
    ] {
        println!("{name:<16} {total:>12.2} {ave:>10.4}");
    }
    println!(
        "\nDP_Greedy vs Optimal: {:.2}% cost reduction",
        100.0 * (1.0 - dpg.total_cost / opt.total_cost)
    );

    // Per-pair detail: where does the win come from?
    println!("\nper-pair breakdown (DP_Greedy):");
    for p in &dpg.packages {
        let [a, b] = [p.members[0], p.members[1]];
        println!(
            "  ({a}, {b}) J = {:.3}: package {:.1} + greedy {:.1}/{:.1} over {} accesses → ave {:.4}",
            seq.pair_view(a, b).jaccard(),
            p.package_cost,
            p.members_greedy[0].cost,
            p.members_greedy[1].cost,
            p.accesses,
            p.total() / p.accesses as f64
        );
    }
}
