//! Quickstart: run DP_Greedy on the paper's running example (Section V-C)
//! and reproduce its numbers end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dp_greedy_suite::prelude::*;

fn main() {
    // The running example: two data items over four servers, three
    // co-requests (packages) and four singleton requests.
    let seq = RequestSeqBuilder::new(4, 2)
        .push(1u32, 0.5, [0]) // d1 @ s2
        .push(2u32, 0.8, [0, 1]) // package @ s3
        .push(3u32, 1.1, [1]) // d2 @ s4
        .push(0u32, 1.4, [0, 1]) // package @ s1
        .push(1u32, 2.6, [0]) // d1 @ s2
        .push(1u32, 3.2, [1]) // d2 @ s2
        .push(2u32, 4.0, [0, 1]) // package @ s3
        .build()
        .expect("valid sequence");

    // μ = λ = 1, α = 0.8, θ = 0.4 — the Section V-C parameters.
    let model = CostModel::new(1.0, 1.0, 0.8).expect("valid model");
    let config = DpGreedyConfig::new(model).with_theta(0.4);

    let report = dp_greedy(&seq, &config, 2);

    println!("Phase 1 packing: {:?}", report.packing.packages);
    let pair = &report.packages[0];
    let jaccard = seq.pair_view(ItemId(0), ItemId(1)).jaccard();
    println!("J(d1, d2)      = {jaccard:.4} (paper: 3/7 ≈ 0.4286)");
    println!("C_12 (package) = {:.4} (paper: 8.96)", pair.package_cost);
    let [c1, c2] = [0, 1].map(|m| pair.members_greedy[m].cost);
    println!("C_1' (greedy)  = {c1:.4} (paper: 3.1)");
    println!("C_2' (greedy)  = {c2:.4} (paper: 2.9)");
    println!("total          = {:.4} (paper: 14.96)", report.total_cost);
    println!("ave_cost       = {:.4}", report.ave_cost());

    // Compare against the non-packing Optimal yardstick.
    let opt = find("optimal")
        .expect("registered")
        .solve(&seq, &RunContext::new(model));
    println!(
        "\nOptimal (non-packing) total = {:.4}; DP_Greedy saves {:.1}%",
        opt.total_cost,
        100.0 * (1.0 - report.total_cost / opt.total_cost)
    );

    // Render the package schedule as a space-time diagram (Fig. 7 style).
    let co_trace = seq.package_trace(ItemId(0), ItemId(1));
    println!("\nPackage schedule (space-time):");
    println!(
        "{}",
        dp_greedy_suite::model::diagram::render(&pair.package_schedule, &co_trace, 60)
    );

    // Independently re-verify the package schedule in the replay simulator.
    let rep = replay(&pair.package_schedule, &co_trace).expect("feasible schedule");
    let pkg_model = model.scaled_for_package();
    println!(
        "replayed package cost = {:.4} (matches C_12)",
        rep.cost(pkg_model.mu(), pkg_model.lambda())
    );
}
