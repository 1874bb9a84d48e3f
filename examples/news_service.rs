//! News-service scenario — the correlation example from the paper's
//! introduction: "accessing the news text always implies accessing its
//! associated pictures and video clips in the subsequent time".
//!
//! Models a mobile news CDN: item 0 is the article text, items 1–2 its
//! picture and video (almost always co-accessed), items 3–4 unrelated
//! stories. Shows Phase 1 discovering the bundle, the pairwise packing of
//! Algorithm 1, and the multi-item grouping extension the paper sketches
//! as future work.
//!
//! ```text
//! cargo run --example news_service
//! ```

use dp_greedy_suite::correlation::matching::greedy_matching_from_pairs;
use dp_greedy_suite::prelude::*;

fn main() {
    // Readers on 6 edge servers over one news cycle. The article bundle
    // (d1 = text, d2 = picture, d3 = video) is co-accessed; d4/d5 are
    // independent stories.
    let mut b = RequestSeqBuilder::new(6, 5);
    let mut t = 0.0;
    // Morning surge: the bundle is read together across the edge.
    for (i, &srv) in [1u32, 2, 3, 1, 4, 2, 5, 3, 1, 2].iter().enumerate() {
        t += 0.3;
        if i % 3 == 2 {
            b = b.push(srv, t, [0, 1]); // text + picture
        } else {
            b = b.push(srv, t, [0, 1, 2]); // full bundle
        }
    }
    // Sparse standalone accesses.
    for &(srv, items) in &[(4u32, 3u32), (5, 4), (4, 3), (2, 4), (4, 3)] {
        t += 0.7;
        b = b.push(srv, t, [items]);
    }
    let seq = b.build().expect("valid sequence");

    // Phase 1 on its own: what does the Jaccard analysis see?
    let table = PairTable::from_sequence(&seq);
    println!("Jaccard matrix (bundle items should stand out):");
    for i in 0..5u32 {
        let row: Vec<String> = (0..5u32)
            .map(|j| format!("{:.2}", table.jaccard(ItemId(i), ItemId(j))))
            .collect();
        println!("  d{}: [{}]", i + 1, row.join(", "));
    }

    let packing = greedy_matching_from_pairs(pairs_above(&seq, 0.3), seq.items(), 0.3);
    println!(
        "\nAlgorithm 1 pairwise packing (θ = 0.3): {:?}",
        packing.pairs
    );

    // The future-work extension: full bundle grouping.
    let packages = agglomerative_packages(&table, 0.3, usize::MAX);
    println!(
        "multi-item grouping extension: packages {:?}, singletons {:?}",
        packages.packages, packages.singletons
    );

    // Cost comparison on the pairwise algorithm.
    let model = CostModel::new(1.0, 2.0, 0.7).expect("valid model");
    let config = DpGreedyConfig::new(model).with_theta(0.3);
    let dpg = dp_greedy(&seq, &config, 2);
    let opt = find("optimal")
        .expect("registered")
        .solve(&seq, &RunContext::new(model));
    println!(
        "\nDP_Greedy ave_cost = {:.4} vs Optimal (non-packing) {:.4} ({:+.1}%)",
        dpg.ave_cost(),
        opt.ave_cost(),
        100.0 * (dpg.ave_cost() / opt.ave_cost() - 1.0)
    );

    for p in &dpg.packages {
        let [a, b] = [p.members[0], p.members[1]];
        let greedy = &p.members_greedy;
        println!(
            "packed ({a}, {b}): J = {:.3}, package arm won {} of {} singleton servings",
            seq.pair_view(a, b).jaccard(),
            greedy.iter().map(|m| m.arm_counts[2]).sum::<usize>(),
            greedy.iter().map(|m| m.choices.len()).sum::<usize>(),
        );
    }
}
