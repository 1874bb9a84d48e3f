//! The covering DP of \[6\] against its quadratic reference.
//!
//! `mcs_offline::optimal` prices every long cache interval with one
//! range-minimum query over the finished shortest-path distances. The
//! reference below is the straightforward form it replaced: relax every
//! long edge from every node the interval spans, in ascending order, with
//! a strict `<`. Both must return the same cost bits, the same decisions
//! and the same schedule, on tie-heavy traces where many entry nodes give
//! the same rounded distance. `optimal_fast_cost` must return the same
//! cost bits as well.

use dp_greedy_suite::model::par::par_map;
use dp_greedy_suite::model::request::{Predecessor, SingleItemTrace, TracePoint};
use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::{approx_le, CostModel, Schedule, ServerId};
use dp_greedy_suite::offline::{optimal, optimal_fast_cost, OptimalOutcome, ServeDecision};

#[derive(Clone, Copy)]
enum Edge {
    Bridge,
    Long { request: usize, from: usize },
}

/// The quadratic covering DP: an `O(n²)` relaxation over gap boundaries
/// followed by the same schedule reconstruction.
fn quadratic(trace: &SingleItemTrace, model: &CostModel) -> OptimalOutcome {
    let n = trace.len();
    if n == 0 {
        return OptimalOutcome {
            cost: 0.0,
            decisions: Vec::new(),
            schedule: Schedule::new(),
        };
    }
    let mu = model.mu();
    let lambda = model.lambda();

    let mut boundary = vec![0.0_f64];
    boundary.extend(trace.points.iter().map(|p| p.time));
    let pred_node: Vec<Option<usize>> = trace
        .predecessors()
        .iter()
        .map(|p| match p {
            Predecessor::Origin => Some(0),
            Predecessor::Request(j) => Some(j + 1),
            Predecessor::None => None,
        })
        .collect();
    let interval_len = |i: usize| boundary[i + 1] - boundary[pred_node[i].unwrap()];

    let mut is_short = vec![false; n];
    let mut is_long = vec![false; n];
    for (i, pred) in pred_node.iter().enumerate() {
        if pred.is_some() {
            if approx_le(mu * interval_len(i), lambda) {
                is_short[i] = true;
            } else {
                is_long[i] = true;
            }
        }
    }
    let mut short_cover = vec![false; n];
    for i in 0..n {
        if is_short[i] {
            for flag in &mut short_cover[pred_node[i].unwrap()..=i] {
                *flag = true;
            }
        }
    }
    let mut base = 0.0;
    for (i, &short) in is_short.iter().enumerate() {
        base += if short { mu * interval_len(i) } else { lambda };
    }

    let mut dist = vec![f64::INFINITY; n + 1];
    let mut parent = vec![Edge::Bridge; n + 1];
    dist[0] = 0.0;
    for j in 0..n {
        let dj = dist[j];
        for i in j..n {
            if is_long[i] && pred_node[i].unwrap() <= j {
                let cand = dj + (mu * interval_len(i) - lambda);
                if cand < dist[i + 1] {
                    dist[i + 1] = cand;
                    parent[i + 1] = Edge::Long {
                        request: i,
                        from: j,
                    };
                }
            }
        }
        let w = if short_cover[j] {
            0.0
        } else {
            mu * (boundary[j + 1] - boundary[j])
        };
        if dj + w < dist[j + 1] {
            dist[j + 1] = dj + w;
            parent[j + 1] = Edge::Bridge;
        }
    }
    let cost = base + dist[n];

    let mut in_x = is_short.clone();
    let mut bridge_edge = vec![false; n];
    let mut node = n;
    while node > 0 {
        match parent[node] {
            Edge::Bridge => {
                bridge_edge[node - 1] = true;
                node -= 1;
            }
            Edge::Long { request, from } => {
                in_x[request] = true;
                node = from;
            }
        }
    }
    let mut covered_by: Vec<Option<usize>> = vec![None; n];
    for k in 0..n {
        if in_x[k] {
            for slot in &mut covered_by[pred_node[k].unwrap()..=k] {
                slot.get_or_insert(k);
            }
        }
    }
    let server_of_node = |j: usize| {
        if j == 0 {
            ServerId::ORIGIN
        } else {
            trace.points[j - 1].server
        }
    };

    let mut schedule = Schedule::new();
    let mut bridged = vec![false; n];
    for j in 0..n {
        if bridge_edge[j] && covered_by[j].is_none() && !short_cover[j] {
            bridged[j] = true;
            schedule.cache(server_of_node(j), boundary[j], boundary[j + 1]);
        }
    }
    let mut decisions = Vec::with_capacity(n);
    for i in 0..n {
        let p = trace.points[i];
        if in_x[i] {
            decisions.push(ServeDecision::Cache);
            schedule.cache(p.server, boundary[pred_node[i].unwrap()], p.time);
        } else {
            decisions.push(ServeDecision::Transfer);
            let source = if let Some(k) = covered_by[i] {
                trace.points[k].server
            } else if bridged[i] {
                server_of_node(i)
            } else {
                let k = (0..n)
                    .find(|&k| is_short[k] && pred_node[k].unwrap() <= i && k >= i)
                    .expect("a short interval covers the gap");
                trace.points[k].server
            };
            schedule.transfer(source, p.server, p.time);
        }
    }
    OptimalOutcome {
        cost,
        decisions,
        schedule,
    }
}

/// Compares the production DP, the reference and the cost-only sweep on
/// one trace; returns a description of the first disagreement.
fn disagreement(trace: &SingleItemTrace, model: &CostModel) -> Option<String> {
    let fast = optimal(trace, model);
    let slow = quadratic(trace, model);
    let cost_only = optimal_fast_cost(trace, model);
    if fast.cost.to_bits() != slow.cost.to_bits() {
        return Some(format!("cost {:?} != reference {:?}", fast.cost, slow.cost));
    }
    if cost_only.to_bits() != slow.cost.to_bits() {
        return Some(format!(
            "optimal_fast_cost {cost_only:?} != reference {:?}",
            slow.cost
        ));
    }
    if fast.decisions != slow.decisions {
        return Some(format!(
            "decisions {:?} != reference {:?}",
            fast.decisions, slow.decisions
        ));
    }
    if fast.schedule != slow.schedule {
        return Some(format!(
            "schedule {:?} != reference {:?}",
            fast.schedule, slow.schedule
        ));
    }
    fast.schedule
        .validate(trace)
        .err()
        .map(|e| format!("schedule fails validation: {e}"))
}

fn grid(rng: &mut Rng, hi: u32) -> f64 {
    f64::from(rng.gen_range(1..=hi)) / 10.0
}

/// A tie-heavy case: integer ticks a few apart over a divisor of 1, 3, 7
/// or 10 (so equal gaps round alike), up to 6 servers and 60 points, and
/// rates on a 0.1 grid — half of them scaled to package rates `2αμ`/`2αλ`.
fn random_case(rng: &mut Rng) -> (SingleItemTrace, CostModel) {
    let servers = rng.gen_range(1u32..=6);
    let n = rng.gen_range(0usize..=60);
    let divisor = [1.0, 3.0, 7.0, 10.0][rng.gen_range(0usize..4)];
    let mut tick = 0u32;
    let points = (0..n)
        .map(|_| {
            tick += rng.gen_range(1u32..=4);
            TracePoint {
                time: f64::from(tick) / divisor,
                server: ServerId(rng.gen_range(0..servers)),
            }
        })
        .collect();
    let model = CostModel::new(grid(rng, 30), grid(rng, 30), grid(rng, 10)).unwrap();
    let model = if rng.gen_bool(0.5) {
        model.scaled_for_package()
    } else {
        model
    };
    (SingleItemTrace { servers, points }, model)
}

#[test]
fn matches_the_quadratic_reference_on_tie_heavy_traces() {
    const CHUNKS: u64 = 100;
    const PER_CHUNK: u64 = 1_000;
    let chunks: Vec<u64> = (0..CHUNKS).collect();
    let failures: Vec<String> = par_map(&chunks, |&chunk| {
        let mut rng = Rng::seed_from_u64(0xC0DE_0000 + chunk);
        let mut found = Vec::new();
        for case in 0..PER_CHUNK {
            let (trace, model) = random_case(&mut rng);
            if let Some(why) = disagreement(&trace, &model) {
                found.push(format!(
                    "chunk {chunk} case {case} (μ={}, λ={}, {:?}): {why}",
                    model.mu(),
                    model.lambda(),
                    trace.points
                ));
            }
        }
        found
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(
        failures.is_empty(),
        "{} of {} traces disagree; first: {}",
        failures.len(),
        CHUNKS * PER_CHUNK,
        failures[0]
    );
}

fn trace_of(servers: u32, points: impl IntoIterator<Item = (f64, u32)>) -> SingleItemTrace {
    let points = points
        .into_iter()
        .map(|(time, s)| TracePoint {
            time,
            server: ServerId(s),
        })
        .collect();
    SingleItemTrace { servers, points }
}

fn assert_matches(trace: &SingleItemTrace, model: &CostModel) {
    if let Some(why) = disagreement(trace, model) {
        panic!("{why}");
    }
}

#[test]
fn every_interval_long_with_spans_over_half_the_trace() {
    // 500 servers visited twice in the same order: each of the last 500
    // requests holds a long interval over 500 nodes, the reference's
    // quadratic worst case.
    let half = 500u32;
    let trace = trace_of(
        half,
        (0..2 * half).map(|i| (f64::from(i + 1) / 3.0, i % half)),
    );
    let model = CostModel::new(0.3, 0.05, 1.0).unwrap();
    assert_matches(&trace, &model);
    assert_matches(&trace, &model.scaled_for_package());
}

#[test]
fn single_server_traces() {
    let mut rng = Rng::seed_from_u64(0x51_4E_47);
    for _ in 0..200 {
        let mut tick = 0u32;
        let trace = trace_of(
            1,
            (0..rng.gen_range(1usize..=300)).map(|_| {
                tick += rng.gen_range(1u32..=9);
                (f64::from(tick) / 7.0, 0)
            }),
        );
        let model = CostModel::new(grid(&mut rng, 30), grid(&mut rng, 30), 0.8).unwrap();
        assert_matches(&trace, &model);
    }
}

#[test]
fn intervals_priced_exactly_at_lambda() {
    // μ·len == λ exactly on every same-server interval: each is short by
    // the tolerant comparison, and every tie between edges is exact.
    for (mu, lambda, len) in [(1.0, 2.0, 2.0), (0.5, 1.5, 3.0), (0.25, 1.0, 4.0)] {
        let trace = trace_of(2, (1..=200).map(|i| (f64::from(i) * len / 2.0, i % 2)));
        let model = CostModel::new(mu, lambda, 1.0).unwrap();
        assert_matches(&trace, &model);
        let out = optimal(&trace, &model);
        assert!(out.decisions[1..]
            .iter()
            .all(|d| *d == ServeDecision::Cache));
    }
}
