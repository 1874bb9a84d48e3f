//! Failure injection: the replay engine must detect every class of
//! physically broken schedule.
//!
//! Starting from provably feasible schedules (the off-line optimum on
//! random traces), each mutation below breaks exactly one physical rule;
//! the replay must reject it — silence would mean the validator has a
//! blind spot that could mask algorithm bugs.
//!
//! Each test sweeps a fixed number of seeded random instances, which
//! keeps failures exactly reproducible.

#![cfg(test)]

use mcs_model::request::SingleItemTrace;
use mcs_model::rng::Rng;
use mcs_model::{CostModel, Schedule, ServerId};
use mcs_offline::optimal;

use crate::replay::replay;

const CASES: u64 = 128;

/// Random trace: 2–4 servers, 2–10 requests at strictly increasing times.
fn random_trace(rng: &mut Rng) -> SingleItemTrace {
    let m = rng.gen_range(2u32..=4);
    let n = rng.gen_range(2usize..=10);
    let mut ticks: Vec<u32> = (0..n).map(|_| rng.gen_range(1u32..=80)).collect();
    ticks.sort_unstable();
    ticks.dedup();
    let pairs: Vec<(f64, u32)> = ticks
        .iter()
        .map(|&t| (f64::from(t) / 10.0, rng.gen_range(0..m)))
        .collect();
    SingleItemTrace::from_pairs(m, &pairs)
}

fn feasible_schedule(trace: &SingleItemTrace) -> Schedule {
    optimal(trace, &CostModel::paper_example()).schedule
}

#[test]
fn baseline_schedules_replay_cleanly() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1000 + case);
        let trace = random_trace(&mut rng);
        let s = feasible_schedule(&trace);
        assert!(replay(&s, &trace).is_ok(), "case {case}");
    }
}

#[test]
fn dropping_a_transfer_is_detected() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x2000 + case);
        let trace = random_trace(&mut rng);
        let mut s = feasible_schedule(&trace);
        if s.transfers.is_empty() {
            continue; // all-local schedule; nothing to drop
        }
        let idx = rng.gen_range(0..s.transfers.len());
        s.transfers.remove(idx);
        // Either some request loses its serving copy, or a downstream
        // interval loses its anchor; both must be caught.
        assert!(
            replay(&s, &trace).is_err(),
            "case {case}: dropping transfer {idx} went unnoticed"
        );
    }
}

#[test]
fn shrinking_an_interval_from_the_left_is_detected_or_harmless() {
    // Moving an interval's start later can orphan its anchor; the
    // engine must never PANIC and must reject any now-infeasible
    // schedule. (A shrink can also stay feasible when the interval
    // start coincided with a transfer that still covers it; then the
    // replayed cost must simply drop.)
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x3000 + case);
        let trace = random_trace(&mut rng);
        let mut s = feasible_schedule(&trace);
        if s.intervals.is_empty() {
            continue;
        }
        let idx = rng.gen_range(0..s.intervals.len());
        let iv = s.intervals[idx];
        if iv.span.len() < 0.2 {
            continue;
        }
        let new_start = iv.span.start + iv.span.len() / 2.0;
        s.intervals[idx].span = mcs_model::time::TimeSpan::new(new_start, iv.span.end);
        // An Err is the detection we want; a feasible shrink must at least
        // cost strictly less than the original (we removed real cache time).
        if let Ok(rep) = replay(&s, &trace) {
            let orig = feasible_schedule(&trace);
            let orig_cost = replay(&orig, &trace).unwrap().cost(1.0, 1.0);
            assert!(rep.cost(1.0, 1.0) < orig_cost, "case {case}");
        }
    }
}

#[test]
fn rerouting_a_transfer_from_an_empty_server_is_detected() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4000 + case);
        let trace = random_trace(&mut rng);
        let mut s = feasible_schedule(&trace);
        if s.transfers.is_empty() {
            continue;
        }
        let idx = rng.gen_range(0..s.transfers.len());
        // Find a server with no copy at the transfer instant.
        let t = s.transfers[idx].time;
        let empty = (0..trace.servers)
            .map(ServerId)
            .find(|&srv| srv != s.transfers[idx].to && !s.copy_present(srv, t));
        if let Some(empty) = empty {
            s.transfers[idx].from = empty;
            assert!(replay(&s, &trace).is_err(), "case {case}");
        }
    }
}

#[test]
fn erasing_all_intervals_fails_unless_trivial() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5000 + case);
        let trace = random_trace(&mut rng);
        let mut s = feasible_schedule(&trace);
        if s.intervals.is_empty() {
            continue;
        }
        s.intervals.clear();
        // With every cache interval gone, transfers lose their sources (or
        // requests their copies) except in degenerate all-at-origin cases.
        let only_origin_t0 = trace
            .points
            .iter()
            .all(|p| p.server == ServerId::ORIGIN && p.time == 0.0);
        if !only_origin_t0 {
            assert!(replay(&s, &trace).is_err(), "case {case}");
        }
    }
}

#[test]
fn replayed_cost_is_stable_under_event_reordering() {
    // Shuffling the declaration order of intervals/transfers must not
    // change the replay outcome (the engine orders by time itself).
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x6000 + case);
        let trace = random_trace(&mut rng);
        let s = feasible_schedule(&trace);
        let mut reversed = s.clone();
        reversed.intervals.reverse();
        reversed.transfers.reverse();
        let a = replay(&s, &trace).unwrap();
        let b = replay(&reversed, &trace).unwrap();
        assert!(
            (a.cost(1.0, 1.0) - b.cost(1.0, 1.0)).abs() < 1e-9,
            "case {case}"
        );
        assert_eq!(a.transfers, b.transfers, "case {case}");
    }
}
