//! Regression: metrics recorded on `par_map` worker threads are in the
//! global registry by the time `par_map` returns.
//!
//! Workers record into thread-local buffers that merge when the thread's
//! destructors run. A scope's implicit join can return before that, and a
//! snapshot taken then misses some workers' counts, so `par_map` joins
//! every worker explicitly.

use dp_greedy_suite::model::par::{par_map, par_map_with_threads};
use dp_greedy_suite::obs;

#[test]
fn worker_counters_are_merged_when_par_map_returns() {
    const NAME: &str = "test.par_map.worker_items";
    let items: Vec<u64> = (0..64).collect();
    for round in 0..300 {
        let threads = 2 + round % 3;
        let before = obs::snapshot().counter(NAME).unwrap_or(0);
        let out = par_map_with_threads(&items, threads, |&x| {
            obs::counter_add(NAME, 1);
            x
        });
        assert_eq!(out, items);
        let after = obs::snapshot().counter(NAME).unwrap_or(0);
        assert_eq!(
            after - before,
            items.len() as u64,
            "round {round}, {threads} threads"
        );
    }
}

#[test]
fn a_worker_panic_reaches_the_caller() {
    let items: Vec<u32> = (0..8).collect();
    let caught = std::panic::catch_unwind(|| {
        par_map_with_threads(&items, 4, |&x| {
            assert!(x != 5, "worker saw item five");
            x
        })
    });
    let payload = caught.expect_err("the worker's panic propagates");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(message.contains("item five"), "payload: {message:?}");
    // The pool is not poisoned: the next call works.
    assert_eq!(par_map(&items, |&x| x + 1)[7], 8);
}
