//! Minimal data parallelism on `std::thread::scope`.
//!
//! Replaces the rayon `par_iter().map(..).collect()` pattern the
//! experiment runners used (rayon is unavailable in the no-network
//! build). Work is split into contiguous chunks: the calling thread takes
//! the first, and one scoped thread each takes the others, so a section
//! of `t` workers starts `t − 1` threads. Results land in their input
//! positions — so output order, and therefore every experiment table, is
//! identical to a sequential run.
//!
//! This lives in `mcs-model` (the bottom of the dependency graph) so any
//! layer — the off-line cross-validation sweep, the solvers, the engine
//! registry, the experiment runners — can parallel-map without a new
//! dependency edge.
//!
//! ## Thread-count knob
//!
//! The worker count defaults to `std::thread::available_parallelism()`
//! and can be overridden with the `MCS_THREADS` environment variable
//! (`MCS_THREADS=1` forces every parallel path in the workspace to run
//! serially; larger values oversubscribe, which `tests/thread_identity.rs`
//! uses to compare thread counts on any machine). The variable is re-read
//! on every call, so a process can change it between measurements.
//!
//! ## When a solve fans out
//!
//! Starting scoped threads costs tens of microseconds, more than a solve
//! over a few dozen requests takes. The solvers' per-row and
//! per-commodity loops (Phase 1's pair counting, DP_Greedy's Phase 2, the
//! per-item baselines) therefore size their worker pool with one rule,
//! [`threads_for`]: serial below [`PARALLEL_THRESHOLD`] requests,
//! [`max_threads`] from it on. A `dpg serve` epoch (64 requests by
//! default) solves on the calling thread alone, while a catalog-wide
//! batch trace still uses every worker. Loops whose per-element work does
//! not shrink with the request count (the K-package groups, the
//! heterogeneous solvers' exponential per-item search) keep [`par_map`].

/// Name of the environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "MCS_THREADS";

/// Request count from which [`threads_for`] starts worker threads. Each
/// split is order-preserving, so the threshold never changes a value; it
/// only spares small sequences the thread start-up.
pub const PARALLEL_THRESHOLD: usize = 4096;

/// The number of worker threads parallel sections use: `MCS_THREADS` if
/// set to a positive integer, otherwise `available_parallelism()`
/// (falling back to 1). Never 0.
pub fn max_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// The worker count for a solve over `requests` requests: 1 below
/// [`PARALLEL_THRESHOLD`], [`max_threads`] from it on.
pub fn threads_for(requests: usize) -> usize {
    if requests < PARALLEL_THRESHOLD {
        1
    } else {
        max_threads()
    }
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Runs at most [`max_threads`] workers, the calling thread and up to
/// `max_threads() − 1` scoped threads; falls back to a plain sequential
/// map for tiny inputs. Because every output lands in its input position,
/// the result is **identical** to `items.iter().map(f)` for any thread
/// count — parallelism here never changes figures. Every scoped worker
/// has exited, thread-local destructors included, before this returns,
/// and a worker's panic is re-raised on the caller.
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_map_with_threads(items, max_threads(), f)
}

/// [`par_map`] with an explicit worker-thread cap: the solvers pass
/// [`threads_for`] of their request count here.
pub fn par_map_with_threads<T: Sync, U: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let fill = |slots: &mut [Option<U>], chunk_items: &[T]| {
        for (slot, item) in slots.iter_mut().zip(chunk_items) {
            *slot = Some(f(item));
        }
    };
    std::thread::scope(|s| {
        let mut chunks = out.chunks_mut(chunk).zip(items.chunks(chunk));
        let first = chunks.next();
        let workers: Vec<_> = chunks
            .map(|(slots, chunk_items)| {
                let fill = &fill;
                s.spawn(move || fill(slots, chunk_items))
            })
            .collect();
        if let Some((slots, chunk_items)) = first {
            fill(slots, chunk_items);
        }
        // Join explicitly: the scope's implicit join can return before a
        // worker's thread-local destructors run, and those destructors are
        // where `mcs_obs` folds the worker's metrics into the global
        // registry. A joined thread has fully exited, destructors included.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every slot filled by its chunk's thread"))
        .collect()
}

/// [`par_map`] over the index range `0..n`.
pub fn par_map_range<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let idx: Vec<usize> = (0..n).collect();
    par_map(&idx, |&i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let ys = par_map(&xs, |&x| x * 2);
        assert_eq!(ys, xs.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn range_variant_matches() {
        assert_eq!(par_map_range(5, |i| i * i), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let xs: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = xs.iter().map(|&x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_with_threads(&xs, threads, |&x| x * x), want);
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn solves_fan_out_from_the_threshold_on() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(4_095), 1);
        assert_eq!(threads_for(4_096), max_threads());
        assert_eq!(threads_for(16_200), max_threads());
    }
}
