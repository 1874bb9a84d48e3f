//! Counter/histogram registry with thread-local collection.
//!
//! Recording goes to a thread-local buffer (no lock on the hot path); the
//! buffer merges into a process-global aggregate when the thread exits —
//! its thread-local destructor runs — or when [`snapshot`] drains the
//! calling thread's buffer. A worker's recordings are therefore visible
//! once the worker has been joined with `JoinHandle::join`, which waits
//! for those destructors; the implicit join at the end of
//! `std::thread::scope` does not, which is why `mcs_model::par::par_map`
//! joins every worker explicitly.
//!
//! Names are `&'static str` by design: every instrumentation point in the
//! workspace uses a literal (e.g. `"dpg.phase1.jaccard"`), which keeps the
//! registry allocation-free per observation and the snapshots
//! deterministically ordered (BTreeMap).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::buckets;

/// Number of power-of-two magnitude buckets kept per histogram — the
/// fixed grid of [`crate::buckets`] (bucket `i` covers
/// `[2^(i-40), 2^(i-39))`, ~1 ns to ~2^23 s in seconds).
pub const HIST_BUCKETS: usize = buckets::BUCKETS;

/// Summary statistics of one histogram: moments (count/total/mean/
/// min/max, what phase timers need) plus a fixed table of power-of-two
/// magnitude buckets so tail quantiles (p99 admission latency, say) can
/// be estimated without keeping every observation. Fixed-size by design:
/// the hot path stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation ([`f64::INFINITY`] when empty).
    pub min: f64,
    /// Largest observation ([`f64::NEG_INFINITY`] when empty).
    pub max: f64,
    /// Observation counts per power-of-two magnitude bucket.
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSummary {
    /// An empty summary. Public so standalone consumers (tests, exporters,
    /// offline analysis) can build histograms outside the registry.
    pub fn new() -> Self {
        HistSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[buckets::index_of(v)] += 1;
    }

    fn merge(&mut self, other: &HistSummary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0 < q <= 1`), from the magnitude buckets:
    /// the upper bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`, clamped to the observed `[min, max]` range. The
    /// estimate is exact to within a factor of 2 (one bucket), which is
    /// what a latency gate needs. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        buckets::quantile(&self.buckets, self.count, q, self.min, self.max)
    }
}

impl Default for HistSummary {
    fn default() -> Self {
        HistSummary::new()
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<&'static str, u64>,
    fcounters: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, HistSummary>,
}

impl Registry {
    fn merge_into(&mut self, target: &mut Registry) {
        for (k, v) in std::mem::take(&mut self.counters) {
            *target.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in std::mem::take(&mut self.fcounters) {
            *target.fcounters.entry(k).or_insert(0.0) += v;
        }
        for (k, h) in std::mem::take(&mut self.hists) {
            target.hists.entry(k).or_default().merge(&h);
        }
    }
}

static GLOBAL: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    fcounters: BTreeMap::new(),
    hists: BTreeMap::new(),
});

/// Gauges are last-write-wins point-in-time values (queue depth, lag,
/// WAL size). Unlike counters/histograms they cannot merge per-thread —
/// "last write" needs a global order — so sets go straight to one global
/// map. Gauge updates are rare (per epoch, not per request), so the lock
/// is off every hot path.
static GAUGES: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());

/// Thread-local buffer; its [`Drop`] (at thread exit) folds the buffer
/// into the global aggregate so worker-thread metrics are not lost.
struct LocalBuffer(RefCell<Registry>);

impl Drop for LocalBuffer {
    fn drop(&mut self) {
        let mut local = self.0.borrow_mut();
        if let Ok(mut global) = GLOBAL.lock() {
            local.merge_into(&mut global);
        }
    }
}

thread_local! {
    static LOCAL: LocalBuffer = LocalBuffer(RefCell::new(Registry::default()));
}

/// Adds `delta` to the named counter.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    LOCAL.with(|b| {
        *b.0.borrow_mut().counters.entry(name).or_insert(0) += delta;
    });
}

/// Adds `delta` to the named *float* counter — a monotone accumulator of
/// a real-valued quantity (settled cost, say), exported as a Prometheus
/// counter so rates are derivable from scrapes. Per-thread partials merge
/// by float addition in thread-exit order; call sites that need
/// bit-deterministic totals (the serving daemon does) must record from a
/// single thread.
#[inline]
pub fn fcounter_add(name: &'static str, delta: f64) {
    LOCAL.with(|b| {
        *b.0.borrow_mut().fcounters.entry(name).or_insert(0.0) += delta;
    });
}

/// Records one observation into the named histogram (for spans the unit
/// is seconds; counters of work per call use their natural unit).
#[inline]
pub fn observe(name: &'static str, value: f64) {
    LOCAL.with(|b| {
        b.0.borrow_mut()
            .hists
            .entry(name)
            .or_default()
            .observe(value);
    });
}

/// Sets the named gauge to `value` (last write wins).
pub fn gauge_set(name: &'static str, value: f64) {
    if let Ok(mut g) = GAUGES.lock() {
        g.insert(name, value);
    }
}

/// A point-in-time copy of the aggregated metrics, deterministically
/// ordered by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Float-counter values by name (monotone real-valued accumulators).
    pub fcounters: Vec<(&'static str, f64)>,
    /// Histogram summaries by name.
    pub hists: Vec<(&'static str, HistSummary)>,
    /// Gauge values by name (last write wins).
    pub gauges: Vec<(&'static str, f64)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a float counter by name.
    pub fn fcounter(&self, name: &str) -> Option<f64> {
        self.fcounters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(k, _)| *k == name).map(|(_, h)| h)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }
}

/// Drains the calling thread's buffer into the global aggregate without
/// copying the aggregate out. Threads that record but never snapshot —
/// the serving daemon's ingest thread, say — call this at natural
/// boundaries (epoch settlement) so concurrent readers on *other*
/// threads (the telemetry scrape endpoint) see their recordings.
pub fn flush_local() {
    let mut global = GLOBAL.lock().expect("obs metrics mutex");
    LOCAL.with(|b| b.0.borrow_mut().merge_into(&mut global));
}

/// Drains the calling thread's buffer into the global aggregate and
/// returns a copy of the aggregate. (Other threads' buffers merge when
/// they exit; `mcs_model::par::par_map` joins its workers explicitly, so
/// snapshots taken after a parallel section see everything.)
pub fn snapshot() -> MetricsSnapshot {
    let mut global = GLOBAL.lock().expect("obs metrics mutex");
    LOCAL.with(|b| b.0.borrow_mut().merge_into(&mut global));
    MetricsSnapshot {
        counters: global.counters.iter().map(|(&k, &v)| (k, v)).collect(),
        fcounters: global.fcounters.iter().map(|(&k, &v)| (k, v)).collect(),
        hists: global.hists.iter().map(|(&k, &h)| (k, h)).collect(),
        gauges: GAUGES
            .lock()
            .map(|g| g.iter().map(|(&k, &v)| (k, v)).collect())
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so tests share it; each test uses
    // its own metric names and does not assert on global emptiness.
    // Switching recording off would drop concurrent tests' recordings, so
    // that check runs in its own process: tests/disabled_recording.rs.

    #[test]
    fn counters_and_hists_accumulate() {
        counter_add("test.counter.a", 2);
        counter_add("test.counter.a", 3);
        observe("test.hist.a", 1.0);
        observe("test.hist.a", 3.0);
        let s = snapshot();
        assert_eq!(s.counter("test.counter.a"), Some(5));
        let h = s.hist("test.hist.a").expect("hist recorded");
        assert_eq!(h.count, 2);
        assert!((h.sum - 4.0).abs() < 1e-12);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn worker_thread_metrics_merge_on_exit() {
        // Join each worker explicitly: a scope's implicit join may return
        // before the workers' thread-local destructors have merged.
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| counter_add("test.counter.threads", 1)))
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
        });
        let s = snapshot();
        assert_eq!(s.counter("test.counter.threads"), Some(4));
    }

    #[test]
    fn float_counters_accumulate_across_threads() {
        fcounter_add("test.fcounter.cost", 1.5);
        fcounter_add("test.fcounter.cost", 0.25);
        std::thread::scope(|s| {
            s.spawn(|| fcounter_add("test.fcounter.cost", 0.5))
                .join()
                .unwrap();
        });
        let s = snapshot();
        assert_eq!(s.fcounter("test.fcounter.cost"), Some(2.25));
        assert_eq!(s.fcounter("test.fcounter.nope"), None);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        gauge_set("test.gauge.lag", 5.0);
        gauge_set("test.gauge.lag", 2.0);
        let s = snapshot();
        assert_eq!(s.gauge("test.gauge.lag"), Some(2.0));
        assert_eq!(s.gauge("test.gauge.nope"), None);
    }

    #[test]
    fn quantiles_bound_the_tail_within_a_bucket() {
        // 99 fast observations and one slow outlier: p50 must stay near
        // the fast mass, p99+ must reach the outlier's bucket.
        for _ in 0..99 {
            observe("test.hist.quantile", 1e-4);
        }
        observe("test.hist.quantile", 1.0);
        let s = snapshot();
        let h = s.hist("test.hist.quantile").expect("hist recorded");
        assert_eq!(h.count, 100);
        let p50 = h.quantile(0.5);
        assert!((1e-4..2e-4).contains(&p50), "p50 = {p50}");
        // With exactly 1% of mass in the top bucket, p99's rank (99) still
        // lands in the fast bucket and p100 reaches the outlier.
        assert!(h.quantile(0.99) < 1e-3);
        assert_eq!(h.quantile(1.0), 1.0); // clamped to max
    }

    #[test]
    fn quantile_edge_cases() {
        let s0 = HistSummary::new();
        assert_eq!(s0.quantile(0.99), 0.0);
        observe("test.hist.qedge", 0.0); // non-positive lands in bucket 0
        observe("test.hist.qedge", f64::NAN); // and so do non-finite values
        let s = snapshot();
        let h = s.hist("test.hist.qedge").expect("hist recorded");
        assert_eq!(h.buckets[0], 2);
        // Quantiles stay within [min, max] by the clamp.
        assert_eq!(h.quantile(0.5), 0.0);
    }
}
