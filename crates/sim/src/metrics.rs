//! Occupancy and traffic metrics accumulated during replay.

use mcs_model::ServerId;

/// Metrics of one replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayMetrics {
    /// Maximum concurrent live copies observed.
    pub peak_copies: u32,
    /// Time-weighted mean copy count (total copy-time / horizon swept).
    pub mean_copies: f64,
    /// Transfers received per server.
    pub transfers_in: Vec<usize>,
    /// Transfers sourced per server.
    pub transfers_out: Vec<usize>,
    total_copy_time: f64,
    total_time: f64,
}

impl ReplayMetrics {
    /// Fresh metrics for `m` servers.
    pub fn new(servers: u32) -> Self {
        ReplayMetrics {
            peak_copies: 0,
            mean_copies: 0.0,
            transfers_in: vec![0; servers as usize],
            transfers_out: vec![0; servers as usize],
            total_copy_time: 0.0,
            total_time: 0.0,
        }
    }

    /// Records a swept gap with a constant copy count. The copy count
    /// contributes to `peak_copies` even when `dt == 0`: a zero-length
    /// gap at peak occupancy is still peak occupancy (only the
    /// time-weighted mean ignores it).
    pub fn observe_gap(&mut self, copies: u32, dt: f64) {
        self.peak_copies = self.peak_copies.max(copies);
        if dt <= 0.0 {
            return;
        }
        self.total_copy_time += copies as f64 * dt;
        self.total_time += dt;
        self.mean_copies = if self.total_time > 0.0 {
            self.total_copy_time / self.total_time
        } else {
            0.0
        };
    }

    /// Records one transfer.
    pub fn observe_transfer(&mut self, from: ServerId, to: ServerId) {
        self.transfers_out[from.index()] += 1;
        self.transfers_in[to.index()] += 1;
    }
}

/// Recovery metrics of one degraded replay (see [`crate::faults`]).
///
/// All counters are zero — and `cost_inflation` is exactly `1.0` — when
/// the fault plan is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Requests in the trace.
    pub requests_total: usize,
    /// Requests that missed their planned copy and were served by a
    /// repair or fallback path instead.
    pub requests_degraded: usize,
    /// Failed transfer attempts that triggered another try.
    pub retries: usize,
    /// Transfers rerouted to the origin after their planned source was
    /// unavailable or the retry budget ran out.
    pub origin_fallbacks: usize,
    /// Live copies destroyed by crash-window openings.
    pub copies_lost: usize,
    /// Planned cache intervals that never opened (server down).
    pub intervals_skipped: usize,
    /// Planned transfers dropped because their target was down.
    pub transfers_skipped: usize,
    /// Lost copies re-established on their planned interval by a repair.
    pub recaches: usize,
    /// Repairs with a known loss time (the re-cache events).
    pub repairs: usize,
    /// Mean time from copy loss to successful re-cache, including
    /// per-attempt transfer latency. Zero when nothing was repaired.
    pub mean_time_to_repair: f64,
    /// Degraded cost over fault-free cost. [`crate::faults::degraded_replay`]
    /// leaves this at `1.0`; [`crate::faults::chaos_replay`] fills it in.
    pub cost_inflation: f64,
}

impl FaultReport {
    /// A clean report for a trace of `requests_total` requests.
    pub fn new(requests_total: usize) -> Self {
        FaultReport {
            requests_total,
            requests_degraded: 0,
            retries: 0,
            origin_fallbacks: 0,
            copies_lost: 0,
            intervals_skipped: 0,
            transfers_skipped: 0,
            recaches: 0,
            repairs: 0,
            mean_time_to_repair: 0.0,
            cost_inflation: 1.0,
        }
    }

    /// Fraction of requests that were degraded.
    pub fn degraded_fraction(&self) -> f64 {
        if self.requests_total == 0 {
            0.0
        } else {
            self.requests_degraded as f64 / self.requests_total as f64
        }
    }

    /// Folds another report into this one (fleet-level aggregation):
    /// counters add, `mean_time_to_repair` is repair-weighted, and
    /// `cost_inflation` is left untouched for the caller to recompute
    /// from the aggregate costs.
    pub fn absorb(&mut self, other: &FaultReport) {
        let repairs = self.repairs + other.repairs;
        if repairs > 0 {
            self.mean_time_to_repair = (self.mean_time_to_repair * self.repairs as f64
                + other.mean_time_to_repair * other.repairs as f64)
                / repairs as f64;
        }
        self.repairs = repairs;
        self.requests_total += other.requests_total;
        self.requests_degraded += other.requests_degraded;
        self.retries += other.retries;
        self.origin_fallbacks += other.origin_fallbacks;
        self.copies_lost += other.copies_lost;
        self.intervals_skipped += other.intervals_skipped;
        self.transfers_skipped += other.transfers_skipped;
        self.recaches += other.recaches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_observation_tracks_peak_and_mean() {
        let mut m = ReplayMetrics::new(2);
        m.observe_gap(1, 1.0);
        m.observe_gap(3, 1.0);
        assert_eq!(m.peak_copies, 3);
        assert!((m.mean_copies - 2.0).abs() < 1e-12);
        // Zero-length gaps don't move the time-weighted mean…
        m.observe_gap(100, 0.0);
        assert!((m.mean_copies - 2.0).abs() < 1e-12);
        // …but they do count toward the peak: momentary occupancy at a
        // gap boundary is still occupancy.
        assert_eq!(m.peak_copies, 100);
    }

    #[test]
    fn transfer_counting() {
        let mut m = ReplayMetrics::new(3);
        m.observe_transfer(ServerId(0), ServerId(1));
        m.observe_transfer(ServerId(0), ServerId(2));
        m.observe_transfer(ServerId(2), ServerId(1));
        assert_eq!(m.transfers_out, vec![2, 0, 1]);
        assert_eq!(m.transfers_in, vec![0, 2, 1]);
    }
}
