//! Explicit space-time schedules (Fig. 1/2 of the paper) and their
//! independent feasibility validation and cost accounting.
//!
//! A [`Schedule`] describes how one *commodity* — a single data item, or a
//! package of correlated items moving as one unit — is cached and
//! transferred over time: horizontal *cache intervals* (a copy held at a
//! server over a time span) and vertical *transfers* (a copy shipped
//! between servers at an instant).
//!
//! The validator in this module knows nothing about any algorithm's
//! internals; it only checks the physics of the model:
//!
//! 1. copies can only be created from existing copies (connectivity back to
//!    the origin placement at `(s_1, t = 0)`),
//! 2. every request point is actually servable (a copy is present at the
//!    requesting server at the request time), and
//! 3. the cost equals `rate_cache · Σ interval lengths + cost_transfer · #transfers`,
//!    exactly the accounting of Fig. 1 (`C = (1.4+3.5+0.3)μ + 4λ`).
//!
//! Every algorithm crate emits schedules and cross-checks its internal cost
//! bookkeeping against this accountant in tests.

use crate::error::ModelError;
use crate::ids::ServerId;
use crate::request::SingleItemTrace;
use crate::time::{approx_eq, approx_le, TimePoint, TimeSpan};

/// A copy of the commodity held at `server` for the span `[start, end]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheInterval {
    /// Hosting server.
    pub server: ServerId,
    /// Time span the copy is held.
    pub span: TimeSpan,
}

/// A transfer of the commodity from `from` to `to` at instant `time`
/// (standard form: transfers occur at request times, per \[7\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Source server; must hold a copy at `time`.
    pub from: ServerId,
    /// Destination server.
    pub to: ServerId,
    /// Instant of the transfer.
    pub time: TimePoint,
}

/// Cost breakdown of a schedule under a given `(cache rate, transfer cost)`
/// pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleCost {
    /// Total copy-holding time `Σ (end − start)` across intervals.
    pub cache_time: f64,
    /// Number of transfers.
    pub transfers: usize,
    /// `rate_cache · cache_time + cost_transfer · transfers`.
    pub total: f64,
}

/// An explicit space-time schedule for one commodity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Cache intervals, in no particular order.
    pub intervals: Vec<CacheInterval>,
    /// Transfers, in no particular order.
    pub transfers: Vec<Transfer>,
}

impl Schedule {
    /// An empty schedule (commodity never moves off the origin and is never
    /// cached past `t = 0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cache interval.
    pub fn cache(&mut self, server: ServerId, start: TimePoint, end: TimePoint) -> &mut Self {
        self.intervals.push(CacheInterval {
            server,
            span: TimeSpan::new(start, end),
        });
        self
    }

    /// Adds a transfer.
    pub fn transfer(&mut self, from: ServerId, to: ServerId, time: TimePoint) -> &mut Self {
        self.transfers.push(Transfer { from, to, time });
        self
    }

    /// Total copy-holding time across all intervals.
    pub fn cache_time(&self) -> f64 {
        self.intervals.iter().map(|iv| iv.span.len()).sum()
    }

    /// Cost under the given cache rate and per-transfer cost.
    ///
    /// For a single item pass `(μ, λ)`; for a two-item package pass
    /// `(2αμ, 2αλ)` per Table II.
    pub fn cost(&self, rate_cache: f64, cost_transfer: f64) -> ScheduleCost {
        let cache_time = self.cache_time();
        let transfers = self.transfers.len();
        ScheduleCost {
            cache_time,
            transfers,
            total: rate_cache * cache_time + cost_transfer * transfers as f64,
        }
    }

    /// True if a copy is present at `server` at `time` under this schedule:
    /// the origin placement, a covering cache interval, or a transfer
    /// arriving exactly then.
    pub fn copy_present(&self, server: ServerId, time: TimePoint) -> bool {
        (server == ServerId::ORIGIN && approx_eq(time, 0.0))
            || self
                .intervals
                .iter()
                .any(|iv| iv.server == server && iv.span.contains(time))
            || self
                .transfers
                .iter()
                .any(|tr| tr.to == server && approx_eq(tr.time, time))
    }

    /// Validates physical feasibility against a request trace.
    ///
    /// Rules checked (see module docs): interval starts are anchored to an
    /// existing copy; transfer sources hold a copy at the transfer instant
    /// (supplied by the origin, an interval, or an earlier-validated
    /// transfer chained at the same instant); every request point is
    /// servable; all times are within `[0, horizon]` and finite.
    ///
    /// # Errors
    ///
    /// [`ModelError::InfeasibleSchedule`] with a human-readable reason.
    pub fn validate(&self, trace: &SingleItemTrace) -> Result<(), ModelError> {
        let fail = |reason: String| Err(ModelError::InfeasibleSchedule { reason });

        for iv in &self.intervals {
            if iv.server.0 >= trace.servers {
                return fail(format!("interval on unknown server {}", iv.server));
            }
            if iv.span.start < -crate::time::EPSILON {
                return fail(format!("interval starts before t=0 at {}", iv.span.start));
            }
        }
        for tr in &self.transfers {
            if tr.from.0 >= trace.servers || tr.to.0 >= trace.servers {
                return fail(format!(
                    "transfer touches unknown server {} -> {}",
                    tr.from, tr.to
                ));
            }
            if tr.time < -crate::time::EPSILON {
                return fail(format!("transfer before t=0 at {}", tr.time));
            }
        }

        // 1. Interval anchoring: a copy must exist at (server, start).
        //    Sources: origin, a transfer arriving at `start`, or another
        //    interval at the same server covering `start`.
        for (i, iv) in self.intervals.iter().enumerate() {
            let anchored = (iv.server == ServerId::ORIGIN && approx_eq(iv.span.start, 0.0))
                || self
                    .transfers
                    .iter()
                    .any(|tr| tr.to == iv.server && approx_eq(tr.time, iv.span.start))
                || self.intervals.iter().enumerate().any(|(j, other)| {
                    j != i
                        && other.server == iv.server
                        && other.span.contains(iv.span.start)
                        // Break symmetry between two intervals that merely
                        // touch: the earlier-starting one anchors the later.
                        && other.span.start < iv.span.start + crate::time::EPSILON
                        && !(approx_eq(other.span.start, iv.span.start) && j > i)
                });
            if !anchored {
                return fail(format!(
                    "cache interval at {} starting t={} has no copy source",
                    iv.server, iv.span.start
                ));
            }
        }

        // 2. Transfer sources. Transfers at the same instant may chain; we
        //    resolve chains by fixpoint iteration to reject cycles that
        //    would bootstrap a copy out of nothing.
        let mut source_ok = vec![false; self.transfers.len()];
        let mut progressed = true;
        while progressed {
            progressed = false;
            for i in 0..self.transfers.len() {
                if source_ok[i] {
                    continue;
                }
                let tr = &self.transfers[i];
                let from_origin = tr.from == ServerId::ORIGIN && approx_eq(tr.time, 0.0);
                let from_interval = self
                    .intervals
                    .iter()
                    .any(|iv| iv.server == tr.from && iv.span.contains(tr.time));
                let from_chained = self.transfers.iter().enumerate().any(|(j, other)| {
                    j != i && source_ok[j] && other.to == tr.from && approx_eq(other.time, tr.time)
                });
                if from_origin || from_interval || from_chained {
                    source_ok[i] = true;
                    progressed = true;
                }
            }
        }
        if let Some(i) = source_ok.iter().position(|ok| !ok) {
            let tr = &self.transfers[i];
            return fail(format!(
                "transfer {} -> {} at t={} has no live source copy",
                tr.from, tr.to, tr.time
            ));
        }

        // 3. Every request point is servable.
        for p in &trace.points {
            if !self.copy_present(p.server, p.time) {
                return fail(format!(
                    "request at {} t={} is not served by any copy",
                    p.server, p.time
                ));
            }
        }

        Ok(())
    }

    /// Normalises the schedule by merging overlapping/touching intervals on
    /// the same server, preserving total coverage (cost can only decrease —
    /// overlap double-pays).
    pub fn normalize(&mut self) {
        self.intervals.sort_by(|a, b| {
            a.server
                .cmp(&b.server)
                .then(crate::time::total_cmp(a.span.start, b.span.start))
        });
        let mut merged: Vec<CacheInterval> = Vec::with_capacity(self.intervals.len());
        for iv in self.intervals.drain(..) {
            match merged.last_mut() {
                Some(last)
                    if last.server == iv.server && approx_le(iv.span.start, last.span.end) =>
                {
                    if iv.span.end > last.span.end {
                        last.span = TimeSpan::new(last.span.start, iv.span.end);
                    }
                }
                _ => merged.push(iv),
            }
        }
        self.intervals = merged;
        self.transfers
            .sort_by(|a, b| crate::time::total_cmp(a.time, b.time).then(a.to.cmp(&b.to)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Fig. 1's feasible schedule: `C = (1.4 + 3.5 + 0.3)μ + 4λ`.
    /// We reconstruct an equivalent schedule shape and check the accountant
    /// reports exactly that cost decomposition.
    #[test]
    fn fig1_cost_accounting() {
        let mut s = Schedule::new();
        s.cache(ServerId(0), 0.0, 1.4)
            .cache(ServerId(1), 0.5, 4.0)
            .cache(ServerId(2), 3.7, 4.0)
            .transfer(ServerId(0), ServerId(1), 0.5)
            .transfer(ServerId(1), ServerId(2), 3.7)
            .transfer(ServerId(0), ServerId(3), 1.4)
            .transfer(ServerId(1), ServerId(3), 2.2);
        let c = s.cost(1.0, 1.0);
        assert!(approx_eq(c.cache_time, 1.4 + 3.5 + 0.3));
        assert_eq!(c.transfers, 4);
        assert!(approx_eq(c.total, 5.2 + 4.0));
        // Under μ=2, λ=3 the same schedule costs 5.2·2 + 4·3.
        let c = s.cost(2.0, 3.0);
        assert!(approx_eq(c.total, 10.4 + 12.0));
    }

    #[test]
    fn validates_serving_and_connectivity() {
        // Item starts at s1; requests at (s2, 1.0) and (s1, 2.0).
        let trace = SingleItemTrace::from_pairs(2, &[(1.0, 1), (2.0, 0)]);

        // Feasible: keep at s1 for [0,2], transfer to s2 at 1.0.
        let mut ok = Schedule::new();
        ok.cache(ServerId(0), 0.0, 2.0)
            .transfer(ServerId(0), ServerId(1), 1.0);
        assert!(ok.validate(&trace).is_ok());

        // Infeasible: nothing serves the request at s2.
        let mut missing = Schedule::new();
        missing.cache(ServerId(0), 0.0, 2.0);
        let err = missing.validate(&trace).unwrap_err();
        assert!(err.to_string().contains("not served"));

        // Infeasible: transfer from a server that has no copy.
        let mut bad_src = Schedule::new();
        bad_src
            .cache(ServerId(0), 0.0, 2.0)
            .transfer(ServerId(1), ServerId(1), 1.0);
        let err = bad_src.validate(&trace).unwrap_err();
        assert!(err.to_string().contains("no live source"));

        // Infeasible: interval materialising out of nothing at s2.
        let mut bad_anchor = Schedule::new();
        bad_anchor
            .cache(ServerId(0), 0.0, 2.0)
            .cache(ServerId(1), 0.5, 1.0);
        let err = bad_anchor.validate(&trace).unwrap_err();
        assert!(err.to_string().contains("no copy source"));
    }

    #[test]
    fn origin_placement_only_exists_at_time_zero() {
        // A request at the origin server later than 0 with no caching is NOT
        // served: holding the copy costs μ per unit time and must be explicit.
        let trace = SingleItemTrace::from_pairs(1, &[(1.0, 0)]);
        let s = Schedule::new();
        assert!(s.validate(&trace).is_err());

        let mut held = Schedule::new();
        held.cache(ServerId(0), 0.0, 1.0);
        assert!(held.validate(&trace).is_ok());
    }

    #[test]
    fn transfer_chains_at_same_instant_are_allowed_but_cycles_rejected() {
        let trace = SingleItemTrace::from_pairs(3, &[(1.0, 2)]);
        // s1 --(1.0)--> s2 --(1.0)--> s3: valid chain.
        let mut chain = Schedule::new();
        chain
            .cache(ServerId(0), 0.0, 1.0)
            .transfer(ServerId(0), ServerId(1), 1.0)
            .transfer(ServerId(1), ServerId(2), 1.0);
        assert!(chain.validate(&trace).is_ok());

        // s2 -> s3 and s3 -> s2 at the same instant with no real source:
        // a bootstrap cycle, rejected.
        let mut cycle = Schedule::new();
        cycle
            .transfer(ServerId(1), ServerId(2), 1.0)
            .transfer(ServerId(2), ServerId(1), 1.0);
        assert!(cycle.validate(&trace).is_err());
    }

    #[test]
    fn zero_length_interval_serves_transient_copy() {
        // A transfer delivers a transient copy that serves the request at the
        // same instant without any interval.
        let trace = SingleItemTrace::from_pairs(2, &[(1.5, 1)]);
        let mut s = Schedule::new();
        s.cache(ServerId(0), 0.0, 1.5)
            .transfer(ServerId(0), ServerId(1), 1.5);
        assert!(s.validate(&trace).is_ok());
        assert!(approx_eq(s.cost(1.0, 1.0).total, 1.5 + 1.0));
    }

    #[test]
    fn normalize_merges_same_server_intervals() {
        let mut s = Schedule::new();
        s.cache(ServerId(0), 0.0, 1.0)
            .cache(ServerId(0), 0.5, 2.0)
            .cache(ServerId(0), 2.0, 3.0)
            .cache(ServerId(1), 0.5, 1.0);
        // Anchor for the s2 interval.
        s.transfer(ServerId(0), ServerId(1), 0.5);
        s.normalize();
        assert_eq!(s.intervals.len(), 2);
        let total: f64 = s.cache_time();
        assert!(approx_eq(total, 3.0 + 0.5));
    }

    #[test]
    fn validate_rejects_out_of_range_entities() {
        let trace = SingleItemTrace::from_pairs(2, &[(1.0, 1)]);
        let mut s = Schedule::new();
        s.cache(ServerId(7), 0.0, 1.0);
        assert!(s.validate(&trace).is_err());

        let mut s = Schedule::new();
        s.transfer(ServerId(0), ServerId(9), 1.0);
        assert!(s.validate(&trace).is_err());

        let mut s = Schedule::new();
        s.cache(ServerId(0), -1.0, 1.0);
        assert!(s.validate(&trace).is_err());
    }

    /// A feasible random schedule over 2–4 servers: one copy hops from the
    /// origin 1–8 times, cached where it is until the next hop and then
    /// transferred to that hop's server, which requests it on arrival.
    fn random_schedule(rng: &mut Rng) -> (Schedule, SingleItemTrace) {
        let m = rng.gen_range(2u32..=4);
        let mut s = Schedule::new();
        let mut points = Vec::new();
        let mut cur = ServerId::ORIGIN;
        let mut t = 0.0_f64;
        for _ in 0..rng.gen_range(1usize..=8) {
            let next = t + rng.gen_range(1u32..=40) as f64 / 10.0;
            s.cache(cur, t, next);
            let dst = ServerId(rng.gen_range(0..m));
            if dst != cur {
                s.transfer(cur, dst, next);
            }
            points.push((next, dst.0));
            cur = dst;
            t = next;
        }
        (s, SingleItemTrace::from_pairs(m, &points))
    }

    #[test]
    fn random_schedules_account_render_and_normalize() {
        for case in 0..256 {
            let mut rng = Rng::seed_from_u64(0x5C4ED + case);
            let (mut s, trace) = random_schedule(&mut rng);
            let mu = rng.gen_range(1u32..=30) as f64 / 10.0;
            let lambda = rng.gen_range(1u32..=30) as f64 / 10.0;
            assert!(s.validate(&trace).is_ok(), "case {case}");
            let c = s.cost(mu, lambda);
            assert!(
                approx_eq(c.total, mu * c.cache_time + lambda * c.transfers as f64),
                "case {case}: {c:?}"
            );
            let art = crate::diagram::render(&s, &trace, 48);
            assert_eq!(
                art.lines().count(),
                trace.servers as usize + 2,
                "case {case}"
            );
            assert!(art.contains('*'), "case {case}: {art}");
            // Normalizing keeps the schedule feasible, never raises its
            // cost, and is idempotent.
            let before = s.cost(1.0, 1.0).total;
            s.normalize();
            let after = s.cost(1.0, 1.0).total;
            assert!(after <= before + 1e-9, "case {case}: {before} -> {after}");
            assert!(
                s.validate(&trace).is_ok(),
                "case {case}: normalize broke feasibility"
            );
            let mut again = s.clone();
            again.normalize();
            assert_eq!(again, s, "case {case}");
        }
    }
}
