//! The unified solver result and the ledger derivation.
//!
//! A [`Solution`] carries the totals every consumer needs (`total_cost`,
//! the `Σ|d_i|` denominator of `ave_cost`) plus a flat list of
//! [`SolutionPart`]s — the committed outputs of the run. Its
//! [`EventSource`] implementation is the only code in the workspace that
//! turns solver output into `mcs-obs` decision-ledger events, and
//! [`Solution::ledger`] is the view over it; the per-pair experiments of
//! Figs. 11 and 13 derive their cost breakdowns through it too. Each part
//! yields its events in turn, each time the ledger is read:
//!
//! * [`SolutionPart::Schedule`] — an explicit schedule priced at the
//!   part's own rates (base rates for singletons, `αgμ`/`αgλ` for the
//!   schedule of a package of `g` items): one `cache` event per interval
//!   (cost `μ·len`, stamped at the interval end, by which the full
//!   holding cost has been paid) and one `transfer` event per transfer
//!   (cost `λ`), in the schedule's own order.
//! * [`SolutionPart::Serve`] — the recorded three-arm greedy choices of
//!   Observation 2, carrying the real `option_costs` of all arms, and a
//!   package's shared deliveries.
//! * [`SolutionPart::Aggregate`] — a channel-attributed lump cost for
//!   solvers that only report aggregates (the on-line DP_Greedy's
//!   package-transfer counts, the resilient policy's attempt totals).
//!
//! Each part owns the [`Commodity`] it serves, and its events name it by
//! a [`Subject`] that borrows the part's package members, so reading a
//! ledger allocates nothing. Parts are emitted in a fixed order per
//! solver, so the JSONL a Solution renders is deterministic byte for
//! byte.

use mcs_model::Schedule;
use mcs_obs::ledger::OPTION_NAMES;
use mcs_obs::{EventSource, Ledger, LedgerEvent, Subject};

use crate::SolverKind;

/// What a part serves: an item, a packed pair, or a package of three or
/// more items. The ledger names it by [`Commodity::as_subject`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Commodity {
    /// A single item.
    Item(u32),
    /// A packed pair, ascending.
    Pair(u32, u32),
    /// A package of three or more items, ascending.
    Package(Box<[u32]>),
}

impl Commodity {
    /// The ledger subject, borrowing a package's members.
    pub fn as_subject(&self) -> Subject<'_> {
        match self {
            Commodity::Item(i) => Subject::Item(*i),
            Commodity::Pair(a, b) => Subject::Pair(*a, *b),
            Commodity::Package(members) => Subject::Package(members),
        }
    }
}

/// One recorded serve-time arm choice (Observation 2's three-arm greedy).
#[derive(Debug, Clone, Copy)]
pub struct ServeChoice {
    /// The arm committed to: `"cache"`, `"transfer"`, or `"package"`.
    pub option_chosen: &'static str,
    /// Real cost of each arm at decision time, `f64::INFINITY` for
    /// infeasible arms, in [`OPTION_NAMES`] slot order.
    pub option_costs: [f64; 3],
    /// Decision time.
    pub t: f64,
    /// Cost actually paid.
    pub cost: f64,
}

/// One committed output of a solver run.
#[derive(Debug, Clone)]
pub enum SolutionPart {
    /// An explicit schedule priced at `mu`/`lambda` (pass the
    /// package-scaled rates for package schedules).
    Schedule {
        /// Ledger phase, e.g. `"offline"`, `"phase2.package"`.
        phase: &'static str,
        /// The item or package the schedule serves.
        subject: Commodity,
        /// The schedule itself.
        schedule: Schedule,
        /// Cache rate this schedule is priced at.
        mu: f64,
        /// Transfer cost this schedule is priced at.
        lambda: f64,
    },
    /// Recorded serve-time arm choices.
    Serve {
        /// Ledger phase (DP_Greedy uses `"phase2.serve"`).
        phase: &'static str,
        /// The item served, or the package a shared delivery shipped.
        subject: Commodity,
        /// The choices, in request order.
        choices: Vec<ServeChoice>,
    },
    /// A lump cost attributed to one channel (for aggregate-only
    /// solvers).
    Aggregate {
        /// Ledger phase, e.g. `"online"`.
        phase: &'static str,
        /// The item the cost is attributed to.
        subject: Commodity,
        /// The channel: `"cache"`, `"transfer"`, or `"package"`.
        channel: &'static str,
        /// Attribution time (the horizon for end-of-run settlements).
        t: f64,
        /// The lump cost.
        cost: f64,
    },
}

impl SolutionPart {
    /// Sum of the costs this part will contribute to the ledger.
    pub fn cost(&self) -> f64 {
        match self {
            SolutionPart::Schedule {
                schedule,
                mu,
                lambda,
                ..
            } => {
                let cache: f64 = schedule.intervals.iter().map(|iv| mu * iv.span.len()).sum();
                cache + lambda * schedule.transfers.len() as f64
            }
            SolutionPart::Serve { choices, .. } => choices.iter().map(|c| c.cost).sum(),
            SolutionPart::Aggregate { cost, .. } => *cost,
        }
    }
}

/// The unified result of a [`crate::CachingSolver`] run.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The producing solver's registry name (also the ledger `algo`).
    pub algo: &'static str,
    /// Off-line or on-line.
    pub kind: SolverKind,
    /// Total cost as reported by the algorithm (authoritative — the
    /// ledger reconciles *against* it, it is never re-summed from parts).
    pub total_cost: f64,
    /// `Σ|d_i|` — total item accesses, the `ave_cost` denominator.
    pub total_accesses: usize,
    /// The committed outputs, in deterministic emission order.
    pub parts: Vec<SolutionPart>,
}

impl Solution {
    /// The paper's headline metric: cost per item access.
    pub fn ave_cost(&self) -> f64 {
        if self.total_accesses == 0 {
            0.0
        } else {
            self.total_cost / self.total_accesses as f64
        }
    }

    /// The decision ledger of this run: a view that derives the events
    /// from the parts on each pass ([`EventSource`]), so taking it costs
    /// nothing and no event list is built.
    pub fn ledger(&self) -> Ledger<'_> {
        Ledger::over(self)
    }

    /// Absolute gap between the derived ledger total and the reported
    /// total cost (the reconciliation theorem says this is 0 up to
    /// floating-point associativity, which
    /// [`Ledger::reconcile_tolerance`] bounds).
    pub fn reconciliation_gap(&self) -> f64 {
        (self.ledger().total_cost() - self.total_cost).abs()
    }
}

/// The single generic ledger derivation shared by every registered
/// solver: the parts' events, part by part.
impl EventSource for Solution {
    fn event_count(&self) -> usize {
        self.parts
            .iter()
            .map(|part| match part {
                SolutionPart::Schedule { schedule, .. } => {
                    schedule.intervals.len() + schedule.transfers.len()
                }
                SolutionPart::Serve { choices, .. } => choices.len(),
                SolutionPart::Aggregate { .. } => 1,
            })
            .sum()
    }

    /// The workspace's one rule, [`mcs_model::par::threads_for`], applied
    /// to the event count: serial below 4,096 events and at
    /// `MCS_THREADS=1`. It reads the environment, so it is asked when an
    /// emit starts, never when the ledger is taken or read.
    fn emit_threads(&self, events: usize) -> usize {
        mcs_model::par::threads_for(events)
    }

    fn for_each_event<'s>(&'s self, f: &mut dyn FnMut(&LedgerEvent<'s>)) {
        for part in &self.parts {
            match part {
                SolutionPart::Schedule {
                    phase,
                    subject,
                    schedule,
                    mu,
                    lambda,
                } => {
                    for iv in &schedule.intervals {
                        let cost = mu * iv.span.len();
                        f(&LedgerEvent {
                            algo: self.algo,
                            phase,
                            subject: subject.as_subject(),
                            option_chosen: "cache",
                            option_costs: [cost, f64::INFINITY, f64::INFINITY],
                            t: iv.span.end,
                            cost,
                        });
                    }
                    for tr in &schedule.transfers {
                        f(&LedgerEvent {
                            algo: self.algo,
                            phase,
                            subject: subject.as_subject(),
                            option_chosen: "transfer",
                            option_costs: [f64::INFINITY, *lambda, f64::INFINITY],
                            t: tr.time,
                            cost: *lambda,
                        });
                    }
                }
                SolutionPart::Serve {
                    phase,
                    subject,
                    choices,
                } => {
                    for c in choices {
                        f(&LedgerEvent {
                            algo: self.algo,
                            phase,
                            subject: subject.as_subject(),
                            option_chosen: c.option_chosen,
                            option_costs: c.option_costs,
                            t: c.t,
                            cost: c.cost,
                        });
                    }
                }
                SolutionPart::Aggregate {
                    phase,
                    subject,
                    channel,
                    t,
                    cost,
                } => {
                    let slot = OPTION_NAMES
                        .iter()
                        .position(|n| n == channel)
                        .expect("channel is one of cache/transfer/package");
                    let mut option_costs = [f64::INFINITY; 3];
                    option_costs[slot] = *cost;
                    f(&LedgerEvent {
                        algo: self.algo,
                        phase,
                        subject: subject.as_subject(),
                        option_chosen: channel,
                        option_costs,
                        t: *t,
                        cost: *cost,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aggregate(channel: &'static str, cost: f64) -> SolutionPart {
        SolutionPart::Aggregate {
            phase: "online",
            subject: Commodity::Item(0),
            channel,
            t: 1.0,
            cost,
        }
    }

    #[test]
    fn aggregate_parts_land_in_their_channel() {
        let s = Solution {
            algo: "test",
            kind: SolverKind::Online,
            total_cost: 4.5,
            total_accesses: 9,
            parts: vec![
                aggregate("cache", 1.0),
                aggregate("transfer", 2.0),
                aggregate("package", 1.5),
            ],
        };
        let b = s.ledger().breakdown();
        assert_eq!(b.cache, 1.0);
        assert_eq!(b.transfer, 2.0);
        assert_eq!(b.package_delivery, 1.5);
        assert!(s.reconciliation_gap() < 1e-12);
        assert!((s.ave_cost() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn serve_parts_carry_option_costs_through() {
        let s = Solution {
            algo: "test",
            kind: SolverKind::Offline,
            total_cost: 2.0,
            total_accesses: 1,
            parts: vec![SolutionPart::Serve {
                phase: "phase2.serve",
                subject: Commodity::Item(3),
                choices: vec![ServeChoice {
                    option_chosen: "transfer",
                    option_costs: [5.0, 2.0, f64::INFINITY],
                    t: 0.7,
                    cost: 2.0,
                }],
            }],
        };
        let events = s.ledger().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].option_chosen, "transfer");
        assert_eq!(events[0].option_costs[0], 5.0);
        assert!(s.reconciliation_gap() < 1e-12);
    }

    #[test]
    fn empty_solution_has_an_empty_ledger() {
        let s = Solution {
            algo: "test",
            kind: SolverKind::Offline,
            total_cost: 0.0,
            total_accesses: 0,
            parts: vec![],
        };
        assert!(s.ledger().is_empty());
        assert_eq!(s.ave_cost(), 0.0);
    }
}
