//! The decision ledger: structured cost-attribution events.
//!
//! Every cache interval, transfer, and package delivery an algorithm
//! commits to becomes one [`LedgerEvent`] carrying the option it chose,
//! the costs of the options it chose *between* (`option_costs`, indexed
//! by [`OPTION_NAMES`] = cache/transfer/package, infeasible options
//! `f64::INFINITY`), the decision time `t`, and the cost actually paid.
//! Summing `cost` over a ledger reconciles with the producing schedule's
//! `total_cost` — property-tested at the workspace root — and
//! [`Ledger::breakdown`] attributes the total to the three cost channels
//! the paper's figures vary.
//!
//! A [`Ledger`] holds no events. It is a borrowed view over an
//! [`EventSource`] — `mcs_engine::Solution`, whose parts it derives the
//! events from — and every method derives them again in one ordered pass,
//! folding or encoding each as it comes, so no event list is built (26 MB
//! for a 255k-event ledger). This module defines the event model, the
//! view and the deterministic JSON-lines encoding.

use crate::jsonl;

/// Names of the three option slots in [`LedgerEvent::option_costs`],
/// in slot order.
pub const OPTION_NAMES: [&str; 3] = ["cache", "transfer", "package"];

/// What a ledger event is about: a single item or a packed pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subject {
    /// A single cached item.
    Item(u32),
    /// A packed pair of items (Phase-2 package events).
    Pair(u32, u32),
}

/// One committed decision with its cost attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    /// Producing algorithm, e.g. `"dp_greedy"`, `"optimal"`, `"greedy"`.
    pub algo: &'static str,
    /// Algorithm phase, e.g. `"phase1"`, `"phase2.package"`, `"serve"`.
    pub phase: &'static str,
    /// The item or pair the decision concerns.
    pub subject: Subject,
    /// The option committed to: `"cache"`, `"transfer"`, or `"package"`.
    pub option_chosen: &'static str,
    /// Cost of each option at decision time, in [`OPTION_NAMES`] slot
    /// order; `f64::INFINITY` marks an option that was infeasible or not
    /// offered (rendered as `null` in JSON).
    pub option_costs: [f64; 3],
    /// Decision time (for cache intervals, the interval end — the point
    /// by which the full interval cost has been paid).
    pub t: f64,
    /// Cost actually paid for this decision.
    pub cost: f64,
}

impl LedgerEvent {
    /// Renders the event as one JSON object (no trailing newline) with a
    /// fixed key order, deterministically byte-for-byte.
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(160);
        self.write_json(&mut out);
        String::from_utf8(out).expect("the JSON writers emit UTF-8")
    }

    /// Appends [`Self::to_json`]'s rendering to `out`, with no allocation
    /// of its own.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"algo\":");
        jsonl::push_str(out, self.algo);
        out.extend_from_slice(b",\"phase\":");
        jsonl::push_str(out, self.phase);
        match self.subject {
            Subject::Item(i) => {
                out.extend_from_slice(b",\"item\":");
                jsonl::push_u64(out, i.into());
            }
            Subject::Pair(a, b) => {
                out.extend_from_slice(b",\"pair\":[");
                jsonl::push_u64(out, a.into());
                out.push(b',');
                jsonl::push_u64(out, b.into());
                out.push(b']');
            }
        }
        out.extend_from_slice(b",\"option_chosen\":");
        jsonl::push_str(out, self.option_chosen);
        out.extend_from_slice(b",\"option_costs\":[");
        // Where each option cost's bytes landed: `cost` is almost always
        // one of them, and same bits render to the same bytes.
        let mut rendered = [(0, 0); 3];
        for (slot, &c) in self.option_costs.iter().enumerate() {
            if slot > 0 {
                out.push(b',');
            }
            let start = out.len();
            jsonl::push_num(out, c);
            rendered[slot] = (start, out.len());
        }
        out.extend_from_slice(b"],\"t\":");
        jsonl::push_num(out, self.t);
        out.extend_from_slice(b",\"cost\":");
        let same = self
            .option_costs
            .iter()
            .position(|c| c.to_bits() == self.cost.to_bits());
        match same {
            Some(slot) => out.extend_from_within(rendered[slot].0..rendered[slot].1),
            None => jsonl::push_num(out, self.cost),
        }
        out.push(b'}');
    }
}

/// Total cost attributed to each of the three channels.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Cost of cache intervals (μ·time, or 2αμ·time inside packages).
    pub cache: f64,
    /// Cost of transfers (λ each, or 2αλ inside packages).
    pub transfer: f64,
    /// Cost of package deliveries chosen by the serve-time greedy (2αλ).
    pub package_delivery: f64,
}

impl CostBreakdown {
    /// Sum of the three channels — equals the ledger's total cost.
    pub fn total(&self) -> f64 {
        self.cache + self.transfer + self.package_delivery
    }
}

/// A producer of ledger events, derived in order on each call.
pub trait EventSource {
    /// How many events [`Self::for_each_event`] yields, counted without
    /// deriving them.
    fn event_count(&self) -> usize;

    /// Calls `f` with each event, in the deterministic ledger order.
    fn for_each_event(&self, f: &mut dyn FnMut(&LedgerEvent));
}

/// Hand-built event lists, for tests and for edited copies of a ledger's
/// [`Ledger::events`].
impl EventSource for Vec<LedgerEvent> {
    fn event_count(&self) -> usize {
        self.len()
    }

    fn for_each_event(&self, f: &mut dyn FnMut(&LedgerEvent)) {
        self.iter().for_each(f);
    }
}

/// The event sum of a ledger and the rounding bound it reconciles
/// within, from one pass over the events.
#[derive(Debug, Clone, Copy)]
pub struct Reconciliation {
    /// [`Ledger::total_cost`].
    pub total: f64,
    /// [`Ledger::reconcile_tolerance`].
    pub tolerance: f64,
}

impl Reconciliation {
    /// Whether [`Self::total`] is within [`Self::tolerance`] of `total`.
    /// A NaN on either side never reconciles.
    pub fn reconciles_with(&self, total: f64) -> bool {
        (self.total - total).abs() <= self.tolerance
    }
}

/// The decision ledger of one algorithm run: a view over its
/// [`EventSource`] that derives the events again on each call, so it
/// costs nothing to take and holds no event list.
#[derive(Clone, Copy)]
pub struct Ledger<'a> {
    source: &'a dyn EventSource,
}

impl<'a> Ledger<'a> {
    /// The ledger of `source`'s events.
    pub fn over(source: &'a dyn EventSource) -> Self {
        Ledger { source }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.source.event_count()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The events, collected into a list — for callers that index or edit
    /// them. Every other method derives them without one.
    pub fn events(&self) -> Vec<LedgerEvent> {
        let mut events = Vec::with_capacity(self.len());
        self.source.for_each_event(&mut |e| events.push(e.clone()));
        events
    }

    /// Sum of event costs — reconciles with the producing schedule's
    /// total cost (property-tested at the workspace root). Folds from
    /// `+0.0`, so an empty ledger totals `0`, not `f64::sum`'s `-0`.
    pub fn total_cost(&self) -> f64 {
        let mut total = 0.0;
        self.source.for_each_event(&mut |e| total += e.cost);
        total
    }

    /// The largest gap between [`Self::total_cost`] and a producer's
    /// total that float rounding alone explains: `2·γ_n·Σ|event.cost|`,
    /// with `γ_n = nε/(1 − nε)`, `n` the event count and `ε = 2⁻⁵³`.
    ///
    /// Summing `n` terms in any order errs by at most `γ_n·Σ|term|`, and
    /// the producer's total and this ledger's sum are two such sums of
    /// the same costs. A dropped or double-counted event moves the gap by
    /// its whole cost, far above this bound unless the event is itself
    /// rounding-sized.
    pub fn reconcile_tolerance(&self) -> f64 {
        self.reconciliation().tolerance
    }

    /// [`Self::total_cost`] and [`Self::reconcile_tolerance`], bit for
    /// bit, from one pass over the events.
    pub fn reconciliation(&self) -> Reconciliation {
        let mut total = 0.0;
        // From `-0.0`, where `Iterator::sum` starts, so the bound has the
        // bits of the summed magnitudes even for an empty ledger.
        let mut magnitude = -0.0;
        self.source.for_each_event(&mut |e| {
            total += e.cost;
            magnitude += e.cost.abs();
        });
        let nu = self.len() as f64 * (f64::EPSILON / 2.0);
        let gamma = nu / (1.0 - nu);
        Reconciliation {
            total,
            tolerance: 2.0 * gamma * magnitude,
        }
    }

    /// Whether the events sum to `total` within
    /// [`Self::reconcile_tolerance`] — the check `dpg trace solve` and
    /// `dpg run` apply before reporting. A NaN on either side never
    /// reconciles.
    pub fn reconciles_with(&self, total: f64) -> bool {
        self.reconciliation().reconciles_with(total)
    }

    /// Attributes the total cost to the three channels by
    /// `option_chosen`.
    pub fn breakdown(&self) -> CostBreakdown {
        let mut b = CostBreakdown::default();
        self.source.for_each_event(&mut |e| match e.option_chosen {
            "cache" => b.cache += e.cost,
            "transfer" => b.transfer += e.cost,
            _ => b.package_delivery += e.cost,
        });
        b
    }

    /// Renders the ledger as JSON lines (one event per line, trailing
    /// newline), byte-deterministic for a given event sequence.
    pub fn to_jsonl_string(&self) -> String {
        let mut out = Vec::with_capacity(self.len() * 160);
        self.source.for_each_event(&mut |e| {
            e.write_json(&mut out);
            out.push(b'\n');
        });
        String::from_utf8(out).expect("the JSON writers emit UTF-8")
    }

    /// Writes [`Self::to_jsonl_string`]'s bytes to `w` through a 64 KB
    /// buffer, so the whole rendering is never held in memory. Nothing is
    /// written after the first I/O error, which is returned.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        const CHUNK: usize = 64 * 1024;
        let mut buf = Vec::with_capacity(CHUNK + 1024);
        let mut written = Ok(());
        self.source.for_each_event(&mut |e| {
            if written.is_err() {
                return;
            }
            e.write_json(&mut buf);
            buf.push(b'\n');
            if buf.len() >= CHUNK {
                written = w.write_all(&buf);
                buf.clear();
            }
        });
        written?;
        w.write_all(&buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(chosen: &'static str, cost: f64) -> LedgerEvent {
        LedgerEvent {
            algo: "test",
            phase: "serve",
            subject: Subject::Item(1),
            option_chosen: chosen,
            option_costs: [1.0, 2.0, f64::INFINITY],
            t: 3.5,
            cost,
        }
    }

    #[test]
    fn totals_and_breakdown_reconcile() {
        let events = vec![ev("cache", 1.0), ev("transfer", 2.0), ev("package", 1.6)];
        let l = Ledger::over(&events);
        assert!((l.total_cost() - 4.6).abs() < 1e-12);
        let b = l.breakdown();
        assert_eq!(b.cache, 1.0);
        assert_eq!(b.transfer, 2.0);
        assert_eq!(b.package_delivery, 1.6);
        assert!((b.total() - l.total_cost()).abs() < 1e-12);
    }

    #[test]
    fn json_encoding_is_stable() {
        let e = ev("cache", 1.0);
        assert_eq!(
            e.to_json(),
            "{\"algo\":\"test\",\"phase\":\"serve\",\"item\":1,\
             \"option_chosen\":\"cache\",\"option_costs\":[1,2,null],\
             \"t\":3.5,\"cost\":1}"
        );
        let p = LedgerEvent {
            subject: Subject::Pair(4, 7),
            ..ev("package", 1.6)
        };
        assert!(p.to_json().contains("\"pair\":[4,7]"));
    }

    #[test]
    fn jsonl_rendering_is_one_line_per_event() {
        let events = vec![ev("cache", 1.0), ev("transfer", 2.0)];
        let l = Ledger::over(&events);
        let s = l.to_jsonl_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.ends_with('\n'));
        // Byte-determinism: rendering twice is identical.
        assert_eq!(s, l.to_jsonl_string());
    }

    /// A writer whose every write fails, counting the attempts.
    struct Broken(usize);

    impl std::io::Write for Broken {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.0 += 1;
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_jsonl_stops_at_the_first_error() {
        // Several 64 KB chunks' worth of events.
        let events = vec![ev("cache", 1.0); 5_000];
        let mut w = Broken(0);
        let err = Ledger::over(&events).write_jsonl(&mut w).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(w.0, 1);
    }
}
