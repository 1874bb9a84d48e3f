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
//! Ledgers are *derived* from algorithm outputs (explicit schedules and
//! recorded arm choices) by `mcs_engine::Solution::ledger`, not logged
//! inline; this module only defines the event model and the
//! deterministic JSON-lines encoding.

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

/// An ordered sequence of [`LedgerEvent`]s produced by one algorithm run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// The events, in the deterministic order the deriver emits them.
    pub events: Vec<LedgerEvent>,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Appends one event.
    pub fn push(&mut self, event: LedgerEvent) {
        self.events.push(event);
    }

    /// Appends all events of `other`.
    pub fn extend(&mut self, other: Ledger) {
        self.events.extend(other.events);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sum of event costs — reconciles with the producing schedule's
    /// total cost (property-tested at the workspace root). Folds from
    /// `+0.0`, so an empty ledger totals `0`, not `f64::sum`'s `-0`.
    pub fn total_cost(&self) -> f64 {
        self.events.iter().fold(0.0, |total, e| total + e.cost)
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
        let nu = self.events.len() as f64 * (f64::EPSILON / 2.0);
        let gamma = nu / (1.0 - nu);
        2.0 * gamma * self.events.iter().map(|e| e.cost.abs()).sum::<f64>()
    }

    /// Whether the events sum to `total` within
    /// [`Self::reconcile_tolerance`] — the check `dpg trace solve` and
    /// `dpg run` apply before reporting. A NaN on either side never
    /// reconciles.
    pub fn reconciles_with(&self, total: f64) -> bool {
        (self.total_cost() - total).abs() <= self.reconcile_tolerance()
    }

    /// Attributes the total cost to the three channels by
    /// `option_chosen`.
    pub fn breakdown(&self) -> CostBreakdown {
        let mut b = CostBreakdown::default();
        for e in &self.events {
            match e.option_chosen {
                "cache" => b.cache += e.cost,
                "transfer" => b.transfer += e.cost,
                _ => b.package_delivery += e.cost,
            }
        }
        b
    }

    /// Renders the ledger as JSON lines (one event per line, trailing
    /// newline), byte-deterministic for a given event sequence.
    pub fn to_jsonl_string(&self) -> String {
        let mut out = Vec::with_capacity(self.events.len() * 160);
        for e in &self.events {
            e.write_json(&mut out);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("the JSON writers emit UTF-8")
    }

    /// Writes [`Self::to_jsonl_string`]'s bytes to `w` through a 64 KB
    /// buffer, so the whole rendering is never held in memory.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        const CHUNK: usize = 64 * 1024;
        let mut buf = Vec::with_capacity(CHUNK + 1024);
        for e in &self.events {
            e.write_json(&mut buf);
            buf.push(b'\n');
            if buf.len() >= CHUNK {
                w.write_all(&buf)?;
                buf.clear();
            }
        }
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
        let mut l = Ledger::new();
        l.push(ev("cache", 1.0));
        l.push(ev("transfer", 2.0));
        l.push(ev("package", 1.6));
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
        let mut l = Ledger::new();
        l.push(ev("cache", 1.0));
        l.push(ev("transfer", 2.0));
        let s = l.to_jsonl_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.ends_with('\n'));
        // Byte-determinism: rendering twice is identical.
        assert_eq!(s, l.to_jsonl_string());
    }
}
