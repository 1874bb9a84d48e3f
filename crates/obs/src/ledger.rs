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
//!
//! Both JSON-lines emits, [`Ledger::to_jsonl_string`] and
//! [`Ledger::write_jsonl`], share one emit loop and one renderer. The
//! renderer escapes a part's constant text, `{"algo":…,"phase":…,
//! "item"|"pair"|"package":…,"option_chosen":`, once per run of events
//! with the same algo, phase and subject, and looks each non-integral
//! number up in a memo keyed by its bits before it computes the digits.
//! It fills
//! bounded chunks, which the calling thread takes in order: it appends
//! them to the returned `String`, whose fresh pages fault in as it grows,
//! or writes them to the writer. When [`EventSource::emit_threads`] allows
//! two threads, a render worker walks the events and fills the next chunk
//! meanwhile. The bytes depend on the events alone: chunk boundaries, the
//! memo's contents and the thread count decide where and when a line is
//! rendered, never what it says.

use std::io;
use std::sync::mpsc::sync_channel;

use crate::jsonl::{self, NumMemo};

/// Names of the three option slots in [`LedgerEvent::option_costs`],
/// in slot order.
pub const OPTION_NAMES: [&str; 3] = ["cache", "transfer", "package"];

/// What a ledger event is about: a single item, a packed pair, or a
/// package of three or more items. A package borrows its members from
/// whatever produced the event, so naming one allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subject<'a> {
    /// A single cached item, written `"item":i`.
    Item(u32),
    /// A packed pair of items (Phase-2 package events), written
    /// `"pair":[a,b]`.
    Pair(u32, u32),
    /// A package of three or more items, ascending, written
    /// `"package":[a,b,c,…]`.
    Package(&'a [u32]),
}

/// One committed decision with its cost attribution. A package
/// [`Subject`] borrows its members for `'a`.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent<'a> {
    /// Producing algorithm, e.g. `"dp_greedy"`, `"optimal"`, `"greedy"`.
    pub algo: &'static str,
    /// Algorithm phase, e.g. `"phase1"`, `"phase2.package"`, `"serve"`.
    pub phase: &'static str,
    /// The item, pair or package the decision concerns.
    pub subject: Subject<'a>,
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

impl LedgerEvent<'_> {
    /// Renders the event as one JSON object (no trailing newline) with a
    /// fixed key order, deterministically byte-for-byte: the line a
    /// [`Ledger`] emit writes for it.
    pub fn to_json(&self) -> String {
        let mut out = Vec::with_capacity(160);
        Renderer::new(0).event(&mut out, self);
        String::from_utf8(out).expect("the JSON writers emit UTF-8")
    }
}

/// The one renderer of ledger events, behind [`LedgerEvent::to_json`] and
/// both [`Ledger`] emits. It keeps the escaped text every event of a part
/// starts with, and renders numbers through a [`NumMemo`]; neither
/// changes a byte.
struct Renderer<'a> {
    memo: NumMemo,
    /// `{"algo":…,"phase":…,"item"|"pair"|"package":…,"option_chosen":`
    /// for [`Self::part`], escaped.
    prefix: Vec<u8>,
    /// The `(algo, phase, subject)` of [`Self::prefix`]; `None` before the
    /// first event.
    part: Option<(&'static str, &'static str, Subject<'a>)>,
}

impl<'a> Renderer<'a> {
    /// A renderer whose number memo has `memo_slots` slots (0 or `2^k`).
    fn new(memo_slots: usize) -> Self {
        Renderer {
            memo: NumMemo::new(memo_slots),
            prefix: Vec::with_capacity(128),
            part: None,
        }
    }

    /// Appends `e` as one JSON object, with no newline.
    fn event(&mut self, out: &mut Vec<u8>, e: &LedgerEvent<'a>) {
        let part = (e.algo, e.phase, e.subject);
        if self.part != Some(part) {
            self.part = Some(part);
            let p = &mut self.prefix;
            p.clear();
            p.extend_from_slice(b"{\"algo\":");
            jsonl::push_str(p, e.algo);
            p.extend_from_slice(b",\"phase\":");
            jsonl::push_str(p, e.phase);
            match e.subject {
                Subject::Item(i) => {
                    p.extend_from_slice(b",\"item\":");
                    jsonl::push_u64(p, i.into());
                }
                Subject::Pair(a, b) => push_members(p, b",\"pair\":[", &[a, b]),
                Subject::Package(members) => push_members(p, b",\"package\":[", members),
            }
            p.extend_from_slice(b",\"option_chosen\":");
        }
        out.extend_from_slice(&self.prefix);
        jsonl::push_str(out, e.option_chosen);
        out.extend_from_slice(b",\"option_costs\":[");
        // Where each option cost's bytes landed: `cost` is almost always
        // one of them, and same bits render to the same bytes.
        let mut rendered = [(0, 0); 3];
        for (slot, &c) in e.option_costs.iter().enumerate() {
            if slot > 0 {
                out.push(b',');
            }
            let start = out.len();
            self.memo.push(out, c);
            rendered[slot] = (start, out.len());
        }
        out.extend_from_slice(b"],\"t\":");
        self.memo.push(out, e.t);
        out.extend_from_slice(b",\"cost\":");
        let same = e
            .option_costs
            .iter()
            .position(|c| c.to_bits() == e.cost.to_bits());
        match same {
            Some(slot) => out.extend_from_within(rendered[slot].0..rendered[slot].1),
            None => self.memo.push(out, e.cost),
        }
        out.push(b'}');
    }
}

/// Appends `key` and then `members` as the rest of a JSON array.
fn push_members(out: &mut Vec<u8>, key: &[u8], members: &[u32]) {
    out.extend_from_slice(key);
    for (i, &m) in members.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        jsonl::push_u64(out, m.into());
    }
    out.push(b']');
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

/// A producer of ledger events, derived in order on each call. It is
/// `Sync` so that an emit's render worker can walk it.
pub trait EventSource: Sync {
    /// How many events [`Self::for_each_event`] yields, counted without
    /// deriving them.
    fn event_count(&self) -> usize;

    /// Calls `f` with each event, in the deterministic ledger order. The
    /// events may borrow from the source (a package subject's members).
    fn for_each_event<'s>(&'s self, f: &mut dyn FnMut(&LedgerEvent<'s>));

    /// Threads an emit of `events` events may use, asked when the emit
    /// starts: below 2 it renders on the calling thread; from 2 a render
    /// worker walks the events while the calling thread takes the text.
    /// The bytes are the same either way. Serial unless the source says
    /// otherwise.
    fn emit_threads(&self, events: usize) -> usize {
        let _ = events;
        1
    }
}

/// Hand-built event lists, for tests and for edited copies of a ledger's
/// [`Ledger::events`].
impl EventSource for Vec<LedgerEvent<'_>> {
    fn event_count(&self) -> usize {
        self.len()
    }

    fn for_each_event<'s>(&'s self, f: &mut dyn FnMut(&LedgerEvent<'s>)) {
        for e in self {
            f(e);
        }
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
    pub fn events(&self) -> Vec<LedgerEvent<'a>> {
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
    /// newline), byte-deterministic for a given event sequence. Besides
    /// the returned text the emit holds a number memo and chunks, about
    /// 386 KiB at most.
    pub fn to_jsonl_string(&self) -> String {
        let mut out = String::with_capacity(self.len() * 160);
        self.emit(TO_STRING, &mut |chunk| {
            out.push_str(chunk);
            Ok(())
        })
        .expect("appending to a String cannot fail");
        out
    }

    /// Writes [`Self::to_jsonl_string`]'s bytes to `w` in 32 KB chunks,
    /// holding a number memo and chunks of about 98 KiB at most, so the
    /// whole rendering is never in memory. Nothing is written after the
    /// first I/O error, which is returned.
    pub fn write_jsonl(&self, w: &mut impl io::Write) -> io::Result<()> {
        self.emit(TO_WRITER, &mut |chunk| w.write_all(chunk.as_bytes()))
    }

    /// The emit loop behind both sinks: renders the events into chunks
    /// of `how.chunk` bytes and hands each, in order, to `sink` on the
    /// calling thread, stopping at its first error. When the source allows
    /// a second thread, a render worker walks the events and fills the
    /// next chunk while the calling thread takes the last one. The memo
    /// has a slot per 8 events, 16 to `how.memo_cap`.
    fn emit(&self, how: Emit, sink: &mut dyn FnMut(&str) -> io::Result<()>) -> io::Result<()> {
        let _span = crate::span("ledger.emit");
        let source = self.source;
        let events = source.event_count();
        let mut renderer = Renderer::new((events / 8).next_power_of_two().clamp(16, how.memo_cap));
        let buffer = || String::with_capacity(how.chunk + LINE_SLACK);
        if source.emit_threads(events) < 2 {
            let mut taken = Ok(());
            let mut take = |mut text: String| {
                taken = sink(&text);
                text.clear();
                taken.is_ok().then_some(text)
            };
            render(source, &mut renderer, how.chunk, buffer(), &mut take);
            return taken;
        }
        std::thread::scope(|s| {
            // Two buffers: the worker renders into one while the calling
            // thread takes the other.
            let (full_tx, full_rx) = sync_channel(1);
            let (free_tx, free_rx) = sync_channel(1);
            free_tx
                .send(buffer())
                .expect("the channel has room for the second buffer");
            let first = buffer();
            let worker = s.spawn(move || {
                render(source, &mut renderer, how.chunk, first, &mut |text| {
                    full_tx.send(text).ok()?;
                    free_rx.recv().ok()
                });
            });
            let mut taken = Ok(());
            for mut text in full_rx {
                taken = sink(&text);
                if taken.is_err() {
                    // Dropping the receiver stops the worker's next send.
                    break;
                }
                text.clear();
                // Fails only once the worker has sent its last chunk.
                let _ = free_tx.send(text);
            }
            // Stops a worker waiting for a buffer after a sink error.
            drop(free_tx);
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
            taken
        })
    }
}

/// How an emit renders and hands over its bytes. Besides the sink it
/// holds the memo (32 bytes a slot) and two chunk buffers, one when
/// serial.
#[derive(Clone, Copy)]
struct Emit {
    /// Bytes rendered before a chunk is handed over.
    chunk: usize,
    /// The most number-memo slots; fewer for a ledger of under
    /// `8 · memo_cap` events.
    memo_cap: usize,
}

/// [`Ledger::to_jsonl_string`]: 256 KiB of memo and two 65 KiB chunks,
/// 0.9% of a 255k-event ledger's 42 MB.
const TO_STRING: Emit = Emit {
    chunk: 64 * 1024,
    memo_cap: 8192,
};

/// [`Ledger::write_jsonl`]: 32 KiB of memo and two 33 KiB chunks, so a
/// streamed ledger of any length stays under 128 KiB. A write takes
/// longer than rendering its chunk, so the chunk's size, which sets how
/// often the threads hand over, gains more than a larger memo would.
const TO_WRITER: Emit = Emit {
    chunk: 32 * 1024,
    memo_cap: 1024,
};

/// Room past a chunk's size for the line that fills it.
const LINE_SLACK: usize = 1024;

/// Renders `source`'s events as JSON lines into `buf`. Each chunk of at
/// least `chunk` bytes, and the non-empty rest at the end, is validated
/// as a `String` here and goes to `take`, which returns the empty buffer
/// to render on into, or `None` to stop rendering.
fn render<'a>(
    source: &'a dyn EventSource,
    renderer: &mut Renderer<'a>,
    chunk: usize,
    buf: String,
    take: &mut dyn FnMut(String) -> Option<String>,
) {
    let text = |buf| String::from_utf8(buf).expect("the JSON writers emit UTF-8");
    let mut buf = buf.into_bytes();
    let mut stopped = false;
    source.for_each_event(&mut |e| {
        if stopped {
            return;
        }
        renderer.event(&mut buf, e);
        buf.push(b'\n');
        if buf.len() >= chunk {
            match take(text(std::mem::take(&mut buf))) {
                Some(next) => buf = next.into_bytes(),
                None => stopped = true,
            }
        }
    });
    if !stopped && !buf.is_empty() {
        take(text(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(chosen: &'static str, cost: f64) -> LedgerEvent<'static> {
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
        let members = [2, 5, 9];
        let g = LedgerEvent {
            subject: Subject::Package(&members),
            ..ev("package", 1.8)
        };
        assert!(g.to_json().contains(",\"package\":[2,5,9],"));
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
        // Many 32 KB chunks' worth of events.
        let events = vec![ev("cache", 1.0); 5_000];
        let mut w = Broken(0);
        let err = Ledger::over(&events).write_jsonl(&mut w).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        assert_eq!(w.0, 1);
    }
}
