//! Bounded ring-buffer journal of structured lifecycle events.
//!
//! Where [`crate::metrics`] answers "how much / how fast", the journal
//! answers "what happened, in what order": a process-global ring of
//! `{seq, t_mono, kind, epoch, fields…}` events that the serving daemon
//! records at every epoch lifecycle transition (admit-reject,
//! epoch-open, settle-*, checkpoint-write, WAL-rotate,
//! recovery-replay). The ring holds at most [`DEFAULT_CAPACITY`]
//! events, so a long-lived daemon holds a constant-size tail, and the
//! tail is cheap to copy out for a `GET /journal?n=K` scrape or a
//! `dpg top` view.
//!
//! Determinism contract (the one the byte-identity gates rely on): the
//! JSONL encoding of an event is a pure function of the event, with a
//! fixed key order (`seq`, `t_mono`, `kind`, `epoch`, then fields in
//! recording order) and the shortest-round-trip float writer of
//! [`crate::jsonl`]. Wall-clock nondeterminism is isolated to the single
//! designated `t_mono` key (monotonic seconds since process start);
//! every other key is determined by the request stream and epoch
//! boundaries, so two runs' journals compare equal once `t_mono` is
//! stripped.
//!
//! Threading contract: recording takes one global mutex. Events are
//! epoch-frequency (plus admission rejects), never per-admitted-request,
//! so the lock is off every hot path.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::jsonl;

/// Default ring capacity (events retained).
pub const DEFAULT_CAPACITY: usize = 1024;

/// One structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, epochs, indices).
    U64(u64),
    /// Float (costs, durations); non-finite values encode as `null`.
    F64(f64),
    /// Free-form text (rejection reasons, statuses).
    Str(String),
}

/// One journal event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotone sequence number, assigned at recording (never reused,
    /// survives ring eviction — gaps in a tail reveal how much was lost).
    pub seq: u64,
    /// Monotonic seconds since process start — the designated wall-clock
    /// key; everything else in the event is deterministic.
    pub t_mono: f64,
    /// Event kind (the taxonomy is documented in DESIGN §12).
    pub kind: &'static str,
    /// The epoch this event belongs to, if any.
    pub epoch: Option<u64>,
    /// Additional fields, in recording order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Deterministic single-line JSON encoding (no trailing newline):
    /// fixed key order, `t_mono` isolated as the only wall-clock key.
    pub fn to_jsonl(&self) -> String {
        let mut s = Vec::with_capacity(64);
        s.extend_from_slice(b"{\"seq\":");
        jsonl::push_u64(&mut s, self.seq);
        s.extend_from_slice(b",\"t_mono\":");
        jsonl::push_num(&mut s, self.t_mono);
        s.extend_from_slice(b",\"kind\":");
        jsonl::push_str(&mut s, self.kind);
        if let Some(e) = self.epoch {
            s.extend_from_slice(b",\"epoch\":");
            jsonl::push_u64(&mut s, e);
        }
        for (name, value) in &self.fields {
            s.push(b',');
            jsonl::push_str(&mut s, name);
            s.push(b':');
            match value {
                Value::U64(v) => jsonl::push_u64(&mut s, *v),
                Value::F64(v) => jsonl::push_num(&mut s, *v),
                Value::Str(v) => jsonl::push_str(&mut s, v),
            }
        }
        s.push(b'}');
        String::from_utf8(s).expect("the JSON writers emit UTF-8")
    }
}

struct Ring {
    next_seq: u64,
    capacity: usize,
    events: VecDeque<Event>,
}

impl Ring {
    fn push(
        &mut self,
        t_mono: f64,
        kind: &'static str,
        epoch: Option<u64>,
        fields: Vec<(&'static str, Value)>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(Event {
            seq,
            t_mono,
            kind,
            epoch,
            fields,
        });
        seq
    }

    fn tail(&self, n: usize) -> Vec<Event> {
        let skip = self.events.len().saturating_sub(n);
        self.events.iter().skip(skip).cloned().collect()
    }
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    next_seq: 0,
    capacity: DEFAULT_CAPACITY,
    events: VecDeque::new(),
});

/// Monotonic seconds since the first call in this process — the clock
/// behind every `t_mono` (shared with the serving layer's telemetry
/// gauges so ages computed across them are coherent).
pub fn now_t_mono() -> f64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Records one event and returns its sequence number.
pub fn record(kind: &'static str, epoch: Option<u64>, fields: Vec<(&'static str, Value)>) -> u64 {
    let t_mono = now_t_mono();
    let mut ring = RING.lock().expect("obs journal mutex");
    ring.push(t_mono, kind, epoch, fields)
}

/// The last `n` events, oldest first.
pub fn tail(n: usize) -> Vec<Event> {
    RING.lock().expect("obs journal mutex").tail(n)
}

/// The last `n` events as JSONL (one event per line, oldest first).
pub fn tail_jsonl(n: usize) -> String {
    let mut out = String::new();
    for e in tail(n) {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

/// Number of events currently retained (≤ capacity).
pub fn len() -> usize {
    RING.lock().expect("obs journal mutex").events.len()
}

/// Clears the ring and resets the sequence counter (tests and one-shot
/// CLI inspection runs; a live daemon never resets).
pub fn reset() {
    let mut ring = RING.lock().expect("obs journal mutex");
    ring.events.clear();
    ring.next_seq = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global and tests run threaded, so each test
    // uses its own event kinds and never asserts on global emptiness or
    // absolute sequence numbers.

    #[test]
    fn events_encode_deterministically_with_fixed_key_order() {
        let e = Event {
            seq: 7,
            t_mono: 1.5,
            kind: "settle-ok",
            epoch: Some(3),
            fields: vec![
                ("cost", Value::F64(14.96)),
                ("requests", Value::U64(64)),
                ("note", Value::Str("a\"b".into())),
            ],
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"seq\":7,\"t_mono\":1.5,\"kind\":\"settle-ok\",\"epoch\":3,\
             \"cost\":14.96,\"requests\":64,\"note\":\"a\\\"b\"}"
        );
        // Epoch-less events omit the key; non-finite floats are null.
        let e = Event {
            seq: 0,
            t_mono: 0.0,
            kind: "boot",
            epoch: None,
            fields: vec![("ratio", Value::F64(f64::NAN))],
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"seq\":0,\"t_mono\":0,\"kind\":\"boot\",\"ratio\":null}"
        );
    }

    #[test]
    fn recording_assigns_monotone_seqs_and_tail_returns_newest() {
        let a = record("test-journal-seq", Some(1), vec![]);
        let b = record("test-journal-seq", Some(2), vec![]);
        assert!(b > a);
        let tail: Vec<Event> = tail(usize::MAX)
            .into_iter()
            .filter(|e| e.kind == "test-journal-seq")
            .collect();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].epoch, Some(1));
        assert_eq!(tail[1].epoch, Some(2));
        assert!(tail[0].t_mono <= tail[1].t_mono);
    }

    #[test]
    fn the_ring_is_bounded_and_seqs_survive_eviction() {
        // A local ring (not the global one) so capacity is testable
        // without racing parallel tests.
        let mut ring = Ring {
            next_seq: 0,
            capacity: 3,
            events: VecDeque::new(),
        };
        for i in 0..5 {
            assert_eq!(ring.push(0.0, "evict", Some(i), vec![]), i);
        }
        assert_eq!(ring.events.len(), 3);
        let tail = ring.tail(usize::MAX);
        assert_eq!(
            tail.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest evicted, seqs never reused"
        );
        assert_eq!(
            ring.tail(2).iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
    }
}
