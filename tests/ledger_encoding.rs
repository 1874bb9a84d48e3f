//! The decision ledger's JSONL bytes do not depend on how they are
//! written. `Ledger::to_jsonl_string` must equal a reference encoder that
//! renders every number with `format!("{v}")` and escapes names one
//! character at a time, and `Ledger::write_jsonl`, which streams in
//! bounded chunks, must write the same bytes, whether the emit renders on
//! the calling thread or in its render worker (1, 2 and 4 threads). This
//! holds for every committed fixture under every registry solver, for a
//! seeded ledger of dozens of chunks, and for hand-built events whose
//! `cost` equals none, one or two of the option costs, or differs from one
//! only in the sign of zero, or is NaN. A failing writer or a panicking
//! source ends the pipelined emit on the calling thread.

use std::fmt::Write as _;

use dp_greedy_suite::engine::{solvers, RunContext};
use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::CostModel;
use dp_greedy_suite::obs::{EventSource, Ledger, LedgerEvent, Subject};
use dp_greedy_suite::trace::io::TraceFile;

/// Another source's events, emitted with `threads` threads.
struct Threads<'a> {
    source: &'a dyn EventSource,
    threads: usize,
}

impl EventSource for Threads<'_> {
    fn event_count(&self) -> usize {
        self.source.event_count()
    }

    fn for_each_event<'s>(&'s self, f: &mut dyn FnMut(&LedgerEvent<'s>)) {
        self.source.for_each_event(f);
    }

    fn emit_threads(&self, _events: usize) -> usize {
        self.threads
    }
}

fn reference_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn reference_num(out: &mut String, v: f64) {
    if v.is_finite() {
        write!(out, "{v}").unwrap();
    } else {
        out.push_str("null");
    }
}

fn reference_jsonl(ledger: &Ledger<'_>) -> String {
    let mut s = String::new();
    for e in &ledger.events() {
        s.push_str("{\"algo\":");
        reference_str(&mut s, e.algo);
        s.push_str(",\"phase\":");
        reference_str(&mut s, e.phase);
        match e.subject {
            Subject::Item(i) => write!(s, ",\"item\":{i}").unwrap(),
            Subject::Pair(a, b) => write!(s, ",\"pair\":[{a},{b}]").unwrap(),
            Subject::Package(members) => {
                let members: Vec<String> = members.iter().map(|m| format!("{m}")).collect();
                write!(s, ",\"package\":[{}]", members.join(",")).unwrap();
            }
        }
        s.push_str(",\"option_chosen\":");
        reference_str(&mut s, e.option_chosen);
        s.push_str(",\"option_costs\":[");
        for (i, &c) in e.option_costs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            reference_num(&mut s, c);
        }
        s.push_str("],\"t\":");
        reference_num(&mut s, e.t);
        s.push_str(",\"cost\":");
        reference_num(&mut s, e.cost);
        s.push_str("}\n");
    }
    s
}

fn assert_encodes_like_reference(source: &dyn EventSource, what: &str) {
    let expected = reference_jsonl(&Ledger::over(source));
    for threads in [1, 2, 4] {
        let with_threads = Threads { source, threads };
        let ledger = Ledger::over(&with_threads);
        assert!(
            ledger.to_jsonl_string() == expected,
            "{what}, {threads} threads: to_jsonl_string"
        );
        let mut streamed = Vec::new();
        ledger.write_jsonl(&mut streamed).unwrap();
        assert!(
            streamed == expected.as_bytes(),
            "{what}, {threads} threads: write_jsonl"
        );
    }
}

#[test]
fn every_solver_ledger_on_every_fixture_encodes_like_the_reference() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/traces");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no trace fixtures committed");
    let ctx = RunContext::new(CostModel::new(1.0, 2.0, 0.7).unwrap()).with_theta(0.3);
    for path in paths {
        let seq = TraceFile::load(&path).unwrap().sequence;
        for s in solvers() {
            if s.request_limit().is_some_and(|l| seq.len() > l) {
                continue;
            }
            let solution = s.solve(&seq, &ctx);
            let what = format!("{} / {}", path.display(), s.name());
            assert_encodes_like_reference(&solution, &what);
        }
    }
}

fn event(option_costs: [f64; 3], cost: f64) -> LedgerEvent<'static> {
    LedgerEvent {
        algo: "dp_greedy",
        phase: "phase2.package",
        subject: Subject::Pair(3, 4),
        option_chosen: "cache",
        option_costs,
        t: 12.25,
        cost,
    }
}

#[test]
fn hand_built_costs_encode_like_the_reference() {
    let inf = f64::INFINITY;
    let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
    let events = vec![
        // `cost` equals no option cost, one, or two.
        event([0.1, 0.2, inf], 0.30000000000000004),
        event([0.1, 0.2, inf], 0.2),
        event([1.0 / 3.0, 1.0 / 3.0, inf], 1.0 / 3.0),
        // Zeros of either sign are different bits, so neither copies.
        event([0.0, -0.0, inf], -0.0),
        event([-0.0, 1.5, inf], 0.0),
        // NaN: as an option cost, as the cost, and with another payload.
        event([f64::NAN, 2.0, inf], f64::NAN),
        event([1.0, 2.0, inf], f64::NAN),
        event([other_nan, 2.0, inf], f64::NAN),
        event([inf, inf, inf], inf),
        event([f64::MAX, 5e-324, -1e300], 5e-324),
        LedgerEvent {
            algo: "na\"me\\with\tescapes\u{1}é",
            subject: Subject::Item(u32::MAX),
            ..event([0.5, 0.25, inf], 0.25)
        },
    ];
    for e in &events {
        let one = vec![e.clone()];
        let line = reference_jsonl(&Ledger::over(&one));
        assert_eq!(e.to_json(), line.trim_end(), "{e:?}");
        assert_encodes_like_reference(&one, &format!("{e:?}"));
    }
    assert_encodes_like_reference(&events, "hand-built ledger");
    assert_encodes_like_reference(&Vec::new(), "empty ledger");
}

/// Non-integral costs whose bits share the top 16 bits of
/// `bits · 0x9E37_79B9_7F4A_7C15`, the multiply-shift hash that indexes
/// the emit's number memo, so the two values of a pair evict each other
/// from a memo of up to 65,536 slots.
fn colliding_pairs(pairs: usize) -> Vec<[f64; 2]> {
    let mut seen = std::collections::HashMap::new();
    let mut found = Vec::new();
    for k in 1u32.. {
        let v = f64::from(k) * 0.01 + 0.001;
        let slot = v.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
        if let Some(other) = seen.insert(slot, v) {
            found.push([other, v]);
            if found.len() == pairs {
                return found;
            }
        }
    }
    unreachable!("the search ends once it has found {pairs} pairs")
}

/// Dozens of 64 KB chunks of events with random costs, times and
/// subjects (items, pairs, and packages of 3 to 8 members), each `cost`
/// taken from an option slot or drawn afresh. The
/// subject, the algo or the phase, and with them the cached part prefix,
/// change every few events, and some phases need escaping. Costs repeat
/// from a pool of memo-colliding pairs, signed zeros, NaN payloads,
/// infinities and values too long for a memo entry.
#[test]
fn a_multi_buffer_ledger_streams_like_the_reference() {
    let mut rng = Rng::seed_from_u64(0x1ED6_E500);
    let mut pool: Vec<f64> = colliding_pairs(8).into_iter().flatten().collect();
    pool.extend(pool.clone().iter().map(|v| -v));
    pool.extend([
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(f64::NAN.to_bits() | 1),
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e300,
        5e-324,
        6.4,
    ]);
    let pick = |rng: &mut Rng| pool[rng.gen_range(0..pool.len())];
    // Packages of 3 to 8 members, ascending, for the events to borrow.
    let packages: Vec<Vec<u32>> = (0..200)
        .map(|_| {
            let mut members = std::collections::BTreeSet::new();
            let size = rng.gen_range(3..=8usize);
            while members.len() < size {
                members.insert(rng.gen_range(0..5_000u32));
            }
            members.into_iter().collect()
        })
        .collect();
    let mut events = Vec::new();
    let mut subject = Subject::Item(0);
    let (mut algo, mut phase) = ("dp_greedy", "phase2.package");
    while events.len() < 16_000 {
        // Each of the prefix's three keys also changes alone.
        if rng.gen_bool(0.3) {
            subject = match rng.gen_range(0..3u32) {
                0 => Subject::Item(rng.gen_range(0..5_000u32)),
                1 => Subject::Pair(rng.gen_range(0..5_000u32), rng.gen_range(0..5_000u32)),
                _ => Subject::Package(&packages[rng.gen_range(0..packages.len())]),
            };
        }
        if rng.gen_bool(0.05) {
            algo = if algo == "dp_greedy" {
                "optimal"
            } else {
                "dp_greedy"
            };
        }
        if rng.gen_bool(0.1) {
            phase = if phase == "phase2.package" {
                "phase\"2\\\tpackage\u{1}"
            } else {
                "phase2.package"
            };
        }
        let mut costs = [rng.gen_f64() * 10.0, rng.gen_f64(), f64::INFINITY];
        if rng.gen_bool(0.3) {
            costs[2] = f64::from(rng.gen_range(0..400u32)) / 100.0;
        }
        for c in &mut costs {
            if rng.gen_bool(0.4) {
                *c = pick(&mut rng);
            }
        }
        let slot = rng.gen_range(0..4usize);
        let cost = match costs.get(slot) {
            Some(&c) => c,
            None if rng.gen_bool(0.5) => pick(&mut rng),
            None => rng.gen_f64(),
        };
        events.push(LedgerEvent {
            algo,
            phase,
            subject,
            t: if rng.gen_bool(0.5) {
                pick(&mut rng)
            } else {
                rng.gen_f64() * 1e4
            },
            ..event(costs, cost)
        });
    }
    let ledger = Ledger::over(&events);
    assert!(reference_jsonl(&ledger).len() > 20 * 64 * 1024);
    assert_encodes_like_reference(&events, "seeded ledger");
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

/// Many chunks' worth of events: after the first failed write the emit
/// returns that error, and the worker, still rendering, is stopped and
/// joined rather than left waiting.
#[test]
fn a_pipelined_write_stops_at_the_first_error() {
    let events = vec![event([0.1, 0.2, f64::INFINITY], 0.2); 20_000];
    for threads in [1, 2, 4] {
        let mut w = Broken(0);
        let err = Ledger::over(&Threads {
            source: &events,
            threads,
        })
        .write_jsonl(&mut w)
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe, "{threads}");
        assert_eq!(w.0, 1, "{threads} threads: write attempts");
    }
}

/// Events that fail after `after` of them, walked by the render worker.
struct PanicsMidWalk {
    events: Vec<LedgerEvent<'static>>,
    after: usize,
}

impl EventSource for PanicsMidWalk {
    fn event_count(&self) -> usize {
        self.events.len()
    }

    fn for_each_event<'s>(&'s self, f: &mut dyn FnMut(&LedgerEvent<'s>)) {
        for e in &self.events[..self.after] {
            f(e);
        }
        panic!("the source failed mid-walk");
    }

    fn emit_threads(&self, _events: usize) -> usize {
        2
    }
}

/// A panic in the source, after several chunks went to the caller, is
/// raised again on the calling thread, with its own message.
#[test]
fn a_source_panic_in_the_render_worker_reaches_the_caller() {
    let source = PanicsMidWalk {
        events: vec![event([0.1, 0.2, f64::INFINITY], 0.2); 10_000],
        after: 5_000,
    };
    let ledger = Ledger::over(&source);
    let emits: [&dyn Fn(); 2] = [&|| drop(ledger.to_jsonl_string()), &|| {
        drop(ledger.write_jsonl(&mut std::io::sink()))
    }];
    for emit in emits {
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(emit)).unwrap_err();
        assert_eq!(
            panic.downcast_ref::<&str>(),
            Some(&"the source failed mid-walk")
        );
    }
}
