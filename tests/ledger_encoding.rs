//! The decision ledger's JSONL bytes do not depend on how they are
//! written. `Ledger::to_jsonl_string` must equal a reference encoder that
//! renders every number with `format!("{v}")` and escapes names one
//! character at a time, and `Ledger::write_jsonl`, which streams through a
//! 64 KB buffer, must write the same bytes. This holds for every committed
//! fixture under every registry solver, for a seeded ledger large enough to
//! fill several buffers, and for hand-built events whose `cost` equals
//! none, one or two of the option costs, or differs from one only in the
//! sign of zero, or is NaN.

use std::fmt::Write as _;

use dp_greedy_suite::engine::{solvers, RunContext};
use dp_greedy_suite::model::rng::Rng;
use dp_greedy_suite::model::CostModel;
use dp_greedy_suite::obs::{Ledger, LedgerEvent, Subject};
use dp_greedy_suite::trace::io::TraceFile;

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

fn assert_encodes_like_reference(ledger: &Ledger<'_>, what: &str) {
    let expected = reference_jsonl(ledger);
    assert_eq!(
        ledger.to_jsonl_string(),
        expected,
        "{what}: to_jsonl_string"
    );
    let mut streamed = Vec::new();
    ledger.write_jsonl(&mut streamed).unwrap();
    assert!(streamed == expected.as_bytes(), "{what}: write_jsonl");
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
            assert_encodes_like_reference(&solution.ledger(), &what);
        }
    }
}

fn event(option_costs: [f64; 3], cost: f64) -> LedgerEvent {
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
        let one = Ledger::over(&one);
        let line = reference_jsonl(&one);
        assert_eq!(e.to_json(), line.trim_end(), "{e:?}");
        assert_encodes_like_reference(&one, &format!("{e:?}"));
    }
    assert_encodes_like_reference(&Ledger::over(&events), "hand-built ledger");
    assert_encodes_like_reference(&Ledger::over(&Vec::new()), "empty ledger");
}

/// Several 64 KB buffers' worth of events with random costs, times and
/// subjects, each `cost` taken from an option slot or drawn afresh.
#[test]
fn a_multi_buffer_ledger_streams_like_the_reference() {
    let mut rng = Rng::seed_from_u64(0x1ED6_E500);
    let mut events = Vec::new();
    for _ in 0..5_000 {
        let mut costs = [rng.gen_f64() * 10.0, rng.gen_f64(), f64::INFINITY];
        if rng.gen_bool(0.3) {
            costs[2] = f64::from(rng.gen_range(0..400u32)) / 100.0;
        }
        let slot = rng.gen_range(0..4usize);
        let cost = costs.get(slot).copied().unwrap_or_else(|| rng.gen_f64());
        events.push(LedgerEvent {
            subject: if rng.gen_bool(0.5) {
                Subject::Item(rng.gen_range(0..5_000u32))
            } else {
                Subject::Pair(rng.gen_range(0..5_000u32), rng.gen_range(0..5_000u32))
            },
            t: rng.gen_f64() * 1e4,
            ..event(costs, cost)
        });
    }
    let ledger = Ledger::over(&events);
    assert!(reference_jsonl(&ledger).len() > 4 * 64 * 1024);
    assert_encodes_like_reference(&ledger, "seeded ledger");
}
