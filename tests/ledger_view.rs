//! The decision ledger is a view over its `Solution`: taking it and
//! reading its length, total, reconciliation and breakdown derive the
//! events from the parts without allocating, and streaming it allocates
//! one fixed-size buffer whatever the event count. So no list of
//! `LedgerEvent`s is ever built; before the view, `Solution::ledger` alone
//! allocated at least 104 bytes per event. What the view computes is what
//! the event list gave: the same bits and the same bytes.
//!
//! A counting global allocator tallies the bytes each thread asks for, in
//! a `const` thread-local, so tests running in parallel do not add to
//! each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::OnceLock;

use dp_greedy_suite::engine::{find, RunContext, Solution, SolutionPart};
use dp_greedy_suite::model::CostModel;
use dp_greedy_suite::obs::Ledger;
use dp_greedy_suite::trace::io::TraceFile;
use dp_greedy_suite::trace::workload::{generate, WorkloadConfig};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATED.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes the calling thread allocates while running `f`.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// The largest buffer `write_jsonl` may hold.
const STREAM_LIMIT: usize = 128 * 1024;

/// `dp_greedy`, `optimal` and `multi` on the three fixtures, and
/// `dp_greedy` and `optimal` on a 2,000-item trace (`dpg generate
/// --taxis 2000 --steps 100 --seed 7`, 3,258 requests). `multi` is left
/// off the wide trace: its K-package matcher takes minutes there.
fn cases() -> &'static [(String, Solution)] {
    static CASES: OnceLock<Vec<(String, Solution)>> = OnceLock::new();
    CASES.get_or_init(|| {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/traces");
        let mut paths: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        paths.sort();
        assert_eq!(paths.len(), 3, "three trace fixtures");
        let mut inputs: Vec<_> = paths
            .iter()
            .map(|p| {
                let name = p.file_stem().unwrap().to_string_lossy().into_owned();
                let seq = TraceFile::load(p).unwrap().sequence;
                (name, seq, &["dp_greedy", "optimal", "multi"][..])
            })
            .collect();
        let mut wide = WorkloadConfig::paper_like(7);
        wide.steps = 100;
        wide.taxis = 2000;
        let pairs = wide.taxis / 2;
        wide.pair_affinity = (0..pairs)
            .map(|p| 0.95 - 0.9 * p as f64 / pairs as f64)
            .collect();
        let seq = generate(&wide);
        assert_eq!(seq.len(), 3258);
        inputs.push(("wide_s7_2000".into(), seq, &["dp_greedy", "optimal"][..]));

        let ctx = RunContext::new(CostModel::new(1.0, 2.0, 0.7).unwrap()).with_theta(0.3);
        let mut cases = Vec::new();
        for (name, seq, algos) in &inputs {
            for algo in algos.iter() {
                let solution = find(algo).unwrap().solve(seq, &ctx);
                cases.push((format!("{name} / {algo}"), solution));
            }
        }
        let aggregate = |(_, s): &(String, Solution)| {
            s.parts
                .iter()
                .any(|p| matches!(p, SolutionPart::Aggregate { .. }))
        };
        assert!(cases.iter().any(aggregate), "no case has an Aggregate part");
        cases
    })
}

#[test]
fn reading_a_ledger_allocates_nothing() {
    for (label, solution) in cases() {
        let mut reconciles = false;
        let bytes = allocated_by(|| {
            let ledger = solution.ledger();
            black_box(ledger.len());
            black_box(ledger.total_cost());
            reconciles = ledger.reconciles_with(solution.total_cost);
            black_box(ledger.reconciliation());
            black_box(ledger.breakdown());
        });
        assert!(reconciles, "{label}");
        assert_eq!(bytes, 0, "{label}: reading the ledger allocated");
    }
}

#[test]
fn streaming_a_ledger_allocates_one_bounded_buffer() {
    let mut largest = 0;
    for (label, solution) in cases() {
        let ledger = solution.ledger();
        let bytes = allocated_by(|| ledger.write_jsonl(&mut std::io::sink()).unwrap());
        assert!(
            bytes < STREAM_LIMIT,
            "{label}: write_jsonl allocated {bytes} B"
        );
        largest = largest.max(ledger.to_jsonl_string().len());
    }
    // The bound holds for ledgers far larger than the buffer.
    assert!(largest > 16 * STREAM_LIMIT, "largest ledger {largest} B");
}

/// The view gives what the event list gave: the collected events render
/// one by one to the view's JSONL, and the old list folds — total from
/// `+0.0`, `Σ|cost|` with `f64::sum`, channels in event order — give the
/// view's bits.
#[test]
fn the_view_derives_what_the_event_list_held() {
    for (label, solution) in cases() {
        let ledger = solution.ledger();
        let events = ledger.events();
        assert_eq!(events.len(), ledger.len(), "{label}");
        let rendered: String = events.iter().map(|e| e.to_json() + "\n").collect();
        assert!(rendered == ledger.to_jsonl_string(), "{label}: JSONL");

        let total = events.iter().fold(0.0, |t, e| t + e.cost);
        let nu = events.len() as f64 * (f64::EPSILON / 2.0);
        let tolerance = 2.0 * (nu / (1.0 - nu)) * events.iter().map(|e| e.cost.abs()).sum::<f64>();
        let check = ledger.reconciliation();
        assert_eq!(check.total.to_bits(), total.to_bits(), "{label}");
        assert_eq!(ledger.total_cost().to_bits(), total.to_bits(), "{label}");
        assert_eq!(check.tolerance.to_bits(), tolerance.to_bits(), "{label}");
        assert_eq!(
            ledger.reconcile_tolerance().to_bits(),
            tolerance.to_bits(),
            "{label}"
        );

        let b = ledger.breakdown();
        let channel = |name: &str| {
            events
                .iter()
                .filter(|e| e.option_chosen == name)
                .fold(0.0, |t, e| t + e.cost)
        };
        assert_eq!(b.cache.to_bits(), channel("cache").to_bits(), "{label}");
        assert_eq!(
            b.transfer.to_bits(),
            channel("transfer").to_bits(),
            "{label}"
        );
        assert_eq!(
            b.package_delivery.to_bits(),
            channel("package").to_bits(),
            "{label}"
        );

        // A list of the same events is a ledger with the same bytes.
        assert!(
            Ledger::over(&events).to_jsonl_string() == rendered,
            "{label}"
        );
    }
}
