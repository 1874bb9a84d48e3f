//! The decision ledger is a view over its `Solution`: taking it and
//! reading its length, total, reconciliation and breakdown derive the
//! events from the parts without allocating, and streaming it allocates a
//! bounded number of bytes whatever the event count, summed over every
//! thread the emit uses. So no list of `LedgerEvent`s is ever built;
//! before the view, `Solution::ledger` alone allocated at least 104 bytes
//! per event. What the view computes is what the event list gave: the
//! same bits and the same bytes.
//!
//! A counting global allocator tallies the bytes each thread asks for, in
//! a `const` thread-local, and the bytes every thread asks for, in a
//! process-wide counter. Reading is held to the calling thread's tally.
//! Streaming is held to the process-wide one, because an emit's render
//! worker allocates on its own thread; so the tests of this file run one
//! at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use dp_greedy_suite::engine::{find, Commodity, RunContext, Solution, SolutionPart};
use dp_greedy_suite::experiments::multi_exp::bundle_workload;
use dp_greedy_suite::model::CostModel;
use dp_greedy_suite::obs::{EventSource, Ledger, LedgerEvent};
use dp_greedy_suite::trace::io::TraceFile;
use dp_greedy_suite::trace::workload::{generate, WorkloadConfig};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

static ALLOCATED_ANYWHERE: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    ALLOCATED.with(|n| n.set(n.get() + bytes));
    ALLOCATED_ANYWHERE.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counts are a
// const-initialised thread-local `Cell` and a static atomic, neither of
// which allocates.
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

/// Bytes every thread allocates while `f` runs. Threads that `f` starts
/// are joined before it returns, which orders their counts before the
/// second load.
fn allocated_anywhere_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED_ANYWHERE.load(Ordering::Relaxed);
    f();
    ALLOCATED_ANYWHERE.load(Ordering::Relaxed) - before
}

/// Held by every test of this file, so no test allocates while another
/// counts every thread. A test that failed holding it leaves nothing to
/// repair.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A solution whose emits always start the render worker, at any event
/// count and `MCS_THREADS`.
struct Pipelined<'a>(&'a Solution);

impl EventSource for Pipelined<'_> {
    fn event_count(&self) -> usize {
        self.0.event_count()
    }

    fn for_each_event<'s>(&'s self, f: &mut dyn FnMut(&LedgerEvent<'s>)) {
        self.0.for_each_event(f);
    }

    fn emit_threads(&self, _events: usize) -> usize {
        2
    }
}

/// The most `write_jsonl` may allocate, on every thread it uses together.
const STREAM_LIMIT: usize = 128 * 1024;

/// `dp_greedy`, `optimal`, `multi` and `online_dpg` on the three
/// fixtures, `multi` on a bundle workload whose packages of three or more
/// items are ledger subjects of their own, and `dp_greedy` and `optimal`
/// on a 2,000-item trace (`dpg generate --taxis 2000 --steps 100 --seed
/// 7`, 3,258 requests). `multi` is left off the wide trace: its K-package
/// matcher takes minutes there.
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
                (
                    name,
                    seq,
                    &["dp_greedy", "optimal", "multi", "online_dpg"][..],
                )
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
        inputs.push((
            "bundle_k3_s9".into(),
            bundle_workload(6, 3, 300, 0.8, 9),
            &["multi"][..],
        ));

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
        // Both kinds of part a package of three or more items names: its
        // schedule and its shared deliveries.
        let package = |schedule: bool| {
            cases.iter().any(|(_, s)| {
                s.parts.iter().any(|p| match p {
                    SolutionPart::Schedule { subject, .. } => {
                        schedule && matches!(subject, Commodity::Package(_))
                    }
                    SolutionPart::Serve { subject, .. } => {
                        !schedule && matches!(subject, Commodity::Package(_))
                    }
                    SolutionPart::Aggregate { .. } => false,
                })
            })
        };
        assert!(package(true), "no case has a package schedule");
        assert!(package(false), "no case has a shared delivery");
        cases
    })
}

#[test]
fn reading_a_ledger_allocates_nothing() {
    let _serial = one_at_a_time();
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

/// Streaming holds the same bound whether the emit renders on the calling
/// thread or starts its render worker: the solution's own thread rule
/// (serial below 4,096 events), then the worker forced.
#[test]
fn streaming_a_ledger_allocates_one_bounded_buffer() {
    let _serial = one_at_a_time();
    let mut largest = 0;
    for (label, solution) in cases() {
        let pipelined = Pipelined(solution);
        for (how, ledger) in [
            ("own rule", solution.ledger()),
            ("worker", Ledger::over(&pipelined)),
        ] {
            let bytes = allocated_anywhere_by(|| ledger.write_jsonl(&mut std::io::sink()).unwrap());
            assert!(
                bytes < STREAM_LIMIT,
                "{label} ({how}): write_jsonl allocated {bytes} B"
            );
        }
        largest = largest.max(solution.ledger().to_jsonl_string().len());
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
    let _serial = one_at_a_time();
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
