//! With recording switched off, counters, float counters, histograms,
//! gauges, spans and journal events are all dropped.
//!
//! `set_enabled` flips one process-wide switch, so a test that turns it
//! off would silently drop what any concurrently running test records.
//! These checks therefore live alone in their own test binary (its own
//! process), as a single test.

use mcs_obs::{journal, metrics, span};

#[test]
fn disabled_recording_drops_metrics_spans_and_journal_events() {
    metrics::set_enabled(false);
    metrics::counter_add("test.counter.disabled", 10);
    metrics::fcounter_add("test.fcounter.disabled", 1.0);
    metrics::observe("test.hist.disabled", 1.0);
    metrics::gauge_set("test.gauge.disabled", 3.0);
    {
        let _g = span("test.span.disabled");
    }
    assert_eq!(journal::record("test-journal-disabled", None, vec![]), None);
    metrics::set_enabled(true);

    let s = metrics::snapshot();
    assert_eq!(s.counter("test.counter.disabled"), None);
    assert_eq!(s.fcounter("test.fcounter.disabled"), None);
    assert!(s.hist("test.hist.disabled").is_none());
    assert_eq!(s.gauge("test.gauge.disabled"), None);
    assert!(s.hist("test.span.disabled").is_none());
    assert!(journal::tail(usize::MAX)
        .iter()
        .all(|e| e.kind != "test-journal-disabled"));

    // Switched back on, the same calls record again.
    metrics::counter_add("test.counter.disabled", 10);
    assert_eq!(
        metrics::snapshot().counter("test.counter.disabled"),
        Some(10)
    );
}
