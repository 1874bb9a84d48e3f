//! RAII wall-clock timers feeding the histogram registry.
//!
//! A [`Span`] records `Instant::now()` on creation and, on drop, observes
//! the elapsed seconds into the histogram named at creation.

use std::time::Instant;

use crate::metrics;

/// Wall-clock timer for one named phase; observes elapsed seconds into
/// the metrics registry when dropped.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
}

impl Span {
    /// Starts a span named `name`. Prefer the free function [`span()`].
    pub fn new(name: &'static str) -> Self {
        Span {
            name,
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since the span started.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        metrics::observe(self.name, self.elapsed_secs());
    }
}

/// Starts a wall-clock span; the returned guard records on drop.
///
/// ```
/// let _guard = mcs_obs::span("dpg.phase1.jaccard");
/// // ... timed work ...
/// ```
#[must_use = "a span records its duration when dropped; binding it to _ drops immediately"]
pub fn span(name: &'static str) -> Span {
    Span::new(name)
}

/// Times a closure under `name` and returns its result.
pub fn time_phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _guard = Span::new(name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_histogram() {
        {
            let _g = span("test.span.basic");
        }
        let s = metrics::snapshot();
        let h = s.hist("test.span.basic").expect("span recorded");
        assert!(h.count >= 1);
        assert!(h.sum >= 0.0);
    }

    #[test]
    fn time_phase_returns_closure_result() {
        let v = time_phase("test.span.closure", || 41 + 1);
        assert_eq!(v, 42);
        let s = metrics::snapshot();
        assert!(s.hist("test.span.closure").is_some());
    }
}
