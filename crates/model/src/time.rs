//! Time points and tolerant floating-point comparisons.
//!
//! Request times in the paper are continuous (e.g. the running example uses
//! `t = 0.5, 0.8, 1.1, 1.4, 2.6, 3.2, 4.0`), so we model time as `f64`.
//! All comparisons that decide *cost equality* go through the tolerant
//! helpers in this module so that algebraically identical schedules compare
//! equal regardless of summation order.

/// A point on the global time line. Finite and non-negative by construction
/// wherever a [`crate::RequestSeqBuilder`] is used.
pub type TimePoint = f64;

/// Absolute tolerance used for cost and time comparisons throughout the
/// workspace.
///
/// Costs in this problem are short sums/products of user-supplied constants
/// (`μ`, `λ`, `α`) and request times, so accumulated error is far below this
/// threshold while genuinely different schedules differ by at least one
/// cache-second or transfer.
pub const EPSILON: f64 = 1e-9;

/// `a == b` up to [`EPSILON`] (absolute) or a relative tolerance for large
/// magnitudes.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    diff <= EPSILON || diff <= EPSILON * a.abs().max(b.abs())
}

/// `a <= b` up to [`EPSILON`].
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPSILON || approx_eq(a, b)
}

/// Total order on `f64` suitable for sorting times and costs.
///
/// Panics in debug builds if either value is NaN; NaN never enters the
/// system through validated constructors.
#[inline]
pub fn total_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    debug_assert!(!a.is_nan() && !b.is_nan(), "NaN reached a comparison");
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// A half-open or closed span of time `[start, end]` with `start <= end`.
///
/// Used for cache intervals; zero-length spans are permitted (a transient
/// copy delivered by a transfer and immediately destroyed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSpan {
    /// Beginning of the span.
    pub start: TimePoint,
    /// End of the span; `end >= start`.
    pub end: TimePoint,
}

impl TimeSpan {
    /// Creates a span, panicking if `end < start` beyond tolerance.
    #[inline]
    pub fn new(start: TimePoint, end: TimePoint) -> Self {
        assert!(
            approx_le(start, end),
            "TimeSpan end {end} precedes start {start}"
        );
        TimeSpan { start, end }
    }

    /// Span length, clamped to be non-negative.
    #[inline]
    pub fn len(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// True if the span has (approximately) zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        approx_eq(self.start, self.end)
    }

    /// True if `t` lies within `[start, end]`, tolerantly at the endpoints.
    #[inline]
    pub fn contains(&self, t: TimePoint) -> bool {
        approx_le(self.start, t) && approx_le(t, self.end)
    }

    /// True if the two spans overlap in more than a single point.
    #[inline]
    pub fn overlaps(&self, other: &TimeSpan) -> bool {
        self.start < other.end - EPSILON && other.start < self.end - EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_roundoff() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(!approx_eq(0.1, 0.2));
        assert!(approx_eq(1.0e12 + 0.0001, 1.0e12));
    }

    #[test]
    fn approx_le_is_reflexive_and_tolerant() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(approx_le(0.9, 1.0));
        assert!(!approx_le(1.1, 1.0));
    }

    #[test]
    fn span_basics() {
        let s = TimeSpan::new(0.5, 2.6);
        assert!(approx_eq(s.len(), 2.1));
        assert!(s.contains(0.5));
        assert!(s.contains(2.6));
        assert!(s.contains(1.0));
        assert!(!s.contains(2.7));
        assert!(!s.is_empty());
        assert!(TimeSpan::new(1.0, 1.0).is_empty());
    }

    #[test]
    fn span_overlap_excludes_touching() {
        let a = TimeSpan::new(0.0, 1.0);
        let b = TimeSpan::new(1.0, 2.0);
        let c = TimeSpan::new(0.5, 1.5);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
    }

    #[test]
    #[should_panic(expected = "precedes")]
    fn span_rejects_reversed() {
        let _ = TimeSpan::new(2.0, 1.0);
    }

    #[test]
    fn total_cmp_sorts() {
        let mut v = vec![2.6, 0.5, 1.4, 0.8];
        v.sort_by(|a, b| total_cmp(*a, *b));
        assert_eq!(v, vec![0.5, 0.8, 1.4, 2.6]);
    }
}
