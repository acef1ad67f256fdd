//! Online statistics used by the experiment harness.
//!
//! [`Histogram`] is a fixed-width linear-bin histogram with
//! overflow/underflow buckets, sufficient for the clock-error distributions
//! we report.

use serde::{Deserialize, Serialize};

/// Where a [`Histogram::quantile`] estimate landed relative to the binned
/// range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QuantileEstimate {
    /// The estimate, interpolated inside `[lo, hi)`.
    Value(f64),
    /// The target rank lies in the underflow bucket: the true quantile is
    /// below `lo` and unrepresentable at this binning.
    BelowRange,
    /// The target rank lies in the overflow bucket: the true quantile is at
    /// or above `hi` and unrepresentable at this binning.
    AboveRange,
}

impl QuantileEstimate {
    /// The in-range estimate, `None` for out-of-range signals. Callers that
    /// previously relied on the clamped value must decide explicitly what
    /// an out-of-range tail means for them.
    pub fn value(self) -> Option<f64> {
        match self {
            QuantileEstimate::Value(v) => Some(v),
            _ => None,
        }
    }
}

/// Fixed-width linear-bin histogram over `[lo, hi)` with underflow and
/// overflow buckets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Create a histogram with `nbins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `nbins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            count: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total observations recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bin counts.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Approximate quantile `q` in `[0, 1]` by linear interpolation within
    /// the owning bin. Returns `None` when empty.
    ///
    /// When the target rank lands in the underflow or overflow bucket the
    /// true quantile is outside `[lo, hi)` and *cannot be estimated* at
    /// this binning; that is reported as a distinct
    /// [`QuantileEstimate::BelowRange`] / [`QuantileEstimate::AboveRange`]
    /// rather than silently clamping to the range edge (clamping
    /// under-reported tail quantiles — e.g. the p99 of a half-overflowed
    /// distribution came back as `hi` as if it had been observed).
    pub fn quantile(&self, q: f64) -> Option<QuantileEstimate> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = self.underflow;
        if cum >= target {
            return Some(QuantileEstimate::BelowRange);
        }
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            if cum + c >= target {
                let into = (target - cum) as f64 / c.max(1) as f64;
                return Some(QuantileEstimate::Value(self.lo + (i as f64 + into) * width));
            }
            cum += c;
        }
        Some(QuantileEstimate::AboveRange)
    }

    /// Merge another histogram with identical binning.
    ///
    /// # Panics
    /// Panics on mismatched ranges or bin counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo.to_bits(), other.lo.to_bits(), "range mismatch");
        assert_eq!(self.hi.to_bits(), other.hi.to_bits(), "range mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "bin count mismatch");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bins_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bins()[0], 2); // 0.0, 0.5
        assert_eq!(h.bins()[5], 1); // 5.0
        assert_eq!(h.bins()[9], 1); // 9.99
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.quantile(0.5).unwrap().value().unwrap();
        assert!((median - 50.0).abs() <= 1.0, "median ~50, got {median}");
        let p99 = h.quantile(0.99).unwrap().value().unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 ~99, got {p99}");
    }

    #[test]
    fn tail_quantile_in_overflow_is_flagged_not_clamped() {
        // Regression: half the mass beyond the range. p99 (and even p60)
        // lies in the overflow bucket; the old implementation returned
        // `Some(hi)` as if 10.0 had been observed.
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..50 {
            h.record(i as f64 / 10.0); // 50 in-range samples in [0, 5)
        }
        for _ in 0..50 {
            h.record(1e6); // 50 overflow samples
        }
        assert_eq!(h.quantile(0.99), Some(QuantileEstimate::AboveRange));
        assert_eq!(h.quantile(0.60), Some(QuantileEstimate::AboveRange));
        // In-range quantiles still interpolate.
        let q25 = h.quantile(0.25).unwrap().value().unwrap();
        assert!((0.0..5.0).contains(&q25), "q25 in range, got {q25}");
        // Fully-underflowed rank reports BelowRange, not `lo`.
        let mut h = Histogram::new(0.0, 10.0, 10);
        for _ in 0..10 {
            h.record(-1.0);
        }
        h.record(5.0);
        assert_eq!(h.quantile(0.5), Some(QuantileEstimate::BelowRange));
        // q=1.0 lands at the top of the sample's bin [5, 6).
        assert_eq!(h.quantile(1.0), Some(QuantileEstimate::Value(6.0)));
        // Empty histogram is still `None`.
        assert_eq!(Histogram::new(0.0, 1.0, 2).quantile(0.5), None);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        b.record(9.0);
        b.record(-3.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.bins()[0], 1);
        assert_eq!(a.bins()[4], 1);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn histogram_merge_rejects_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }
}
