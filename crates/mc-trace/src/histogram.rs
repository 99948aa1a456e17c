//! Log-bucketed HDR-style histograms with streaming quantiles.
//!
//! The registry's gauges answer "what is the value now"; distribution
//! questions — p50/p99 round latency, the spread of analytic-model
//! drift across a plan corpus, SMI power-sample percentiles — need a
//! [`Histogram`]. The design follows HdrHistogram's trade:
//! logarithmically spaced bucket bounds give a bounded relative
//! quantile error at O(buckets) memory, values stream in one at a time
//! (no sample retention), and two histograms with the same shape merge
//! by adding bucket counts — exactly the aggregation OpenMetrics
//! histogram families (`_bucket{le=...}`/`_sum`/`_count`) expose.
//!
//! Quantile estimates interpolate linearly inside the bucket that
//! contains the requested rank and are clamped to the observed
//! `[min, max]`, so an estimate is always bracketed by its bucket's
//! bounds (a property test in this module's consumers relies on that).

use serde::{Deserialize, Serialize};

use crate::metrics::Unit;

/// Hard cap on bucket-bound count, so a mis-parameterized constructor
/// cannot allocate an absurd histogram.
const MAX_HISTOGRAM_BUCKETS: usize = 4096;

/// A fixed-shape, log-bucketed streaming histogram.
///
/// The shape is the ascending list of finite bucket upper bounds
/// (`le` semantics: bucket `i` counts samples `v <= bounds[i]` that no
/// earlier bucket claimed); one implicit `+Inf` bucket catches
/// everything above the last bound. Values at or below the first bound
/// (including zero and negative values) land in bucket 0.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    /// Physical unit of recorded samples.
    unit: Unit,
    /// Ascending finite bucket upper bounds (`le` values).
    bounds: Vec<f64>,
    /// Per-bucket sample counts; `counts.len() == bounds.len() + 1`,
    /// the last slot is the `+Inf` bucket.
    counts: Vec<u64>,
    /// Sum of all recorded samples.
    sum: f64,
    /// Total recorded samples.
    count: u64,
    /// Smallest recorded sample (0 until the first record).
    min: f64,
    /// Largest recorded sample (0 until the first record).
    max: f64,
}

impl Histogram {
    /// A histogram with explicit finite bucket bounds.
    ///
    /// # Panics
    /// If `bounds` is empty, not strictly ascending, not finite, or
    /// longer than `MAX_HISTOGRAM_BUCKETS` (4096).
    pub fn with_bounds(unit: Unit, bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.len() <= MAX_HISTOGRAM_BUCKETS,
            "{} bounds exceed MAX_HISTOGRAM_BUCKETS",
            bounds.len()
        );
        for pair in bounds.windows(2) {
            assert!(
                pair[0] < pair[1],
                "histogram bounds must ascend strictly: {} !< {}",
                pair[0],
                pair[1]
            );
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (the +Inf bucket is implicit)"
        );
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            unit,
            bounds,
            counts,
            sum: 0.0,
            count: 0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// A log-bucketed histogram spanning `[lo, hi]` with
    /// `buckets_per_decade` geometrically spaced bounds per factor of
    /// ten — the HDR-style shape: relative quantile error is bounded by
    /// the bucket growth factor `10^(1/buckets_per_decade)`.
    ///
    /// # Panics
    /// If `lo <= 0`, `hi <= lo`, `buckets_per_decade == 0`, or the
    /// resulting bound count exceeds `MAX_HISTOGRAM_BUCKETS` (4096).
    pub fn log_bucketed(unit: Unit, lo: f64, hi: f64, buckets_per_decade: u32) -> Self {
        assert!(lo > 0.0 && lo.is_finite(), "lo must be positive finite");
        assert!(hi > lo && hi.is_finite(), "hi must exceed lo");
        assert!(
            buckets_per_decade > 0,
            "need at least one bucket per decade"
        );
        let growth = 10f64.powf(1.0 / f64::from(buckets_per_decade));
        let mut bounds = Vec::new();
        let mut bound = lo;
        while bound < hi * (1.0 - 1e-12) {
            bounds.push(bound);
            assert!(
                bounds.len() <= MAX_HISTOGRAM_BUCKETS,
                "log_bucketed({lo}, {hi}, {buckets_per_decade}) needs too many buckets"
            );
            bound *= growth;
        }
        bounds.push(hi);
        Self::with_bounds(unit, bounds)
    }

    /// The conventional shape for simulated latencies: 1 ns to 100 s at
    /// 5 buckets per decade (56 bounds, ≤ ~58% relative bucket width).
    pub fn latency_seconds() -> Self {
        Self::log_bucketed(Unit::Seconds, 1e-9, 100.0, 5)
    }

    /// The conventional shape for dimensionless relative-error
    /// magnitudes (model drift): 10⁻⁶ to 10 at 5 buckets per decade.
    pub fn relative_error() -> Self {
        Self::log_bucketed(Unit::Ratio, 1e-6, 10.0, 5)
    }

    /// Physical unit of the recorded samples.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Records one sample.
    ///
    /// Non-finite samples are counted into the extreme buckets
    /// (`-inf`/NaN → bucket 0 behaviour is avoided: NaN panics, it is
    /// always a computation bug upstream).
    ///
    /// # Panics
    /// If `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "recorded a NaN sample");
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest recorded sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all recorded samples, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The finite bucket upper bounds (`le` values), ascending.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Raw (non-cumulative) per-bucket counts; the final entry is the
    /// implicit `+Inf` bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative per-bucket counts in `le` order, ending with the
    /// `+Inf` bucket (always equal to [`Histogram::count`]).
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut total = 0u64;
        self.counts
            .iter()
            .map(|c| {
                total += c;
                total
            })
            .collect()
    }

    /// Streaming quantile estimate for `q ∈ [0, 1]`.
    ///
    /// Finds the bucket containing the `⌈q·count⌉`-th smallest sample,
    /// interpolates linearly inside it, and clamps to the observed
    /// `[min, max]` — so the estimate is always inside the bucket's
    /// bounds and inside the observed range. Returns `None` while the
    /// histogram is empty.
    ///
    /// # Panics
    /// If `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        // Rank of the requested sample, 1-based; q = 0 asks for the
        // smallest sample.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            if *c == 0 {
                cumulative += c;
                continue;
            }
            let next = cumulative + c;
            if rank <= next {
                let lower = if idx == 0 {
                    self.min
                } else {
                    self.bounds[idx - 1]
                };
                let upper = if idx < self.bounds.len() {
                    self.bounds[idx]
                } else {
                    self.max
                };
                let fraction = (rank - cumulative) as f64 / *c as f64;
                let estimate = lower + fraction * (upper - lower).max(0.0);
                return Some(estimate.clamp(self.min, self.max));
            }
            cumulative = next;
        }
        Some(self.max)
    }

    /// Whether `other` has the same shape (unit and bucket bounds), so
    /// the two histograms can merge.
    fn same_shape(&self, other: &Histogram) -> bool {
        self.unit == other.unit && self.bounds == other.bounds
    }

    /// Merges `other` into `self` by adding bucket counts. The result
    /// is identical to having recorded both sample streams into one
    /// histogram (a property test in `tests/` relies on this).
    ///
    /// # Panics
    /// If the histograms differ in unit or bucket bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.same_shape(other),
            "merging histograms of different shapes ({:?}/{} vs {:?}/{} bounds)",
            self.unit,
            self.bounds.len(),
            other.unit,
            other.bounds.len()
        );
        for (slot, c) in self.counts.iter_mut().zip(&other.counts) {
            *slot += c;
        }
        self.sum += other.sum;
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_land_in_le_buckets() {
        let mut h = Histogram::with_bounds(Unit::Seconds, vec![1.0, 10.0, 100.0]);
        h.record(0.5); // <= 1.0
        h.record(1.0); // <= 1.0 (le is inclusive)
        h.record(5.0); // <= 10.0
        h.record(1000.0); // +Inf bucket
        assert_eq!(h.bucket_counts(), &[2, 1, 0, 1]);
        assert_eq!(h.cumulative_counts(), vec![2, 3, 3, 4]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 1006.5).abs() < 1e-12);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(1000.0));
    }

    #[test]
    fn values_below_first_bound_use_bucket_zero() {
        let mut h = Histogram::with_bounds(Unit::Ratio, vec![0.5, 1.0]);
        h.record(-3.0);
        h.record(0.0);
        assert_eq!(h.bucket_counts(), &[2, 0, 0]);
    }

    #[test]
    fn log_bucketed_bounds_are_geometric_and_cover_hi() {
        let h = Histogram::log_bucketed(Unit::Seconds, 1e-3, 1.0, 3);
        let bounds = h.bounds();
        assert!((bounds[0] - 1e-3).abs() < 1e-15);
        assert_eq!(*bounds.last().unwrap(), 1.0);
        // Three decades at three per decade: nine geometric steps.
        assert_eq!(bounds.len(), 10);
        let growth = 10f64.powf(1.0 / 3.0);
        for pair in bounds.windows(2).take(bounds.len() - 2) {
            assert!((pair[1] / pair[0] - growth).abs() < 1e-9);
        }
    }

    #[test]
    fn quantiles_interpolate_and_stay_in_range() {
        let mut h = Histogram::latency_seconds();
        for i in 1..=1000u64 {
            h.record(i as f64 * 1e-6); // 1 µs .. 1 ms uniform
        }
        let p0 = h.quantile(0.0).unwrap();
        assert!((p0 / 1e-6 - 1.0).abs() < 1e-9, "p0 {p0}");
        let p50 = h.quantile(0.5).unwrap();
        assert!((4e-4..=6.5e-4).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((9e-4..=1e-3).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(1e-3));
        assert_eq!(Histogram::latency_seconds().quantile(0.5), None);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::latency_seconds();
        h.record(3.7e-5);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(3.7e-5), "q={q}");
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = Histogram::latency_seconds();
        let mut b = Histogram::latency_seconds();
        let mut all = Histogram::latency_seconds();
        for (i, v) in [3e-9, 5e-6, 0.12, 250.0, 1e-4].iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.record(*v);
            all.record(*v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn merge_rejects_shape_mismatch() {
        let mut a = Histogram::latency_seconds();
        a.merge(&Histogram::relative_error());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_samples_panic() {
        Histogram::latency_seconds().record(f64::NAN);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = Histogram::relative_error();
        h.record(0.02);
        h.record(0.4);
        let value = serde::Serialize::to_value(&h);
        let back = <Histogram as serde::Deserialize>::from_value(&value).unwrap();
        assert_eq!(back, h);
        let text = serde_json::to_string(&value).unwrap();
        let reparsed: serde::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            <Histogram as serde::Deserialize>::from_value(&reparsed).unwrap(),
            h
        );
    }
}
