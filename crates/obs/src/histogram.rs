//! Fixed-bucket latency histograms with lock-free observation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Default latency buckets in seconds — tuned for an interactive search
/// engine: sub-millisecond index probes up to multi-second cold queries.
pub const LATENCY_BUCKETS: &[f64] = &[
    0.000_05, 0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
];

/// A histogram with fixed upper-bound buckets (plus an implicit `+Inf`
/// bucket), a total count, and a running sum.
///
/// `observe` is wait-free: one linear bucket scan and three relaxed
/// atomic adds (the sum is an `AtomicU64` holding `f64` bits, updated
/// with a CAS loop). Reads produce a consistent-enough
/// [`HistogramSnapshot`] for quantile estimation and rendering.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds, strictly increasing, finite.
    bounds: Vec<f64>,
    /// Per-bucket counts (same length as `bounds`, non-cumulative), plus
    /// one trailing slot for the `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with the given finite upper bounds (must be strictly
    /// increasing and non-empty).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bucket bounds must be finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// A histogram with the standard [`LATENCY_BUCKETS`].
    pub fn latency() -> Self {
        Histogram::new(LATENCY_BUCKETS)
    }

    /// The finite bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        let ix = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[ix].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut old = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(old) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                old,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => old = cur,
            }
        }
    }

    /// Record a wall-clock duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// A point-in-time copy for quantile readout and rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }

    /// Convenience: quantile straight off a fresh snapshot.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time histogram copy.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Non-cumulative per-bucket counts; the last entry is the `+Inf`
    /// bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimate quantile `q` (in `[0, 1]`) by linear interpolation within
    /// the bucket containing the target rank — the same estimator as
    /// Prometheus's `histogram_quantile`. Returns 0 when empty;
    /// observations beyond the last finite bound clamp to that bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let prev = cumulative;
            cumulative += c;
            if (cumulative as f64) >= rank && c > 0 {
                // Values past the last finite bound are clamped to it.
                if i >= self.bounds.len() {
                    return self.bounds[self.bounds.len() - 1];
                }
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self.bounds[i];
                let within = (rank - prev as f64) / c as f64;
                return lower + (upper - lower) * within.clamp(0.0, 1.0);
            }
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Cumulative count at or below each finite bound, plus the total as
    /// the trailing `+Inf` entry — the shape Prometheus exposition needs.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut acc = 0u64;
        for &c in &self.counts {
            acc += c;
            out.push(acc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(0.5); // bucket 0 (≤1)
        h.observe(1.0); // bucket 0 (≤1, inclusive upper bound)
        h.observe(1.5); // bucket 1 (≤2)
        h.observe(3.0); // bucket 2 (≤4)
        h.observe(99.0); // +Inf bucket
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.cumulative(), vec![2, 3, 4, 5]);
        assert_eq!(s.count, 5);
        assert!((s.sum - 105.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        // 10 observations uniformly inside (0, 1]: the whole mass is in
        // the first bucket, so p50 interpolates to its midpoint.
        for _ in 0..10 {
            h.observe(0.7);
        }
        assert!((h.quantile(0.5) - 0.5).abs() < 1e-9);
        assert!((h.quantile(1.0) - 1.0).abs() < 1e-9);

        // Split mass: 5 in (1,2], 5 in (2,4]. p50 sits at the boundary.
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for _ in 0..5 {
            h.observe(1.5);
        }
        for _ in 0..5 {
            h.observe(3.0);
        }
        assert!((h.quantile(0.5) - 2.0).abs() < 1e-9);
        // p75 is halfway through the (2,4] bucket: 2 + 0.5·2 = 3.
        assert!((h.quantile(0.75) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_clamps_to_the_last_finite_bound() {
        let h = Histogram::new(&[1.0, 2.0]);
        for _ in 0..4 {
            h.observe(50.0);
        }
        assert!((h.quantile(0.5) - 2.0).abs() < 1e-9);
        assert!((h.quantile(0.99) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::latency();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn duration_observation() {
        let h = Histogram::latency();
        h.observe_duration(Duration::from_millis(3));
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 0.003).abs() < 1e-9);
    }

    #[test]
    fn concurrent_observes_preserve_count_and_sum() {
        let h = std::sync::Arc::new(Histogram::new(&[0.5, 1.0]));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        h.observe(0.25);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert!((h.sum() - 1000.0).abs() < 1e-6);
        assert_eq!(h.snapshot().counts[0], 4000);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }
}
