//! Order statistics over raw samples. Every timing the benchmark
//! reports is a median or a percentile of measured values, never a mean
//! of means.

/// Sort a sample set ascending (NaNs, which no stopwatch produces, last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. 0 for an empty set.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The percentiles a report may quote, highest first.
const TAILS: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it — above that a "percentile" is a handful of
/// outliers and does not repeat between runs.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|p| n.saturating_sub((p * n as f64).ceil() as usize) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: even p75 leaves only 4 beyond.
        assert_eq!(highest_supported_percentile(19), None);
        // 40 samples: p75 leaves exactly 10.
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        // 199 samples: p95 leaves 9, p90 leaves 19.
        assert_eq!(highest_supported_percentile(199), Some(0.9));
        // 200 samples: p95 leaves exactly 10.
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }
}
