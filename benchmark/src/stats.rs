//! Order statistics for the benchmark's estimators.
//!
//! Every reported metric is a per-round value summarised over the rounds of
//! one run as median and quartiles; latencies inside a round are summarised
//! by nearest-rank percentiles.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least `q` of the sample at or below it. `q` in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty sample — a round without samples is a benchmark bug,
/// not a value.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`], or 0 for an empty sample (a round in which nothing was
/// answered still has to report a number).
pub fn percentile_or_zero(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, q)
    }
}

/// Sorts a sample ascending (total order; NaN is a bug upstream).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    values
}

/// Median and quartiles of a small sample, by linear interpolation at
/// `p·(n+1)` — the rule of Python's `statistics.quantiles(v, n=4)`, which
/// is what the acceptance check applies across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values summarised.
    pub n: usize,
}

/// Summarises per-round values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarise(values: &[f64]) -> Summary {
    let v = sorted(values.to_vec());
    let at = |p: f64| {
        if v.len() == 1 {
            return v[0];
        }
        let pos = (p * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Summary {
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        n: v.len(),
    }
}

/// Median of a sample (consumes and sorts it).
pub fn median(values: Vec<f64>) -> f64 {
    summarise(&values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // 1000 samples: p99 leaves exactly ten samples beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn summary_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = summarise(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarise(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let one = summarise(&[2.5]);
        assert_eq!((one.q1, one.median, one.q3), (2.5, 2.5, 2.5));
    }

    #[test]
    fn median_of_rounds_ignores_one_bad_round() {
        // One stalled round out of five must not move the reported value.
        assert_eq!(median(vec![1.0, 1.1, 0.9, 1.05, 40.0]), 1.05);
    }
}
