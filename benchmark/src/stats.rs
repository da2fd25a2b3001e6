//! Order statistics the benchmark reports.

/// Median of a non-empty sample; the mean of the two middle values when
/// the count is even.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), because that is the rule the acceptance check applies.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// A latency sample reduced to what is reported: the median, and the
/// highest percentile that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    pub p50: f64,
    /// Which percentile `tail` is: 99, 90 or 50.
    pub tail_pct: f64,
    pub tail: f64,
    pub max: f64,
}

/// The highest of the 50th, 90th and 99th percentile that leaves at
/// least ten of `n` samples beyond it (the 50th when none does). No
/// metric is named for a percentile above the 99th, so the ladder stops
/// there.
pub fn tail_pct(n: usize) -> f64 {
    [99.0, 90.0]
        .into_iter()
        .find(|pct| n as f64 * (100.0 - pct) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of an ascending sample.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Reduces a sample to its [`Tail`]; all zeros for an empty one.
pub fn tail(samples: &[f64]) -> Tail {
    if samples.is_empty() {
        return Tail {
            n: 0,
            p50: 0.0,
            tail_pct: 50.0,
            tail: 0.0,
            max: 0.0,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_pct(sorted.len());
    Tail {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: percentile(&sorted, tail_pct),
        max: sorted[sorted.len() - 1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(spread(&v), 1.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_pct(1000), 99.0);
        assert_eq!(tail_pct(999), 90.0);
        assert_eq!(tail_pct(100), 90.0);
        assert_eq!(tail_pct(99), 50.0);
        assert_eq!(tail_pct(3), 50.0);

        let v: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(
            (t.n, t.p50, t.tail_pct, t.tail, t.max),
            (2000, 1000.0, 99.0, 1980.0, 2000.0)
        );
        let t = tail(&v[..200]);
        assert_eq!((t.n, t.tail_pct, t.tail), (200, 90.0, 1980.0));
        assert_eq!(tail(&[]).n, 0);
    }
}
