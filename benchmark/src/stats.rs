//! Order statistics used by every stage: medians, quartiles, percentiles
//! and per-window summaries.

/// Sorted copy of `xs` (NaNs are a harness bug, so `total_cmp` is fine).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the two middle values for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive), which is what the
/// acceptance spread is computed with. Fewer than two values give
/// `(x, x)`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| -> f64 {
        // Python: j = i*(n+1)//4 clamped to [1, n-1]; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of an already sorted
/// slice; 0 for an empty slice.
pub fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The `p`-th percentile of every non-empty window. The serving metrics
/// are the median of these ("median over windows of the window's p50").
pub fn window_percentiles(windows: &[Vec<f64>], p: f64) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| percentile_sorted(&sorted(w), p))
        .collect()
}

/// Repetitions of one measurement, summarised. `value` is what the run
/// reports; the rest goes into the run file beside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarise `xs`, reporting its **quiet quartile**: the first
    /// quartile when lower is better, the third when higher is. For the
    /// serving windows, whose times are not speed-corrected: this host's
    /// disturbance there (a stolen core, a late wake-up) only ever adds
    /// latency, so the quartile on the quiet side is the best estimate of
    /// what the code costs when the host lets it run.
    pub fn quiet(xs: &[f64], lower_is_better: bool) -> Summary {
        let (q1, q3) = quartiles(xs);
        let v = sorted(xs);
        Summary {
            value: if lower_is_better { q1 } else { q3 },
            median: median(xs),
            q1,
            q3,
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            n: xs.len(),
        }
    }

    /// Summarise `xs`, reporting its median.
    pub fn center(xs: &[f64]) -> Summary {
        let mut s = Summary::quiet(xs, true);
        s.value = s.median;
        s
    }

    /// A single exact value (counts, byte totals).
    pub fn exact(x: f64) -> Summary {
        Summary {
            value: x,
            median: x,
            q1: x,
            q3: x,
            min: x,
            max: x,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 90.0), 90.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[5.0], 99.9), 5.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn summary_reports_the_quiet_quartile() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let lower = Summary::quiet(&xs, true);
        assert_eq!(
            (lower.value, lower.median, lower.min, lower.max, lower.n),
            (2.75, 5.5, 1.0, 10.0, 10)
        );
        assert_eq!(Summary::quiet(&xs, false).value, 8.25);
        // Three repetitions or fewer: the quiet quartile is the best one.
        assert_eq!(Summary::quiet(&[3.0, 1.0, 2.0], true).value, 1.0);
        assert_eq!(Summary::exact(4.0).value, 4.0);
    }

    #[test]
    fn window_median_skips_empty_windows() {
        let windows = vec![
            vec![1.0, 2.0, 3.0],      // p50 = 2
            vec![],                   // skipped
            vec![10.0, 20.0, 30.0],   // p50 = 20
            vec![4.0, 5.0, 6.0, 7.0], // p50 = 5
        ];
        assert_eq!(window_percentiles(&windows, 50.0), vec![2.0, 20.0, 5.0]);
        assert_eq!(median(&window_percentiles(&windows, 50.0)), 5.0);
        assert_eq!(median(&window_percentiles(&[], 50.0)), 0.0);
    }
}
