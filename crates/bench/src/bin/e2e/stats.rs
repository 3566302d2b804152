//! Order statistics for the result document: medians, quartiles, tail
//! percentiles with the "ten samples beyond" rule, and ABBA ratios.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so a spread
/// computed here equals the one an outside checker computes. Fewer than two
/// values have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // Position i*(n+1)/4 on a 1-based scale, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The 1-based nearest rank of the `p`-th percentile among `n >= 1` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The small allowance keeps 99.9 % of 10 000 at rank 9 990, where the
    // product is a hair above the whole number in floating point.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of a sample (`p` in 0..=100).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sorted(values)[nearest_rank(values.len(), p) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it; a timing is reported as its median and this.
pub fn highest_supported_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(50.0)
}

/// `a`/`b` ratios of interleaved A-B-B-A blocks: `a` and `b` hold two
/// samples per block, and each block yields one ratio, so slow drift over
/// the run cancels inside a block.
pub fn abba_ratios(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.chunks_exact(2)
        .zip(b.chunks_exact(2))
        .map(|(a, b)| (a[0] + a[1]) / (b[0] + b[1]))
        .collect()
}

/// `(median, interquartile distance)` of `ratio - 1`, in percent.
pub fn overhead_pct(ratios: &[f64]) -> (f64, f64) {
    let (q1, q3) = quartiles(ratios);
    ((median(ratios) - 1.0) * 100.0, (q3 - q1) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 95.0), 9.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(300, 95.0), 15);
        assert_eq!(samples_beyond(199, 95.0), 9);
        assert_eq!(highest_supported_percentile(50), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn abba_blocks_cancel_linear_drift() {
        // Cost drifts up by 1 per run; A is 10 % dearer than B throughout.
        let cost = |i: usize, on: bool| (100.0 + i as f64) * if on { 1.1 } else { 1.0 };
        // Run order per block: A B B A.
        let a = [cost(0, true), cost(3, true), cost(4, true), cost(7, true)];
        let b = [
            cost(1, false),
            cost(2, false),
            cost(5, false),
            cost(6, false),
        ];
        let ratios = abba_ratios(&a, &b);
        assert_eq!(ratios.len(), 2);
        for r in &ratios {
            assert!((r - 1.1).abs() < 1e-9, "drift leaked into the ratio: {r}");
        }
        let (pct, iqr) = overhead_pct(&ratios);
        assert!((pct - 10.0).abs() < 1e-6 && iqr < 1e-6);
    }
}
