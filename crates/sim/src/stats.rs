//! Online statistics for simulation output: counters, Welford running
//! moments, fixed-bin histograms and percentile summaries.

use std::collections::BTreeMap;
use std::fmt;

/// Named monotonic counters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    map: BTreeMap<String, u64>,
}

impl Counters {
    pub fn new() -> Counters {
        Counters::default()
    }

    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    pub fn add(&mut self, name: &str, n: u64) {
        // Known names (every bump after the first) are found by `&str`.
        match self.map.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.map.insert(name.to_owned(), n);
            }
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.map {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

/// Welford's online mean/variance with min/max tracking.
#[derive(Debug, Clone, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    pub fn new() -> Running {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel collection).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-width histogram over `[lo, hi)` with under/overflow buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let i = ((x - self.lo) / w) as usize;
            let i = i.min(self.bins.len() - 1);
            self.bins[i] += 1;
        }
    }

    pub fn bin_counts(&self) -> &[u64] {
        &self.bins
    }

    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// Percentile summary from a sample set (materialises and sorts).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    data: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, x: f64) {
        self.data.push(x);
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.data.is_empty() {
            return None;
        }
        let mut sorted = self.data.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        let idx = rank.saturating_sub(1).min(sorted.len() - 1);
        Some(sorted[idx])
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.data.iter().sum::<f64>() / self.data.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters() {
        let mut c = Counters::new();
        c.incr("tasks");
        c.add("tasks", 4);
        c.incr("teams");
        assert_eq!(c.get("tasks"), 5);
        assert_eq!(c.get("teams"), 1);
        assert_eq!(c.get("missing"), 0);
        let all: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(all, vec![("tasks", 5), ("teams", 1)]);
        assert!(c.to_string().contains("tasks: 5"));
    }

    #[test]
    fn running_matches_naive() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0, -5.0];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((r.mean() - mean).abs() < 1e-12);
        assert!((r.variance() - var).abs() < 1e-12);
        assert_eq!(r.min(), -5.0);
        assert_eq!(r.max(), 10.0);
        assert_eq!(r.count(), 6);
    }

    #[test]
    fn running_empty_is_nan() {
        let r = Running::new();
        assert!(r.mean().is_nan());
        assert!(r.variance().is_nan());
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Running::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.count(), all.count());
        // merging an empty accumulator is a no-op
        let before = a.mean();
        a.merge(&Running::new());
        assert_eq!(a.mean(), before);
        // merging into empty copies
        let mut empty = Running::new();
        empty.merge(&all);
        assert!((empty.mean() - all.mean()).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 55.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.bin_counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 7);
    }

    #[test]
    #[should_panic]
    fn histogram_rejects_bad_range() {
        let _ = Histogram::new(5.0, 5.0, 3);
    }

    #[test]
    fn percentiles() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), None);
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(95.0), Some(95.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.median(), Some(50.0));
        assert_eq!(s.mean(), Some(50.5));
    }
}
