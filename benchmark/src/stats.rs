//! Order statistics over timing samples.

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method);
/// a single value is its own quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        });
    }
    let at = |k: usize| {
        // Python's arithmetic: cut k sits at 1-based position k(n+1)/4,
        // between v[j-1] and v[j]; at the ends it extrapolates.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
    })
}

pub fn median(values: &[f64]) -> Option<f64> {
    quartiles(values).map(|q| q.median)
}

/// The `p`-th percentile (nearest rank), reported only when at least
/// ten samples lie beyond it: a tail read off fewer is one outlier's
/// value, not a percentile. So p90 needs 100 samples and p75 needs 40.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() >= rank + 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!(q.spread(), 1.0);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[]), None);
        // statistics.quantiles([4, 2], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[4.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        assert_eq!(median(&[4.0, 2.0]), Some(3.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        assert_eq!(tail_percentile(&ramp(150), 90.0), Some(135.0));
        // The 42-cell sweep supports p75 (rank 32, ten beyond) but not p90.
        assert_eq!(tail_percentile(&ramp(42), 75.0), Some(32.0));
        assert_eq!(tail_percentile(&ramp(42), 90.0), None);
        assert_eq!(tail_percentile(&ramp(39), 75.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }
}
