//! Online statistics for experiment aggregation.
//!
//! [`OnlineStats`] implements Welford's numerically stable single-pass
//! mean/variance algorithm; the SGX overhead model's calibration tests
//! use it to compare sampled overheads with the paper's Table I.

/// Single-pass mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use raptee_util::stats::OnlineStats;
/// let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.sample_std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl OnlineStats {
    /// Adds one observation.
    fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance (divides by `n - 1`); `0.0` for fewer than two
    /// observations.
    fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::default();
        for v in iter {
            s.push(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = OnlineStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn single_value() {
        let s: OnlineStats = [42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.77).sin() * 10.0).collect();
        let s: OnlineStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn two_observations_divide_by_one() {
        // Sample variance of {1, 3}: ((1-2)² + (3-2)²) / (2 - 1) = 2.
        let s: OnlineStats = [1.0, 3.0].into_iter().collect();
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.sample_variance(), 2.0);
        assert_eq!(s.sample_std_dev(), 2.0f64.sqrt());
    }

    #[test]
    fn collecting_nothing_is_the_default() {
        let s: OnlineStats = std::iter::empty().collect();
        assert_eq!(s, OnlineStats::default());
        assert_eq!(s.sample_std_dev(), 0.0);
    }

    #[test]
    fn a_large_offset_does_not_cost_precision() {
        // The point of Welford over the textbook E[x²] − E[x]²: cycle
        // counts sit far from zero, their spread does not.
        let base: Vec<f64> = (0..1000).map(|i| f64::from(i % 7)).collect();
        let plain: OnlineStats = base.iter().copied().collect();
        let shifted: OnlineStats = base.iter().map(|v| v + 1e9).collect();
        assert!((shifted.mean() - 1e9 - plain.mean()).abs() < 1e-6);
        assert!(
            (shifted.sample_variance() - plain.sample_variance()).abs() < 1e-6,
            "{} vs {}",
            shifted.sample_variance(),
            plain.sample_variance()
        );
    }

    #[test]
    fn observation_order_does_not_move_the_moments() {
        let data: Vec<f64> = (0..200)
            .map(|i| (f64::from(i) * 1.3).cos() * 50.0)
            .collect();
        let forward: OnlineStats = data.iter().copied().collect();
        let backward: OnlineStats = data.iter().rev().copied().collect();
        assert!((forward.mean() - backward.mean()).abs() < 1e-12);
        assert!((forward.sample_std_dev() - backward.sample_std_dev()).abs() < 1e-12);
    }
}
