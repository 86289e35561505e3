//! Chi-square goodness-of-fit test for uniformity.
//!
//! The heart of Brahms is the claim that its sampler converges to a
//! *uniform* random sample of the ID stream. The sampler property tests in
//! `raptee-sampler` draw many samples and check uniformity with this test.

/// Result of a chi-square uniformity test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquare {
    /// The chi-square statistic.
    pub statistic: f64,
    /// Degrees of freedom (`bins - 1`).
    pub(crate) dof: usize,
    /// Upper critical value at the 1 % significance level (approximated by
    /// the Wilson–Hilferty transform).
    pub critical_1pct: f64,
}

impl ChiSquare {
    /// `true` when the observed counts are consistent with the uniform
    /// hypothesis at the 1 % level (i.e. the statistic does not exceed the
    /// critical value).
    pub fn is_uniform(&self) -> bool {
        self.statistic <= self.critical_1pct
    }
}

/// Runs a chi-square test of `counts` against the uniform distribution.
///
/// # Panics
///
/// Panics if fewer than two bins are supplied or if the total count is
/// zero (the test is undefined in both cases).
pub fn chi_square_uniform(counts: &[u64]) -> ChiSquare {
    assert!(counts.len() >= 2, "chi-square needs at least two bins");
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "chi-square needs at least one observation");
    let expected = total as f64 / counts.len() as f64;
    let statistic = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    let dof = counts.len() - 1;
    ChiSquare {
        statistic,
        dof,
        critical_1pct: chi_square_critical(dof, 2.326_347_87),
    }
}

/// Approximates the upper critical value of the chi-square distribution
/// with `dof` degrees of freedom at the significance level whose standard
/// normal quantile is `z` (e.g. `z = 2.326` for 1 %), using the
/// Wilson–Hilferty cube approximation. Accurate to a few percent for
/// `dof >= 3`, which is ample for a sanity test.
pub(crate) fn chi_square_critical(dof: usize, z: f64) -> f64 {
    let k = dof as f64;
    let a = 2.0 / (9.0 * k);
    k * (1.0 - a + z * a.sqrt()).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn uniform_counts_pass() {
        let counts = vec![100u64; 20];
        let t = chi_square_uniform(&counts);
        assert_eq!(t.statistic, 0.0);
        assert!(t.is_uniform());
    }

    #[test]
    fn skewed_counts_fail() {
        let mut counts = vec![100u64; 20];
        counts[0] = 2000;
        let t = chi_square_uniform(&counts);
        assert!(!t.is_uniform());
    }

    #[test]
    fn random_uniform_draws_pass() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2024);
        let mut counts = vec![0u64; 50];
        for _ in 0..50_000 {
            counts[rng.index(50)] += 1;
        }
        let t = chi_square_uniform(&counts);
        assert!(
            t.is_uniform(),
            "statistic {} vs critical {}",
            t.statistic,
            t.critical_1pct
        );
    }

    #[test]
    fn critical_value_matches_tables() {
        // chi2(0.99, 10) = 23.209; Wilson–Hilferty should be within ~2 %.
        let c = chi_square_critical(10, 2.326_347_87);
        assert!((c - 23.209).abs() / 23.209 < 0.02, "got {c}");
        // chi2(0.99, 100) = 135.807.
        let c = chi_square_critical(100, 2.326_347_87);
        assert!((c - 135.807).abs() / 135.807 < 0.01, "got {c}");
    }

    #[test]
    fn statistic_matches_the_hand_computation() {
        // Expected 20 per bin: (10-20)²/20 + 0 + (30-20)²/20 = 10.
        let t = chi_square_uniform(&[10, 20, 30]);
        assert!((t.statistic - 10.0).abs() < 1e-12, "got {}", t.statistic);
        assert_eq!(t.dof, 2);
        assert_eq!(t.critical_1pct, chi_square_critical(2, 2.326_347_87));
    }

    #[test]
    fn critical_value_grows_with_the_degrees_of_freedom() {
        let crit: Vec<f64> = [1, 2, 5, 10, 50, 200]
            .iter()
            .map(|&k| chi_square_critical(k, 2.326_347_87))
            .collect();
        assert!(crit.windows(2).all(|w| w[0] < w[1]), "{crit:?}");
        // Above the mean `dof` at the 1 % level.
        assert!(crit[5] > 200.0);
    }

    #[test]
    fn two_bins_are_enough() {
        let even = chi_square_uniform(&[50, 50]);
        assert_eq!((even.statistic, even.dof), (0.0, 1));
        assert!(even.is_uniform());
        assert!(!chi_square_uniform(&[100, 0]).is_uniform());
    }

    #[test]
    #[should_panic(expected = "two bins")]
    fn one_bin_panics() {
        chi_square_uniform(&[10]);
    }

    #[test]
    #[should_panic(expected = "one observation")]
    fn zero_total_panics() {
        chi_square_uniform(&[0, 0, 0]);
    }
}
