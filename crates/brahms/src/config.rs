//! Brahms protocol parameters.

/// Parameters of a Brahms node.
///
/// The paper's experiments use `α = β = 0.4`, `γ = 0.2` (the values
/// recommended by the original Brahms paper) and a view size `l1 = 200`
/// at `N = 10,000`; `l2` is set equal to `l1` unless stated otherwise.
///
/// # Examples
///
/// ```
/// use raptee_brahms::BrahmsConfig;
/// let cfg = BrahmsConfig::paper_defaults(200, 200);
/// assert_eq!(cfg.alpha_count(), 80);
/// assert_eq!(cfg.beta_count(), 80);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrahmsConfig {
    /// Dynamic view size `l1`.
    pub view_size: usize,
    /// Sample list size `l2`.
    pub sample_size: usize,
    /// Fraction of the view renewed from pushed IDs.
    pub alpha: f64,
    /// Fraction of the view renewed from pulled IDs.
    pub beta: f64,
    /// Fraction of the view renewed from the history sample.
    pub gamma: f64,
    /// Push-flood detection threshold. `None` uses the paper-literal
    /// `α·l1`. At the paper's scale that threshold sits ≈ 4σ above the
    /// mean per-round push arrival, so honest traffic almost never trips
    /// it; at reduced view sizes the same formula sits ≈ 1σ above the
    /// mean and falsely blocks 20–30 % of calm rounds. Reduced-scale
    /// scenarios therefore set an explicit threshold preserving the
    /// paper-scale *relative* margin (see `raptee-sim`'s scenario
    /// builder).
    pub flood_threshold: Option<usize>,
}

impl BrahmsConfig {
    /// The configuration used throughout the paper's evaluation:
    /// `α = β = 0.4`, `γ = 0.2`. Not validated: a zero size is rejected
    /// by [`BrahmsConfig::validate`].
    pub fn paper_defaults(view_size: usize, sample_size: usize) -> Self {
        Self {
            view_size,
            sample_size,
            alpha: 0.4,
            beta: 0.4,
            gamma: 0.2,
            flood_threshold: None,
        }
    }

    /// Checks parameter consistency, returning the first broken rule:
    /// sizes must be positive, no fraction negative, and `α + β + γ`
    /// within 1e-9 of 1.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.view_size == 0 {
            return Err("view size l1 must be positive");
        }
        if self.sample_size == 0 {
            return Err("sample size l2 must be positive");
        }
        // Written as what must hold, so a NaN fails each rule.
        let non_negative = self.alpha >= 0.0 && self.beta >= 0.0 && self.gamma >= 0.0;
        if !non_negative {
            return Err("alpha/beta/gamma must be non-negative");
        }
        let sums_to_one = (self.alpha + self.beta + self.gamma - 1.0).abs() < 1e-9;
        if !sums_to_one {
            return Err("alpha + beta + gamma must equal 1");
        }
        Ok(())
    }

    /// `⌈α·l1⌉` — pushes sent per round and pushed IDs admitted to the
    /// renewed view.
    pub fn alpha_count(&self) -> usize {
        (self.alpha * self.view_size as f64).round() as usize
    }

    /// The effective push-flood threshold (defence (ii)).
    pub(crate) fn effective_flood_threshold(&self) -> usize {
        self.flood_threshold.unwrap_or_else(|| self.alpha_count())
    }

    /// `⌈β·l1⌉` — pull requests sent per round and pulled IDs admitted to
    /// the renewed view.
    pub fn beta_count(&self) -> usize {
        (self.beta * self.view_size as f64).round() as usize
    }

    /// `⌈γ·l1⌉` — history-sample entries admitted to the renewed view.
    pub(crate) fn gamma_count(&self) -> usize {
        (self.gamma * self.view_size as f64).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_are_valid() {
        let cfg = BrahmsConfig::paper_defaults(200, 160);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.view_size, 200);
        assert_eq!(cfg.sample_size, 160);
        assert_eq!(
            cfg.alpha_count() + cfg.beta_count() + cfg.gamma_count(),
            200
        );
    }

    #[test]
    fn counts_round_correctly() {
        let cfg = BrahmsConfig {
            view_size: 10,
            sample_size: 10,
            alpha: 0.45,
            beta: 0.35,
            gamma: 0.2,
            flood_threshold: None,
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.alpha_count(), 5); // 4.5 rounds to 5
        assert_eq!(cfg.beta_count(), 4); // 3.5 rounds to 4
        assert_eq!(cfg.gamma_count(), 2);
    }

    #[test]
    fn fractions_must_sum_to_one() {
        let cfg = BrahmsConfig {
            alpha: 0.5,
            beta: 0.5,
            gamma: 0.5,
            ..BrahmsConfig::paper_defaults(10, 10)
        };
        assert_eq!(cfg.validate(), Err("alpha + beta + gamma must equal 1"));
    }

    #[test]
    fn zero_sizes_rejected() {
        assert_eq!(
            BrahmsConfig::paper_defaults(0, 10).validate(),
            Err("view size l1 must be positive")
        );
        assert_eq!(
            BrahmsConfig::paper_defaults(10, 0).validate(),
            Err("sample size l2 must be positive")
        );
    }

    #[test]
    fn negative_fraction_rejected() {
        let cfg = BrahmsConfig {
            alpha: -0.2,
            beta: 1.0,
            gamma: 0.2,
            ..BrahmsConfig::paper_defaults(10, 10)
        };
        assert_eq!(cfg.validate(), Err("alpha/beta/gamma must be non-negative"));
    }
}
