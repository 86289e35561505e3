//! Brahms protocol parameters.

/// Parameters of a Brahms node.
///
/// The paper's experiments use `α = β = 0.4`, `γ = 0.2` (the values
/// recommended by the original Brahms paper) and a view size `l1 = 200`
/// at `N = 10,000`; `l2` is set equal to `l1` unless stated otherwise.
/// Only `γ` is a parameter: the rest of the view splits evenly between
/// pushed and pulled IDs, `α = β = (1 − γ)/2`.
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
    /// Fraction `γ` of the view renewed from the history sample.
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
    /// `γ = 0.2`, hence `α = β = 0.4`. Not validated: a zero size is
    /// rejected by [`BrahmsConfig::validate`].
    pub fn paper_defaults(view_size: usize, sample_size: usize) -> Self {
        Self {
            view_size,
            sample_size,
            gamma: 0.2,
            flood_threshold: None,
        }
    }

    /// Checks parameter consistency, returning the first broken rule:
    /// sizes must be positive, `γ` within `[0, 1]`, and `α·l1` must
    /// round to at least 1 — a node that pushes and pulls nothing never
    /// renews its view (`l1 = 1` at the paper's `γ`, or `γ` near 1).
    ///
    /// # Examples
    ///
    /// ```
    /// use raptee_brahms::BrahmsConfig;
    /// // α·l1 = 0.4 rounds to 0 at one slot, 0.8 to 1 at two.
    /// assert!(BrahmsConfig::paper_defaults(1, 1).validate().is_err());
    /// assert_eq!(BrahmsConfig::paper_defaults(2, 2).validate(), Ok(()));
    /// ```
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.view_size == 0 {
            return Err("view size l1 must be positive");
        }
        if self.sample_size == 0 {
            return Err("sample size l2 must be positive");
        }
        // Written as what must hold, so a NaN fails it.
        if !(0.0..=1.0).contains(&self.gamma) {
            return Err("gamma must be in [0,1]");
        }
        if self.alpha_count() == 0 {
            return Err("alpha*l1 rounds to 0: the view would push and pull nothing");
        }
        Ok(())
    }

    /// `α = β = (1 − γ)/2`: the share of the view renewed from pushed
    /// IDs, and the same share from pulled IDs.
    fn alpha(&self) -> f64 {
        (1.0 - self.gamma) / 2.0
    }

    /// `α·l1`, rounded — pushes sent per round and pushed IDs admitted to the
    /// renewed view.
    pub fn alpha_count(&self) -> usize {
        (self.alpha() * self.view_size as f64).round() as usize
    }

    /// The effective push-flood threshold (defence (ii)).
    pub(crate) fn effective_flood_threshold(&self) -> usize {
        self.flood_threshold.unwrap_or_else(|| self.alpha_count())
    }

    /// `β·l1`, rounded — pull requests sent per round and pulled IDs admitted to
    /// the renewed view; equal to [`BrahmsConfig::alpha_count`], since
    /// `β = α`.
    pub fn beta_count(&self) -> usize {
        self.alpha_count()
    }

    /// `γ·l1`, rounded — history-sample entries admitted to the renewed view.
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
    fn the_paper_split_is_alpha_and_beta_of_four_tenths() {
        // The counts the literal α = β = 0.4 gave, bit for bit: the
        // parity fanout the comparison families spend, which is at least
        // 1 where round(0.4) is 0.
        assert_eq!(BrahmsConfig::paper_defaults(1, 1).alpha_count(), 0);
        for l1 in 1..=1000 {
            let cfg = BrahmsConfig::paper_defaults(l1, l1);
            let (alpha, beta) = (cfg.alpha_count(), cfg.beta_count());
            assert_eq!(alpha, beta);
            assert_eq!(alpha.max(1), raptee_net::parity_fanout(l1), "{l1}");
        }
    }

    #[test]
    fn counts_round_correctly() {
        let cfg = BrahmsConfig {
            gamma: 0.1,
            ..BrahmsConfig::paper_defaults(10, 10)
        };
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(cfg.alpha_count(), 5); // 4.5 rounds to 5
        assert_eq!(cfg.beta_count(), 5);
        assert_eq!(cfg.gamma_count(), 1);
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
    fn a_split_with_no_push_or_pull_rejected() {
        let renews_nothing = Err("alpha*l1 rounds to 0: the view would push and pull nothing");
        let cfg = |l1, gamma| BrahmsConfig {
            gamma,
            ..BrahmsConfig::paper_defaults(l1, l1)
        };
        // The paper's γ: α·l1 is 0.4 at l1 = 1, 0.8 at l1 = 2.
        assert_eq!(cfg(1, 0.2).validate(), renews_nothing);
        assert_eq!(cfg(2, 0.2).validate(), Ok(()));
        // γ near 1 at l1 = 10: α·l1 is 0.25 at γ = 0.95, 0 at γ = 1
        // and 1 at γ = 0.8.
        assert_eq!(cfg(10, 0.95).validate(), renews_nothing);
        assert_eq!(cfg(10, 1.0).validate(), renews_nothing);
        assert_eq!(cfg(10, 0.8).validate(), Ok(()));
    }

    #[test]
    fn gamma_outside_the_unit_interval_rejected() {
        for gamma in [-0.2, 1.5, f64::NAN] {
            let cfg = BrahmsConfig {
                gamma,
                ..BrahmsConfig::paper_defaults(10, 10)
            };
            assert_eq!(cfg.validate(), Err("gamma must be in [0,1]"), "{gamma}");
        }
        // γ = 1 is in range too, but renews nothing (see above).
        for gamma in [0.0, 0.8] {
            let cfg = BrahmsConfig {
                gamma,
                ..BrahmsConfig::paper_defaults(10, 10)
            };
            assert_eq!(cfg.validate(), Ok(()), "{gamma}");
        }
    }
}
