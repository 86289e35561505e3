//! Byzantine eviction policies (paper Section IV-C).
//!
//! Trusted nodes "ignore part of the pulled IDs from untrusted nodes by
//! not passing them to the Brahms sampling component and by ignoring them
//! during the renewal of the pulled `β·l1` entries". The fraction ignored
//! is the *eviction rate*:
//!
//! * [`EvictionPolicy::Fixed`] — one system-wide constant in `[0, 1]`
//!   (the paper sweeps 0 %, 40 %, 60 %, 100 % in Figs. 5–8);
//! * [`EvictionPolicy::Adaptive`] — per-node and per-round: bounded
//!   between 20 % (when ≥ 80 % of this round's contacts were trusted) and
//!   80 % (when ≤ 20 % were), linear in between (Fig. 9). Intuition: the
//!   more IDs a trusted node already received from trusted peers this
//!   round, the less it needs untrusted input — and vice versa.

/// How a trusted node chooses the fraction of untrusted-pulled IDs to
/// ignore each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionPolicy {
    /// A constant eviction rate in `[0, 1]` for the whole run.
    Fixed(f64),
    /// The paper's adaptive rule: `rate = clamp(1 − trusted_share, 0.2,
    /// 0.8)`. Build it with [`EvictionPolicy::adaptive`].
    Adaptive,
}

impl EvictionPolicy {
    /// The adaptive rate's published bounds (paper Fig. 9: 20 % and 80 %).
    const ADAPTIVE_BOUNDS: (f64, f64) = (0.2, 0.8);

    /// The paper's adaptive policy with its published 20 %/80 % bounds.
    pub fn adaptive() -> Self {
        EvictionPolicy::Adaptive
    }

    /// No eviction (0 % rate) — also what plain-Brahms behaviour uses.
    pub fn none() -> Self {
        EvictionPolicy::Fixed(0.0)
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// The broken rule when a fixed rate leaves `[0, 1]`.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            EvictionPolicy::Fixed(r) if !(0.0..=1.0).contains(&r) => {
                Err("eviction rate must be in [0,1]")
            }
            _ => Ok(()),
        }
    }

    /// The eviction rate for a round in which `trusted_share` of the
    /// node's pull contacts were trusted (`trusted_share ∈ [0, 1]`).
    ///
    /// For the adaptive policy the paper's rule is linear between the two
    /// bounds: 80 % when the trusted share is at or below 20 %, 20 % when
    /// it is at or above 80 %.
    pub(crate) fn rate(&self, trusted_share: f64) -> f64 {
        match *self {
            EvictionPolicy::Fixed(r) => r,
            EvictionPolicy::Adaptive => {
                let (lo, hi) = Self::ADAPTIVE_BOUNDS;
                (1.0 - trusted_share).clamp(lo, hi)
            }
        }
    }

    /// A short label for experiment reports ("ER-40%", "adaptive").
    pub fn label(&self) -> String {
        match *self {
            EvictionPolicy::Fixed(r) => format!("ER-{:.0}%", r * 100.0),
            EvictionPolicy::Adaptive => "adaptive".to_string(),
        }
    }
}

impl Default for EvictionPolicy {
    fn default() -> Self {
        EvictionPolicy::adaptive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_is_constant() {
        let p = EvictionPolicy::Fixed(0.6);
        assert_eq!(p.validate(), Ok(()));
        for share in [0.0, 0.3, 1.0] {
            assert_eq!(p.rate(share), 0.6);
        }
    }

    #[test]
    fn adaptive_matches_paper_rule() {
        let p = EvictionPolicy::adaptive();
        assert_eq!(p.validate(), Ok(()));
        // ≤ 20 % trusted contacts → 80 % eviction.
        assert_eq!(p.rate(0.0), 0.8);
        assert_eq!(p.rate(0.2), 0.8);
        // ≥ 80 % trusted contacts → 20 % eviction.
        assert_eq!(p.rate(0.8), 0.2);
        assert_eq!(p.rate(1.0), 0.2);
        // Linear in between: share 0.5 → rate 0.5.
        assert!((p.rate(0.5) - 0.5).abs() < 1e-12);
        assert!((p.rate(0.65) - 0.35).abs() < 1e-12);
    }

    #[test]
    fn adaptive_is_monotone_decreasing() {
        let p = EvictionPolicy::adaptive();
        let mut prev = f64::INFINITY;
        for i in 0..=100 {
            let r = p.rate(i as f64 / 100.0);
            assert!(r <= prev + 1e-12);
            prev = r;
        }
    }

    #[test]
    fn labels() {
        assert_eq!(EvictionPolicy::Fixed(0.4).label(), "ER-40%");
        assert_eq!(EvictionPolicy::adaptive().label(), "adaptive");
        assert_eq!(EvictionPolicy::none().label(), "ER-0%");
    }

    #[test]
    fn default_is_adaptive() {
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::adaptive());
    }

    #[test]
    fn none_evicts_nothing() {
        assert_eq!(EvictionPolicy::none(), EvictionPolicy::Fixed(0.0));
        assert_eq!(EvictionPolicy::none().rate(0.0), 0.0);
    }

    #[test]
    fn closed_interval_endpoints_validate() {
        for p in [EvictionPolicy::Fixed(0.0), EvictionPolicy::Fixed(1.0)] {
            assert_eq!(p.validate(), Ok(()));
        }
        assert_eq!(EvictionPolicy::Fixed(1.0).label(), "ER-100%");
    }

    #[test]
    fn out_of_range_fixed_rejected() {
        for r in [-0.1, 1.2, f64::NAN] {
            assert_eq!(
                EvictionPolicy::Fixed(r).validate(),
                Err("eviction rate must be in [0,1]")
            );
        }
    }
}
