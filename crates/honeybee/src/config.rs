//! Honeybee protocol parameters.

use raptee_net::parity_fanout;

/// Parameters of a Honeybee node.
///
/// The defaults mirror the message budget of the Brahms/RAPTEE, BASALT
/// and LIFT scenarios so head-to-head comparisons spend the same
/// bandwidth: the node pushes, pulls and probes [`parity_fanout`] peers
/// per round — the `α·l1`/`β·l1` split `BrahmsConfig` uses at equal
/// view sizes (and therefore the same per-identity rate-limiter
/// budget). Each pull slot carries one random-walk step, so the fanout
/// also bounds the number of concurrently active walks.
///
/// # Examples
///
/// ```
/// use raptee_honeybee::HoneybeeConfig;
/// let cfg = HoneybeeConfig::for_view(20, 5);
/// assert_eq!(cfg.view_size, 20);
/// assert_eq!(cfg.fanout(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoneybeeConfig {
    /// Number of view slots `v`.
    pub view_size: usize,
    /// Hops per random walk. Longer walks mix better (endpoints closer
    /// to the stationary distribution) but take more rounds to finish.
    pub(crate) walk_length: usize,
}

impl HoneybeeConfig {
    /// Brahms-budget-parity configuration for a view of `view_size`
    /// slots running `walk_length`-hop walks. Not validated:
    /// [`HoneybeeConfig::validate`] reports a broken rule, and the node
    /// constructor panics with it.
    pub fn for_view(view_size: usize, walk_length: usize) -> Self {
        Self {
            view_size,
            walk_length,
        }
    }

    /// Per round: push messages sent (own ID advertised to view peers),
    /// pull requests sent — each carries one walk step, so this also
    /// caps the concurrently active walks — and waiting-list candidates
    /// probed (contacted). [`parity_fanout`] of the view, at least 1.
    pub fn fanout(&self) -> usize {
        parity_fanout(self.view_size)
    }

    /// Rounds a walk may stall (its frontier never answering) before it
    /// is abandoned, and rounds a verified endpoint survives on the
    /// admission waiting list before being dropped unverified:
    /// `2·walk_length + 8`, comfortably above the rounds a walk needs.
    pub(crate) fn timeout(&self) -> usize {
        self.walk_length.saturating_mul(2).saturating_add(8)
    }

    /// Checks parameter consistency, returning the first broken rule:
    /// the view and the walk length must be positive.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.view_size == 0 {
            return Err("Honeybee view size must be positive");
        }
        if self.walk_length == 0 {
            return Err("Honeybee walk length must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_view_matches_brahms_budget() {
        let cfg = HoneybeeConfig::for_view(16, 5);
        assert_eq!(cfg.fanout(), 6); // round(0.4·16) = α·l1 at l1=16
        assert!(cfg.timeout() > 2 * cfg.walk_length);
    }

    #[test]
    fn tiny_views_keep_positive_fanout() {
        assert_eq!(HoneybeeConfig::for_view(1, 1).fanout(), 1);
    }

    #[test]
    fn zero_view_rejected() {
        assert_eq!(
            HoneybeeConfig::for_view(0, 5).validate(),
            Err("Honeybee view size must be positive")
        );
    }

    #[test]
    fn zero_walk_rejected() {
        assert_eq!(
            HoneybeeConfig::for_view(10, 0).validate(),
            Err("Honeybee walk length must be positive")
        );
    }
}
