//! Honeybee protocol parameters.

/// Parameters of a Honeybee node.
///
/// The defaults mirror the message budget of the Brahms/RAPTEE, BASALT
/// and LIFT scenarios so head-to-head comparisons spend the same
/// bandwidth: `push_count` and `pull_count` are both `round(0.4·v)` —
/// the `α·l1`/`β·l1` split `BrahmsConfig` uses at equal view sizes (and
/// therefore the same per-identity rate-limiter budget). Each pull slot
/// carries one random-walk step, so `pull_count` also bounds the number
/// of concurrently active walks.
///
/// # Examples
///
/// ```
/// use raptee_honeybee::HoneybeeConfig;
/// let cfg = HoneybeeConfig::for_view(20, 5);
/// assert_eq!(cfg.view_size, 20);
/// assert_eq!(cfg.push_count, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoneybeeConfig {
    /// Number of view slots `v`.
    pub view_size: usize,
    /// Hops per random walk. Longer walks mix better (endpoints closer
    /// to the stationary distribution) but take more rounds to finish.
    pub(crate) walk_length: usize,
    /// Push messages sent per round (own ID advertised to view peers).
    pub push_count: usize,
    /// Pull requests sent per round; each carries one walk step, so this
    /// also caps the concurrently active walks.
    pub(crate) pull_count: usize,
    /// Rounds a walk may stall (its frontier never answering) before it
    /// is abandoned.
    pub(crate) walk_timeout: usize,
    /// Rounds a verified walk endpoint survives on the admission
    /// waiting list before being dropped unverified; `0` disables the
    /// quarantine and admits verified endpoints immediately.
    pub(crate) wlist_ttl: usize,
    /// Waiting-list candidates probed (contacted) per round.
    pub(crate) wlist_probe: usize,
}

impl HoneybeeConfig {
    /// Brahms-budget-parity configuration for a view of `view_size`
    /// slots running `walk_length`-hop walks, with the endpoint
    /// quarantine enabled at a TTL comfortably above the walk timeout.
    pub fn for_view(view_size: usize, walk_length: usize) -> Self {
        let fanout = ((0.4 * view_size as f64).round() as usize).max(1);
        let cfg = Self {
            view_size,
            walk_length,
            push_count: fanout,
            pull_count: fanout,
            walk_timeout: walk_length * 2 + 8,
            wlist_ttl: walk_length * 2 + 8,
            wlist_probe: fanout,
        };
        cfg.validate();
        cfg
    }

    /// Checks parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics when any size is zero or an enabled waiting list has no
    /// probe budget.
    pub(crate) fn validate(&self) {
        assert!(self.view_size > 0, "Honeybee view size must be positive");
        assert!(self.walk_length > 0, "walk length must be positive");
        assert!(self.push_count > 0, "push count must be positive");
        assert!(self.pull_count > 0, "pull count must be positive");
        assert!(self.walk_timeout > 0, "walk timeout must be positive");
        assert!(
            self.wlist_ttl == 0 || self.wlist_probe > 0,
            "an enabled wlist needs a positive probe budget"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_view_matches_brahms_budget() {
        let cfg = HoneybeeConfig::for_view(16, 5);
        assert_eq!(cfg.push_count, 6); // round(0.4·16) = α·l1 at l1=16
        assert_eq!(cfg.pull_count, 6);
        assert!(cfg.wlist_ttl > 0, "endpoint quarantine on by default");
        assert!(cfg.walk_timeout > 2 * cfg.walk_length);
    }

    #[test]
    fn tiny_views_keep_positive_fanout() {
        let cfg = HoneybeeConfig::for_view(1, 1);
        assert_eq!(cfg.push_count, 1);
        assert_eq!(cfg.pull_count, 1);
    }

    #[test]
    #[should_panic(expected = "view size must be positive")]
    fn zero_view_rejected() {
        HoneybeeConfig::for_view(0, 5);
    }

    #[test]
    #[should_panic(expected = "walk length must be positive")]
    fn zero_walk_rejected() {
        HoneybeeConfig::for_view(10, 0);
    }

    #[test]
    #[should_panic(expected = "probe budget")]
    fn enabled_wlist_without_probe_rejected() {
        HoneybeeConfig {
            wlist_probe: 0,
            ..HoneybeeConfig::for_view(8, 3)
        }
        .validate();
    }
}
