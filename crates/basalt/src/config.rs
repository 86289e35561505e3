//! BASALT protocol parameters.

use raptee_net::parity_fanout;

/// Parameters of a BASALT node.
///
/// The defaults mirror the message budget of the Brahms/RAPTEE scenarios
/// so head-to-head comparisons spend the same bandwidth: the node pushes,
/// pulls and probes [`parity_fanout`] peers per round — exactly how
/// `BrahmsConfig` computes its `α·l1` pushes and `β·l1` pulls at equal
/// view sizes (and therefore the same per-identity rate-limiter budget).
///
/// # Examples
///
/// ```
/// use raptee_basalt::BasaltConfig;
/// let cfg = BasaltConfig::for_view(20, 30);
/// assert_eq!(cfg.view_size, 20);
/// assert_eq!(cfg.fanout(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasaltConfig {
    /// Number of view slots `v` (each with its own ranking seed).
    pub view_size: usize,
    /// Rounds between seed rotations; `0` disables rotation.
    pub(crate) rotation_interval: usize,
    /// Rounds a *hearsay* candidate (an ID learned from someone else's
    /// pull answer rather than by direct contact) survives on the
    /// waiting list before being dropped unverified — BASALT's
    /// connect-before-integrate anti-poisoning refinement. `0` disables
    /// the waiting list entirely: hearsay ranks immediately (the legacy
    /// behaviour, kept bit-identical for existing scenarios).
    pub(crate) wlist_ttl: usize,
}

impl BasaltConfig {
    /// Brahms-budget-parity configuration for a view of `view_size`
    /// slots, rotating `max(1, v/10)` seeds every `rotation_interval`
    /// rounds. Not validated: [`BasaltConfig::validate`] reports a
    /// broken rule, and the node constructors panic with it.
    pub fn for_view(view_size: usize, rotation_interval: usize) -> Self {
        Self {
            view_size,
            rotation_interval,
            wlist_ttl: 0,
        }
    }

    /// [`BasaltConfig::for_view`] with the waiting-list refinement:
    /// hearsay candidates are quarantined for up to `wlist_ttl` rounds
    /// and admitted at the push-budget rate. A zero `wlist_ttl` leaves
    /// the list off, which is [`BasaltConfig::for_view`].
    pub fn with_wlist(view_size: usize, rotation_interval: usize, wlist_ttl: usize) -> Self {
        Self {
            wlist_ttl,
            ..Self::for_view(view_size, rotation_interval)
        }
    }

    /// Per round: push messages sent (own ID advertised to view peers),
    /// pull (exchange) requests sent to the least-confirmed samples, and
    /// waiting-list candidates verified (contacted) and admitted to the
    /// ranking when the list is enabled — so hearsay admission is
    /// rate-limited to exactly the direct-push budget, and the
    /// adversary's free all-Byzantine pull answers stop outrunning its
    /// rate-limited pushes. [`parity_fanout`] of the view, at least 1.
    pub fn fanout(&self) -> usize {
        parity_fanout(self.view_size)
    }

    /// Slots rotated per rotation (round-robin over the view):
    /// `max(1, v/10)`.
    pub(crate) fn rotation_count(&self) -> usize {
        (self.view_size / 10).max(1)
    }

    /// Checks parameter consistency, returning the first broken rule:
    /// the view must be positive.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.view_size == 0 {
            return Err("BASALT view size must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_view_matches_brahms_budget() {
        let cfg = BasaltConfig::for_view(16, 30);
        assert_eq!(cfg.fanout(), 6); // round(0.4·16) = α·l1 at l1=16
        assert_eq!(cfg.rotation_count(), 1);
        assert_eq!(cfg.rotation_interval, 30);
    }

    #[test]
    fn tiny_views_keep_positive_fanout() {
        let cfg = BasaltConfig::for_view(1, 0);
        assert_eq!(cfg.fanout(), 1);
        assert_eq!(cfg.rotation_count(), 1);
        assert_eq!(BasaltConfig::for_view(20, 30).rotation_count(), 2);
    }

    #[test]
    fn zero_view_rejected() {
        assert_eq!(
            BasaltConfig::for_view(0, 10).validate(),
            Err("BASALT view size must be positive")
        );
    }

    #[test]
    fn wlist_defaults_off_and_builder_enables() {
        let plain = BasaltConfig::for_view(16, 30);
        assert_eq!(plain.wlist_ttl, 0, "legacy configs keep the wlist off");
        let hardened = BasaltConfig::with_wlist(16, 30, 8);
        assert_eq!(hardened.wlist_ttl, 8);
        assert_eq!(
            BasaltConfig {
                wlist_ttl: 0,
                ..hardened
            },
            plain,
            "with_wlist only flips the TTL"
        );
        assert_eq!(
            BasaltConfig::with_wlist(16, 30, 0),
            plain,
            "a zero TTL leaves the list off"
        );
    }
}
