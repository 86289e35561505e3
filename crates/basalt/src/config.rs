//! BASALT protocol parameters.

/// Parameters of a BASALT node.
///
/// The defaults mirror the message budget of the Brahms/RAPTEE scenarios
/// so head-to-head comparisons spend the same bandwidth: `push_count` and
/// `pull_count` are both `round(0.4·v)` — exactly how `BrahmsConfig`
/// computes its `α·l1` pushes and `β·l1` pulls at equal view sizes (and
/// therefore the same per-identity rate-limiter budget).
///
/// # Examples
///
/// ```
/// use raptee_basalt::BasaltConfig;
/// let cfg = BasaltConfig::for_view(20, 30);
/// assert_eq!(cfg.view_size, 20);
/// assert_eq!(cfg.push_count, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasaltConfig {
    /// Number of view slots `v` (each with its own ranking seed).
    pub view_size: usize,
    /// Rounds between seed rotations; `0` disables rotation.
    pub(crate) rotation_interval: usize,
    /// Slots rotated per rotation (round-robin over the view).
    pub(crate) rotation_count: usize,
    /// Push messages sent per round (own ID advertised to view peers).
    pub push_count: usize,
    /// Pull (exchange) requests sent per round, aimed at the
    /// least-confirmed samples.
    pub(crate) pull_count: usize,
    /// Rounds a *hearsay* candidate (an ID learned from someone else's
    /// pull answer rather than by direct contact) survives on the
    /// waiting list before being dropped unverified — BASALT's
    /// connect-before-integrate anti-poisoning refinement. `0` disables
    /// the waiting list entirely: hearsay ranks immediately (the legacy
    /// behaviour, kept bit-identical for existing scenarios).
    pub(crate) wlist_ttl: usize,
    /// Waiting-list candidates verified (contacted) and admitted to the
    /// ranking per round when the list is enabled. Defaults to
    /// `push_count`, so hearsay admission is rate-limited to exactly the
    /// direct-push budget — the adversary's free all-Byzantine pull
    /// answers stop outrunning its rate-limited pushes.
    pub(crate) wlist_probe: usize,
}

impl BasaltConfig {
    /// Brahms-budget-parity configuration for a view of `view_size`
    /// slots, rotating `max(1, v/10)` seeds every `rotation_interval`
    /// rounds.
    pub fn for_view(view_size: usize, rotation_interval: usize) -> Self {
        let fanout = ((0.4 * view_size as f64).round() as usize).max(1);
        let cfg = Self {
            view_size,
            rotation_interval,
            rotation_count: (view_size / 10).max(1),
            push_count: fanout,
            pull_count: fanout,
            wlist_ttl: 0,
            wlist_probe: fanout,
        };
        cfg.validate();
        cfg
    }

    /// [`BasaltConfig::for_view`] with the waiting-list refinement
    /// enabled: hearsay candidates are quarantined for up to `wlist_ttl`
    /// rounds and admitted at the push-budget rate.
    ///
    /// # Panics
    ///
    /// Panics when `wlist_ttl` is zero (use [`BasaltConfig::for_view`]
    /// for the unhardened protocol).
    pub fn with_wlist(view_size: usize, rotation_interval: usize, wlist_ttl: usize) -> Self {
        assert!(wlist_ttl > 0, "wlist TTL must be positive to enable it");
        let cfg = Self {
            wlist_ttl,
            ..Self::for_view(view_size, rotation_interval)
        };
        cfg.validate();
        cfg
    }

    /// Checks parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics when any size is zero or `rotation_count` exceeds the view.
    pub(crate) fn validate(&self) {
        assert!(self.view_size > 0, "BASALT view size must be positive");
        assert!(
            self.rotation_count > 0 && self.rotation_count <= self.view_size,
            "rotation count must be in 1..=view_size"
        );
        assert!(self.push_count > 0, "push count must be positive");
        assert!(self.pull_count > 0, "pull count must be positive");
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
        let cfg = BasaltConfig::for_view(16, 30);
        assert_eq!(cfg.push_count, 6); // round(0.4·16) = α·l1 at l1=16
        assert_eq!(cfg.pull_count, 6);
        assert_eq!(cfg.rotation_count, 1);
        assert_eq!(cfg.rotation_interval, 30);
    }

    #[test]
    fn tiny_views_keep_positive_fanout() {
        let cfg = BasaltConfig::for_view(1, 0);
        assert_eq!(cfg.push_count, 1);
        assert_eq!(cfg.rotation_count, 1);
        assert_eq!(BasaltConfig::for_view(20, 30).rotation_count, 2);
    }

    #[test]
    #[should_panic(expected = "view size must be positive")]
    fn zero_view_rejected() {
        BasaltConfig::for_view(0, 10);
    }

    #[test]
    #[should_panic(expected = "rotation count")]
    fn oversized_rotation_rejected() {
        BasaltConfig {
            rotation_count: 5,
            ..BasaltConfig::for_view(4, 10)
        }
        .validate();
    }

    #[test]
    fn wlist_defaults_off_and_builder_enables() {
        let plain = BasaltConfig::for_view(16, 30);
        assert_eq!(plain.wlist_ttl, 0, "legacy configs keep the wlist off");
        let hardened = BasaltConfig::with_wlist(16, 30, 8);
        assert_eq!(hardened.wlist_ttl, 8);
        assert_eq!(
            hardened.wlist_probe, hardened.push_count,
            "hearsay admission is rate-limited to the push budget"
        );
        assert_eq!(
            BasaltConfig {
                wlist_ttl: 0,
                ..hardened
            },
            plain,
            "with_wlist only flips the TTL"
        );
    }

    #[test]
    #[should_panic(expected = "wlist TTL must be positive")]
    fn zero_ttl_builder_rejected() {
        BasaltConfig::with_wlist(16, 30, 0);
    }

    #[test]
    #[should_panic(expected = "probe budget")]
    fn enabled_wlist_without_probe_rejected() {
        BasaltConfig {
            wlist_ttl: 5,
            wlist_probe: 0,
            ..BasaltConfig::for_view(8, 0)
        }
        .validate();
    }
}
