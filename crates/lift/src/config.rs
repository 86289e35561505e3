//! LIFT protocol parameters.

use crate::table;
use raptee_net::parity_fanout;

/// Parameters of a LIFT node.
///
/// The defaults mirror the message budget of the Brahms/RAPTEE and
/// BASALT scenarios so head-to-head comparisons spend the same
/// bandwidth: the node pushes and pulls [`parity_fanout`] peers per
/// round — the `α·l1`/`β·l1` split `BrahmsConfig` uses at equal view
/// sizes (and therefore the same per-identity rate-limiter budget).
///
/// # Examples
///
/// ```
/// use raptee_lift::LiftConfig;
/// let cfg = LiftConfig::for_view(20, 30);
/// assert_eq!(cfg.view_size, 20);
/// assert_eq!(cfg.fanout(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiftConfig {
    /// Number of view slots `v`.
    pub view_size: usize,
    /// Rounds between hub-score fades (each fade halves every counter);
    /// `0` disables fading, making scores monotone forever.
    pub(crate) fade_interval: usize,
    /// Maximum tracked hub-score counters, view members included.
    /// Estimation state stays bounded regardless of how many IDs gossip
    /// mentions: once full, the coldest off-view counter is evicted, so
    /// the table must have room for at least one beyond the view.
    pub(crate) score_capacity: usize,
}

impl LiftConfig {
    /// The largest view [`LiftConfig::validate`] accepts from
    /// [`for_view`](Self::for_view): its score table's index (two slots
    /// per tracked ID, a power of two in all) must stay addressable by
    /// 15-bit entries.
    pub const MAX_VIEW_SIZE: usize = 2047;

    /// Brahms-budget-parity configuration for a view of `view_size`
    /// slots, fading hub scores every `fade_interval` rounds. Not
    /// validated: [`LiftConfig::validate`] reports a broken rule, and
    /// the node constructor panics with it.
    pub fn for_view(view_size: usize, fade_interval: usize) -> Self {
        Self {
            view_size,
            fade_interval,
            score_capacity: view_size.saturating_mul(8).max(64),
        }
    }

    /// Pushes (own ID advertised to view peers) and pulls (aimed at the
    /// lowest-score — least hub-like — view members) per round:
    /// [`parity_fanout`] of the view, at least 1.
    pub fn fanout(&self) -> usize {
        parity_fanout(self.view_size)
    }

    /// Checks parameter consistency, returning the first broken rule:
    /// the view must be positive, and the score table's index must fit
    /// its 15-bit entries (views up to [`LiftConfig::MAX_VIEW_SIZE`]) yet
    /// the table hold the view plus one off-view counter.
    pub fn validate(&self) -> Result<(), &'static str> {
        const _: () = assert!(LiftConfig::MAX_VIEW_SIZE == 2047); // the reason below names it
        if self.view_size == 0 {
            return Err("LIFT view size must be positive");
        }
        // `index_slots(c) <= MAX_INDEX_SLOTS`: both are powers of two, so
        // it is `2·(c + 1) <= MAX_INDEX_SLOTS`, written so that no
        // capacity overflows it.
        if self.score_capacity >= table::MAX_INDEX_SLOTS / 2 {
            return Err("LIFT views above 2047 outgrow the score table's index");
        }
        if self.score_capacity <= self.view_size {
            return Err(
                "score capacity must exceed the view: a full view needs an off-view counter to evict",
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_view_matches_brahms_budget() {
        let cfg = LiftConfig::for_view(16, 30);
        assert_eq!(cfg.fanout(), 6); // round(0.4·16) = α·l1 at l1=16
        assert_eq!(cfg.fade_interval, 30);
        assert!(cfg.score_capacity >= 16);
    }

    #[test]
    fn tiny_views_keep_positive_fanout() {
        assert_eq!(LiftConfig::for_view(1, 0).fanout(), 1);
    }

    #[test]
    fn the_largest_view_fits_the_index() {
        let cfg = LiftConfig::for_view(LiftConfig::MAX_VIEW_SIZE, 0);
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(
            table::index_slots(cfg.score_capacity),
            table::MAX_INDEX_SLOTS
        );
    }

    #[test]
    fn views_past_the_largest_rejected() {
        for view in [LiftConfig::MAX_VIEW_SIZE + 1, usize::MAX] {
            let reason = LiftConfig::for_view(view, 0).validate().unwrap_err();
            let max = LiftConfig::MAX_VIEW_SIZE;
            assert_eq!(
                reason,
                format!("LIFT views above {max} outgrow the score table's index"),
                "{view}"
            );
        }
    }

    #[test]
    fn zero_view_rejected() {
        assert_eq!(
            LiftConfig::for_view(0, 10).validate(),
            Err("LIFT view size must be positive")
        );
    }

    #[test]
    fn undersized_score_table_rejected() {
        let cfg = LiftConfig {
            score_capacity: 4,
            ..LiftConfig::for_view(8, 0)
        };
        assert!(cfg.validate().unwrap_err().starts_with("score capacity"));
    }

    #[test]
    fn view_sized_score_table_rejected() {
        let cfg = LiftConfig {
            score_capacity: 8,
            ..LiftConfig::for_view(8, 0)
        };
        assert!(cfg
            .validate()
            .unwrap_err()
            .starts_with("score capacity must exceed the view"));
    }
}
