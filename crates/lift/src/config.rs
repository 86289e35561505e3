//! LIFT protocol parameters.

use crate::table;

/// Parameters of a LIFT node.
///
/// The defaults mirror the message budget of the Brahms/RAPTEE and
/// BASALT scenarios so head-to-head comparisons spend the same
/// bandwidth: `push_count` and `pull_count` are both `round(0.4·v)` —
/// the `α·l1`/`β·l1` split `BrahmsConfig` uses at equal view sizes (and
/// therefore the same per-identity rate-limiter budget).
///
/// # Examples
///
/// ```
/// use raptee_lift::LiftConfig;
/// let cfg = LiftConfig::for_view(20, 30);
/// assert_eq!(cfg.view_size, 20);
/// assert_eq!(cfg.push_count, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiftConfig {
    /// Number of view slots `v`.
    pub view_size: usize,
    /// Rounds between hub-score fades (each fade halves every counter);
    /// `0` disables fading, making scores monotone forever.
    pub(crate) fade_interval: usize,
    /// Push messages sent per round (own ID advertised to view peers).
    pub push_count: usize,
    /// Pull (exchange) requests sent per round, aimed at the
    /// lowest-score — least hub-like — view members.
    pub(crate) pull_count: usize,
    /// Maximum tracked hub-score counters, view members included.
    /// Estimation state stays bounded regardless of how many IDs gossip
    /// mentions: once full, the coldest off-view counter is evicted, so
    /// the table must have room for at least one beyond the view.
    pub(crate) score_capacity: usize,
}

impl LiftConfig {
    /// The largest view [`for_view`](Self::for_view) accepts: its score
    /// table's index (two slots per tracked ID, a power of two in all)
    /// must stay addressable by 15-bit entries.
    pub const MAX_VIEW_SIZE: usize = 2047;

    /// Brahms-budget-parity configuration for a view of `view_size`
    /// slots, fading hub scores every `fade_interval` rounds.
    pub fn for_view(view_size: usize, fade_interval: usize) -> Self {
        let fanout = ((0.4 * view_size as f64).round() as usize).max(1);
        let cfg = Self {
            view_size,
            fade_interval,
            push_count: fanout,
            pull_count: fanout,
            score_capacity: (view_size * 8).max(64),
        };
        cfg.validate();
        cfg
    }

    /// Checks parameter consistency.
    ///
    /// # Panics
    ///
    /// Panics when any size is zero, the score table cannot hold the
    /// view plus one off-view counter, or its index would outgrow
    /// [`table::MAX_INDEX_SLOTS`](crate::table::MAX_INDEX_SLOTS).
    pub(crate) fn validate(&self) {
        assert!(self.view_size > 0, "LIFT view size must be positive");
        assert!(self.push_count > 0, "push count must be positive");
        assert!(self.pull_count > 0, "pull count must be positive");
        assert!(
            self.score_capacity > self.view_size,
            "score capacity must exceed the view: a full view needs an off-view counter to evict"
        );
        assert!(
            table::index_slots(self.score_capacity) <= table::MAX_INDEX_SLOTS,
            "score capacity {} outgrows the table's index",
            self.score_capacity
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_view_matches_brahms_budget() {
        let cfg = LiftConfig::for_view(16, 30);
        assert_eq!(cfg.push_count, 6); // round(0.4·16) = α·l1 at l1=16
        assert_eq!(cfg.pull_count, 6);
        assert_eq!(cfg.fade_interval, 30);
        assert!(cfg.score_capacity >= 16);
    }

    #[test]
    fn tiny_views_keep_positive_fanout() {
        let cfg = LiftConfig::for_view(1, 0);
        assert_eq!(cfg.push_count, 1);
        assert_eq!(cfg.pull_count, 1);
    }

    #[test]
    fn the_largest_view_fits_the_index() {
        let cfg = LiftConfig::for_view(LiftConfig::MAX_VIEW_SIZE, 0);
        assert_eq!(
            table::index_slots(cfg.score_capacity),
            table::MAX_INDEX_SLOTS
        );
    }

    #[test]
    #[should_panic(expected = "outgrows the table's index")]
    fn views_past_the_largest_rejected() {
        LiftConfig::for_view(LiftConfig::MAX_VIEW_SIZE + 1, 0);
    }

    #[test]
    #[should_panic(expected = "view size must be positive")]
    fn zero_view_rejected() {
        LiftConfig::for_view(0, 10);
    }

    #[test]
    #[should_panic(expected = "score capacity")]
    fn undersized_score_table_rejected() {
        LiftConfig {
            score_capacity: 4,
            ..LiftConfig::for_view(8, 0)
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "score capacity must exceed the view")]
    fn view_sized_score_table_rejected() {
        LiftConfig {
            score_capacity: 8,
            ..LiftConfig::for_view(8, 0)
        }
        .validate();
    }
}
