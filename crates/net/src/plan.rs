//! The round plan every gossip protocol draws, and its parity fanout.

use crate::NodeId;

/// The send targets a node chose for the current round: Brahms (and
/// RAPTEE over it) and BASALT alike plan one push list and one pull
/// list per round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundPlan {
    /// Destinations of push messages (the node's own ID is the payload).
    pub push_targets: Vec<NodeId>,
    /// Destinations of pull requests.
    pub pull_targets: Vec<NodeId>,
}

/// The Brahms-parity fanout of a view of `view_size` slots:
/// `round(0.4·v)`, at least 1 — Brahms' `α·l1 = β·l1` pushes and pulls
/// at the paper's `γ = 0.2`, so a comparison family (BASALT, LIFT,
/// Honeybee) spending it per round matches Brahms' message and
/// rate-limiter budget at equal view sizes.
///
/// ```
/// assert_eq!(raptee_net::parity_fanout(200), 80); // α·l1 at l1 = 200
/// ```
pub fn parity_fanout(view_size: usize) -> usize {
    ((0.4 * view_size as f64).round() as usize).max(1)
}
