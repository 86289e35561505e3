//! The round plan every gossip protocol draws.

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
