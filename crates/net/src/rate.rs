//! The "limited pushes" defence.
//!
//! Brahms (and therefore RAPTEE) *assumes* a mechanism that limits the
//! message-sending rate of nodes — "for example, via computational
//! challenges like Merkle's puzzles, virtual currency, etc." — so that an
//! adversary controlling a fraction `f` of nodes can emit at most a
//! proportional share of the system's total pushes per round. This module
//! implements that mechanism as an explicit per-identity, per-round token
//! budget. The simulation charges every push against it; pushes beyond
//! the budget are rejected exactly as an unsolved puzzle would be.

use crate::id::NodeId;

/// Per-round push budget enforcement.
///
/// # Examples
///
/// ```
/// use raptee_net::{PushRateLimiter, NodeId};
/// let mut rl = PushRateLimiter::new(10, 2);
/// assert!(rl.try_push(NodeId(3)));
/// assert!(rl.try_push(NodeId(3)));
/// assert!(!rl.try_push(NodeId(3)), "budget exhausted");
/// rl.next_round();
/// assert!(rl.try_push(NodeId(3)), "budget refreshed");
/// ```
#[derive(Debug, Clone)]
pub struct PushRateLimiter {
    budget_per_round: u32,
    used: Vec<u32>,
}

impl PushRateLimiter {
    /// Creates a limiter for `n` identities, each allowed
    /// `budget_per_round` pushes per round.
    pub fn new(n: usize, budget_per_round: u32) -> Self {
        Self {
            budget_per_round,
            used: vec![0; n],
        }
    }

    /// Attempts to charge one push to `sender`; returns `false` when the
    /// sender's budget for this round is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn try_push(&mut self, sender: NodeId) -> bool {
        let slot = &mut self.used[sender.index()];
        if *slot < self.budget_per_round {
            *slot += 1;
            true
        } else {
            false
        }
    }

    /// Attempts to charge `n` pushes to `sender` at once; returns how
    /// many were granted (the first `granted` of the batch — the rest
    /// are rejected, exactly as `n` sequential
    /// [`PushRateLimiter::try_push`] calls would).
    ///
    /// # Panics
    ///
    /// Panics if `sender` is out of range.
    pub fn try_push_n(&mut self, sender: NodeId, n: usize) -> usize {
        let slot = &mut self.used[sender.index()];
        let remaining = self.budget_per_round - *slot;
        let granted = remaining.min(u32::try_from(n).unwrap_or(u32::MAX));
        *slot += granted;
        granted as usize
    }

    /// Resets all budgets for the next round.
    pub fn next_round(&mut self) {
        self.used.iter_mut().for_each(|u| *u = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Remaining budget for `sender` this round.
    fn remaining(rl: &PushRateLimiter, sender: NodeId) -> u32 {
        rl.budget_per_round - rl.used[sender.index()]
    }

    #[test]
    fn budget_enforced_per_identity() {
        let mut rl = PushRateLimiter::new(3, 1);
        assert!(rl.try_push(NodeId(0)));
        assert!(!rl.try_push(NodeId(0)));
        // Other identities unaffected.
        assert!(rl.try_push(NodeId(1)));
        assert_eq!(remaining(&rl, NodeId(2)), 1);
    }

    #[test]
    fn round_reset() {
        let mut rl = PushRateLimiter::new(1, 2);
        assert!(rl.try_push(NodeId(0)));
        assert!(rl.try_push(NodeId(0)));
        assert_eq!(remaining(&rl, NodeId(0)), 0);
        rl.next_round();
        assert_eq!(remaining(&rl, NodeId(0)), 2);
    }

    #[test]
    fn batched_charge_matches_sequential() {
        let mut a = PushRateLimiter::new(2, 3);
        let mut b = PushRateLimiter::new(2, 3);
        // 5 pushes against a budget of 3: 3 granted, 2 rejected.
        let granted = a.try_push_n(NodeId(0), 5);
        let seq = (0..5).filter(|_| b.try_push(NodeId(0))).count();
        assert_eq!(granted, seq);
        assert_eq!(remaining(&a, NodeId(0)), remaining(&b, NodeId(0)));
        // Empty batch and post-exhaustion batch.
        assert_eq!(a.try_push_n(NodeId(0), 0), 0);
        assert_eq!(a.try_push_n(NodeId(0), 4), 0);
        assert_eq!(a.try_push_n(NodeId(1), 2), 2);
    }

    #[test]
    fn adversary_share_is_proportional() {
        // With n identities and budget b, an adversary owning k identities
        // can push at most k*b per round — the core of the defence.
        let n = 100;
        let byz = 20;
        let budget = 3;
        let mut rl = PushRateLimiter::new(n, budget);
        let mut adversary_pushes = 0;
        for id in 0..byz {
            // The adversary pushes greedily from each identity.
            for _ in 0..1000 {
                if rl.try_push(NodeId(id)) {
                    adversary_pushes += 1;
                }
            }
        }
        assert_eq!(adversary_pushes, byz as u32 * budget);
    }

    #[test]
    fn remaining_counts_down_with_each_charge() {
        let mut rl = PushRateLimiter::new(2, 4);
        assert_eq!(rl.budget_per_round, 4);
        assert_eq!(remaining(&rl, NodeId(1)), 4);
        rl.try_push(NodeId(1));
        assert_eq!(remaining(&rl, NodeId(1)), 3);
        rl.try_push_n(NodeId(1), 2);
        assert_eq!(remaining(&rl, NodeId(1)), 1);
        assert_eq!(remaining(&rl, NodeId(0)), 4);
    }

    #[test]
    fn a_huge_batch_is_granted_the_budget_and_rejects_the_rest() {
        let mut rl = PushRateLimiter::new(1, 5);
        let n = 1usize << 40;
        assert_eq!(rl.try_push_n(NodeId(0), n), 5);
        assert_eq!(remaining(&rl, NodeId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_unknown_sender_panics() {
        PushRateLimiter::new(2, 1).try_push(NodeId(2));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_unknown_sender_of_a_batch_panics() {
        PushRateLimiter::new(2, 1).try_push_n(NodeId(2), 1);
    }

    #[test]
    fn a_zero_budget_rejects_every_push() {
        let mut rl = PushRateLimiter::new(2, 0);
        assert!(!rl.try_push(NodeId(0)));
        assert_eq!(rl.try_push_n(NodeId(1), 10), 0);
        rl.next_round();
        assert!(!rl.try_push(NodeId(0)), "a new round grants nothing either");
    }

    #[test]
    fn a_rejected_push_is_rejected_until_the_round_ends() {
        let mut rl = PushRateLimiter::new(3, 2);
        for id in 0..3 {
            assert_eq!(rl.try_push_n(NodeId(id), 5), 2);
        }
        for _ in 0..3 {
            assert!((0..3).all(|id| !rl.try_push(NodeId(id))));
        }
        rl.next_round();
        assert!((0..3).all(|id| remaining(&rl, NodeId(id)) == 2));
        assert!((0..3).all(|id| rl.try_push(NodeId(id))));
    }
}
