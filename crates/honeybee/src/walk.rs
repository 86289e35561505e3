//! Hash-committed random-walk transcripts.
//!
//! A Honeybee walk is a chain of pull exchanges. The walker records each
//! step — who answered and what IDs they offered — under a running
//! SHA-256 commitment, and **the commitment itself chooses the next
//! hop**: hop `k+1` is `answers[commit_k mod |answers|]`. Neither the
//! walker nor any responder can steer the walk without changing the
//! digests, so a transcript is *verifiable*: replaying the chain from
//! the origin checks both that every recorded commitment matches the
//! recorded data and that every hop actually taken was the committed
//! choice. Tampering with any single step — responder, answer set, or
//! stored digest — breaks the chain from that step onward.

use raptee_crypto::sha256::{Digest, Sha256};
use raptee_net::NodeId;

/// One recorded walk step: `responder` answered with `answers`, folding
/// the exchange into the running commitment `commit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalkStep {
    /// The peer that answered this step's pull (the hop being visited).
    pub(crate) responder: NodeId,
    /// The IDs the responder offered (its view at answer time).
    pub(crate) answers: Vec<NodeId>,
    /// Running commitment after folding this step in:
    /// `H(prev_commit ‖ responder ‖ answers)`.
    pub(crate) commit: Digest,
}

/// A verifiable walk transcript: origin, nonce and the committed steps.
///
/// # Examples
///
/// ```
/// use raptee_honeybee::WalkTranscript;
/// use raptee_net::NodeId;
///
/// let mut t = WalkTranscript::new(NodeId(1), 42);
/// t.extend(NodeId(7), &[NodeId(3), NodeId(9)]);
/// assert!(t.verify());
/// assert!(t.next_hop().is_some());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkTranscript {
    /// The walking node.
    pub(crate) origin: NodeId,
    /// Per-walk nonce: distinct walks from one origin commit differently
    /// even over identical answers.
    pub(crate) nonce: u64,
    /// The committed steps, oldest first.
    pub(crate) steps: Vec<WalkStep>,
}

/// `H("honeybee-walk" ‖ origin ‖ nonce)` — the chain's genesis digest.
fn seed_commit(origin: NodeId, nonce: u64) -> Digest {
    let mut h = Sha256::new();
    h.update(b"honeybee-walk");
    h.update(&origin.to_bytes());
    h.update(&nonce.to_le_bytes());
    h.finalize()
}

/// `H(prev ‖ responder ‖ answers)` — one chain link.
fn step_commit(prev: &Digest, responder: NodeId, answers: &[NodeId]) -> Digest {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(&responder.to_bytes());
    for id in answers {
        h.update(&id.to_bytes());
    }
    h.finalize()
}

/// The committed hop choice: `answers[commit mod |answers|]`.
fn committed_choice(commit: &Digest, answers: &[NodeId]) -> Option<NodeId> {
    if answers.is_empty() {
        return None;
    }
    let draw = u64::from_le_bytes(commit[..8].try_into().expect("digest holds 8 bytes"));
    Some(answers[(draw % answers.len() as u64) as usize])
}

impl WalkTranscript {
    /// An empty transcript for a walk `origin` starts under `nonce`.
    pub fn new(origin: NodeId, nonce: u64) -> Self {
        Self {
            origin,
            nonce,
            steps: Vec::new(),
        }
    }

    /// Hops recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.steps.len()
    }

    /// The current head of the commitment chain.
    pub(crate) fn head_commit(&self) -> Digest {
        self.steps
            .last()
            .map(|s| s.commit)
            .unwrap_or_else(|| seed_commit(self.origin, self.nonce))
    }

    /// Folds one exchange into the chain: `responder` answered with
    /// `answers`.
    pub fn extend(&mut self, responder: NodeId, answers: &[NodeId]) {
        let commit = step_commit(&self.head_commit(), responder, answers);
        self.steps.push(WalkStep {
            responder,
            answers: answers.to_vec(),
            commit,
        });
    }

    /// The hop the chain head commits the walk to take next (`None`
    /// before the first step or after an empty answer).
    pub fn next_hop(&self) -> Option<NodeId> {
        let last = self.steps.last()?;
        committed_choice(&last.commit, &last.answers)
    }

    /// The walk's sample: the hop committed by the final step.
    pub(crate) fn endpoint(&self) -> Option<NodeId> {
        self.next_hop()
    }

    /// Replays the whole chain from the origin: every stored commitment
    /// must match the recomputed one, and every visited responder (from
    /// step 2 on) must be exactly the hop the previous step committed
    /// to. Any single tampered step — responder, answer set or digest —
    /// fails verification.
    pub fn verify(&self) -> bool {
        let mut prev = seed_commit(self.origin, self.nonce);
        let mut committed_next: Option<NodeId> = None;
        for step in &self.steps {
            if let Some(expected) = committed_next {
                if step.responder != expected {
                    return false; // walker strayed from the committed hop
                }
            }
            if step_commit(&prev, step.responder, &step.answers) != step.commit {
                return false; // recorded digest does not match the data
            }
            committed_next = committed_choice(&step.commit, &step.answers);
            prev = step.commit;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    /// An honest walk: each step's responder is the previous committed
    /// hop.
    fn honest_walk(hops: usize) -> WalkTranscript {
        let mut t = WalkTranscript::new(NodeId(1), 42);
        let mut next = NodeId(7);
        for k in 0..hops {
            let answers = ids(10 * (k as u64 + 1)..10 * (k as u64 + 1) + 5);
            t.extend(next, &answers);
            next = t.next_hop().expect("non-empty answers commit a hop");
        }
        t
    }

    #[test]
    fn honest_walks_verify() {
        for hops in 1..6 {
            let t = honest_walk(hops);
            assert_eq!(t.len(), hops);
            assert!(t.verify());
            assert!(t.endpoint().is_some());
        }
    }

    /// Pinned at the commit before the hardware compress kernel: a wrong
    /// kernel on some future CPU fails here by name.
    #[test]
    fn pinned_five_hop_head_commit() {
        assert_eq!(
            raptee_crypto::sha256::to_hex(&honest_walk(5).head_commit()),
            "1ca673024d5441140ad4450c11b1a1cbb28195c333abe1ce0285a3646a185ee1"
        );
    }

    #[test]
    fn empty_transcript_verifies_trivially() {
        let t = WalkTranscript::new(NodeId(1), 0);
        assert!(t.verify());
        assert_eq!(t.endpoint(), None);
    }

    #[test]
    fn tampered_answer_set_fails() {
        let mut t = honest_walk(4);
        t.steps[1].answers[0] = NodeId(999_999);
        assert!(!t.verify());
    }

    #[test]
    fn tampered_responder_fails() {
        let mut t = honest_walk(4);
        t.steps[2].responder = NodeId(999_999);
        assert!(!t.verify());
    }

    #[test]
    fn tampered_digest_fails() {
        let mut t = honest_walk(4);
        t.steps[3].commit[0] ^= 1;
        assert!(!t.verify());
    }

    #[test]
    fn swapped_nonce_fails() {
        let mut t = honest_walk(3);
        t.nonce ^= 1;
        assert!(!t.verify(), "the chain is rooted in origin and nonce");
    }

    #[test]
    fn off_committed_path_fails() {
        // Recompute digests consistently but visit the *wrong* hop at
        // step 2: the chain itself is well-formed, yet the walk strayed
        // from what step 1 committed to.
        let mut t = WalkTranscript::new(NodeId(1), 42);
        t.extend(NodeId(7), &ids(10..15));
        let committed = t.next_hop().unwrap();
        let stray = ids(10..15).into_iter().find(|&i| i != committed).unwrap();
        t.extend(stray, &ids(20..25));
        assert!(!t.verify());
    }

    #[test]
    fn distinct_nonces_commit_differently() {
        let a = WalkTranscript::new(NodeId(1), 1).head_commit();
        let b = WalkTranscript::new(NodeId(1), 2).head_commit();
        assert_ne!(a, b);
    }
}
