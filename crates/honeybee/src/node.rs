//! The Honeybee node state machine.
//!
//! One protocol round, driven by the caller exactly like the Brahms,
//! BASALT and LIFT state machines so all of them slot into the same
//! engine:
//!
//! ```text
//! node.plan_round_into(&mut pushes, &mut pulls)
//! ... deliver pushes (rate-limited) → receiver.record_push(sender)
//! ... answer pulls: responder.pull_answer_into(&mut reply)
//!                 → requester.record_pull_answer(responder, &reply)
//! report = node.finish_round()        // walk timeouts
//! ```
//!
//! Every pull this node issues is one step of a **verifiable random
//! walk** ([`WalkTranscript`]): the answer is folded into a SHA-256
//! commitment chain, and the chain head picks the next hop. A walk that
//! reaches `walk_length` hops is replayed end-to-end; a verified
//! endpoint is the protocol's unbiased sample, quarantined on the
//! shared BASALT waiting list ([`WaitingList`]) until a direct probe
//! confirms it is reachable. A transcript that fails verification
//! convicts its final responder — the node quarantines the peer and
//! discards the walk.

use crate::config::HoneybeeConfig;
use crate::walk::WalkTranscript;
use raptee_basalt::wlist::{WaitingList, WlistReport};
use raptee_net::NodeId;
use raptee_util::rng::Xoshiro256StarStar;

/// What happened when a round was finalised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HoneybeeRoundReport {
    /// Walks that reached full length and verified this round.
    pub(crate) completed: usize,
    /// Walks rejected this round (transcript verification failed).
    pub(crate) rejected: usize,
    /// Walks abandoned this round (frontier never answered in time).
    pub(crate) expired: usize,
}

/// One in-flight walk: its committed transcript, the hop currently
/// being pulled, and the round the frontier was last advanced.
#[derive(Debug, Clone)]
struct ActiveWalk {
    transcript: WalkTranscript,
    frontier: NodeId,
    last_progress: u64,
}

/// A Honeybee node: bounded view + in-flight verifiable walks +
/// endpoint quarantine + deterministic RNG.
///
/// # Examples
///
/// ```
/// use raptee_honeybee::{HoneybeeConfig, HoneybeeNode};
/// use raptee_net::NodeId;
///
/// let cfg = HoneybeeConfig::for_view(10, 3);
/// let bootstrap: Vec<NodeId> = (1..=10).map(NodeId).collect();
/// let mut node = HoneybeeNode::new(NodeId(0), cfg, &bootstrap, 42);
/// let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
/// node.plan_round_into(&mut pushes, &mut pulls);
/// assert_eq!(pushes.len(), cfg.fanout());
/// assert!(!pulls.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct HoneybeeNode {
    id: NodeId,
    config: HoneybeeConfig,
    rng: Xoshiro256StarStar,
    rounds: u64,
    /// The current view: up to `view_size` distinct IDs. Admission is
    /// reservoir-style — verified (and probed) walk endpoints replace a
    /// uniform slot, keeping the view a sample of endpoints.
    view: Vec<NodeId>,
    /// In-flight walks, at most `fanout` of them.
    walks: Vec<ActiveWalk>,
    /// Quarantine for verified endpoints (and push hearsay) awaiting a
    /// reachability probe — the shared BASALT waiting list.
    wlist: WaitingList,
    /// Endpoints that cleared quarantine and await view admission (the
    /// wlist drain callback cannot reach the RNG, so admission is
    /// two-phase: collect here, admit in [`HoneybeeNode::finish_round`]).
    admitted_pending: Vec<NodeId>,
    completed_this_round: usize,
    rejected_this_round: usize,
}

impl HoneybeeNode {
    /// Creates a node whose view starts as (up to `view_size` of) the
    /// bootstrap sample.
    ///
    /// # Panics
    ///
    /// Panics with the broken rule when [`HoneybeeConfig::validate`]
    /// rejects `config`; call it first to get the rule as a value.
    pub fn new(id: NodeId, config: HoneybeeConfig, bootstrap: &[NodeId], seed: u64) -> Self {
        if let Err(rule) = config.validate() {
            panic!("{rule}");
        }
        let mut node = Self {
            id,
            config,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            rounds: 0,
            view: Vec::with_capacity(config.view_size),
            walks: Vec::new(),
            wlist: WaitingList::new(config.timeout(), config.fanout()),
            admitted_pending: Vec::new(),
            completed_this_round: 0,
            rejected_this_round: 0,
        };
        for &b in bootstrap {
            node.admit(b);
        }
        node
    }

    /// The protocol parameters.
    pub fn config(&self) -> &HoneybeeConfig {
        &self.config
    }

    /// The current view.
    pub fn view(&self) -> &[NodeId] {
        &self.view
    }

    /// Records an incoming push. A push is unverified hearsay — it goes
    /// to the quarantine, never straight into the view.
    pub fn record_push(&mut self, advertised: NodeId) {
        self.wlist.enqueue(self.id, advertised, self.rounds);
    }

    /// Answers a pull request: the current view, into a caller-owned
    /// buffer (cleared first) — the engine's pull loop reuses one reply
    /// buffer for the whole round.
    pub fn pull_answer_into(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(&self.view);
    }

    /// Records a pull answer, advancing the walk whose frontier is
    /// `responder`: the answer is folded into the transcript's
    /// commitment chain and the chain head picks the next hop. A walk
    /// reaching full length is replayed ([`WalkTranscript::verify`]);
    /// its endpoint is quarantined for probing on success, its final
    /// responder quarantined as a peer on failure. Answers matching no
    /// walk (stale or duplicate) are treated as push hearsay from the
    /// responder.
    pub fn record_pull_answer(&mut self, responder: NodeId, ids: &[NodeId]) {
        let Some(pos) = self.walks.iter().position(|w| w.frontier == responder) else {
            self.record_push(responder);
            return;
        };
        if ids.is_empty() {
            self.walks.remove(pos); // dead end: nothing to hop to
            return;
        }
        let walk = &mut self.walks[pos];
        walk.transcript.extend(responder, ids);
        walk.last_progress = self.rounds;
        if walk.transcript.len() < self.config.walk_length {
            walk.frontier = walk
                .transcript
                .next_hop()
                .expect("non-empty answers commit a hop");
            return;
        }
        let walk = self.walks.remove(pos);
        if walk.transcript.verify() {
            self.completed_this_round += 1;
            let endpoint = walk
                .transcript
                .endpoint()
                .expect("full-length transcripts have an endpoint");
            self.wlist.enqueue(self.id, endpoint, self.rounds);
        } else {
            self.rejected_this_round += 1;
            self.quarantine(responder);
        }
    }

    /// Chooses this round's targets into caller-owned buffers (cleared
    /// and refilled): `fanout` uniform view draws, and one pull per
    /// walk — in-flight frontiers first, then fresh walks (origin-bound
    /// nonce from the node RNG) started from uniform view members until
    /// the `fanout` budget is spent.
    pub fn plan_round_into(&mut self, pushes: &mut Vec<NodeId>, pulls: &mut Vec<NodeId>) {
        pushes.clear();
        pulls.clear();
        if self.view.is_empty() && self.walks.is_empty() {
            return;
        }
        let fanout = self.config.fanout();
        if !self.view.is_empty() {
            for _ in 0..fanout {
                pushes.push(self.view[self.rng.index(self.view.len())]);
            }
        }
        for walk in self.walks.iter().take(fanout) {
            pulls.push(walk.frontier);
        }
        while pulls.len() < fanout && !self.view.is_empty() {
            let start = self.view[self.rng.index(self.view.len())];
            let nonce = self.rng.next_u64();
            self.walks.push(ActiveWalk {
                transcript: WalkTranscript::new(self.id, nonce),
                frontier: start,
                last_progress: self.rounds,
            });
            pulls.push(start);
        }
    }

    /// Probes quarantined candidates (walk endpoints and push hearsay):
    /// up to `fanout` contact attempts, `is_alive` deciding
    /// success. Reachable candidates are staged for view admission at
    /// the next [`HoneybeeNode::finish_round`].
    pub fn drain_wlist(&mut self, is_alive: impl FnMut(NodeId) -> bool) -> WlistReport {
        let pending = &mut self.admitted_pending;
        self.wlist.drain(self.rounds, is_alive, |id| {
            pending.push(id);
        })
    }

    /// Quarantines `id` as a peer: evicts it from the view, purges its
    /// pending wlist/admission entries, and abandons every walk that
    /// passed through it (its transcript is tainted evidence). Returns
    /// the number of view slots vacated.
    pub fn quarantine(&mut self, id: NodeId) -> usize {
        self.wlist.purge(id);
        self.admitted_pending.retain(|&p| p != id);
        self.walks
            .retain(|w| w.frontier != id && !w.transcript.steps.iter().any(|s| s.responder == id));
        let before = self.view.len();
        self.view.retain(|&v| v != id);
        before - self.view.len()
    }

    /// Finalises the round: admits probed endpoints into the view,
    /// abandons timed-out walks, and reports this round's walk totals.
    pub fn finish_round(&mut self) -> HoneybeeRoundReport {
        self.rounds += 1;
        while let Some(id) = self.admitted_pending.pop() {
            self.admit(id);
        }
        let timeout = self.config.timeout() as u64;
        let now = self.rounds;
        let before = self.walks.len();
        self.walks.retain(|w| now - w.last_progress < timeout);
        let expired = before - self.walks.len();
        let report = HoneybeeRoundReport {
            completed: self.completed_this_round,
            rejected: self.rejected_this_round,
            expired,
        };
        self.completed_this_round = 0;
        self.rejected_this_round = 0;
        report
    }

    /// Cold rejoin after a crash–restart: fresh RNG, view, walks and
    /// quarantine, re-bootstrapped from `bootstrap` — only identity and
    /// the round counter survive.
    pub fn rejoin_cold(&mut self, bootstrap: &[NodeId], seed: u64) {
        self.rng = Xoshiro256StarStar::seed_from_u64(seed);
        self.view.clear();
        self.walks.clear();
        self.wlist.clear();
        self.admitted_pending.clear();
        self.completed_this_round = 0;
        self.rejected_this_round = 0;
        for &b in bootstrap {
            self.admit(b);
        }
    }

    /// Warm rejoin after a crash–restart: the view survives, but every
    /// in-flight walk and unverified quarantine entry is stale evidence
    /// and is discarded. Returns the number of walks abandoned.
    pub fn rejoin_warm(&mut self) -> usize {
        let dropped = self.walks.len();
        self.walks.clear();
        self.wlist.clear();
        self.admitted_pending.clear();
        self.completed_this_round = 0;
        self.rejected_this_round = 0;
        dropped
    }

    /// Reservoir-style view admission: dedup, fill while below capacity,
    /// then replace a uniform slot.
    fn admit(&mut self, id: NodeId) {
        if id == self.id || self.view.contains(&id) {
            return;
        }
        if self.view.len() < self.config.view_size {
            self.view.push(id);
            return;
        }
        let slot = self.rng.index(self.view.len());
        self.view[slot] = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn node(view: usize, walk: usize) -> HoneybeeNode {
        HoneybeeNode::new(
            NodeId(0),
            HoneybeeConfig::for_view(view, walk),
            &ids(1..40),
            7,
        )
    }

    #[test]
    fn bootstrap_fills_view() {
        let n = node(10, 3);
        assert_eq!(n.view().len(), 10);
    }

    #[test]
    fn empty_bootstrap_plans_nothing() {
        let mut n = HoneybeeNode::new(NodeId(0), HoneybeeConfig::for_view(10, 3), &[], 7);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        assert!(pushes.is_empty());
        assert!(pulls.is_empty());
    }

    #[test]
    fn planning_starts_walks() {
        let mut n = node(10, 3);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        assert_eq!(pushes.len(), 4); // round(0.4·10)
        assert_eq!(pulls.len(), 4);
        assert_eq!(n.walks.len(), 4, "each pull slot carries a walk");
        for t in &pulls {
            assert!(n.view.contains(t), "fresh walks start at view members");
        }
    }

    /// One slot is a valid Honeybee view, unlike a Brahms one (`α·l1`
    /// rounds to 0 there): it pushes to its one member and starts one
    /// walk there.
    #[test]
    fn a_one_slot_view_plans_one_push_and_one_walk() {
        let mut n = node(1, 3);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        assert_eq!(pushes, n.view());
        assert_eq!(pulls, n.view());
        assert_eq!(n.walks.len(), 1);
    }

    /// Drives `n` for one round against an honest oracle in which every
    /// node answers with `answer`.
    fn run_round(n: &mut HoneybeeNode, answer: &[NodeId]) -> HoneybeeRoundReport {
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        for responder in pulls {
            n.record_pull_answer(responder, answer);
        }
        n.drain_wlist(|_| true);
        n.finish_round()
    }

    #[test]
    fn walks_complete_and_endpoints_are_admitted() {
        let mut n = node(10, 3);
        let answer = ids(100..110);
        let (mut completed, mut rejected) = (0, 0);
        for _ in 0..20 {
            let report = run_round(&mut n, &answer);
            completed += report.completed;
            rejected += report.rejected;
        }
        assert!(completed > 0, "3-hop walks finish within 20 rounds");
        assert_eq!(rejected, 0, "honest answers always verify");
        // Verified, probed endpoints (members of the answer set) made it
        // into the view.
        assert!(
            n.view().iter().any(|id| (100..110).contains(&id.0)),
            "endpoints reach the view through the quarantine"
        );
    }

    #[test]
    fn unprobed_endpoints_stay_out_of_the_view() {
        let mut n = node(10, 1); // 1-hop walks verify immediately
        let answer = ids(100..110);
        for _ in 0..10 {
            let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
            n.plan_round_into(&mut pushes, &mut pulls);
            for responder in pulls {
                n.record_pull_answer(responder, &answer);
            }
            n.drain_wlist(|_| false); // every probe fails
            n.finish_round();
        }
        assert!(
            !n.view().iter().any(|id| (100..110).contains(&id.0)),
            "unreachable endpoints are never admitted"
        );
    }

    #[test]
    fn pushes_are_quarantined_hearsay() {
        let mut n = node(10, 3);
        n.record_push(NodeId(500));
        assert!(!n.view.contains(&NodeId(500)));
        assert_eq!(n.wlist.len(), 1);
        n.drain_wlist(|_| true);
        n.finish_round();
        assert!(n.view.contains(&NodeId(500)), "probed hearsay is admitted");
    }

    #[test]
    fn dead_end_answers_abort_the_walk() {
        let mut n = node(10, 3);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        let walks = n.walks.len();
        n.record_pull_answer(pulls[0], &[]);
        assert_eq!(n.walks.len(), walks - 1);
    }

    #[test]
    fn stalled_walks_expire() {
        let mut n = node(10, 3);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        assert!(!n.walks.is_empty());
        let timeout = n.config().timeout();
        let mut expired = 0;
        for _ in 0..=timeout {
            // Never answer: frontiers stall until the timeout hits.
            expired += n.finish_round().expired;
        }
        assert!(expired > 0);
        assert_eq!(n.walks.len(), 0);
    }

    #[test]
    fn quarantine_drops_tainted_walks() {
        let mut n = node(10, 3);
        let answer = ids(100..110);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        let visited = pulls[0];
        n.record_pull_answer(visited, &answer);
        assert!(!n.walks.is_empty());
        n.quarantine(visited);
        assert!(
            !n.walks
                .iter()
                .any(|w| w.transcript.steps.iter().any(|s| s.responder == visited)),
            "walks through a convicted peer are discarded"
        );
        assert!(!n.view.contains(&visited));
    }

    #[test]
    fn cold_rejoin_matches_a_freshly_bootstrapped_node() {
        let mut n = node(10, 3);
        run_round(&mut n, &ids(100..110));
        let boot = ids(1000..1030);
        n.rejoin_cold(&boot, 31337);
        let mut fresh = HoneybeeNode::new(NodeId(0), *n.config(), &boot, 31337);
        assert_eq!(n.view(), fresh.view());
        assert_eq!(n.wlist.len(), 0);
        assert_eq!(n.walks.len(), 0);
        let (mut p1, mut q1, mut p2, mut q2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        n.plan_round_into(&mut p1, &mut q1);
        fresh.plan_round_into(&mut p2, &mut q2);
        assert_eq!((p1, q1), (p2, q2));
    }

    #[test]
    fn warm_rejoin_abandons_walks_but_keeps_the_view() {
        let mut n = node(10, 3);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        let view_before = n.view().to_vec();
        let dropped = n.rejoin_warm();
        assert!(dropped > 0, "in-flight walks are stale evidence");
        assert_eq!(n.walks.len(), 0);
        assert_eq!(n.view(), view_before.as_slice());
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut n = node(10, 3);
            for _ in 0..10 {
                run_round(&mut n, &ids(100..120));
            }
            let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
            n.plan_round_into(&mut pushes, &mut pulls);
            (pushes, pulls, n.view().to_vec())
        };
        assert_eq!(mk(), mk());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::walk::WalkTranscript;
    use proptest::prelude::*;

    fn honest_walk(hops: usize, nonce: u64) -> WalkTranscript {
        let mut t = WalkTranscript::new(NodeId(1), nonce);
        let mut next = NodeId(7);
        for k in 0..hops {
            let answers: Vec<NodeId> = (0..5).map(|i| NodeId(10 * (k as u64 + 1) + i)).collect();
            t.extend(next, &answers);
            next = t.next_hop().expect("non-empty answers commit a hop");
        }
        t
    }

    proptest! {
        /// Any single tampered step — responder, one answer entry, or
        /// the stored digest — makes the transcript fail verification.
        #[test]
        fn single_step_tampering_is_always_detected(
            hops in 1usize..8,
            nonce in 0u64..10_000,
            step_sel in 0usize..8,
            field in 0usize..3,
            delta in 1u64..1_000_000,
        ) {
            let mut t = honest_walk(hops, nonce);
            prop_assert!(t.verify(), "honest transcripts verify");
            let step = step_sel % hops;
            match field {
                0 => t.steps[step].responder =
                    NodeId(t.steps[step].responder.0 ^ delta),
                1 => {
                    let slot = step_sel % t.steps[step].answers.len();
                    t.steps[step].answers[slot] =
                        NodeId(t.steps[step].answers[slot].0 ^ delta);
                }
                _ => t.steps[step].commit[(delta % 32) as usize] ^=
                    (delta % 255) as u8 + 1,
            }
            prop_assert!(!t.verify(), "tampered step {step} must be rejected");
        }

        /// The Honeybee view never exceeds its configured size, never
        /// holds duplicates, and never holds the node's own ID — under
        /// arbitrary push/answer interleavings.
        #[test]
        fn view_stays_distinct_and_bounded(
            events in proptest::collection::vec((0u64..200, 0u64..200), 0..200),
            seed in 0u64..10_000,
        ) {
            let mut n = HoneybeeNode::new(
                NodeId(0),
                HoneybeeConfig::for_view(8, 2),
                &(1..=8).map(NodeId).collect::<Vec<_>>(),
                seed,
            );
            let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
            for (a, b) in events {
                n.record_push(NodeId(a));
                n.plan_round_into(&mut pushes, &mut pulls);
                for responder in pulls.clone() {
                    n.record_pull_answer(responder, &[NodeId(b), NodeId(a)]);
                }
                n.drain_wlist(|id| id.0 % 3 != 0);
                n.finish_round();
            }
            prop_assert!(n.view().len() <= 8);
            let mut sorted = n.view().to_vec();
            sorted.sort_unstable();
            let mut dedup = sorted.clone();
            dedup.dedup();
            prop_assert_eq!(sorted, dedup);
            prop_assert!(!n.view.contains(&NodeId(0)));
        }
    }
}
