//! The BASALT node state machine.
//!
//! One protocol round, as driven by the caller (simulation engine, test
//! or example) — mirroring the Brahms driver so the two protocols slot
//! into the same engine:
//!
//! ```text
//! node.plan_round_into(&mut plan)     // push targets + pull targets
//! ... deliver pushes (rate-limited) → receiver.record_push(sender)
//! ... answer pulls: responder.pull_answer_into(&mut ids)
//!                 → requester.record_pull_answer(responder, &ids)
//! report = node.finish_round()        // hit-counter upkeep + seed rotation
//! ```
//!
//! Unlike Brahms there is no view *renewal*: every observed candidate is
//! immediately ranked against every slot and the view is, at all times,
//! the per-slot distance minimum. The round boundary only exists for
//! exchange pacing and periodic seed rotation.

use crate::config::BasaltConfig;
use crate::view::BasaltView;
use crate::wlist::{WaitingList, WlistReport};
use raptee_crypto::SecretKey;
use raptee_net::{NodeId, RoundPlan};
use raptee_util::bitset::IdSet;
use raptee_util::rng::Xoshiro256StarStar;

/// What happened when a round was finalised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasaltRoundReport {
    /// Slots whose ranking seed was rotated this round.
    pub rotated: usize,
}

/// A BASALT node: ranked hit-counter view + deterministic RNG.
///
/// # Examples
///
/// ```
/// use raptee_basalt::{BasaltConfig, BasaltNode, BasaltPlan};
/// use raptee_net::NodeId;
///
/// let cfg = BasaltConfig::for_view(10, 30);
/// let bootstrap: Vec<NodeId> = (1..=10).map(NodeId).collect();
/// let mut node = BasaltNode::new(NodeId(0), cfg, &bootstrap, 42);
/// let mut plan = BasaltPlan::default();
/// node.plan_round_into(&mut plan);
/// assert_eq!(plan.push_targets.len(), cfg.fanout());
/// assert!(!plan.pull_targets.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct BasaltNode {
    id: NodeId,
    config: BasaltConfig,
    view: BasaltView,
    rng: Xoshiro256StarStar,
    rounds: u64,
    rotations: u64,
    /// The attested group key, present iff the node runs inside an
    /// attested enclave (the BASALT+TEE hybrid; see
    /// [`BasaltNode::is_trusted`]). Held for API honesty (proof of
    /// provisioning); authentication in the simulation uses the
    /// engine's role shortcut, like the RAPTEE fast path.
    group_key: Option<SecretKey>,
    /// FIFO waiting list of hearsay candidates (enabled by
    /// `config.wlist_ttl > 0`); see [`WaitingList`].
    wlist: WaitingList,
    /// Reusable buffers for the per-round distinct-view / probe-order
    /// computations — planning, answering and rotating allocate nothing
    /// in steady state.
    scratch_distinct: Vec<NodeId>,
    scratch_seen: IdSet,
    scratch_order: Vec<u32>,
}

impl BasaltNode {
    /// Creates a node whose slots are initially ranked over `bootstrap`.
    /// The per-slot ranking seeds are derived (HMAC-SHA-256) from a key
    /// expanded out of `seed` and the node identity, so they are
    /// node-local secrets the adversary cannot precompute against.
    ///
    /// # Panics
    ///
    /// Panics with the broken rule when [`BasaltConfig::validate`]
    /// rejects `config`; call it first to get the rule as a value.
    pub fn new(id: NodeId, config: BasaltConfig, bootstrap: &[NodeId], seed: u64) -> Self {
        Self::with_trust(id, config, bootstrap, seed, None)
    }

    /// Creates a *trusted* node of the BASALT+TEE hybrid, holding the
    /// attested `group_key` (see `raptee::provisioning` — the same
    /// enclave-load → remote-attestation flow RAPTEE trusted nodes use).
    /// Panics as [`BasaltNode::new`] does.
    pub fn new_trusted(
        id: NodeId,
        config: BasaltConfig,
        bootstrap: &[NodeId],
        seed: u64,
        group_key: SecretKey,
    ) -> Self {
        Self::with_trust(id, config, bootstrap, seed, Some(group_key))
    }

    fn with_trust(
        id: NodeId,
        config: BasaltConfig,
        bootstrap: &[NodeId],
        seed: u64,
        group_key: Option<SecretKey>,
    ) -> Self {
        if let Err(rule) = config.validate() {
            panic!("{rule}");
        }
        Self {
            id,
            config,
            view: Self::ranked_view(id, config.view_size, bootstrap, seed),
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            rounds: 0,
            rotations: 0,
            group_key,
            wlist: WaitingList::new(config.wlist_ttl, config.fanout()),
            scratch_distinct: Vec::new(),
            scratch_seen: IdSet::new(),
            scratch_order: Vec::new(),
        }
    }

    /// A view of `id` ranked over `bootstrap` under slot seeds derived
    /// from `seed`.
    fn ranked_view(id: NodeId, view_size: usize, bootstrap: &[NodeId], seed: u64) -> BasaltView {
        let ranking_key = SecretKey::from_seed(seed).derive("basalt-ranking-key", &id.to_bytes());
        let mut view = BasaltView::new(id, view_size, ranking_key);
        view.observe_all(bootstrap.iter().copied());
        view
    }

    /// Cold rejoin after a crash–restart: fresh node-local ranking
    /// seeds (derived from the new `seed`, so the adversary cannot have
    /// precomputed against them), the view re-ranked over a fresh
    /// bootstrap, and the waiting list emptied — only identity, trust
    /// and the lifetime counters survive. Peers re-learn the rejoiner
    /// by hearsay, so under the hybrid it passes through *their*
    /// waiting-list quarantine like any other unverified candidate.
    pub fn rejoin_cold(&mut self, bootstrap: &[NodeId], seed: u64) {
        self.rng = Xoshiro256StarStar::seed_from_u64(seed);
        self.view = Self::ranked_view(self.id, self.config.view_size, bootstrap, seed);
        self.wlist.clear();
    }

    /// Warm rejoin after a crash–restart: the node resumes from its
    /// persisted ranked view, paying a staleness penalty — one forced
    /// seed rotation re-ranks the survivors under fresh slot seeds (the
    /// BASALT analogue of probe revalidation: stale entries must win
    /// their slots back), and the stale waiting list is discarded
    /// unverified. Returns the number of rotated slots.
    pub fn rejoin_warm(&mut self) -> usize {
        self.wlist.clear();
        self.rotate()
    }

    /// Rotates `rotation_count` slot seeds round-robin and re-ranks the
    /// surviving view into the fresh slots (so rotation re-ranks instead
    /// of blanking). Returns the number of rotated slots.
    fn rotate(&mut self) -> usize {
        self.view
            .distinct_into(&mut self.scratch_distinct, &mut self.scratch_seen);
        let indices = self.view.rotate(self.config.rotation_count());
        self.rotations += indices.len() as u64;
        self.view.observe_into(&indices, &self.scratch_distinct);
        indices.len()
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The protocol parameters.
    pub fn config(&self) -> &BasaltConfig {
        &self.config
    }

    /// Read access to the ranked view.
    pub fn view(&self) -> &BasaltView {
        &self.view
    }

    /// Whether this node runs inside an (attested, simulated) enclave:
    /// the BASALT+TEE hybrid. Trust changes nothing about ranking — it
    /// gates how *peers* treat this node's answers (the engine's
    /// trusted-exchange path) and which answers bypass the wlist.
    pub fn is_trusted(&self) -> bool {
        self.group_key.is_some()
    }

    /// The attested group key (trusted nodes only).
    pub fn group_key(&self) -> Option<&SecretKey> {
        self.group_key.as_ref()
    }

    /// Hearsay candidates currently quarantined on the waiting list.
    pub fn wlist_len(&self) -> usize {
        self.wlist.len()
    }

    /// Total slots rotated so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Chooses this round's targets: `fanout` uniform draws from the
    /// distinct view (with replacement, like Brahms' `rand(V)`), and the
    /// `fanout` least-confirmed samples as exchange partners, probed
    /// first, into a caller-owned plan whose target vectors are cleared
    /// and refilled — the engine keeps one plan per worker thread alive
    /// across rounds, so planning allocates nothing.
    pub fn plan_round_into(&mut self, plan: &mut RoundPlan) {
        plan.push_targets.clear();
        plan.pull_targets.clear();
        self.view
            .distinct_into(&mut self.scratch_distinct, &mut self.scratch_seen);
        if self.scratch_distinct.is_empty() {
            return;
        }
        for _ in 0..self.config.fanout() {
            plan.push_targets
                .push(self.scratch_distinct[self.rng.index(self.scratch_distinct.len())]);
        }
        self.view.least_confirmed_into(
            self.config.fanout(),
            &mut self.scratch_order,
            &mut plan.pull_targets,
        );
    }

    /// Records an incoming push (the sender advertises one ID).
    pub fn record_push(&mut self, advertised: NodeId) {
        self.view.observe(advertised);
    }

    /// Answers a pull request: the distinct current view, into a
    /// caller-owned buffer (cleared first) — the engine's pull loop
    /// reuses one reply buffer for the whole round.
    pub fn pull_answer_into(&mut self, out: &mut Vec<NodeId>) {
        self.view.distinct_into(out, &mut self.scratch_seen);
    }

    /// Records a pull answer: the responder itself (the contact proves it
    /// is reachable) is ranked immediately; the IDs it returned are
    /// *hearsay*. With the waiting list disabled (`wlist_ttl == 0`) they
    /// also rank immediately — the legacy behaviour. With it enabled,
    /// they are quarantined until [`BasaltNode::drain_wlist`] verifies
    /// them, at the rate-limited probe budget.
    pub fn record_pull_answer(&mut self, responder: NodeId, ids: &[NodeId]) {
        self.view.observe(responder);
        if self.config.wlist_ttl == 0 {
            self.view.observe_all(ids.iter().copied());
            return;
        }
        for &id in ids {
            self.wlist.enqueue(self.id, id, self.rounds);
        }
    }

    /// Records a pull answer from a mutually *authenticated trusted*
    /// peer (the BASALT+TEE hybrid): the responder runs attested code,
    /// so its answer is a genuine view and bypasses the waiting list —
    /// every ID ranks immediately.
    pub fn record_pull_answer_trusted(&mut self, responder: NodeId, ids: &[NodeId]) {
        self.view.observe(responder);
        self.view.observe_all(ids.iter().copied());
    }

    /// Quarantines `id`: evicts it from the ranked view (fresh slot
    /// seeds, as a seed rotation would) and purges any pending hearsay
    /// entry from the waiting list, so a convicted peer neither occupies
    /// slots nor re-enters via queued hearsay. Returns the number of
    /// view slots reset.
    pub fn quarantine(&mut self, id: NodeId) -> usize {
        let reset = self.view.evict(id);
        self.wlist.purge(id);
        reset
    }

    /// Verifies waiting-list candidates (oldest first): up to
    /// `fanout` *contact attempts* per round, where `is_alive`
    /// decides whether the connection succeeds. Reachable candidates are
    /// admitted to the ranking; unreachable ones are dropped (the probe
    /// is still spent). Entries whose TTL expired are discarded without
    /// consuming probe budget. No-op while the waiting list is disabled.
    pub fn drain_wlist(&mut self, is_alive: impl FnMut(NodeId) -> bool) -> WlistReport {
        let view = &mut self.view;
        self.wlist.drain(self.rounds, is_alive, |id| {
            view.observe(id);
        })
    }

    /// Finalises the round: every `rotation_interval` rounds (never
    /// when it is 0), rotates `rotation_count` seeds round-robin and
    /// re-ranks the surviving view into the fresh slots.
    pub fn finish_round(&mut self) -> BasaltRoundReport {
        self.rounds += 1;
        let due = self.config.rotation_interval > 0
            && self
                .rounds
                .is_multiple_of(self.config.rotation_interval as u64);
        BasaltRoundReport {
            rotated: if due { self.rotate() } else { 0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn plan(n: &mut BasaltNode) -> RoundPlan {
        let mut plan = RoundPlan::default();
        n.plan_round_into(&mut plan);
        plan
    }

    fn node(view: usize, rotation: usize) -> BasaltNode {
        BasaltNode::new(
            NodeId(0),
            BasaltConfig::for_view(view, rotation),
            &ids(1..40),
            7,
        )
    }

    #[test]
    fn bootstrap_fills_view() {
        let n = node(10, 0);
        assert_eq!(n.view().filled(), 10);
        assert!(n.view().invariants_hold());
    }

    #[test]
    fn empty_bootstrap_plans_nothing() {
        let mut n = BasaltNode::new(NodeId(0), BasaltConfig::for_view(10, 0), &[], 7);
        let plan = plan(&mut n);
        assert!(plan.push_targets.is_empty());
        assert!(plan.pull_targets.is_empty());
    }

    #[test]
    fn plan_counts_match_config() {
        let mut n = node(10, 0);
        let plan = plan(&mut n);
        assert_eq!(plan.push_targets.len(), 4); // ⌈0.4·10⌉
        assert!(plan.pull_targets.len() <= 4);
        assert!(!plan.pull_targets.is_empty());
        for t in plan.push_targets.iter().chain(&plan.pull_targets) {
            assert!(n.view().contains(*t));
        }
    }

    #[test]
    fn rotation_fires_on_schedule() {
        let mut n = node(10, 3);
        assert_eq!(n.finish_round().rotated, 0); // round 1
        assert_eq!(n.finish_round().rotated, 0); // round 2
        let report = n.finish_round(); // round 3
        assert_eq!(report.rotated, 1);
        assert_eq!(n.rounds, 3);
        assert_eq!(n.rotations(), 1);
        // Rotated slots are refilled from the surviving view.
        assert_eq!(n.view().filled(), 10);
    }

    #[test]
    fn rotation_disabled_with_zero_interval() {
        let mut n = node(10, 0);
        for _ in 0..50 {
            assert_eq!(n.finish_round().rotated, 0);
        }
        assert_eq!(n.rotations(), 0);
    }

    #[test]
    fn pull_answer_is_distinct_view() {
        let mut n = node(10, 0);
        let mut answer = Vec::new();
        n.pull_answer_into(&mut answer);
        answer.sort_unstable();
        let mut dedup = answer.clone();
        dedup.dedup();
        assert_eq!(answer, dedup, "answers never repeat IDs");
        assert!(!answer.is_empty());
    }

    #[test]
    fn exchange_feeds_both_directions() {
        let mut a = BasaltNode::new(NodeId(1), BasaltConfig::for_view(8, 0), &ids(10..20), 1);
        let b = BasaltNode::new(NodeId(2), BasaltConfig::for_view(8, 0), &ids(30..40), 2);
        a.record_pull_answer(b.id(), &b.view().distinct_ids());
        // The responder and at least one of its IDs entered a's ranking.
        let seen = a.view().sample_ids();
        assert!(seen.iter().any(|id| id.0 == 2 || (30..40).contains(&id.0)));
        assert!(a.view().invariants_hold());
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut n = node(10, 5);
            n.record_push(NodeId(77));
            n.record_pull_answer(NodeId(88), &ids(100..120));
            for _ in 0..10 {
                n.finish_round();
            }
            (plan(&mut n), n.view().sample_ids())
        };
        assert_eq!(mk(), mk());
    }

    fn wlist_node(ttl: usize) -> BasaltNode {
        BasaltNode::new(
            NodeId(0),
            BasaltConfig::with_wlist(10, 0, ttl),
            &ids(1..40),
            7,
        )
    }

    #[test]
    fn untrusted_node_has_no_key() {
        let n = node(10, 0);
        assert!(!n.is_trusted());
        assert!(n.group_key().is_none());
    }

    #[test]
    fn trusted_node_holds_group_key() {
        let key = SecretKey::from_seed(99);
        let n = BasaltNode::new_trusted(
            NodeId(0),
            BasaltConfig::for_view(10, 0),
            &ids(1..40),
            7,
            key.clone(),
        );
        assert!(n.is_trusted());
        assert_eq!(n.group_key(), Some(&key));
        // Trust changes nothing about the node's own ranking behaviour.
        assert_eq!(n.view().sample_ids(), node(10, 0).view().sample_ids());
    }

    #[test]
    fn wlist_quarantines_hearsay_but_ranks_responder() {
        let mut n = wlist_node(5);
        let view_before = n.view().sample_ids();
        n.record_pull_answer(NodeId(500), &ids(600..620));
        // The responder (direct contact) was ranked immediately …
        assert!(n.view().slots().iter().any(|s| {
            s.sample() == Some(NodeId(500)) || view_before.contains(&s.sample().unwrap())
        }));
        // … the 20 hearsay IDs were not: they sit on the waiting list.
        assert_eq!(n.wlist_len(), 20);
        for id in ids(600..620) {
            assert!(!n.view().contains(id), "{id:?} must wait for verification");
        }
    }

    #[test]
    fn wlist_dedupes_and_skips_own_id() {
        let mut n = wlist_node(5);
        n.record_pull_answer(NodeId(500), &[NodeId(0), NodeId(7), NodeId(7)]);
        assert_eq!(n.wlist_len(), 1, "own ID skipped, duplicate collapsed");
        n.record_pull_answer(NodeId(501), &[NodeId(7)]);
        assert_eq!(n.wlist_len(), 1, "already-queued hearsay not re-queued");
    }

    #[test]
    fn drain_admits_at_probe_rate_and_expires_stale_entries() {
        let mut n = wlist_node(2);
        let probe = n.config().fanout();
        n.record_pull_answer(NodeId(500), &ids(600..620));
        let r = n.drain_wlist(|_| true);
        assert_eq!(r.admitted, probe, "admission is probe-rate-limited");
        assert_eq!(n.wlist_len(), 20 - probe);
        // Two finish_rounds later the TTL has lapsed: the rest expire
        // without consuming probes.
        n.finish_round();
        n.finish_round();
        let r = n.drain_wlist(|_| true);
        assert_eq!(r.admitted, 0);
        assert_eq!(r.dropped, 20 - probe);
        assert_eq!(n.wlist_len(), 0);
    }

    #[test]
    fn drain_drops_unreachable_candidates() {
        let mut n = wlist_node(5);
        n.record_pull_answer(NodeId(500), &ids(600..604));
        let r = n.drain_wlist(|id| id.0 % 2 == 0);
        assert_eq!(r.admitted + r.dropped, 4.min(n.config().fanout()));
        assert!(r.dropped >= 1, "odd IDs fail the verification contact");
        assert!(!n.view().contains(NodeId(601)));
    }

    #[test]
    fn drain_is_noop_without_wlist() {
        let mut n = node(10, 0);
        n.record_pull_answer(NodeId(500), &ids(600..620));
        // Legacy path: hearsay ranked immediately, nothing queued.
        assert_eq!(n.wlist_len(), 0);
        assert_eq!(n.drain_wlist(|_| true), WlistReport::default());
    }

    #[test]
    fn trusted_answers_bypass_the_wlist() {
        let mut n = wlist_node(5);
        n.record_pull_answer_trusted(NodeId(500), &ids(600..620));
        assert_eq!(n.wlist_len(), 0);
        // The hearsay ranked immediately: the view now holds whatever of
        // 500/600..620 ranks best alongside the bootstrap.
        let mut both = wlist_node(5);
        both.record_pull_answer(NodeId(500), &ids(600..620));
        both.drain_wlist(|_| true);
        // At minimum, a trusted answer can never leave the view *less*
        // informed than the quarantined path after one drain.
        assert!(n.view().filled() >= both.view().filled());
    }

    #[test]
    fn cold_rejoin_matches_a_freshly_bootstrapped_node() {
        let mut n = wlist_node(5);
        // Life before the crash: pushes, hearsay, rounds — all state the
        // cold restart must shed.
        for id in ids(200..260) {
            n.record_push(id);
        }
        n.record_pull_answer(NodeId(500), &ids(600..620));
        n.finish_round();
        assert!(n.wlist_len() > 0);

        let boot = ids(1000..1030);
        n.rejoin_cold(&boot, 31337);
        let mut fresh = BasaltNode::new(NodeId(0), *n.config(), &boot, 31337);
        assert_eq!(n.view().sample_ids(), fresh.view().sample_ids());
        assert_eq!(n.wlist_len(), 0, "stale quarantine discarded");
        // The reseeded RNG plans identically to the fresh node's.
        assert_eq!(plan(&mut n), plan(&mut fresh));
    }

    #[test]
    fn warm_rejoin_forces_a_rotation_and_clears_the_wlist() {
        let mut n = wlist_node(5);
        n.record_pull_answer(NodeId(500), &ids(600..620));
        assert_eq!(n.wlist_len(), 20);
        let survivors = n.view().sample_ids();
        let rotated = n.rejoin_warm();
        assert_eq!(rotated, n.config().rotation_count(), "staleness penalty");
        assert_eq!(n.rotations(), rotated as u64);
        assert_eq!(n.wlist_len(), 0, "unverified hearsay does not survive");
        // Rotation re-ranks rather than blanking: the view stays full and
        // every sample still comes from the pre-crash survivors.
        assert_eq!(n.view().filled(), n.config().view_size);
        for id in n.view().sample_ids() {
            assert!(survivors.contains(&id));
        }
    }

    #[test]
    fn warm_rejoin_rotates_as_a_due_round_does() {
        // Interval 1: every finished round is due. Both paths rotate the
        // same slots and re-rank the same survivors into them.
        let (mut due, mut rejoined) = (node(30, 1), node(30, 1));
        for n in [&mut due, &mut rejoined] {
            n.record_pull_answer(NodeId(500), &ids(600..640));
        }
        let rotated = due.finish_round().rotated;
        assert_eq!(rotated, 3);
        assert_eq!(rejoined.rejoin_warm(), rotated);
        assert_eq!(rejoined.rotations(), due.rotations());
        assert_eq!(rejoined.view(), due.view());
        assert_eq!(plan(&mut rejoined), plan(&mut due));
    }

    #[test]
    fn cold_rejoin_keeps_the_enclave() {
        let key = SecretKey::from_seed(99);
        let mut n = BasaltNode::new_trusted(
            NodeId(0),
            BasaltConfig::for_view(10, 0),
            &ids(1..40),
            7,
            key.clone(),
        );
        let boot = ids(1000..1030);
        n.rejoin_cold(&boot, 31337);
        // A restart reseeds the ranking, not the attested key.
        assert!(n.is_trusted());
        assert_eq!(n.group_key(), Some(&key));
        let fresh = BasaltNode::new(NodeId(0), *n.config(), &boot, 31337);
        assert_eq!(n.view(), fresh.view());
    }

    #[test]
    fn force_push_flood_cannot_displace() {
        // The force-push concern: an adversary saturating its rate budget
        // at one victim. Repetition only moves hit counters.
        let mut n = node(10, 0);
        for _ in 0..10_000 {
            n.record_push(NodeId(999_999));
        }
        // ID 999999 may legitimately win the slots where it ranks closest
        // — once. The other 9999 pushes change nothing: the flooded view
        // is identical to one that saw the ID a single time.
        let mut n2 = node(10, 0);
        n2.record_push(NodeId(999_999));
        assert_eq!(n.view().sample_ids(), n2.view().sample_ids());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn view_of(stream: &[u64], seed: u64) -> BasaltView {
        let mut n = BasaltNode::new(NodeId(0), BasaltConfig::for_view(8, 0), &[], seed);
        for &id in stream {
            n.record_push(NodeId(id));
        }
        n.view().clone()
    }

    proptest! {
        /// Hit-counter monotonicity: replaying any prefix of an already
        /// observed stream never changes any slot's winner.
        #[test]
        fn replaying_a_prefix_never_changes_winners(
            stream in proptest::collection::vec(1u64..5000, 1..120),
            prefix_len in 0usize..120,
            seed in 0u64..10_000,
        ) {
            let mut n = BasaltNode::new(NodeId(0), BasaltConfig::for_view(8, 0), &[], seed);
            for &id in &stream {
                n.record_push(NodeId(id));
            }
            let winners = n.view().sample_ids();
            let hits_before: Vec<u64> = n.view().slots().iter().map(|s| s.hits()).collect();
            for &id in stream.iter().take(prefix_len) {
                n.record_push(NodeId(id));
            }
            prop_assert_eq!(n.view().sample_ids(), winners);
            // Hit counters may only grow.
            for (s, before) in n.view().slots().iter().zip(hits_before) {
                prop_assert!(s.hits() >= before);
            }
        }

        /// Permutation invariance: with a fixed seed, the final view does
        /// not depend on the order the stream arrived in.
        #[test]
        fn final_view_is_order_invariant(
            mut stream in proptest::collection::vec(1u64..5000, 1..120),
            seed in 0u64..10_000,
        ) {
            let forward = view_of(&stream, seed);
            stream.reverse();
            let backward = view_of(&stream, seed);
            prop_assert_eq!(forward.sample_ids(), backward.sample_ids());
        }

        /// Seed rotation resets exactly the rotated slots: they come back
        /// empty with a bumped generation, every other slot is untouched.
        #[test]
        fn rotation_resets_exactly_the_rotated_slots(
            stream in proptest::collection::vec(1u64..5000, 1..80),
            k in 1usize..8,
            seed in 0u64..10_000,
        ) {
            let mut view = view_of(&stream, seed);
            let before = view.slots().to_vec();
            let rotated = view.rotate(k);
            prop_assert_eq!(rotated.len(), k.min(8));
            for (i, slot) in view.slots().iter().enumerate() {
                if rotated.contains(&i) {
                    prop_assert_eq!(slot.sample(), None);
                    prop_assert_eq!(slot.hits(), 0);
                    prop_assert_eq!(slot.generation(), before[i].generation() + 1);
                } else {
                    prop_assert_eq!(slot, &before[i]);
                }
            }
            prop_assert!(view.invariants_hold());
        }
    }
}
