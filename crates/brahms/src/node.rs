//! The Brahms node state machine.
//!
//! One protocol round, as driven by the caller:
//!
//! ```text
//! node.plan_round_into(&mut plan)   // α·l1 push targets, β·l1 pull targets
//! ... deliver pushes (rate-limited) → receiver.record_push(sender)
//! ... answer pulls: responder.pull_answer() → requester.record_pulled(ids)
//! report = node.finish_round()      // defences + view renewal + sampling
//! ```
//!
//! The node never touches a socket: the simulation engine (or RAPTEE's
//! wrapper) owns delivery, which is what lets RAPTEE interpose mutual
//! authentication, the trusted swap and Byzantine eviction without
//! modifying this crate.

use crate::config::BrahmsConfig;
use crate::stream::{AnswerSource, Rope, RopeScratch, Segment, SliceRope};
use raptee_gossip::view::{View, ViewEntry};
use raptee_net::{NodeId, RoundPlan};
use raptee_sampler::SamplerArray;
use raptee_util::rng::{IndexScratch, Xoshiro256StarStar};

/// What happened when a round was finalised — exposed for metrics and for
/// the attack-detection tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundReport {
    /// Whether the dynamic view was renewed this round.
    pub view_renewed: bool,
    /// `true` when renewal was blocked by the push-flood detector.
    pub push_flood_detected: bool,
}

/// Reusable buffers for the round-finalisation pipeline (index scratch
/// for the renewal draws, drawn positions and picks, the sample list
/// the history sample reads, the next view, and the buffers a [`Rope`]
/// reads its stream with). A [`BrahmsNode`] boxes one, beside the
/// streams it records, on its first standalone call; the simulation
/// engine instead keeps **one per worker thread** and finalises
/// thousands of nodes through it via [`BrahmsNode::finish_round_with`],
/// so per-node state stays small (struct-of-arrays engine layout) and
/// the parallel round loop still allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct FinishScratch {
    idx: IndexScratch,
    positions: Vec<usize>,
    pick: Vec<NodeId>,
    samples: Vec<NodeId>,
    next: Vec<NodeId>,
    pub(crate) rope: RopeScratch,
}

/// The state only the standalone, buffered round path uses: the streams
/// [`BrahmsNode::record_push`] and [`BrahmsNode::record_pulled`] buffer
/// and the [`FinishScratch`] [`BrahmsNode::finish_round`] drains them
/// through. The engine never records into a node (it streams through
/// [`BrahmsNode::finish_round_with`]), so a node it drives never
/// allocates this box.
#[derive(Debug, Clone, Default)]
struct Standalone {
    pushed: Vec<NodeId>,
    pulled: Vec<NodeId>,
    finish: FinishScratch,
}

/// A Brahms node: dynamic view + sampling component + per-round buffers.
///
/// # Examples
///
/// ```
/// use raptee_brahms::{BrahmsConfig, BrahmsNode, RoundPlan};
/// use raptee_net::NodeId;
///
/// let cfg = BrahmsConfig::paper_defaults(10, 10);
/// let bootstrap: Vec<NodeId> = (1..=10).map(NodeId).collect();
/// let mut node = BrahmsNode::new(NodeId(0), cfg, &bootstrap, 42);
/// let mut plan = RoundPlan::default();
/// node.plan_round_into(&mut plan);
/// assert_eq!(plan.push_targets.len(), cfg.alpha_count());
/// assert_eq!(plan.pull_targets.len(), cfg.beta_count());
/// ```
#[derive(Debug, Clone)]
pub struct BrahmsNode {
    config: BrahmsConfig,
    /// The dynamic view; its owner is this node's identifier.
    view: View,
    sampler: SamplerArray,
    rng: Xoshiro256StarStar,
    /// The standalone path's buffers, created by its first call (the
    /// engine passes per-worker scratch instead — see [`Standalone`]).
    standalone: Option<Box<Standalone>>,
}

impl BrahmsNode {
    /// Creates a node whose initial view is filled from `bootstrap`
    /// (paper: "a list containing node IDs and addresses obtained from a
    /// bootstrap node").
    ///
    /// # Panics
    ///
    /// Panics with the broken rule when [`BrahmsConfig::validate`]
    /// rejects `config`; call it first to get the rule as a value.
    pub fn new(id: NodeId, config: BrahmsConfig, bootstrap: &[NodeId], seed: u64) -> Self {
        if let Err(rule) = config.validate() {
            panic!("{rule}");
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let view = bootstrap_view(id, config.view_size, bootstrap);
        let mut sampler = SamplerArray::new(config.sample_size, &mut rng);
        // The bootstrap list is the first observed stream. It bypasses the
        // seen-cache: whoever builds a large population disables the cache
        // after this returns (`disable_seen_cache`), and must not pay for
        // a bitset up to the largest bootstrap ID in every node first.
        sampler.observe_all_uncached(view.ids());
        Self {
            config,
            view,
            sampler,
            rng,
            standalone: None,
        }
    }

    /// Cold rejoin after a crash–restart: the node comes back with a
    /// fresh bootstrap view and fully reinitialised samplers, as if
    /// provisioned from scratch — the pre-crash view, sample list and
    /// RNG stream are all discarded (only identity and configuration
    /// survive).
    pub fn rejoin_cold(&mut self, bootstrap: &[NodeId], seed: u64) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let view = bootstrap_view(self.id(), self.config.view_size, bootstrap);
        // Re-seeded in place so that a seen-cache the engine disabled
        // stays disabled.
        self.sampler.reinit(&mut rng);
        self.sampler.observe_all(view.ids());
        self.view = view;
        self.rng = rng;
        self.clear_recorded();
    }

    /// Warm rejoin after a crash–restart: the node resumes from its
    /// persisted view and sample list, but every entry is probed
    /// against `is_alive` first — the Brahms probe revalidation a
    /// returning node runs before trusting state that aged while it was
    /// down. Dead view entries are dropped and samplers holding dead
    /// IDs are re-initialised. Returns `(view entries purged, samplers
    /// reset)`.
    pub fn rejoin_warm<F: FnMut(NodeId) -> bool>(&mut self, mut is_alive: F) -> (usize, usize) {
        let purged = self.view.retain(|e| is_alive(e.id));
        let reset = self.sampler.validate(&mut is_alive, &mut self.rng);
        self.clear_recorded();
        (purged, reset)
    }

    /// Forgets the streams recorded since the last finalisation.
    fn clear_recorded(&mut self) {
        if let Some(st) = &mut self.standalone {
            st.pushed.clear();
            st.pulled.clear();
        }
    }

    /// The standalone path's buffers, boxed on first use.
    fn standalone_mut(&mut self) -> &mut Standalone {
        self.standalone.get_or_insert_with(Box::default)
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.view.owner()
    }

    /// The protocol parameters.
    pub fn config(&self) -> &BrahmsConfig {
        &self.config
    }

    /// Read access to the dynamic view `V`.
    pub fn view(&self) -> &View {
        &self.view
    }

    /// Mutable access to the dynamic view — needed by RAPTEE's trusted
    /// view-swap, which exchanges view halves outside the plain protocol.
    pub fn view_mut(&mut self) -> &mut View {
        &mut self.view
    }

    /// Read access to the sampling component.
    pub fn sampler(&self) -> &SamplerArray {
        &self.sampler
    }

    /// Mutable access to the sampling component (probe validation).
    pub fn sampler_mut(&mut self) -> &mut SamplerArray {
        &mut self.sampler
    }

    /// The node's RNG (shared with wrappers so the whole node stays on
    /// one deterministic stream).
    pub fn rng_mut(&mut self) -> &mut Xoshiro256StarStar {
        &mut self.rng
    }

    /// Split-borrows the view and the RNG simultaneously — needed by
    /// RAPTEE's trusted swap, which mutates the view using the node's own
    /// random stream.
    pub fn view_and_rng_mut(&mut self) -> (&mut View, &mut Xoshiro256StarStar) {
        (&mut self.view, &mut self.rng)
    }

    /// Split-borrows the sampler and the RNG simultaneously — needed by
    /// the probe-based sampler validation, which re-draws hash functions
    /// from the node's own random stream.
    pub fn sampler_and_rng_mut(&mut self) -> (&mut SamplerArray, &mut Xoshiro256StarStar) {
        (&mut self.sampler, &mut self.rng)
    }

    /// Chooses this round's push and pull targets: `α·l1` and `β·l1`
    /// uniformly random draws from the view (with replacement, as in the
    /// original protocol's `rand(V)`), into a caller-owned plan whose
    /// target vectors are cleared and refilled — the engine plans every
    /// node through one plan per worker thread, so planning allocates
    /// nothing once those have grown.
    pub fn plan_round_into(&mut self, plan: &mut RoundPlan) {
        plan.push_targets.clear();
        plan.pull_targets.clear();
        if self.view.is_empty() {
            return;
        }
        for _ in 0..self.config.alpha_count() {
            if let Some(e) = self.view.random(&mut self.rng) {
                plan.push_targets.push(e.id);
            }
        }
        for _ in 0..self.config.beta_count() {
            if let Some(e) = self.view.random(&mut self.rng) {
                plan.pull_targets.push(e.id);
            }
        }
    }

    /// Records an incoming push (the sender's ID).
    pub fn record_push(&mut self, sender: NodeId) {
        if sender != self.id() {
            self.standalone_mut().pushed.push(sender);
        }
    }

    /// Records the IDs from one pull answer (or, under RAPTEE, the IDs
    /// surviving eviction, plus the trusted-swap IDs).
    pub fn record_pulled(&mut self, ids: &[NodeId]) {
        let id = self.id();
        self.standalone_mut()
            .pulled
            .extend(ids.iter().copied().filter(|&i| i != id));
    }

    /// Answers a pull request: the full current view (paper Section III-A).
    pub fn pull_answer(&self) -> Vec<NodeId> {
        self.view.id_vec()
    }

    /// Finalises the round: runs the attack-blocking rule, renews the
    /// view from `α·l1` pushed ∪ `β·l1` pulled ∪ `γ·l1` history-sampled
    /// IDs, and feeds the full (pushed ∪ pulled) stream to the samplers.
    pub fn finish_round(&mut self) -> RoundReport {
        let mut st = self.standalone.take().unwrap_or_default();
        let report =
            self.finish_round_with(&st.pushed, SliceRope::slice(&st.pulled), &mut st.finish);
        // Keep the buffers for next-round reuse, emptied (the historical
        // drain semantics).
        st.pushed.clear();
        st.pulled.clear();
        self.standalone = Some(st);
        report
    }

    /// [`BrahmsNode::finish_round`] over a caller-owned push stream, a
    /// pulled stream read where it lies, and caller-owned scratch,
    /// bypassing the internal `record_push`/`record_pulled` buffers: the
    /// buffered path is this over its one recorded slice. The
    /// simulation engine reads each node's pull answers in its shared
    /// per-round arenas (see [`Rope`]) and finalises many nodes in
    /// parallel through per-worker [`FinishScratch`] arenas. `pushed`
    /// must already be without this node's ID (`record_push`
    /// semantics); `pulled` may hold it, and the round skips it as
    /// `record_pulled` would. The RNG draw sequence is that of
    /// `finish_round` on identically recorded streams.
    pub fn finish_round_with<'a, 's, A, I>(
        &mut self,
        pushed: &[NodeId],
        pulled: Rope<'a, A, I>,
        scratch: &mut FinishScratch,
    ) -> RoundReport
    where
        A: AnswerSource,
        's: 'a,
        I: Iterator<Item = Segment<'s>> + Clone,
    {
        let pushes_received = pushed.len();

        // Defence (ii): a node receiving more pushes than it expects to
        // admit is under a targeted flood; block the view update so the
        // attacker cannot monopolise it. Updates also require both
        // channels to have produced something, otherwise a starved round
        // would wipe the view.
        let push_flood_detected = pushes_received > self.config.effective_flood_threshold();
        let may_renew = !push_flood_detected && pushes_received > 0;

        // The history sample reads the samples from before this round's
        // stream, which reaches the samplers next.
        if may_renew {
            self.sampler.samples_into(&mut scratch.samples);
        }

        // The sampling component consumes the *unfiltered* stream in
        // Brahms; RAPTEE's eviction happens before the stream gets here,
        // so from this node's perspective the stream is what arrived.
        // Min-wise sampling is invariant under repetition and order, and
        // the seen-cache makes repeats O(1), so the stream is fed raw, in
        // the same pass that counts it (no sort/dedup pass, no copy).
        let me = self.id();
        let pulled_ids_received = {
            let mut feed = self.sampler.feed();
            pushed.iter().for_each(|&id| feed.push(id));
            pulled.observe(me, &mut feed, &mut scratch.rope)
        };
        let view_renewed = may_renew && pulled_ids_received > 0;

        if view_renewed {
            // Defence (iii): balanced α/β contribution — `rand(α·l1,
            // pushed) ∪ rand(β·l1, pulled)` exactly as in the original
            // protocol. The draws are over the raw multisets: an ID that
            // is over-represented in the stream is proportionally likely
            // to be drawn (the view itself still stores it only once).
            // Brahms counters that bias with the sampler, not here.
            scratch.next.clear();
            self.rng.sample_into(
                pushed,
                self.config.alpha_count(),
                &mut scratch.idx,
                &mut scratch.pick,
            );
            scratch.next.extend_from_slice(&scratch.pick);
            self.rng.sample_indices_into(
                pulled_ids_received,
                self.config.beta_count(),
                &mut scratch.idx,
                &mut scratch.positions,
            );
            pulled.pick_into(&scratch.positions, &mut scratch.rope, &mut scratch.pick);
            scratch.next.extend_from_slice(&scratch.pick);
            // Defence (iv): history sample for self-healing — `γ·l1`
            // draws with replacement from the current sample list (the
            // same draws `SamplerArray::history_sample` would make).
            if !scratch.samples.is_empty() {
                for _ in 0..self.config.gamma_count() {
                    let i = self.rng.index(scratch.samples.len());
                    scratch.next.push(scratch.samples[i]);
                }
            }
            self.view
                .replace_with(scratch.next.drain(..).map(ViewEntry::fresh));
        }

        RoundReport {
            view_renewed,
            push_flood_detected,
        }
    }
}

/// `owner`'s first view: the first `view_size` distinct IDs of
/// `bootstrap` other than `owner`, all fresh.
fn bootstrap_view(owner: NodeId, view_size: usize, bootstrap: &[NodeId]) -> View {
    let mut view = View::new(owner, view_size);
    for &b in bootstrap {
        if view.len() == view_size {
            break;
        }
        view.insert_fresh(b);
    }
    view
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(l1: usize) -> BrahmsConfig {
        BrahmsConfig::paper_defaults(l1, l1)
    }

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn node(l1: usize) -> BrahmsNode {
        BrahmsNode::new(NodeId(0), cfg(l1), &ids(1..(l1 as u64 + 1)), 7)
    }

    fn plan(n: &mut BrahmsNode) -> RoundPlan {
        let mut plan = RoundPlan::default();
        n.plan_round_into(&mut plan);
        plan
    }

    #[test]
    fn bootstrap_fills_view_and_sampler() {
        let n = node(10);
        assert_eq!(n.view().len(), 10);
        assert_eq!(n.sampler().samples().len(), 10);
    }

    #[test]
    fn cold_rejoin_matches_a_freshly_bootstrapped_node() {
        let mut n = node(10);
        // Age the node: pushes, pulls, finished rounds.
        n.record_push(NodeId(55));
        n.record_pulled(&ids(60..70));
        n.finish_round();
        let boot = ids(100..110);
        n.rejoin_cold(&boot, 99);
        let fresh = BrahmsNode::new(NodeId(0), cfg(10), &boot, 99);
        assert_eq!(n.view().ids().collect::<Vec<_>>(), boot);
        assert_eq!(n.sampler().samples(), fresh.sampler().samples());
    }

    #[test]
    fn cold_rejoin_keeps_the_seen_cache_disabled() {
        // What the engine does to every node of a population too large
        // for per-node caches; a restart must not quietly undo it.
        let mut n = node(10);
        n.sampler_mut().disable_seen_cache();
        let boot = ids(100..110);
        n.rejoin_cold(&boot, 99);
        n.record_push(NodeId(55));
        n.record_pulled(&ids(1000..2000));
        n.finish_round();
        assert_eq!(n.sampler().seen_cached(), 0);

        let mut fresh = SamplerArray::new(10, &mut Xoshiro256StarStar::seed_from_u64(99));
        fresh.observe_all(boot.iter().copied());
        fresh.observe(NodeId(55));
        fresh.observe_all(ids(1000..2000));
        assert_eq!(n.sampler().samples(), fresh.samples());
    }

    #[test]
    fn a_node_built_and_capped_at_zero_never_holds_cache_words() {
        // Bootstrap IDs near the top of a million-node population: cached,
        // they would cost 125 KB of bitset per node before the cap.
        let boot = ids(999_000..999_010);
        let mut n = BrahmsNode::new(NodeId(0), cfg(10), &boot, 7);
        assert_eq!(n.sampler().seen_cache_words(), 0, "nothing grown by `new`");
        n.sampler_mut().disable_seen_cache();
        n.record_push(NodeId(999_500));
        n.record_pulled(&ids(998_000..998_100));
        n.finish_round();
        n.rejoin_cold(&boot, 8);
        assert_eq!(n.sampler().seen_cache_words(), 0);

        // Left uncapped, the same node caches from its first round on and
        // samples what a fully cached array samples.
        let mut cached = BrahmsNode::new(NodeId(0), cfg(10), &boot, 7);
        cached.record_push(NodeId(999_500));
        cached.record_pulled(&ids(998_000..998_100));
        cached.finish_round();
        assert!(cached.sampler().seen_cache_words() > 0);
        let mut reference = SamplerArray::new(10, &mut Xoshiro256StarStar::seed_from_u64(7));
        reference.observe_all(boot.iter().copied());
        reference.observe(NodeId(999_500));
        reference.observe_all(ids(998_000..998_100));
        assert_eq!(cached.sampler().samples(), reference.samples());
    }

    #[test]
    fn warm_rejoin_purges_dead_view_entries_and_samples() {
        let mut n = node(10);
        // Everything below NodeId(6) "died" while the node was down.
        let (purged, reset) = n.rejoin_warm(|id| id.0 >= 6);
        assert_eq!(purged, 5, "bootstrap IDs 1..6 purged from the view");
        assert!(reset >= 1, "samplers holding dead IDs re-initialised");
        assert!(n.view().ids().all(|id| id.0 >= 6));
        assert!(n.sampler().samples().iter().all(|id| id.0 >= 6));
    }

    #[test]
    fn plan_counts_match_config() {
        let mut n = node(10);
        let plan = plan(&mut n);
        assert_eq!(plan.push_targets.len(), 4); // α=0.4 × 10
        assert_eq!(plan.pull_targets.len(), 4); // β=0.4 × 10
        for t in plan.push_targets.iter().chain(&plan.pull_targets) {
            assert!(n.view().contains(*t));
        }
    }

    #[test]
    fn empty_view_plans_nothing() {
        let mut n = BrahmsNode::new(NodeId(0), cfg(10), &[], 7);
        let plan = plan(&mut n);
        assert!(plan.push_targets.is_empty());
        assert!(plan.pull_targets.is_empty());
    }

    #[test]
    fn own_id_filtered_from_events() {
        let mut n = node(10);
        n.record_push(NodeId(0));
        n.record_pulled(&[NodeId(0), NodeId(3)]);
        let st = n.standalone.as_ref().unwrap();
        assert!(st.pushed.is_empty());
        assert_eq!(st.pulled, [NodeId(3)]);
    }

    #[test]
    fn normal_round_renews_view() {
        let mut n = node(10);
        for s in 20..24 {
            n.record_push(NodeId(s));
        }
        n.record_pulled(&ids(30..40));
        let report = n.finish_round();
        assert!(report.view_renewed);
        assert!(!report.push_flood_detected);
        assert_eq!(n.view().len(), 4 + 4 + 2); // α + β + γ counts
        assert!(n.view().invariants_hold());
        // The renewed view holds pushed and pulled IDs.
        assert!(n.view().ids().any(|i| (20..24).contains(&i.0)));
        assert!(n.view().ids().any(|i| (30..40).contains(&i.0)));
    }

    #[test]
    fn push_flood_blocks_renewal() {
        let mut n = node(10);
        // α·l1 = 4; deliver 5 pushes → flood.
        for s in 20..25 {
            n.record_push(NodeId(s));
        }
        n.record_pulled(&ids(30..40));
        let before = n.view().id_vec();
        let report = n.finish_round();
        assert!(report.push_flood_detected);
        assert!(!report.view_renewed);
        assert_eq!(n.view().id_vec(), before, "view untouched under flood");
    }

    #[test]
    fn starved_round_keeps_view() {
        let mut n = node(10);
        // Pushes but no pulls.
        n.record_push(NodeId(20));
        let before = n.view().id_vec();
        assert!(!n.finish_round().view_renewed);
        assert_eq!(n.view().id_vec(), before);
        // Pulls but no pushes.
        n.record_pulled(&ids(30..35));
        assert!(!n.finish_round().view_renewed);
        assert_eq!(n.view().id_vec(), before);
    }

    #[test]
    fn sampler_sees_stream_even_when_blocked() {
        let mut n = node(4);
        // α·l1 = 2 for l1=4; flood with 3 pushes from new IDs.
        for s in 100..103 {
            n.record_push(NodeId(s));
        }
        n.finish_round();
        // Streamed IDs may appear in the samples despite the block.
        let seen: Vec<u64> = n.sampler().samples().iter().map(|i| i.0).collect();
        // At minimum, the samplers observed them: feeding again changes nothing.
        let before = n.sampler().samples();
        let mut n2 = n.clone();
        for s in 100..103 {
            n2.record_push(NodeId(s));
        }
        n2.record_pulled(&[NodeId(1)]);
        n2.finish_round();
        assert_eq!(
            n2.sampler().samples(),
            before,
            "min-wise samples are stable, {seen:?}"
        );
    }

    #[test]
    fn repeated_pushes_do_not_dominate_view() {
        // One Byzantine ID repeated many times in the push buffer gets at
        // most one slot in the renewed view.
        let mut n = node(10);
        for _ in 0..4 {
            n.record_push(NodeId(666));
        }
        n.record_pulled(&ids(30..40));
        let report = n.finish_round();
        assert!(report.view_renewed);
        let occurrences = n.view().ids().filter(|i| i.0 == 666).count();
        assert_eq!(occurrences, 1);
    }

    #[test]
    fn buffers_clear_between_rounds() {
        let mut n = node(10);
        for s in 20..24 {
            n.record_push(NodeId(s));
        }
        n.record_pulled(&ids(30..40));
        assert!(n.finish_round().view_renewed);
        let st = n.standalone.as_ref().unwrap();
        assert!(st.pushed.is_empty() && st.pulled.is_empty());
        // Next round with no traffic: starved, no renewal.
        assert!(!n.finish_round().view_renewed);
    }

    #[test]
    fn pull_answer_is_full_view() {
        let n = node(10);
        let mut answer = n.pull_answer();
        let mut view_ids = n.view().id_vec();
        answer.sort_unstable();
        view_ids.sort_unstable();
        assert_eq!(answer, view_ids);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut n = BrahmsNode::new(NodeId(0), cfg(10), &ids(1..11), 99);
            for s in 20..24 {
                n.record_push(NodeId(s));
            }
            n.record_pulled(&ids(30..40));
            n.finish_round();
            n.view().id_vec()
        };
        assert_eq!(mk(), mk());
    }

    /// The renewal rule accepts exactly the configs whose node plans
    /// traffic: over views 1..=12 and `γ` from 0 to 0.95, an accepted
    /// config plans `α·l1 ≥ 1` pushes and as many pulls, and a rejected
    /// one is rejected by that rule alone.
    #[test]
    fn every_accepted_config_plans_a_push_and_a_pull() {
        let (mut accepted, mut rejected) = (0, 0);
        for l1 in 1..=12 {
            for gamma in [0.0, 0.2, 0.5, 0.8, 0.9, 0.95] {
                let config = BrahmsConfig { gamma, ..cfg(l1) };
                if let Err(rule) = config.validate() {
                    assert!(rule.contains("rounds to 0"), "l1 {l1}, γ {gamma}: {rule}");
                    rejected += 1;
                    continue;
                }
                let mut n = BrahmsNode::new(NodeId(0), config, &ids(1..(l1 as u64 + 1)), 7);
                let plan = plan(&mut n);
                assert!(!plan.push_targets.is_empty(), "l1 {l1}, γ {gamma}");
                assert_eq!(plan.push_targets.len(), config.alpha_count());
                assert_eq!(plan.pull_targets.len(), config.beta_count());
                accepted += 1;
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} / {rejected}");
    }

    #[test]
    #[should_panic(expected = "alpha*l1 rounds to 0")]
    fn a_node_that_would_renew_nothing_is_refused() {
        node(1);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After any round, the view respects its invariants and capacity,
        /// and renewal only happens under the documented conditions.
        #[test]
        fn round_preserves_invariants(
            pushes in proptest::collection::vec(1u64..500, 0..12),
            pulls in proptest::collection::vec(1u64..500, 0..40),
            seed in 0u64..1000,
        ) {
            let cfg = BrahmsConfig::paper_defaults(10, 10);
            let bootstrap: Vec<NodeId> = (1..11).map(NodeId).collect();
            let mut n = BrahmsNode::new(NodeId(0), cfg, &bootstrap, seed);
            for &p in &pushes {
                n.record_push(NodeId(p));
            }
            n.record_pulled(&pulls.iter().map(|&p| NodeId(p)).collect::<Vec<_>>());
            let report = n.finish_round();
            prop_assert!(n.view().invariants_hold());
            prop_assert!(n.view().len() <= 10);
            let pushes_kept = pushes.len();
            let expected_renewal = pushes_kept > 0
                && pushes_kept <= cfg.alpha_count()
                && !pulls.is_empty();
            prop_assert_eq!(report.view_renewed, expected_renewal);
        }
    }
}
