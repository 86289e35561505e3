//! The LIFT node state machine.
//!
//! One protocol round, driven by the caller exactly like the Brahms and
//! BASALT state machines so all three slot into the same engine:
//!
//! ```text
//! node.plan_round_into(&mut pushes, &mut pulls)
//! ... deliver pushes (rate-limited) → receiver.record_push(sender)
//! ... answer pulls: responder.pull_answer_into(&mut reply)
//!                 → requester.record_pull_answer(responder, &reply)
//! report = node.finish_round()        // hub-score fade upkeep
//! ```
//!
//! Every ID mentioned by gossip — push senders, pull responders, pull
//! answer contents — bumps that ID's **hub score**, an in-degree
//! estimate: hubs are talked about often, leaf nodes rarely. The view
//! then *avoids* hubs. A candidate only enters a full view by
//! challenging the current hubbiest member, succeeding with probability
//! proportional to the score gap, and exchange partners are drawn
//! lowest-score-first. An adversary flooding its IDs therefore marks
//! them as hubs and *reduces* their admission odds — repetition is
//! self-defeating, the same property BASALT gets from hit counters but
//! obtained from degree estimation instead of seeded ranking.

use crate::config::LiftConfig;
use crate::table::ScoreTable;
use raptee_net::NodeId;
use raptee_util::rng::Xoshiro256StarStar;

/// What happened when a round was finalised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiftRoundReport {
    /// Hub-score counters halved by a fade this round.
    pub(crate) faded: usize,
}

/// A LIFT node: hub-score table + hub-avoiding view + deterministic RNG.
///
/// The view and the counters live in one indexed table (view scores
/// beside their slots, off-view counters in a min-heap on
/// `(score, id)`, one hashed index over both), so no operation walks
/// the table except the periodic fade and a quarantine that vacates a
/// view slot.
///
/// # Examples
///
/// ```
/// use raptee_lift::{LiftConfig, LiftNode};
/// use raptee_net::NodeId;
///
/// let cfg = LiftConfig::for_view(10, 30);
/// let bootstrap: Vec<NodeId> = (1..=10).map(NodeId).collect();
/// let mut node = LiftNode::new(NodeId(0), cfg, &bootstrap, 42);
/// let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
/// node.plan_round_into(&mut pushes, &mut pulls);
/// assert_eq!(pushes.len(), cfg.fanout());
/// assert!(!pulls.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LiftNode {
    id: NodeId,
    config: LiftConfig,
    rng: Xoshiro256StarStar,
    rounds: u64,
    /// The view (up to `view_size` distinct IDs, ordered by admission;
    /// selection never depends on position, only on scores) and every
    /// hub-score counter: how often each ID was mentioned by gossip.
    /// Bounded by `score_capacity` — the coldest off-view counter is
    /// evicted first, so scores are exactly monotone only while the
    /// table has room (the adversary cannot blow it up regardless).
    table: ScoreTable,
    /// Scratch index buffer for lowest-score selection.
    scratch_order: Vec<u32>,
}

impl LiftNode {
    /// Creates a node bootstrapped from `bootstrap` (observed in order,
    /// as if gossip had mentioned each once).
    ///
    /// # Panics
    ///
    /// Panics with the broken rule when [`LiftConfig::validate`]
    /// rejects `config`; call it first to get the rule as a value.
    pub fn new(id: NodeId, config: LiftConfig, bootstrap: &[NodeId], seed: u64) -> Self {
        if let Err(rule) = config.validate() {
            panic!("{rule}");
        }
        let mut node = Self {
            id,
            config,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            rounds: 0,
            table: ScoreTable::new(config.view_size, config.score_capacity),
            scratch_order: Vec::new(),
        };
        for &b in bootstrap {
            node.observe(b);
        }
        node
    }

    /// The protocol parameters.
    pub fn config(&self) -> &LiftConfig {
        &self.config
    }

    /// The current view.
    pub fn view(&self) -> &[NodeId] {
        self.table.view()
    }

    /// Records one gossip mention of `id`: bumps its hub score, then
    /// offers it to the view. A candidate facing a full view challenges
    /// the hubbiest member `m` and replaces it with probability
    /// `(s_m − s_c) / (s_m + 1)` — never when the candidate scores at
    /// least as high. Frequently-mentioned IDs (hubs, and any ID an
    /// adversary floods) are thus progressively locked out.
    ///
    /// This runs some 300 times per node-round. It costs one probe of
    /// the table's hashed index (member, off-view or new), at most
    /// `O(log score_capacity)` steps of the off-view heap, and a read of
    /// the cached hubbiest member — never a scan of the view, except
    /// the hub rescan after a replacement, nor a walk of the table.
    pub fn observe(&mut self, id: NodeId) {
        if id == self.id {
            return;
        }
        let Some(score) = self.table.mention(id) else {
            return; // already a member
        };
        if self.view().len() < self.config.view_size {
            self.table.admit(id);
            return;
        }
        let (slot, s_m) = self.table.hubbiest();
        if score >= s_m {
            return;
        }
        let gap = s_m - score;
        if self.rng.next_below(u64::from(s_m) + 1) < u64::from(gap) {
            self.table.replace(slot, id);
        }
    }

    /// Records an incoming push (the sender advertises one ID).
    pub fn record_push(&mut self, advertised: NodeId) {
        self.observe(advertised);
    }

    /// Answers a pull request: the current view, into a caller-owned
    /// buffer (cleared first) — the engine's pull loop reuses one reply
    /// buffer for the whole round.
    pub fn pull_answer_into(&mut self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(self.view());
    }

    /// Records a pull answer: the responder and every returned ID count
    /// as one gossip mention each.
    pub fn record_pull_answer(&mut self, responder: NodeId, ids: &[NodeId]) {
        self.observe(responder);
        for &id in ids {
            self.observe(id);
        }
    }

    /// Chooses this round's targets into caller-owned buffers (cleared
    /// and refilled): `fanout` uniform draws from the view (with
    /// replacement, like Brahms' `rand(V)`), and the `fanout`
    /// lowest-score — least hub-like — members as exchange partners,
    /// ordered by the scores held beside the view slots.
    pub fn plan_round_into(&mut self, pushes: &mut Vec<NodeId>, pulls: &mut Vec<NodeId>) {
        pushes.clear();
        pulls.clear();
        let view = self.table.view();
        if view.is_empty() {
            return;
        }
        for _ in 0..self.config.fanout() {
            pushes.push(view[self.rng.index(view.len())]);
        }
        let scores = self.table.view_scores();
        self.scratch_order.clear();
        self.scratch_order.extend(0..view.len() as u32);
        self.scratch_order
            .sort_unstable_by_key(|&i| (scores[i as usize], view[i as usize]));
        pulls.extend(
            self.scratch_order
                .iter()
                .take(self.config.fanout())
                .map(|&i| view[i as usize]),
        );
    }

    /// Quarantines `id`: evicts it from the view and forgets its score
    /// (a convicted peer's hub estimate is meaningless). Returns the
    /// number of view slots vacated.
    pub fn quarantine(&mut self, id: NodeId) -> usize {
        self.table.quarantine(id)
    }

    /// Finalises the round: when a fade is due, halves every hub-score
    /// counter (so estimates track the *recent* degree, not all of
    /// history) and prunes zeroed off-view counters.
    pub fn finish_round(&mut self) -> LiftRoundReport {
        self.rounds += 1;
        let mut faded = 0;
        if self.config.fade_interval > 0
            && self.rounds.is_multiple_of(self.config.fade_interval as u64)
        {
            faded = self.table.fade();
        }
        LiftRoundReport { faded }
    }

    /// Cold rejoin after a crash–restart: fresh RNG, view and scores,
    /// re-bootstrapped from `bootstrap` — only identity and the round
    /// counter survive.
    pub fn rejoin_cold(&mut self, bootstrap: &[NodeId], seed: u64) {
        self.rng = Xoshiro256StarStar::seed_from_u64(seed);
        self.table.clear();
        for &b in bootstrap {
            self.observe(b);
        }
    }

    /// Warm rejoin after a crash–restart: the view survives but every
    /// hub estimate pays one forced fade — degree observed before the
    /// outage is stale evidence. Returns the counters halved.
    pub fn rejoin_warm(&mut self) -> usize {
        self.table.fade()
    }
}

/// Observers the tests read the node through.
#[cfg(test)]
impl LiftNode {
    /// Whether `id` currently occupies a view slot (a scan of the view).
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.view().contains(&id)
    }

    /// The current hub-score estimate for `id` (0 when untracked): one
    /// probe of the table's index. Counters are 32 bits wide and
    /// saturate.
    pub(crate) fn hub_score(&self, id: NodeId) -> u64 {
        u64::from(self.table.score(id))
    }

    /// Hub-score counters currently tracked, view members included.
    pub(crate) fn tracked_scores(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn node(view: usize) -> LiftNode {
        LiftNode::new(NodeId(0), LiftConfig::for_view(view, 0), &ids(1..40), 7)
    }

    #[test]
    fn bootstrap_fills_view() {
        let n = node(10);
        assert_eq!(n.view().len(), 10);
    }

    #[test]
    fn empty_bootstrap_plans_nothing() {
        let mut n = LiftNode::new(NodeId(0), LiftConfig::for_view(10, 0), &[], 7);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        assert!(pushes.is_empty());
        assert!(pulls.is_empty());
    }

    #[test]
    fn plan_counts_match_config() {
        let mut n = node(10);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        assert_eq!(pushes.len(), 4); // round(0.4·10)
        assert_eq!(pulls.len(), 4);
        for t in pushes.iter().chain(&pulls) {
            assert!(n.contains(*t));
        }
    }

    /// One slot is a valid LIFT view, unlike a Brahms one (`α·l1`
    /// rounds to 0 there): it plans the parity fanout of 1.
    #[test]
    fn a_one_slot_view_plans_one_push_and_one_pull() {
        let mut n = node(1);
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        assert_eq!(pushes, pulls);
        assert_eq!(pushes, n.view());
    }

    #[test]
    fn pulls_prefer_low_score_members() {
        let mut n = node(10);
        // Make one view member an obvious hub.
        let hub = n.view()[0];
        for _ in 0..50 {
            n.observe(hub);
        }
        let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
        n.plan_round_into(&mut pushes, &mut pulls);
        assert!(
            !pulls.contains(&hub),
            "exchange partners are the least hub-like members"
        );
    }

    #[test]
    fn flooded_ids_are_locked_out() {
        let mut n = node(10);
        // An off-view ID flooded by an adversary becomes a known hub …
        for _ in 0..1000 {
            n.observe(NodeId(999));
        }
        // … and can no longer displace anyone: its score dwarfs every
        // incumbent's, so the replacement gap is never positive.
        assert!(!n.contains(NodeId(999)));
        assert!(n.hub_score(NodeId(999)) >= 1000);
    }

    #[test]
    fn own_id_never_observed() {
        let mut n = node(10);
        n.observe(NodeId(0));
        assert_eq!(n.hub_score(NodeId(0)), 0);
        assert!(!n.contains(NodeId(0)));
    }

    #[test]
    fn fade_halves_scores_on_schedule() {
        let mut n = LiftNode::new(NodeId(0), LiftConfig::for_view(10, 3), &ids(1..40), 7);
        let probe = n.view()[0];
        for _ in 0..7 {
            n.observe(probe);
        }
        let before = n.hub_score(probe);
        assert_eq!(n.finish_round().faded, 0); // round 1
        assert_eq!(n.finish_round().faded, 0); // round 2
        let report = n.finish_round(); // round 3 — fade fires
        assert!(report.faded > 0);
        assert_eq!(n.rounds, 3);
        assert_eq!(n.hub_score(probe), before / 2);
    }

    #[test]
    fn fade_disabled_with_zero_interval() {
        let mut n = node(10);
        for _ in 0..50 {
            assert_eq!(n.finish_round().faded, 0);
        }
    }

    #[test]
    fn score_table_stays_bounded() {
        let mut n = node(10);
        let cap = n.config().score_capacity;
        for id in 1..(cap as u64 * 3) {
            n.observe(NodeId(id));
        }
        assert!(n.tracked_scores() <= cap);
    }

    /// At the parent, `score_capacity == view_size` was legal and left
    /// the table one over its bound for good; the smallest capacity
    /// `validate` now admits keeps it.
    #[test]
    fn score_table_stays_bounded_at_the_smallest_legal_capacity() {
        let cfg = LiftConfig {
            score_capacity: 9,
            ..LiftConfig::for_view(8, 0)
        };
        let mut n = LiftNode::new(NodeId(0), cfg, &[], 7);
        for id in 1..100 {
            n.observe(NodeId(id));
            n.table.check_index();
            assert!(n.tracked_scores() <= 9);
        }
        assert_eq!(n.view().len(), 8);
        assert_eq!(n.tracked_scores(), 9);
    }

    /// The paper's view (capacity 1,600) under 200,000 mentions of
    /// 20,000 IDs: 3 s in a debug build (0.1 s optimised) on the indexed
    /// table; the reference node, which walks the map calling
    /// `view.contains` per entry for every new ID, needs 5 min (23 s).
    #[test]
    fn paper_size_table_absorbs_200k_mentions() {
        let cfg = LiftConfig::for_view(200, 20);
        let mut n = LiftNode::new(NodeId(0), cfg, &ids(1..201), 7);
        let mut stream = Xoshiro256StarStar::seed_from_u64(13);
        for mention in 1..=200_000u32 {
            n.observe(NodeId(1 + stream.next_below(20_000)));
            if mention % 8_000 == 0 {
                n.finish_round();
                n.table.check_index();
            }
        }
        assert_eq!(n.view().len(), 200);
        assert_eq!(n.tracked_scores(), cfg.score_capacity);
    }

    #[test]
    fn quarantine_evicts_and_forgets() {
        let mut n = node(10);
        let victim = n.view()[3];
        assert_eq!(n.quarantine(victim), 1);
        assert!(!n.contains(victim));
        assert_eq!(n.hub_score(victim), 0);
        assert_eq!(n.quarantine(victim), 0);
    }

    #[test]
    fn cold_rejoin_matches_a_freshly_bootstrapped_node() {
        let mut n = node(10);
        n.record_pull_answer(NodeId(500), &ids(600..620));
        n.finish_round();
        let boot = ids(1000..1030);
        n.rejoin_cold(&boot, 31337);
        let mut fresh = LiftNode::new(NodeId(0), *n.config(), &boot, 31337);
        assert_eq!(n.view(), fresh.view());
        let (mut p1, mut q1, mut p2, mut q2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        n.plan_round_into(&mut p1, &mut q1);
        fresh.plan_round_into(&mut p2, &mut q2);
        assert_eq!((p1, q1), (p2, q2));
    }

    #[test]
    fn warm_rejoin_fades_scores_but_keeps_the_view() {
        let mut n = node(10);
        let probe = n.view()[0];
        for _ in 0..9 {
            n.observe(probe);
        }
        let view_before = n.view().to_vec();
        let score_before = n.hub_score(probe);
        let faded = n.rejoin_warm();
        assert!(faded > 0, "staleness penalty");
        assert_eq!(n.view(), view_before.as_slice());
        assert_eq!(n.hub_score(probe), score_before / 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut n = node(10);
            n.record_push(NodeId(77));
            n.record_pull_answer(NodeId(88), &ids(100..120));
            for _ in 0..10 {
                n.finish_round();
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
    use crate::reference::ReferenceNode;
    use proptest::prelude::*;

    /// IDs the differential test mentions: over four times the largest
    /// capacity it configures (`for_view(12, _)` tracks 96).
    const ID_RANGE: u64 = 400;

    proptest! {
        /// Hub-score monotonicity: with fading disabled and the score
        /// table under capacity, observation streams only ever grow
        /// counters — replaying more observations never decreases any
        /// ID's hub score.
        #[test]
        fn scores_are_monotone_under_observation(
            stream in proptest::collection::vec(1u64..50, 1..200),
            extra in proptest::collection::vec(1u64..50, 0..100),
            seed in 0u64..10_000,
        ) {
            let mut n = LiftNode::new(NodeId(0), LiftConfig::for_view(8, 0), &[], seed);
            for &id in &stream {
                n.observe(NodeId(id));
            }
            let before: Vec<(u64, u64)> =
                (1..50).map(|id| (id, n.hub_score(NodeId(id)))).collect();
            for &id in &extra {
                n.observe(NodeId(id));
            }
            for (id, s) in before {
                prop_assert!(
                    n.hub_score(NodeId(id)) >= s,
                    "score of {id} decreased without a fade"
                );
            }
        }

        /// Each observation bumps exactly the observed ID by exactly one.
        #[test]
        fn observation_increments_exactly_one_counter(
            stream in proptest::collection::vec(1u64..50, 0..100),
            next in 1u64..50,
            seed in 0u64..10_000,
        ) {
            let mut n = LiftNode::new(NodeId(0), LiftConfig::for_view(8, 0), &[], seed);
            for &id in &stream {
                n.observe(NodeId(id));
            }
            let before: Vec<u64> = (1..50).map(|id| n.hub_score(NodeId(id))).collect();
            n.observe(NodeId(next));
            for (id, b) in (1u64..50).zip(before) {
                let expect = if id == next { b + 1 } else { b };
                prop_assert_eq!(n.hub_score(NodeId(id)), expect);
            }
        }

        /// The view never exceeds its configured size and never holds
        /// duplicates or the node's own ID.
        #[test]
        fn view_stays_distinct_and_bounded(
            stream in proptest::collection::vec(0u64..200, 0..300),
            seed in 0u64..10_000,
        ) {
            let mut n = LiftNode::new(NodeId(0), LiftConfig::for_view(8, 0), &[], seed);
            for &id in &stream {
                n.observe(NodeId(id));
            }
            prop_assert!(n.view().len() <= 8);
            let mut sorted = n.view().to_vec();
            sorted.sort_unstable();
            let mut dedup = sorted.clone();
            dedup.dedup();
            prop_assert_eq!(sorted, dedup);
            prop_assert!(!n.contains(NodeId(0)));
            n.table.check_index();
        }

        /// Differential oracle: the indexed node and the `BTreeMap`
        /// reference, driven by the same arbitrary interleaving of
        /// every mutating operation over an ID range several times the
        /// table's capacity, agree on every observable after every step.
        #[test]
        fn indexed_node_matches_the_btreemap_reference(
            view_size in 4usize..=12,
            fade_interval in 0usize..4,
            tight in 0usize..3,
            seed in 0u64..10_000,
            ops in proptest::collection::vec((0u8..68, 0u64..ID_RANGE, 0u64..1_000), 1..600),
        ) {
            let mut cfg = LiftConfig::for_view(view_size, fade_interval);
            if tight > 0 {
                cfg.score_capacity = view_size + tight; // evict on almost every mention
            }
            prop_assert!(ID_RANGE >= 4 * cfg.score_capacity as u64);
            let ids = |from: u64, step: u64, len: u64| -> Vec<NodeId> {
                (0..len).map(|k| NodeId((from + k * step) % ID_RANGE)).collect()
            };
            let bootstrap = ids(seed, 7, view_size as u64 + 3);
            let mut fast = LiftNode::new(NodeId(0), cfg, &bootstrap, seed);
            let mut slow = ReferenceNode::new(NodeId(0), cfg, &bootstrap, seed);
            let (mut p1, mut q1, mut p2, mut q2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            // Mentions dominate and cold rejoins are rare, so the table
            // fills and stays full between resets.
            for &(op, a, b) in &ops {
                match op {
                    0..=43 => {
                        fast.observe(NodeId(a));
                        slow.observe(NodeId(a));
                    }
                    44..=51 => {
                        let answer = ids(a, b | 1, 1 + b % 12);
                        fast.record_pull_answer(NodeId(b % ID_RANGE), &answer);
                        slow.record_pull_answer(NodeId(b % ID_RANGE), &answer);
                    }
                    52..=55 => {
                        fast.plan_round_into(&mut p1, &mut q1);
                        slow.plan_round_into(&mut p2, &mut q2);
                        prop_assert_eq!((&p1, &q1), (&p2, &q2));
                    }
                    56..=59 => prop_assert_eq!(fast.finish_round(), slow.finish_round()),
                    60 | 61 => {
                        // A view member as often as an arbitrary ID.
                        let member = fast.view().get(a as usize % view_size).copied();
                        let id = member.filter(|_| b % 2 == 0).unwrap_or(NodeId(a));
                        prop_assert_eq!(fast.quarantine(id), slow.quarantine(id));
                    }
                    62 => prop_assert_eq!(fast.rejoin_warm(), slow.rejoin_warm()),
                    64..=67 => {
                        // An ID above `u32::MAX`: both halves of the
                        // `Counter` split and the hash's high bits.
                        let wide = NodeId(a << 33 | a);
                        fast.observe(wide);
                        slow.observe(wide);
                        prop_assert_eq!(fast.hub_score(wide), slow.hub_score(wide));
                    }
                    _ => {
                        let bootstrap = ids(a, b | 1, b % (2 * view_size as u64));
                        fast.rejoin_cold(&bootstrap, b);
                        slow.rejoin_cold(&bootstrap, b);
                    }
                }
                fast.table.check_index();
                prop_assert_eq!(fast.view(), slow.view());
                prop_assert_eq!(fast.tracked_scores(), slow.tracked_scores());
                for id in (0..ID_RANGE).map(NodeId) {
                    prop_assert_eq!(fast.hub_score(id), slow.hub_score(id));
                }
            }
        }
    }
}
