//! The straightforward `BTreeMap` LIFT node, kept as the test oracle.
//!
//! This is the implementation [`LiftNode`](crate::LiftNode) shipped
//! with before its score table was indexed, moved here unchanged (minus
//! the accessors no test needs): every tracked counter in one map, the
//! view a bare ID list, and each prune a full walk of the map. It is
//! slow and obviously right, which is what the differential property
//! test in `node.rs` wants from a reference.

use crate::config::LiftConfig;
use crate::node::LiftRoundReport;
use raptee_net::NodeId;
use raptee_util::rng::Xoshiro256StarStar;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
pub(crate) struct ReferenceNode {
    id: NodeId,
    config: LiftConfig,
    rng: Xoshiro256StarStar,
    rounds: u64,
    /// The current view: up to `view_size` distinct IDs, ordered by
    /// admission (selection never depends on position, only on scores).
    view: Vec<NodeId>,
    /// Hub-score counters: how often each ID was mentioned by gossip.
    /// Bounded by `score_capacity` — the coldest off-view counters are
    /// pruned first, so scores are exactly monotone only while the
    /// table has room (the adversary cannot blow it up regardless).
    scores: BTreeMap<NodeId, u64>,
    /// Scratch index buffer for lowest-score selection.
    scratch_order: Vec<u32>,
}

impl ReferenceNode {
    /// Creates a node bootstrapped from `bootstrap` (observed in order,
    /// as if gossip had mentioned each once).
    pub(crate) fn new(id: NodeId, config: LiftConfig, bootstrap: &[NodeId], seed: u64) -> Self {
        if let Err(rule) = config.validate() {
            panic!("{rule}");
        }
        let mut node = Self {
            id,
            config,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            rounds: 0,
            view: Vec::with_capacity(config.view_size),
            scores: BTreeMap::new(),
            scratch_order: Vec::new(),
        };
        for &b in bootstrap {
            node.observe(b);
        }
        node
    }

    /// The current view.
    pub(crate) fn view(&self) -> &[NodeId] {
        &self.view
    }

    /// The current hub-score estimate for `id` (0 when untracked).
    pub(crate) fn hub_score(&self, id: NodeId) -> u64 {
        self.scores.get(&id).copied().unwrap_or(0)
    }

    /// Hub-score counters currently tracked.
    pub(crate) fn tracked_scores(&self) -> usize {
        self.scores.len()
    }

    /// Records one gossip mention of `id`: bumps its hub score, then
    /// offers it to the view. A candidate facing a full view challenges
    /// the hubbiest member `m` and replaces it with probability
    /// `(s_m − s_c) / (s_m + 1)` — never when the candidate scores at
    /// least as high. Frequently-mentioned IDs (hubs, and any ID an
    /// adversary floods) are thus progressively locked out.
    pub(crate) fn observe(&mut self, id: NodeId) {
        if id == self.id {
            return;
        }
        let score = {
            let e = self.scores.entry(id).or_insert(0);
            *e += 1;
            *e
        };
        self.prune_scores(id);
        if self.view.contains(&id) {
            return;
        }
        if self.view.len() < self.config.view_size {
            self.view.push(id);
            return;
        }
        let (pos, incumbent) = self.hubbiest();
        let s_m = self.hub_score(incumbent);
        if score >= s_m {
            return;
        }
        let gap = s_m - score;
        if self.rng.next_below(s_m + 1) < gap {
            self.view[pos] = id;
        }
    }

    /// Records a pull answer: the responder and every returned ID count
    /// as one gossip mention each.
    pub(crate) fn record_pull_answer(&mut self, responder: NodeId, ids: &[NodeId]) {
        self.observe(responder);
        for &id in ids {
            self.observe(id);
        }
    }

    /// Chooses this round's targets into caller-owned buffers (cleared
    /// and refilled): `fanout` uniform draws from the view (with
    /// replacement, like Brahms' `rand(V)`), and the `fanout`
    /// lowest-score — least hub-like — members as exchange partners.
    pub(crate) fn plan_round_into(&mut self, pushes: &mut Vec<NodeId>, pulls: &mut Vec<NodeId>) {
        pushes.clear();
        pulls.clear();
        if self.view.is_empty() {
            return;
        }
        for _ in 0..self.config.fanout() {
            pushes.push(self.view[self.rng.index(self.view.len())]);
        }
        self.scratch_order.clear();
        self.scratch_order.extend(0..self.view.len() as u32);
        let view = &self.view;
        let scores = &self.scores;
        self.scratch_order.sort_unstable_by_key(|&i| {
            let id = view[i as usize];
            (scores.get(&id).copied().unwrap_or(0), id)
        });
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
    pub(crate) fn quarantine(&mut self, id: NodeId) -> usize {
        self.scores.remove(&id);
        let before = self.view.len();
        self.view.retain(|&v| v != id);
        before - self.view.len()
    }

    /// Finalises the round: when a fade is due, halves every hub-score
    /// counter (so estimates track the *recent* degree, not all of
    /// history) and prunes zeroed off-view counters.
    pub(crate) fn finish_round(&mut self) -> LiftRoundReport {
        self.rounds += 1;
        let mut faded = 0;
        if self.config.fade_interval > 0
            && self.rounds.is_multiple_of(self.config.fade_interval as u64)
        {
            faded = self.fade();
        }
        LiftRoundReport { faded }
    }

    /// Cold rejoin after a crash–restart: fresh RNG, view and scores,
    /// re-bootstrapped from `bootstrap` — only identity and the round
    /// counter survive.
    pub(crate) fn rejoin_cold(&mut self, bootstrap: &[NodeId], seed: u64) {
        self.rng = Xoshiro256StarStar::seed_from_u64(seed);
        self.view.clear();
        self.scores.clear();
        for &b in bootstrap {
            self.observe(b);
        }
    }

    /// Warm rejoin after a crash–restart: the view survives but every
    /// hub estimate pays one forced fade — degree observed before the
    /// outage is stale evidence. Returns the counters halved.
    pub(crate) fn rejoin_warm(&mut self) -> usize {
        self.fade()
    }

    /// Halves every counter, pruning zeroed off-view entries; returns
    /// how many nonzero counters were halved.
    fn fade(&mut self) -> usize {
        let mut faded = 0;
        for s in self.scores.values_mut() {
            if *s > 0 {
                faded += 1;
                *s >>= 1;
            }
        }
        let view = &self.view;
        self.scores.retain(|id, s| *s > 0 || view.contains(id));
        faded
    }

    /// The view member with the maximal `(score, id)` — the hubbiest.
    fn hubbiest(&self) -> (usize, NodeId) {
        let (pos, &id) = self
            .view
            .iter()
            .enumerate()
            .max_by_key(|(_, &id)| (self.scores.get(&id).copied().unwrap_or(0), id))
            .expect("hubbiest() requires a non-empty view");
        (pos, id)
    }

    /// Evicts the coldest off-view counters (excluding `keep`) until the
    /// table fits `score_capacity` again.
    fn prune_scores(&mut self, keep: NodeId) {
        while self.scores.len() > self.config.score_capacity {
            let victim = self
                .scores
                .iter()
                .filter(|(id, _)| **id != keep && !self.view.contains(id))
                .min_by_key(|(id, s)| (**s, **id))
                .map(|(id, _)| *id);
            match victim {
                Some(v) => self.scores.remove(&v),
                None => break, // everything left is in-view or protected
            };
        }
    }
}
