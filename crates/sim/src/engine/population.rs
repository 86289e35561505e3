//! The correct population: one flat arena of [`Node`]s laid out as
//! contiguous per-protocol segments, how it is built, and the invariants
//! every node holds between rounds.

use super::{membership, Simulation};
use crate::bitset::EXACT_DISCOVERY_THRESHOLD;
use crate::scenario::{FamilyConfig, Protocol, Scenario};
use raptee::provisioning;
use raptee::RapteeNode;
use raptee_basalt::BasaltNode;
use raptee_honeybee::HoneybeeNode;
use raptee_lift::LiftNode;
use raptee_net::{NodeId, RoundPlan};
use raptee_tee::AttestationService;
use raptee_util::rng::{IndexScratch, Xoshiro256StarStar};

/// One correct node. The correct population is one flat arena of these,
/// stored densely and unboxed by population index. Byzantine actors are
/// pure identities (the adversary coordinates them centrally), so they
/// occupy no node state at all: actor index `i` maps to population index
/// `i - byz_count` for `i >= byz_count`. `Raptee` carries both
/// Brahms-family protocols (Brahms is a RAPTEE node without a trusted
/// tier), `Basalt` both BASALT protocols (the +TEE hybrid's trusted tier
/// is the node's group key). `RapteeNode` is the largest variant and
/// lends `Node` its niche, so a `Node` costs exactly a `RapteeNode`
/// (`the_arena_costs_nothing_over_its_largest_node` pins 368 B, and
/// `BasaltNode` at 352 B).
///
/// [`Population::build`] fills each segment with the one family its
/// protocol runs, so a caller that found a node in a segment knows its
/// variant; the `unreachable!` arms below rest on that rule.
pub(super) enum Node {
    Raptee(RapteeNode),
    Basalt(BasaltNode),
    Lift(LiftNode),
    Honeybee(HoneybeeNode),
}

impl Node {
    /// The Brahms-family node, for callers that found it in a
    /// Brahms-family segment.
    pub(super) fn raptee_mut(&mut self) -> &mut RapteeNode {
        match self {
            Node::Raptee(node) => node,
            // `Population::build` fills a segment with one family.
            _ => unreachable!("a ranked node inside a Brahms-family segment"),
        }
    }

    /// The node's configured view size.
    pub(super) fn view_size(&self) -> usize {
        match self {
            Node::Raptee(node) => node.brahms().config().view_size,
            Node::Basalt(node) => node.config().view_size,
            Node::Lift(node) => node.config().view_size,
            Node::Honeybee(node) => node.config().view_size,
        }
    }

    /// Visits the IDs pollution and discovery are read from: the dynamic
    /// view of a Brahms-family node, the current sample of a ranked one
    /// (BASALT slots may still be empty early on).
    pub(super) fn for_each_view_id(&self, f: impl FnMut(NodeId)) {
        match self {
            Node::Raptee(node) => node.brahms().view().ids().for_each(f),
            Node::Basalt(node) => node.view().sample_iter().for_each(f),
            Node::Lift(node) => node.view().iter().copied().for_each(f),
            Node::Honeybee(node) => node.view().iter().copied().for_each(f),
        }
    }

    /// This node's answer to a pull, into `out` (cleared first): the
    /// dynamic view of a Brahms-family node, the distinct view of a
    /// ranked one.
    pub(super) fn answer_into(&mut self, out: &mut Vec<NodeId>) {
        match self {
            Node::Raptee(node) => {
                out.clear();
                out.extend(node.brahms().view().ids());
            }
            Node::Basalt(node) => node.pull_answer_into(out),
            Node::Lift(node) => node.pull_answer_into(out),
            Node::Honeybee(node) => node.pull_answer_into(out),
        }
    }

    /// Plans this round's pushes and pulls into `plan` (cleared first).
    pub(super) fn plan_into(&mut self, plan: &mut RoundPlan) {
        let (pushes, pulls) = (&mut plan.push_targets, &mut plan.pull_targets);
        match self {
            Node::Raptee(node) => node.plan_round_into(plan),
            Node::Basalt(node) => node.plan_round_into(plan),
            Node::Lift(node) => node.plan_round_into(pushes, pulls),
            Node::Honeybee(node) => node.plan_round_into(pushes, pulls),
        }
    }

    /// A ranked node ranks one received push advertising `advertised`.
    /// Brahms-family nodes take their pushes as a stream at apply time.
    pub(super) fn record_push(&mut self, advertised: NodeId) {
        match self {
            Node::Basalt(node) => node.record_push(advertised),
            Node::Lift(node) => node.record_push(advertised),
            Node::Honeybee(node) => node.record_push(advertised),
            // `Population::build` fills a segment with one family.
            Node::Raptee(_) => unreachable!("a Brahms-family node inside a ranked segment"),
        }
    }

    /// A ranked node ranks the answer `ids` from `responder`. A trusted
    /// answer bypasses BASALT's waiting list; LIFT and Honeybee have no
    /// attested channel, so it is their ordinary answer.
    pub(super) fn record_pull_answer(&mut self, responder: NodeId, ids: &[NodeId], trusted: bool) {
        match self {
            Node::Basalt(node) if trusted => node.record_pull_answer_trusted(responder, ids),
            Node::Basalt(node) => node.record_pull_answer(responder, ids),
            Node::Lift(node) => node.record_pull_answer(responder, ids),
            Node::Honeybee(node) => node.record_pull_answer(responder, ids),
            // `Population::build` fills a segment with one family.
            Node::Raptee(_) => unreachable!("a Brahms-family node inside a ranked segment"),
        }
    }

    /// Cold crash–restart rejoin: full protocol-state reset over a fresh
    /// bootstrap set and RNG seed.
    pub(super) fn rejoin_cold(&mut self, bootstrap: &[NodeId], seed: u64) {
        match self {
            Node::Raptee(node) => node.rejoin_cold(bootstrap, seed),
            Node::Basalt(node) => node.rejoin_cold(bootstrap, seed),
            Node::Lift(node) => node.rejoin_cold(bootstrap, seed),
            Node::Honeybee(node) => node.rejoin_cold(bootstrap, seed),
        }
    }

    /// Warm rejoin after a short outage: the view survives and stale
    /// soft state is shed. Only a Brahms-family node probes its view
    /// through `is_alive`; a ranked node's stale samples are recycled
    /// by its own rotation.
    pub(super) fn rejoin_warm(&mut self, is_alive: impl FnMut(NodeId) -> bool) {
        match self {
            Node::Raptee(node) => {
                node.rejoin_warm(is_alive);
            }
            Node::Basalt(node) => {
                node.rejoin_warm();
            }
            Node::Lift(node) => {
                node.rejoin_warm();
            }
            Node::Honeybee(node) => {
                node.rejoin_warm();
            }
        }
    }

    /// The node gives up on `peer`, after a timeout or a conviction. A
    /// Brahms-family node drops the stale link from its view and trusted
    /// directory either way (Cyclon-style timeout handling). A ranked
    /// node evicts only a convicted identity: a dead peer's stale
    /// samples are recycled by seed rotation rather than an explicit
    /// removal. Returns whether the view may have changed.
    pub(super) fn drop_peer(&mut self, peer: NodeId, convicted: bool) -> bool {
        match self {
            Node::Raptee(node) => {
                node.brahms_mut().view_mut().remove(peer);
                node.forget_trusted_peer(peer);
                return true;
            }
            Node::Basalt(node) if convicted => {
                node.quarantine(peer);
            }
            Node::Lift(node) if convicted => {
                node.quarantine(peer);
            }
            Node::Honeybee(node) if convicted => {
                node.quarantine(peer);
            }
            _ => {}
        }
        false
    }
}

/// Static metadata of one population segment (see
/// [`crate::scenario::SegmentSpec`]): its protocol, its contiguous slice
/// `[start, start + len)` of the correct-population index space (also
/// its range of `Simulation::victims`, the pool the adversary aims its
/// segment-matched attack at) and the per-identity push fanout its
/// protocol grants. The adversary's budget split and the per-segment
/// fold read them; node storage does not.
pub(super) struct SegMeta {
    pub(super) protocol: Protocol,
    pub(super) start: usize,
    pub(super) len: usize,
    pub(super) fanout: usize,
}

impl SegMeta {
    /// The segment's population indices.
    #[inline]
    pub(super) fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// The correct population as [`Population::build`] lays it out.
pub(super) struct Population {
    pub(super) nodes: Vec<Node>,
    /// Per actor: provisioned into the trusted tier (genuine or
    /// injected).
    pub(super) trusted: Vec<bool>,
    pub(super) segs: Vec<SegMeta>,
    /// The largest view size in play: what a Byzantine pull answer
    /// holds.
    pub(super) answer_size: usize,
    /// The attestation service that certified every trusted platform
    /// and provisioned its group key.
    pub(super) attestation: AttestationService,
}

impl Population {
    /// Builds the correct nodes as contiguous per-protocol segments in
    /// [`Scenario::segments`] order — each segment's trusted tier first,
    /// distributed per [`Scenario::segment_trusted_counts`] and
    /// provisioned through the simulated attestation service — and then
    /// the adversary's injected view-poisoned trusted nodes, which
    /// bootstrap inside the Byzantine-only network `byz_ids`. Node seeds
    /// and bootstrap samples draw from `rng` in population order.
    pub(super) fn build(
        scenario: &Scenario,
        byz_ids: &[NodeId],
        rng: &mut Xoshiro256StarStar,
    ) -> Self {
        let n = scenario.n;
        let total = scenario.total_actors();
        let byz = byz_ids.len();
        let mut specs = scenario.segments();
        let trusted_counts = scenario.segment_trusted_counts();
        // Injected poisoned trusted nodes take the identities
        // `[n, total)`. `validate` admits them in uniform Brahms/RAPTEE
        // runs only, so they extend the one Raptee-family segment.
        if total > n {
            specs[0].count += total - n;
        }

        // Group-key provisioning through the full simulated attestation
        // flow: one certified platform per trusted node. The trust tier
        // takes the service over to renew certificates.
        let mut attestation = provisioning::new_attestation_service(scenario.seed ^ 0x6E0C);

        let all_ids: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        // One index table and one list buffer serve every bootstrap draw,
        // so a draw costs its `k`, not the population.
        let mut idx = IndexScratch::default();
        let mut bootstrap: Vec<NodeId> = Vec::new();

        // Byzantine actors are the identity prefix [0, byz) and carry no
        // state; the correct population follows, segment by segment,
        // each segment's trusted nodes first.
        let mut trusted = vec![false; total];
        let mut segs: Vec<SegMeta> = Vec::with_capacity(specs.len());
        let mut nodes: Vec<Node> = Vec::with_capacity(total - byz);
        let mut answer_size = 0;
        for (spec, &seg_trusted) in specs.iter().zip(&trusted_counts) {
            let start = nodes.len();
            // The view size bootstraps draw and answers hold, and the
            // per-identity push fanout.
            let family = scenario.family_config(spec.protocol);
            let (view_size, fanout) = match &family {
                FamilyConfig::Raptee(cfg) => (cfg.brahms.view_size, cfg.brahms.alpha_count()),
                FamilyConfig::Basalt(cfg) => (cfg.view_size, cfg.fanout()),
                FamilyConfig::Lift(cfg) => (cfg.view_size, cfg.fanout()),
                FamilyConfig::Honeybee(cfg) => (cfg.view_size, cfg.fanout()),
            };
            for i in 0..spec.count {
                let abs = byz + start + i;
                let is_injected = abs >= n;
                let seed = rng.next_u64();
                // Paper bootstrap: a uniform random sample of the global
                // membership — except injected nodes, which the adversary
                // bootstrapped inside a Byzantine-only network.
                let (pool, k) = if is_injected {
                    (byz_ids, view_size)
                } else {
                    (&all_ids[..], view_size + 2)
                };
                rng.sample_into(pool, k, &mut idx, &mut bootstrap);
                // Only RAPTEE and BASALT+TEE segments have a trusted tier
                // (`Scenario::segment_trusted_counts`).
                let key = (i < seg_trusted || is_injected).then(|| {
                    trusted[abs] = true;
                    let platform = membership::platform(abs);
                    provisioning::certify_and_provision(&mut attestation, platform)
                });
                let id = NodeId(abs as u64);
                nodes.push(match &family {
                    FamilyConfig::Raptee(cfg) => {
                        let cfg = cfg.clone();
                        let mut node = match key {
                            Some(key) => RapteeNode::new_trusted(id, cfg, &bootstrap, seed, key),
                            None => RapteeNode::new_untrusted(id, cfg, &bootstrap, seed),
                        };
                        // The seen-cache is pure memoization whose bitset
                        // grows toward one bit per live identity per node
                        // (≈ 125 KiB/node at N = 1,000,000): past the
                        // threshold that retires exact discovery bitsets,
                        // run uncached.
                        if total > EXACT_DISCOVERY_THRESHOLD {
                            node.brahms_mut().sampler_mut().disable_seen_cache();
                        }
                        Node::Raptee(node)
                    }
                    &FamilyConfig::Basalt(cfg) => Node::Basalt(match key {
                        Some(key) => BasaltNode::new_trusted(id, cfg, &bootstrap, seed, key),
                        None => BasaltNode::new(id, cfg, &bootstrap, seed),
                    }),
                    &FamilyConfig::Lift(cfg) => {
                        Node::Lift(LiftNode::new(id, cfg, &bootstrap, seed))
                    }
                    &FamilyConfig::Honeybee(cfg) => {
                        Node::Honeybee(HoneybeeNode::new(id, cfg, &bootstrap, seed))
                    }
                });
            }
            segs.push(SegMeta {
                protocol: spec.protocol,
                start,
                len: spec.count,
                fanout,
            });
            answer_size = answer_size.max(view_size);
        }
        Self {
            nodes,
            trusted,
            segs,
            answer_size,
            attestation,
        }
    }
}

impl Simulation {
    /// Checks the protocol invariants every correct node must hold
    /// between rounds. A Brahms-family node:
    ///
    /// * a live node's view passes `View::invariants_hold` (no
    ///   duplicate, never its owner), holds at most `view_size`
    ///   entries and only IDs of actors of this run;
    /// * its sampler has `sample_size` lanes;
    /// * a node that was never provisioned has an empty trusted
    ///   directory, and every directory entry is a provisioned trusted
    ///   actor other than the owner.
    ///
    /// A live ranked-family node samples at most its view size of IDs,
    /// never its own, and only actors of this run; a BASALT node's view
    /// also passes `BasaltView::invariants_hold` (every slot's sample
    /// matches its distance and hit count).
    ///
    /// Then the net's message conservation
    /// (`EventNet::check_conservation`).
    ///
    /// Run at the end of every [`Simulation::run_round`] in debug builds.
    /// It allocates nothing after its first call (views above 64 slots
    /// sort through one reused buffer; smaller ones need none), so
    /// allocation counts are the same in debug and release. Returns the
    /// first violation found.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        let (byz, total, round) = (self.byz_count, self.total_actors(), self.round);
        let (view_size, sample_size) = (self.scenario.view_size, self.scenario.sample_size);
        let ids = &mut self.invariant_ids;
        for (ci, node) in self.nodes.iter().enumerate() {
            let abs = byz + ci;
            let fail = |what: String| Err(format!("round {round}, node {abs}: {what}"));
            let node = match node {
                Node::Raptee(node) => node,
                ranked => {
                    if !self.alive[abs] {
                        continue;
                    }
                    let (mut len, mut own, mut stranger) = (0, false, None);
                    ranked.for_each_view_id(|id| {
                        len += 1;
                        own |= id.index() == abs;
                        if id.index() >= total {
                            stranger.get_or_insert(id);
                        }
                    });
                    let cap = ranked.view_size();
                    if len > cap {
                        return fail(format!("samples {len} > {cap} IDs"));
                    }
                    if own {
                        return fail("samples its own ID".into());
                    }
                    if let Some(id) = stranger {
                        return fail(format!("samples {id:?}, not an actor of this run"));
                    }
                    if matches!(ranked, Node::Basalt(b) if !b.view().invariants_hold()) {
                        return fail("BASALT view breaks a slot invariant".into());
                    }
                    continue;
                }
            };
            let view = node.brahms().view();
            if self.alive[abs] {
                if !view.invariants_hold_using(ids) {
                    return fail(format!(
                        "view {:?} holds a duplicate or itself",
                        view.id_vec()
                    ));
                }
                if view.len() > view_size {
                    return fail(format!("view holds {} > {view_size} entries", view.len()));
                }
                if let Some(id) = view.ids().find(|id| id.index() >= total) {
                    return fail(format!("view holds {id:?}, not an actor of this run"));
                }
            }
            let lanes = node.brahms().sampler().len();
            if lanes != sample_size {
                return fail(format!("sampler has {lanes} lanes, not {sample_size}"));
            }
            let dir = node.directory();
            if !self.trusted[abs] && !dir.is_empty() {
                return fail(format!(
                    "never provisioned, yet its directory holds {:?}",
                    dir.id_vec()
                ));
            }
            if !dir.invariants_hold_using(ids) {
                return fail(format!(
                    "directory {:?} holds a duplicate or itself",
                    dir.id_vec()
                ));
            }
            if let Some(id) = dir
                .ids()
                .find(|id| !self.trusted.get(id.index()).copied().unwrap_or(false))
            {
                return fail(format!(
                    "directory holds {id:?}, not a provisioned trusted actor"
                ));
            }
        }
        self.net
            .check_conservation()
            .map_err(|violation| format!("round {round}, net: {violation}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptee::RapteeConfig;
    use raptee_basalt::BasaltConfig;
    use raptee_honeybee::HoneybeeConfig;
    use raptee_lift::LiftConfig;

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn sample(node: &Node) -> Vec<NodeId> {
        let mut out = Vec::new();
        node.for_each_view_id(|id| out.push(id));
        out
    }

    /// One untrusted node of every family at view 8 over the same
    /// bootstrap, the Brahms-family one first.
    fn each_family() -> [Node; 4] {
        let boot = ids(1..9);
        [
            Node::Raptee(RapteeNode::new_untrusted(
                NodeId(0),
                RapteeConfig::paper_defaults(8),
                &boot,
                42,
            )),
            Node::Basalt(BasaltNode::new(
                NodeId(0),
                BasaltConfig::for_view(8, 0),
                &boot,
                42,
            )),
            Node::Lift(LiftNode::new(
                NodeId(0),
                LiftConfig::for_view(8, 10),
                &boot,
                42,
            )),
            Node::Honeybee(HoneybeeNode::new(
                NodeId(0),
                HoneybeeConfig::for_view(8, 3),
                &boot,
                42,
            )),
        ]
    }

    fn ranked_families() -> impl Iterator<Item = Node> {
        each_family().into_iter().skip(1)
    }

    #[test]
    fn every_family_reports_its_view_size() {
        for node in each_family() {
            assert_eq!(node.view_size(), 8);
            assert!(sample(&node).len() <= 8);
        }
    }

    #[test]
    fn every_family_plans_within_its_budget() {
        for mut node in each_family() {
            let mut plan = RoundPlan::default();
            node.plan_into(&mut plan);
            assert!(plan.push_targets.len() <= 3, "round(0.4·8) push budget");
            assert!(!plan.push_targets.is_empty(), "every family gossips");
            assert!(!plan.pull_targets.is_empty(), "every family pulls");
        }
    }

    #[test]
    fn every_ranked_family_takes_pushes_and_both_answers() {
        for mut node in ranked_families() {
            node.record_push(NodeId(30));
            let mut reply = Vec::new();
            node.answer_into(&mut reply);
            assert!(!reply.is_empty());
            assert!(!reply.contains(&NodeId(0)), "never answers itself");
            node.record_pull_answer(NodeId(3), &ids(20..24), false);
            node.record_pull_answer(NodeId(4), &ids(24..28), true);
            assert!(sample(&node).iter().all(|id| id.0 < 40));
        }
        // A Brahms-family answer is its whole dynamic view.
        let mut raptee = each_family().into_iter().next().unwrap();
        let mut reply = Vec::new();
        raptee.answer_into(&mut reply);
        assert_eq!(reply, sample(&raptee));
    }

    #[test]
    fn every_family_rejoins_warm_and_cold() {
        for mut node in each_family() {
            node.rejoin_warm(|_| true);
            assert!(!sample(&node).is_empty(), "a warm rejoin keeps the view");
            node.rejoin_cold(&ids(40..48), 77);
            let view = sample(&node);
            assert!(!view.is_empty());
            assert!(
                view.iter().all(|id| (40..48).contains(&id.0)),
                "a cold rejoin starts over from its bootstrap: {view:?}"
            );
        }
    }

    #[test]
    fn only_a_conviction_evicts_from_a_ranked_view() {
        for mut node in each_family() {
            let peer = sample(&node)[0];
            let brahms = matches!(node, Node::Raptee(_));
            // A timeout: the Brahms family drops the link, a ranked node
            // keeps the sample for its rotation to recycle.
            assert_eq!(node.drop_peer(peer, false), brahms);
            assert_eq!(sample(&node).contains(&peer), !brahms);
            // A conviction evicts everywhere.
            node.drop_peer(peer, true);
            assert!(!sample(&node).contains(&peer));
        }
    }
}
