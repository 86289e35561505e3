//! The correct population: one flat arena of [`Node`]s laid out as
//! contiguous per-protocol segments, how it is built, and the invariants
//! every node holds between rounds.

use super::Simulation;
use crate::bitset::EXACT_DISCOVERY_THRESHOLD;
use crate::ranked::{RankedCfg, RankedNode};
use crate::scenario::{Protocol, Scenario};
use raptee::provisioning;
use raptee::{RapteeConfig, RapteeNode};
use raptee_basalt::{BasaltConfig, BasaltNode};
use raptee_brahms::BrahmsConfig;
use raptee_honeybee::HoneybeeConfig;
use raptee_lift::LiftConfig;
use raptee_net::NodeId;
use raptee_util::rng::{IndexScratch, Xoshiro256StarStar};

/// One correct node. The correct population is one flat arena of these,
/// stored densely and unboxed by population index. Byzantine actors are
/// pure identities (the adversary coordinates them centrally), so they
/// occupy no node state at all: actor index `i` maps to population index
/// `i - byz_count` for `i >= byz_count`. `Ranked` carries the whole
/// ranked family (BASALT, BASALT+TEE, LIFT, Honeybee) behind the
/// [`RankedNode`] delegation surface; it is the smaller variant, so a
/// `Node` costs exactly a `RapteeNode`.
pub(super) enum Node {
    Raptee(RapteeNode),
    Ranked(RankedNode),
}

impl Node {
    /// The Brahms-family node, for callers that found it in a
    /// Brahms-family segment (segments are homogeneous by construction).
    pub(super) fn raptee_mut(&mut self) -> &mut RapteeNode {
        match self {
            Node::Raptee(node) => node,
            Node::Ranked(_) => unreachable!("a ranked node inside a Brahms-family segment"),
        }
    }

    /// The ranked-family node, for callers that found it in a ranked
    /// segment.
    pub(super) fn ranked_mut(&mut self) -> &mut RankedNode {
        match self {
            Node::Ranked(node) => node,
            Node::Raptee(_) => unreachable!("a Brahms-family node inside a ranked segment"),
        }
    }

    /// Visits the IDs pollution and discovery are read from: the dynamic
    /// view of a Brahms-family node, the current sample of a ranked one.
    pub(super) fn for_each_view_id(&self, f: impl FnMut(NodeId)) {
        match self {
            Node::Raptee(node) => node.brahms().view().ids().for_each(f),
            Node::Ranked(node) => node.for_each_sample(f),
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
            Node::Ranked(node) => node.pull_answer_into(out),
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
                true
            }
            Node::Ranked(node) => {
                if convicted {
                    node.quarantine(peer);
                }
                false
            }
        }
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

/// The ranked-family configuration `protocol` runs under, or `None` for
/// the Brahms family.
fn ranked_cfg_of(protocol: Protocol) -> Option<RankedCfg> {
    match protocol {
        Protocol::Basalt {
            view_size,
            rotation_interval,
        } => Some(RankedCfg::Basalt(BasaltConfig::for_view(
            view_size,
            rotation_interval,
        ))),
        Protocol::BasaltTee {
            view_size,
            rotation_interval,
            wlist_ttl,
        } => Some(RankedCfg::Basalt(if wlist_ttl > 0 {
            BasaltConfig::with_wlist(view_size, rotation_interval, wlist_ttl)
        } else {
            BasaltConfig::for_view(view_size, rotation_interval)
        })),
        Protocol::Lift {
            view_size,
            fade_interval,
        } => Some(RankedCfg::Lift(LiftConfig::for_view(
            view_size,
            fade_interval,
        ))),
        Protocol::Honeybee {
            view_size,
            walk_length,
        } => Some(RankedCfg::Honeybee(HoneybeeConfig::for_view(
            view_size,
            walk_length,
        ))),
        Protocol::Brahms | Protocol::Raptee => None,
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

        let gamma = scenario.gamma;
        let ab = (1.0 - gamma) / 2.0;
        let alpha_count = (ab * scenario.view_size as f64).round();
        let flood_threshold = if scenario.flood_slack_sigmas > 0.0 {
            Some((alpha_count + scenario.flood_slack_sigmas * alpha_count.sqrt()).round() as usize)
        } else {
            None
        };
        let config = RapteeConfig {
            brahms: BrahmsConfig {
                view_size: scenario.view_size,
                sample_size: scenario.sample_size,
                alpha: ab,
                beta: ab,
                gamma,
                flood_threshold,
            },
            eviction: scenario.eviction,
        };

        // Group-key provisioning through the full simulated attestation
        // flow: one certified platform per trusted node.
        let mut attestation = provisioning::new_attestation_service(scenario.seed ^ 0x6E0C);
        let mut provision =
            |platform: u64| provisioning::certify_and_provision(&mut attestation, platform);

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
            let ranked_cfg = ranked_cfg_of(spec.protocol);
            for i in 0..spec.count {
                let abs = byz + start + i;
                let id = NodeId(abs as u64);
                let seed = rng.next_u64();
                let node = if let Some(rcfg) = ranked_cfg {
                    rng.sample_into(&all_ids, rcfg.view_size() + 2, &mut idx, &mut bootstrap);
                    Node::Ranked(if i < seg_trusted {
                        trusted[abs] = true;
                        let key = provision(0x1000 + abs as u64);
                        let RankedCfg::Basalt(bcfg) = rcfg else {
                            unreachable!("only BASALT+TEE segments provision a trusted tier")
                        };
                        RankedNode::Basalt(BasaltNode::new_trusted(id, bcfg, &bootstrap, seed, key))
                    } else {
                        RankedNode::new(id, &rcfg, &bootstrap, seed)
                    })
                } else {
                    let is_injected = abs >= n;
                    // Paper bootstrap: a uniform random sample of the
                    // global membership — except injected nodes, which
                    // the adversary bootstrapped inside a Byzantine-only
                    // network.
                    let (pool, k) = if is_injected {
                        (byz_ids, scenario.view_size)
                    } else {
                        (&all_ids[..], scenario.view_size + 2)
                    };
                    rng.sample_into(pool, k, &mut idx, &mut bootstrap);
                    let mut node = if i < seg_trusted || is_injected {
                        trusted[abs] = true;
                        let key = provision(0x1000 + abs as u64);
                        RapteeNode::new_trusted(id, config.clone(), &bootstrap, seed, key)
                    } else {
                        RapteeNode::new_untrusted(id, config.clone(), &bootstrap, seed)
                    };
                    // The sampler seen-cache is pure memoization
                    // (identical samples either way) whose backing
                    // bitset grows toward one bit per live identity *per
                    // node* — an O(N²)-bit structure in aggregate
                    // (≈ 125 KiB/node at N = 1,000,000, dwarfing the
                    // protocol state). Past the same population
                    // threshold that retires exact discovery bitsets,
                    // run uncached.
                    if total > EXACT_DISCOVERY_THRESHOLD {
                        node.brahms_mut().sampler_mut().limit_seen_cache(0);
                    }
                    Node::Raptee(node)
                };
                nodes.push(node);
            }
            segs.push(SegMeta {
                protocol: spec.protocol,
                start,
                len: spec.count,
                fanout: ranked_cfg.map_or(config.brahms.alpha_count(), |c| c.push_count()),
            });
            answer_size = answer_size.max(ranked_cfg.map_or(scenario.view_size, |c| c.view_size()));
        }
        Self {
            nodes,
            trusted,
            segs,
            answer_size,
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
    /// ([`EventNet::check_conservation`](crate::event::EventNet::check_conservation)).
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
                Node::Ranked(node) => {
                    if !self.alive[abs] {
                        continue;
                    }
                    let (mut len, mut own, mut stranger) = (0, false, None);
                    node.for_each_sample(|id| {
                        len += 1;
                        own |= id.index() == abs;
                        if id.index() >= total {
                            stranger.get_or_insert(id);
                        }
                    });
                    let cap = node.view_size();
                    if len > cap {
                        return fail(format!("samples {len} > {cap} IDs"));
                    }
                    if own {
                        return fail("samples its own ID".into());
                    }
                    if let Some(id) = stranger {
                        return fail(format!("samples {id:?}, not an actor of this run"));
                    }
                    if node
                        .as_basalt()
                        .is_some_and(|b| !b.view().invariants_hold())
                    {
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
