//! The engine's ranked-family node surface: one wrapper over the three
//! non-Brahms protocol crates.
//!
//! BASALT (+TEE), LIFT and Honeybee share an exchange shape the engine
//! exploits: caller-owned push/pull plans, push observation, materialised
//! pull answers, quarantine, and a per-round finalisation — with no
//! Brahms sampler or trusted directory. [`RankedNode`] multiplexes the
//! three node types behind that shared surface so the engine's
//! plan/exchange/finish phases, churn rejoin paths and metric folds are
//! written once. Delegation is direct (no RNG draws, no reordering), so
//! wrapping `BasaltNode` leaves every pre-existing BASALT golden
//! byte-identical.

use raptee_basalt::{BasaltConfig, BasaltNode, BasaltPlan, WlistReport};
use raptee_honeybee::{HoneybeeConfig, HoneybeeNode};
use raptee_lift::{LiftConfig, LiftNode};
use raptee_net::NodeId;

/// Configuration of one ranked-family segment: which of the three
/// protocols it runs and with what parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankedCfg {
    /// BASALT ranked hit-counter views (also the BASALT+TEE hybrid,
    /// whose trusted tier is an engine concern).
    Basalt(BasaltConfig),
    /// LIFT hub-score-weighted views.
    Lift(LiftConfig),
    /// Honeybee verifiable-random-walk sampling.
    Honeybee(HoneybeeConfig),
}

impl RankedCfg {
    /// The protocol's view size `v`.
    pub fn view_size(&self) -> usize {
        match self {
            RankedCfg::Basalt(c) => c.view_size,
            RankedCfg::Lift(c) => c.view_size,
            RankedCfg::Honeybee(c) => c.view_size,
        }
    }

    /// Push messages per round (the per-identity rate-limiter budget).
    pub fn push_count(&self) -> usize {
        match self {
            RankedCfg::Basalt(c) => c.push_count,
            RankedCfg::Lift(c) => c.push_count,
            RankedCfg::Honeybee(c) => c.push_count,
        }
    }
}

/// One correct node of a ranked-family segment.
///
/// Every method delegates to the wrapped node; operations a family
/// lacks degrade explicitly (LIFT has no waiting list → empty drain
/// report; only BASALT rotates seeds → zero rotation count; only
/// BASALT+TEE has trusted members → `is_trusted` is `false` elsewhere).
#[derive(Debug, Clone)]
pub enum RankedNode {
    /// A BASALT (or BASALT+TEE) node.
    Basalt(BasaltNode),
    /// A LIFT node.
    Lift(LiftNode),
    /// A Honeybee node.
    Honeybee(HoneybeeNode),
}

impl RankedNode {
    /// Creates an untrusted node of `cfg`'s family, bootstrapped over
    /// `bootstrap` with the node-local RNG seeded from `seed`.
    pub fn new(id: NodeId, cfg: &RankedCfg, bootstrap: &[NodeId], seed: u64) -> Self {
        match cfg {
            RankedCfg::Basalt(c) => RankedNode::Basalt(BasaltNode::new(id, *c, bootstrap, seed)),
            RankedCfg::Lift(c) => RankedNode::Lift(LiftNode::new(id, *c, bootstrap, seed)),
            RankedCfg::Honeybee(c) => {
                RankedNode::Honeybee(HoneybeeNode::new(id, *c, bootstrap, seed))
            }
        }
    }

    /// The node's identity.
    pub fn id(&self) -> NodeId {
        match self {
            RankedNode::Basalt(n) => n.id(),
            RankedNode::Lift(n) => n.id(),
            RankedNode::Honeybee(n) => n.id(),
        }
    }

    /// The node's configured view size `v`.
    pub fn view_size(&self) -> usize {
        match self {
            RankedNode::Basalt(n) => n.config().view_size,
            RankedNode::Lift(n) => n.config().view_size,
            RankedNode::Honeybee(n) => n.config().view_size,
        }
    }

    /// The node's configured per-round push budget.
    pub fn push_count(&self) -> usize {
        match self {
            RankedNode::Basalt(n) => n.config().push_count,
            RankedNode::Lift(n) => n.config().push_count,
            RankedNode::Honeybee(n) => n.config().push_count,
        }
    }

    /// Whether this node belongs to an attested trusted tier (BASALT+TEE
    /// only; LIFT and Honeybee run no trusted tier).
    pub fn is_trusted(&self) -> bool {
        match self {
            RankedNode::Basalt(n) => n.is_trusted(),
            RankedNode::Lift(_) | RankedNode::Honeybee(_) => false,
        }
    }

    /// Plans this round's push and pull targets into the shared
    /// caller-owned plan buffer (cleared first).
    pub fn plan_round_into(&mut self, plan: &mut BasaltPlan) {
        match self {
            RankedNode::Basalt(n) => n.plan_round_into(plan),
            RankedNode::Lift(n) => {
                n.plan_round_into(&mut plan.push_targets, &mut plan.pull_targets)
            }
            RankedNode::Honeybee(n) => {
                n.plan_round_into(&mut plan.push_targets, &mut plan.pull_targets)
            }
        }
    }

    /// Processes one received push advertising `advertised`.
    pub fn record_push(&mut self, advertised: NodeId) {
        match self {
            RankedNode::Basalt(n) => n.record_push(advertised),
            RankedNode::Lift(n) => n.record_push(advertised),
            RankedNode::Honeybee(n) => n.record_push(advertised),
        }
    }

    /// Materialises this node's pull answer into `out` (cleared first).
    pub fn pull_answer_into(&mut self, out: &mut Vec<NodeId>) {
        match self {
            RankedNode::Basalt(n) => n.pull_answer_into(out),
            RankedNode::Lift(n) => n.pull_answer_into(out),
            RankedNode::Honeybee(n) => n.pull_answer_into(out),
        }
    }

    /// Processes the answer `ids` received from `responder` on the
    /// untrusted pull path.
    pub fn record_pull_answer(&mut self, responder: NodeId, ids: &[NodeId]) {
        match self {
            RankedNode::Basalt(n) => n.record_pull_answer(responder, ids),
            RankedNode::Lift(n) => n.record_pull_answer(responder, ids),
            RankedNode::Honeybee(n) => n.record_pull_answer(responder, ids),
        }
    }

    /// Processes an answer received over an attested trusted channel
    /// (bypasses the BASALT waiting list; LIFT and Honeybee have no
    /// trusted channel, so this is their ordinary answer path).
    pub fn record_pull_answer_trusted(&mut self, responder: NodeId, ids: &[NodeId]) {
        match self {
            RankedNode::Basalt(n) => n.record_pull_answer_trusted(responder, ids),
            RankedNode::Lift(n) => n.record_pull_answer(responder, ids),
            RankedNode::Honeybee(n) => n.record_pull_answer(responder, ids),
        }
    }

    /// Expunges a convicted peer from all protocol state; returns the
    /// number of vacated view slots.
    pub fn quarantine(&mut self, id: NodeId) -> usize {
        match self {
            RankedNode::Basalt(n) => n.quarantine(id),
            RankedNode::Lift(n) => n.quarantine(id),
            RankedNode::Honeybee(n) => n.quarantine(id),
        }
    }

    /// Runs the per-round waiting-list verification drain (`is_alive`
    /// models the probe contact). LIFT keeps no waiting list, so its
    /// drain is an explicit no-op.
    pub fn drain_wlist(&mut self, is_alive: impl FnMut(NodeId) -> bool) -> WlistReport {
        match self {
            RankedNode::Basalt(n) => n.drain_wlist(is_alive),
            RankedNode::Lift(_) => WlistReport::default(),
            RankedNode::Honeybee(n) => n.drain_wlist(is_alive),
        }
    }

    /// Finalises the round; returns the number of view slots rotated
    /// (seed rotation is BASALT-specific — zero for LIFT/Honeybee).
    pub fn finish_round(&mut self) -> usize {
        match self {
            RankedNode::Basalt(n) => n.finish_round().rotated,
            RankedNode::Lift(n) => {
                n.finish_round();
                0
            }
            RankedNode::Honeybee(n) => {
                n.finish_round();
                0
            }
        }
    }

    /// Cold crash–restart rejoin: full protocol-state reset over a fresh
    /// bootstrap set and RNG seed.
    pub fn rejoin_cold(&mut self, bootstrap: &[NodeId], seed: u64) {
        match self {
            RankedNode::Basalt(n) => n.rejoin_cold(bootstrap, seed),
            RankedNode::Lift(n) => n.rejoin_cold(bootstrap, seed),
            RankedNode::Honeybee(n) => n.rejoin_cold(bootstrap, seed),
        }
    }

    /// Warm rejoin after a short outage: stale soft state is shed, the
    /// view survives. Returns how much soft state was dropped.
    pub fn rejoin_warm(&mut self) -> usize {
        match self {
            RankedNode::Basalt(n) => n.rejoin_warm(),
            RankedNode::Lift(n) => n.rejoin_warm(),
            RankedNode::Honeybee(n) => n.rejoin_warm(),
        }
    }

    /// Visits every currently sampled view entry (the protocol's actual
    /// peer sample — BASALT slots may still be empty early on).
    pub fn for_each_sample(&self, mut f: impl FnMut(NodeId)) {
        match self {
            RankedNode::Basalt(n) => n.view().sample_iter().for_each(&mut f),
            RankedNode::Lift(n) => n.view().iter().copied().for_each(&mut f),
            RankedNode::Honeybee(n) => n.view().iter().copied().for_each(&mut f),
        }
    }

    /// The current sampled view as an owned list (metrics/seeding
    /// convenience over [`RankedNode::for_each_sample`]).
    pub fn sample_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_sample(|id| out.push(id));
        out
    }

    /// The wrapped BASALT node, when this is one.
    pub fn as_basalt(&self) -> Option<&BasaltNode> {
        match self {
            RankedNode::Basalt(n) => Some(n),
            _ => None,
        }
    }

    /// The wrapped LIFT node, when this is one.
    pub fn as_lift(&self) -> Option<&LiftNode> {
        match self {
            RankedNode::Lift(n) => Some(n),
            _ => None,
        }
    }

    /// The wrapped Honeybee node, when this is one.
    pub fn as_honeybee(&self) -> Option<&HoneybeeNode> {
        match self {
            RankedNode::Honeybee(n) => Some(n),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn each_family() -> Vec<(RankedCfg, RankedNode)> {
        let boot = ids(1..9);
        [
            RankedCfg::Basalt(BasaltConfig::for_view(8, 0)),
            RankedCfg::Lift(LiftConfig::for_view(8, 10)),
            RankedCfg::Honeybee(HoneybeeConfig::for_view(8, 3)),
        ]
        .into_iter()
        .map(|cfg| (cfg, RankedNode::new(NodeId(0), &cfg, &boot, 42)))
        .collect()
    }

    #[test]
    fn cfg_accessors_agree_with_the_inner_config() {
        for (cfg, _) in each_family() {
            assert_eq!(cfg.view_size(), 8);
            assert_eq!(cfg.push_count(), 3, "round(0.4·8) budget parity");
        }
    }

    #[test]
    fn every_family_plans_within_its_budget() {
        for (cfg, mut node) in each_family() {
            let mut plan = BasaltPlan::default();
            node.plan_round_into(&mut plan);
            assert!(
                plan.push_targets.len() <= cfg.push_count(),
                "{cfg:?} push budget"
            );
            assert!(!plan.push_targets.is_empty(), "{cfg:?} must gossip");
            node.finish_round();
        }
    }

    #[test]
    fn exchange_surface_delegates_everywhere() {
        for (_, mut node) in each_family() {
            node.record_push(NodeId(30));
            let mut reply = Vec::new();
            node.pull_answer_into(&mut reply);
            assert!(!reply.is_empty());
            node.record_pull_answer(NodeId(3), &ids(20..24));
            node.record_pull_answer_trusted(NodeId(4), &ids(24..28));
            node.quarantine(NodeId(3));
            node.drain_wlist(|_| true);
            node.finish_round();
            node.for_each_sample(|id| assert_ne!(id, NodeId(3), "quarantined"));
        }
    }

    #[test]
    fn rejoin_paths_delegate_everywhere() {
        for (_, mut node) in each_family() {
            node.rejoin_warm();
            node.rejoin_cold(&ids(40..48), 77);
            assert!(node.sample_ids().iter().all(|id| id.0 >= 40 && id.0 < 48));
        }
    }

    #[test]
    fn family_accessors_are_exclusive() {
        let fams = each_family();
        assert!(fams[0].1.as_basalt().is_some() && fams[0].1.as_lift().is_none());
        assert!(fams[1].1.as_lift().is_some() && fams[1].1.as_honeybee().is_none());
        assert!(fams[2].1.as_honeybee().is_some() && fams[2].1.as_basalt().is_none());
        assert!(!fams[2].1.is_trusted());
    }
}
