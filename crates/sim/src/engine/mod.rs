//! The synchronous, phase-parallel round engine.
//!
//! Wires together the Brahms-family (Brahms, RAPTEE) and ranked-family
//! (BASALT, BASALT+TEE, LIFT, Honeybee) nodes, the limited-pushes
//! defence, the adversary, and the metric collectors. One [`Simulation`]
//! executes one run of one [`Scenario`]; the [`crate::runner`] module
//! handles repetition and sweeps.
//!
//! There is one lane: the correct population is one flat arena of
//! nodes, one `enum` over the two families, laid out as contiguous
//! per-protocol segments ([`Scenario::segments`]); a uniform run is
//! simply a one-segment population. Every family therefore faces the
//! same limiter, loss stream and adversary by construction, and shared
//! sequential streams are consumed in population-index order. Segments
//! survive only as index ranges: the adversary splits its budget by
//! them, the fold reports per segment, and the phases only one family
//! runs walk that family's segment slices. Delivery has one lane too:
//! every message leaves through the run's [`EventNet`], and a lockstep
//! run is the net at zero latency.
//!
//! # One round, file by file
//!
//! [`Simulation::run_round`] (this file) does the membership
//! housekeeping — churn, trust-tier expiry and the trusted-directory
//! refresh (`membership.rs`) — then `protocol_round` (`phases.rs`), a
//! skeleton of one call per phase, then the audit pass (`audit.rs`) and
//! the recovery metrics. The phases, mirroring the paper's 2.5 s
//! protocol rounds:
//!
//! 1. **plan** (parallel, one pass over the arena) — `plan_round_into`
//!    draws only from the node's own RNG stream; the same pass
//!    snapshots each Brahms-family view into a flat arena for deferred
//!    pull answers.
//! 2. **pushes** (sequential control) — honest pushes, then the
//!    adversary's segment-matched faulty pushes (it saturates exactly
//!    its lawful budget; `Adversary::plan_attack`, the one planner,
//!    plans each segment's share), through the per-identity rate
//!    limiter and one routing step (`route_push`: liveness, loss, net),
//!    into two `PushLane`s counting-sorted by receiver; ranked receivers
//!    rank their runs in a parallel pass over the ranked segments'
//!    slices.
//! 3. **exchange** (sequential control, `exchange.rs`) — everything that
//!    consumes a *shared* ordered stream: the loss RNG, the adversary's
//!    coordinator RNG and the (rare) trusted view-swaps. One `pull`
//!    serves both families, and one `deliver` decides how the requester
//!    takes a materialised answer, fresh or due from an earlier round.
//!    Instead of copying answer IDs, a Brahms-family requester records
//!    *pull events*: a reference into the view-snapshot arena when the
//!    responder's view was still untouched at pull time, a materialised
//!    copy when it had already mutated (swap or churn removal), or the
//!    slot of an adversary-RNG snapshot for Byzantine answers
//!    (regenerated in parallel later). Ranked answers rank on arrival,
//!    which makes them order-dependent: this phase never shards. The
//!    RAPTEE and ranked trusted-directory exchanges and the
//!    identification attack's observation pulls follow.
//! 4. **apply** (parallel, one pass over the arena) — each Brahms-family
//!    node reconstructs its push/pull streams from the shared arenas
//!    into per-**worker** scratch (`arena.rs`) and finalises its round
//!    (eviction → Brahms defences → view renewal → sampling), each
//!    ranked node drains its waiting list and finalises; per-node metric
//!    observations land in per-node stat slots.
//! 5. **fold** (sequential, `fold.rs`) — stat slots are folded in
//!    node-index order, so every floating-point accumulation happens in
//!    exactly the historical order; the adaptive bandit is rewarded.
//!
//! A single run thereby uses every worker of the rayon shim while
//! staying **bit-identical at any thread count** (pinned by
//! `tests/determinism.rs`). Deferring the pull answers is also the
//! engine's struct-of-arrays memory win: per-node state holds none of
//! the ~`β·l1 × l1`-entry pull buffers that dominated peak RSS at paper
//! scale — the streams only ever exist in a handful of per-worker
//! arenas. The population itself, its construction and its per-round
//! invariants live in `population.rs`.

mod arena;
mod audit;
mod exchange;
mod fold;
mod membership;
mod phases;
mod population;
#[cfg(test)]
mod tests;

use crate::adversary::{AdaptiveCoordinator, Adversary};
use crate::audit::Challenger;
use crate::bitset::Discovery;
use crate::event::EventNet;
use crate::metrics::{IdentificationResult, RunResult};
use crate::scenario::{AdversaryMode, Scenario};
use arena::{Scratch, ShareRings, WorkerScratch};
use fold::RunTally;
use membership::{RecoveryState, TrustTier};
use population::{Node, Population, SegMeta};
use raptee::RapteeNode;
use raptee_basalt::BasaltNode;
use raptee_net::{NodeId, PushRateLimiter};
use raptee_util::rng::{mix64, Xoshiro256StarStar};

/// One deterministic simulation run.
pub struct Simulation {
    scenario: Scenario,
    /// The correct population by population index, segment after
    /// segment in layout order.
    nodes: Vec<Node>,
    /// Segment metadata, in layout order.
    segs: Vec<SegMeta>,
    trusted: Vec<bool>,
    alive: Vec<bool>,
    loss_rng: Xoshiro256StarStar,
    byz_count: usize,
    non_byz_total: usize,
    round: usize,
    adversary: Adversary,
    limiter: PushRateLimiter,
    /// The per-identity push allowance the limiter grants: the largest
    /// fanout any segment uses (equal across segments at matched view
    /// sizes). The adversary's lawful budget is `byz_count` times this.
    limiter_fanout: usize,
    /// Per-node discovery state of every non-Byzantine actor: exact
    /// bitset rows below [`crate::bitset::EXACT_DISCOVERY_THRESHOLD`]
    /// actors, HLL sketches above (rows by population index,
    /// universe = absolute indices).
    discovery: Discovery,
    /// Per-node rings of recent per-round view pollution shares, used
    /// for the smoothed spread-stability criterion.
    share_rings: ShareRings,
    /// All non-Byzantine actor IDs by population index (the adversary's
    /// victim pool; alive filtering happens at delivery time) — built
    /// once. Segment `s` owns `victims[s.start..s.start + s.len]`, and
    /// the prefix below `Scenario::n` (everything but injected nodes) is
    /// what the identification attack may observe.
    victims: Vec<NodeId>,
    /// Reusable round buffers (see `Scratch`).
    scratch: Scratch,
    /// Per-worker arenas for the parallel phases.
    workers: Vec<WorkerScratch>,
    /// The delivery substrate every message leaves through — at the
    /// all-zero configuration under
    /// [`NetworkModel::Rounds`](crate::scenario::NetworkModel::Rounds),
    /// where every message lands in its sending round.
    net: EventNet,
    /// The run-long series and counters the fold builds.
    tally: RunTally,
    best_identification: Option<IdentificationResult>,
    /// Seed of the hash-derived churn draws (steady crashes, restarts,
    /// cold-rejoin bootstraps). Dedicated stream: churn never consumes
    /// `loss_rng` or any node RNG, so the all-off configuration replays
    /// the historical draw sequences bit-for-bit.
    churn_seed: u64,
    /// Recovery accounting (`None` unless dynamic churn or attestation
    /// expiry is active).
    recovery: Option<RecoveryState>,
    /// Trusted-tier degradation state (`None` unless `attest_ttl > 0`).
    trust: Option<TrustTier>,
    /// The audit challenger (`None` unless `Scenario::audit` is set) —
    /// merkle view commitments, beacon-driven challenges, quarantine.
    audit: Option<Challenger>,
    /// The adaptive adversary's bandit scheduler (`None` unless
    /// `Scenario::adversary_mode` is `Adaptive`) — arms are
    /// segment × strategy pairs, re-allocated the whole lawful budget
    /// each round by observed pollution yield. Consumes no RNG stream.
    bandit: Option<AdaptiveCoordinator>,
    /// BASALT-family proactive trusted directory: absolute indices of
    /// live effective-trusted, non-quarantined actors, rebuilt every
    /// `Scenario::trusted_directory_refresh` rounds (empty while the
    /// refresh is off).
    trusted_dir: Vec<u32>,
    /// The sort buffer of [`Simulation::check_invariants`].
    invariant_ids: Vec<NodeId>,
}

impl Simulation {
    /// Builds the population: Byzantine identities, then the correct
    /// nodes as contiguous per-protocol segments in
    /// [`Scenario::segments`] order — trusted tiers distributed per
    /// [`Scenario::segment_trusted_counts`] and provisioned through the
    /// simulated attestation service — and optionally the adversary's
    /// injected view-poisoned trusted nodes. With churn, expiry, audits
    /// and the adaptive adversary off, every optional subsystem stays
    /// `None` — the historical engine, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics with the [`ScenarioError`](crate::ScenarioError)'s message
    /// (`knob: reason`) when [`Scenario::validate`] rejects `scenario`;
    /// call `validate` first to get the error as a value.
    pub fn new(scenario: Scenario) -> Self {
        if let Err(e) = scenario.validate() {
            panic!("{e}");
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(scenario.seed);
        let (n, total, byz) = (
            scenario.n,
            scenario.total_actors(),
            scenario.byzantine_count(),
        );
        let byz_ids: Vec<NodeId> = (0..byz as u64).map(NodeId).collect();
        let Population {
            nodes,
            trusted,
            segs,
            answer_size,
            attestation,
        } = Population::build(&scenario, &byz_ids, &mut rng);
        let non_byz_total = total - byz;

        // Discovery state (non-Byzantine actors only) seeded with the
        // bootstrap view and the node itself.
        let mut discovery = Discovery::new(non_byz_total, total, scenario.sketch_discovery());
        for (ci, node) in nodes.iter().enumerate() {
            discovery.insert(ci, byz + ci);
            node.for_each_view_id(|id| {
                if id.index() >= byz {
                    discovery.insert(ci, id.index());
                }
            });
        }

        // The limiter grants the largest per-identity fanout any segment
        // uses (equal across segments at matched view sizes).
        let limiter_fanout = segs.iter().map(|x| x.fanout).max().unwrap_or(1);
        let mut adversary = Adversary::new(byz_ids, total, answer_size, rng.next_u64());
        // Section VI-B: the adversary advertises its injected poisoned
        // trusted nodes so the system contacts them and the poison can
        // flow into the genuine trusted tier.
        adversary.advertise_injected((n..total).map(|i| NodeId(i as u64)));
        Self {
            adversary,
            limiter: PushRateLimiter::new(total, limiter_fanout as u32),
            limiter_fanout,
            alive: vec![true; total],
            loss_rng: rng.split(),
            byz_count: byz,
            discovery,
            share_rings: ShareRings::new(non_byz_total),
            victims: (byz..total).map(|i| NodeId(i as u64)).collect(),
            tally: RunTally::new(scenario.rounds, segs.len(), non_byz_total),
            scratch: Scratch::default(),
            workers: Vec::new(),
            net: EventNet::from_scenario(&scenario),
            non_byz_total,
            round: 0,
            best_identification: None,
            churn_seed: mix64(scenario.seed ^ 0x0C4A_54E5_50DD_BA11),
            recovery: RecoveryState::new(&scenario, non_byz_total),
            trust: TrustTier::new(&scenario, &trusted, attestation),
            audit: scenario
                .audit
                .map(|cfg| Challenger::new(cfg, scenario.seed, total, byz)),
            // The coordinator is pure bookkeeping (no RNG), so
            // static-mode runs — where it stays `None` — replay
            // byte-identically.
            bandit: (scenario.adversary_mode == AdversaryMode::Adaptive)
                .then(|| AdaptiveCoordinator::for_segments(segs.len())),
            trusted_dir: Vec::new(),
            invariant_ids: Vec::new(),
            nodes,
            trusted,
            segs,
            scenario,
        }
    }

    /// Total actors in the run (Byzantine identities + correct nodes).
    pub(crate) fn total_actors(&self) -> usize {
        self.byz_count + self.non_byz_total
    }

    /// Whether actor `id` is alive (crashed nodes stop participating;
    /// `false` for an ID that names no actor).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive.get(id.index()).copied().unwrap_or(false)
    }

    /// Whether actor `id` is a (genuine or injected) trusted node
    /// (`false` for an ID that names no actor).
    pub fn is_trusted(&self, id: NodeId) -> bool {
        self.trusted.get(id.index()).copied().unwrap_or(false)
    }

    /// How many values the audit beacon has produced so far (0 when
    /// audits are off — the stream must never be touched in that case).
    pub fn audit_beacon_draws(&self) -> u64 {
        self.audit.as_ref().map_or(0, |a| a.beacon_draws())
    }

    /// Whether actor `id` has been convicted and quarantined by the
    /// challenger (always false when audits are off, and for an ID that
    /// names no actor).
    pub fn is_quarantined(&self, id: NodeId) -> bool {
        id.index() < self.total_actors()
            && self
                .audit
                .as_ref()
                .is_some_and(|a| a.is_quarantined(id.index()))
    }

    /// The correct node of actor `id` (None for a Byzantine actor and
    /// for an ID that names no actor).
    fn correct(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index().checked_sub(self.byz_count)?)
    }

    /// Read access to a correct Brahms/RAPTEE node (None for Byzantine
    /// actors and for ranked-family actors).
    pub fn node(&self, id: NodeId) -> Option<&RapteeNode> {
        match self.correct(id)? {
            Node::Raptee(node) => Some(node),
            _ => None,
        }
    }

    /// Read access to a correct BASALT node (None for Byzantine actors
    /// and actors of any other family).
    pub fn basalt(&self, id: NodeId) -> Option<&BasaltNode> {
        match self.correct(id)? {
            Node::Basalt(node) => Some(node),
            _ => None,
        }
    }

    /// The delivery substrate of this run.
    pub fn event_net(&self) -> &EventNet {
        &self.net
    }

    /// Executes the full run and returns the collected metrics.
    pub fn run(mut self) -> RunResult {
        for _ in 0..self.scenario.rounds {
            self.run_round();
        }
        self.into_result()
    }

    /// Executes one round (public so tests can single-step).
    pub fn run_round(&mut self) {
        self.limiter.next_round();
        // Take over every late message arriving inside this round.
        self.net.begin_round(self.round);
        self.churn();
        self.update_trust_tier();
        self.refresh_trusted_directory();

        // The scratch arenas move out for the duration of the round so
        // `&mut self` stays available to the control passes.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut workers = std::mem::take(&mut self.workers);
        scratch.ensure_capacity(
            self.non_byz_total,
            self.limiter_fanout.max(1),
            self.scenario.view_size,
        );
        self.protocol_round(&mut scratch, &mut workers);
        self.scratch = scratch;
        self.workers = workers;

        // View commitments, beacon-drawn challenges, verdicts and
        // quarantine (no-op — zero beacon draws — unless the scenario
        // enables the challenger).
        self.audit_round();
        self.update_recovery_metrics();
        if cfg!(debug_assertions) {
            if let Err(violation) = self.check_invariants() {
                panic!("{violation}");
            }
        }
        self.round += 1;
    }
}
