//! The synchronous round engine — phase-parallel since PR 4.
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
//! Round structure (mirroring the paper's 2.5 s protocol rounds):
//!
//! 1. every correct node plans its `α·l1` pushes and `β·l1` pulls;
//! 2. pushes are delivered through the per-identity rate limiter —
//!    honest pushes first, then the adversary's segment-matched faulty
//!    pushes (the adversary saturates exactly its lawful budget);
//! 3. pulls execute: mutual authentication precedes each one, trusted
//!    pairs run the trusted view-swap, all other answers flow back as
//!    untrusted pulls (Byzantine responders answer with all-Byzantine
//!    views);
//! 4. when enabled, Byzantine nodes issue observation pulls for the
//!    identification attack;
//! 5. every correct node finalises its round (eviction → Brahms
//!    defences → view renewal → sampling, or ranked-view finalisation)
//!    and the engine updates the discovery/stability/resilience metrics.
//!
//! # Intra-run parallelism
//!
//! A single run uses every worker of the rayon shim while staying
//! **bit-identical at any thread count** (pinned by
//! `tests/determinism.rs`). The round is split into phases:
//!
//! * **plan** (parallel, one pass over the arena) — `plan_round_into`
//!   draws only from the node's own RNG stream; the same pass snapshots
//!   each Brahms-family view into a flat arena for later deferred pull
//!   answers.
//! * **exchange** (sequential) — everything that consumes a *shared*
//!   ordered stream stays a thin sequential control pass: the rate
//!   limiter, the message-loss RNG, the adversary's coordinator RNG and
//!   the (rare) trusted view-swaps. One `pull` serves both families, and
//!   one `deliver` decides how the requester takes a materialised
//!   answer, fresh or due from an earlier round. Instead of copying
//!   answer IDs, a Brahms-family requester records *pull events*: a
//!   reference into the view-snapshot arena when the responder's view
//!   was still untouched at pull time, a materialised copy when it had
//!   already mutated (swap or churn removal), or the slot of an
//!   adversary-RNG snapshot for Byzantine answers (regenerated in
//!   parallel later).
//! * **apply** (parallel, one pass over the arena) — each Brahms-family
//!   node reconstructs its push/pull streams from the shared arenas into
//!   per-**worker** scratch and finalises its round, each ranked node
//!   drains its waiting list and finalises; per-node metric observations
//!   land in per-node stat slots.
//! * **fold** (sequential) — stat slots are folded in node-index order,
//!   so every floating-point accumulation happens in exactly the
//!   historical order.
//!
//! Deferring the pull answers is also the engine's struct-of-arrays
//! memory win: per-node state no longer includes the ~`β·l1 × l1`-entry
//! pull buffers that dominated peak RSS at paper scale — the streams
//! only ever exist in a handful of per-worker arenas.
//!
//! A ranked-family pull ranks every answer into the responder's and
//! requester's views *on arrival*, making answers order-dependent across
//! nodes; that one phase stays sequential, while ranked-family planning,
//! push application (a parallel pass over the ranked segments' slices)
//! and round finalisation shard like the Brahms path.

use crate::adversary::{AdaptiveCoordinator, Adversary, PushPlan};
use crate::audit::{AuditResponse, Challenger, Verdict};
use crate::bitset::{Discovery, DiscoveryLane, EXACT_DISCOVERY_THRESHOLD};
use crate::event::{EventNet, Lane as NetLane, PullGate};
use crate::metrics::{
    IdentificationResult, RecoveryStats, RunResult, SegmentResult, DISCOVERY_TARGET_SHARE,
    STABILITY_SPREAD,
};
use crate::ranked::{RankedCfg, RankedNode};
use crate::scenario::{
    AdversaryMode, AttackStrategy, NetworkModel, Protocol, RejoinPolicy, Scenario,
};
use raptee::provisioning;
use raptee::{RapteeConfig, RapteeNode};
use raptee_basalt::{BasaltConfig, BasaltNode, BasaltPlan};
use raptee_brahms::{BrahmsConfig, FinishScratch, RoundPlan};
use raptee_crypto::auth::AuthOutcome;
use raptee_honeybee::HoneybeeConfig;
use raptee_lift::LiftConfig;
use raptee_net::{NodeId, NodeIdx, PushRateLimiter};
use raptee_tee::AttestationService;
use raptee_util::rng::{mix64, IndexScratch, Xoshiro256StarStar};

/// Rounds of per-node share smoothing for the spread-stability check.
const SMOOTHING_WINDOW: usize = 10;

/// Salt of the proactive trusted-directory partner draws — a dedicated
/// hash stream (like the churn and audit-beacon streams), so enabling
/// the directory refresh cannot shift any other stochastic stream.
const TRUSTED_DIR_SALT: u64 = 0xD1EC_7027_7257_ED15;

/// The candidate attacks the adaptive adversary's bandit arbitrates
/// between, per segment: the Brahms-optimal balanced spread, the
/// ranked-family coverage play, and a focused isolation attempt. The
/// targeted parameters match the `ablation_gamma` study's setting.
const ADAPTIVE_STRATEGIES: [AttackStrategy; 3] = [
    AttackStrategy::Balanced,
    AttackStrategy::ForcePush,
    AttackStrategy::Targeted {
        victim_fraction: 0.1,
        focus: 0.75,
    },
];

/// Maps a hash draw to a uniform in the open interval `(0, 1)` — the
/// same mapping the event substrate uses, so churn draws share its
/// statistical properties without sharing (or perturbing) its streams.
fn hash_unit(x: u64) -> f64 {
    ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

/// Run-long recovery accounting, allocated only when dynamic churn or
/// attestation expiry is active (so the all-off configuration carries
/// zero extra state and [`RunResult::recovery`] stays `None`).
#[derive(Default)]
struct RecoveryState {
    crashes: u64,
    restarts: u64,
    recovered: u64,
    /// Sum of (recovery round − restart round) over recovered rejoins.
    ttr_sum: u64,
    live_node_rounds: u64,
    node_rounds: u64,
    trusted_live_fraction: Vec<f64>,
    /// Per-correct-node restart round while the rejoiner's smoothed
    /// pollution has not yet re-entered the population band.
    pending: Vec<Option<u32>>,
}

/// Trusted-tier degradation state (attestation certificates with a TTL):
/// expired trusted nodes fall back to untrusted behaviour until they
/// re-attest through the same service that provisioned them. Engine
/// level only — the nodes keep their group keys, but the engine's
/// authentication shortcut treats a stale certificate as failed
/// freshness, exactly as a verifier would.
struct TrustTier {
    service: AttestationService,
    seed: u64,
    /// Per-actor certificate expiry round (trusted actors only).
    expires: Vec<u64>,
    /// Per-actor re-attestation round for degraded trusted actors.
    heal_at: Vec<u64>,
    degraded: Vec<bool>,
}

/// One correct node. The correct population is one flat arena of these,
/// stored densely and unboxed by population index. Byzantine actors are
/// pure identities (the adversary coordinates them centrally), so they
/// occupy no node state at all: actor index `i` maps to population index
/// `i - byz_count` for `i >= byz_count`. `Ranked` carries the whole
/// ranked family (BASALT, BASALT+TEE, LIFT, Honeybee) behind the
/// [`RankedNode`] delegation surface; it is the smaller variant, so a
/// `Node` costs exactly a `RapteeNode`.
enum Node {
    Raptee(RapteeNode),
    Ranked(RankedNode),
}

impl Node {
    /// The Brahms-family node, for callers that found it in a
    /// Brahms-family segment (segments are homogeneous by construction).
    fn raptee_mut(&mut self) -> &mut RapteeNode {
        match self {
            Node::Raptee(node) => node,
            Node::Ranked(_) => unreachable!("a ranked node inside a Brahms-family segment"),
        }
    }

    /// The ranked-family node, for callers that found it in a ranked
    /// segment.
    fn ranked_mut(&mut self) -> &mut RankedNode {
        match self {
            Node::Ranked(node) => node,
            Node::Raptee(_) => unreachable!("a Brahms-family node inside a ranked segment"),
        }
    }

    /// Visits the IDs pollution and discovery are read from: the dynamic
    /// view of a Brahms-family node, the current sample of a ranked one.
    fn for_each_view_id(&self, f: impl FnMut(NodeId)) {
        match self {
            Node::Raptee(node) => node.brahms().view().ids().for_each(f),
            Node::Ranked(node) => node.for_each_sample(f),
        }
    }

    /// This node's answer to a pull, into `out` (cleared first): the
    /// dynamic view of a Brahms-family node, the distinct view of a
    /// ranked one.
    fn answer_into(&mut self, out: &mut Vec<NodeId>) {
        match self {
            Node::Raptee(node) => {
                out.clear();
                out.extend(node.brahms().view().ids());
            }
            Node::Ranked(node) => node.pull_answer_into(out),
        }
    }
}

/// Static metadata of one population segment (see
/// [`crate::scenario::SegmentSpec`]): its protocol, its contiguous slice
/// `[start, start + len)` of the correct-population index space (also
/// its range of [`Simulation::victims`], the pool the adversary aims its
/// segment-matched attack at) and the per-identity push fanout its
/// protocol grants. The adversary's budget split and the per-segment
/// fold read them; node storage does not.
struct SegMeta {
    protocol: Protocol,
    start: usize,
    len: usize,
    fanout: usize,
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

/// One deferred pull answer, recorded by the sequential exchange pass
/// and consumed by the parallel apply phase.
enum PullEvent {
    /// The responder's view had not mutated yet at pull time: the answer
    /// is the responder's row of the post-plan view-snapshot arena.
    Snapshot {
        /// Dense population index of the responder.
        responder: u32,
    },
    /// The responder's view had already mutated (trusted swap or churn
    /// removal): the answer was copied into the answer arena.
    Arena {
        /// Start offset in the answer arena.
        start: u32,
        /// Number of IDs.
        len: u32,
    },
    /// A Byzantine answer: regenerate it from a snapshot of the
    /// adversary's RNG (see [`Adversary::replay_pull_answer`]), kept
    /// beside the events so each event stays 12 bytes.
    ByzReplay {
        /// Index into `Scratch::byz_rngs` of the coordinator RNG state
        /// just before the answer was drawn.
        slot: u32,
    },
}

/// Per-node round outcome slot, written by the parallel apply phase and
/// folded sequentially in node-index order.
#[derive(Debug, Clone, Default)]
struct RoundStat {
    /// Whether the node was alive and finalised this round.
    participated: bool,
    /// IDs evicted by the Byzantine-eviction filter (RAPTEE).
    evicted: u32,
    /// Whether the push-flood detector fired (Brahms/RAPTEE).
    flood: bool,
    /// Seed rotations performed (BASALT).
    rotated: u32,
    /// Whether the view was non-empty (a pollution share exists).
    has_share: bool,
    /// This round's raw Byzantine view share.
    share: f64,
    /// The share smoothed over [`SMOOTHING_WINDOW`] rounds.
    smoothed: f64,
    /// Discovery-bitset population after this round's observation.
    discovered: u32,
}

/// The per-node share-smoothing windows in struct-of-arrays form: one
/// flat ring-buffer arena (stride [`SMOOTHING_WINDOW`]) instead of
/// 10,000 tiny `Vec<f64>`s. Ring iteration order is oldest→newest, so
/// the smoothed mean sums in exactly the order the historical
/// `Vec::push`/`remove(0)` window did.
struct ShareRings {
    buf: Vec<f64>,
    start: Vec<u8>,
    len: Vec<u8>,
}

/// Exclusive access to one node's smoothing window.
struct ShareRingRow<'a> {
    buf: &'a mut [f64],
    start: &'a mut u8,
    len: &'a mut u8,
}

impl ShareRings {
    fn new(rows: usize) -> Self {
        Self {
            buf: vec![0.0; rows * SMOOTHING_WINDOW],
            start: vec![0; rows],
            len: vec![0; rows],
        }
    }

    /// Splits into disjoint per-node handles, in row order.
    fn rows_mut(&mut self) -> impl Iterator<Item = ShareRingRow<'_>> {
        self.buf
            .chunks_mut(SMOOTHING_WINDOW)
            .zip(self.start.iter_mut())
            .zip(self.len.iter_mut())
            .map(|((buf, start), len)| ShareRingRow { buf, start, len })
    }
}

impl ShareRingRow<'_> {
    /// Appends this round's share (evicting the oldest entry once the
    /// window is full) and returns the window mean, summed oldest-first
    /// — bit-identical to the historical `Vec<f64>` window.
    fn push_and_mean(&mut self, share: f64) -> f64 {
        let w = SMOOTHING_WINDOW;
        if usize::from(*self.len) == w {
            self.buf[usize::from(*self.start)] = share;
            *self.start = ((usize::from(*self.start) + 1) % w) as u8;
        } else {
            self.buf[(usize::from(*self.start) + usize::from(*self.len)) % w] = share;
            *self.len += 1;
        }
        let len = usize::from(*self.len);
        let mut sum = 0.0;
        for k in 0..len {
            sum += self.buf[(usize::from(*self.start) + k) % w];
        }
        sum / len as f64
    }
}

/// Per-worker arenas for the parallel apply phase: every buffer a
/// node-finalisation needs is owned by the worker (not the node), so
/// peak memory scales with the thread count instead of the population.
#[derive(Default)]
struct WorkerScratch {
    /// Reconstructed push-sender stream (self-filtered).
    pushed: Vec<NodeId>,
    /// Reconstructed untrusted pull-answer stream (unfiltered).
    untrusted: Vec<NodeId>,
    /// `record_pulled`-equivalent combined stream.
    pulled: Vec<NodeId>,
    /// Fisher–Yates index table for Byzantine answer replay.
    idx: IndexScratch,
    /// Replay output buffer.
    reply: Vec<NodeId>,
    /// Brahms finalisation scratch (renewal sampling buffers).
    finish: FinishScratch,
    /// The plan a Brahms/RAPTEE node draws into before it is copied to
    /// the [`PlanArena`].
    plan: RoundPlan,
    /// The same for a ranked-family node.
    ranked_plan: BasaltPlan,
}

/// This round's push and pull targets of every correct node, both
/// families: one `stride`-wide row of each per population index, as
/// dense indices, plus each row's occupied length. Every family plans at
/// most its fanout of pushes and as many pulls (α = β for the Brahms
/// family, `push_count = pull_count` for the ranked ones), so the stride
/// is the largest fanout in play.
#[derive(Default)]
struct PlanArena {
    stride: usize,
    push_ids: Vec<NodeIdx>,
    push_len: Vec<u32>,
    pull_ids: Vec<NodeIdx>,
    pull_len: Vec<u32>,
}

/// Exclusive access to one node's plan rows.
struct PlanRow<'a> {
    push: &'a mut [NodeIdx],
    push_len: &'a mut u32,
    pull: &'a mut [NodeIdx],
    pull_len: &'a mut u32,
}

impl PlanArena {
    fn resize(&mut self, pop: usize, stride: usize) {
        self.stride = stride;
        self.push_ids.resize(pop * stride, NodeIdx(0));
        self.pull_ids.resize(pop * stride, NodeIdx(0));
        self.push_len.resize(pop, 0);
        self.pull_len.resize(pop, 0);
    }

    /// Disjoint row handles, in population-index order.
    fn rows(&mut self) -> impl Iterator<Item = PlanRow<'_>> {
        self.push_ids
            .chunks_mut(self.stride)
            .zip(&mut self.push_len)
            .zip(self.pull_ids.chunks_mut(self.stride))
            .zip(&mut self.pull_len)
            .map(|(((push, push_len), pull), pull_len)| PlanRow {
                push,
                push_len,
                pull,
                pull_len,
            })
    }

    /// Node `ci`'s push targets this round.
    fn pushes(&self, ci: usize) -> &[NodeIdx] {
        let base = ci * self.stride;
        &self.push_ids[base..base + self.push_len[ci] as usize]
    }

    /// Node `ci`'s pull targets this round.
    fn pulls(&self, ci: usize) -> &[NodeIdx] {
        let base = ci * self.stride;
        &self.pull_ids[base..base + self.pull_len[ci] as usize]
    }
}

impl PlanRow<'_> {
    /// Stores one node's planned targets.
    fn store(&mut self, push: &[NodeId], pull: &[NodeId]) {
        for (slot, &id) in self.push[..push.len()].iter_mut().zip(push) {
            *slot = narrow(id);
        }
        for (slot, &id) in self.pull[..pull.len()].iter_mut().zip(pull) {
            *slot = narrow(id);
        }
        *self.push_len = push.len() as u32;
        *self.pull_len = pull.len() as u32;
    }
}

/// Per-simulation scratch arenas: every buffer the round loop needs is
/// allocated once and reused for all rounds, so the steady-state hot
/// path is allocation-free. Taken out of the [`Simulation`] at the top
/// of each round (so `&mut self` methods stay callable) and put back at
/// the end.
#[derive(Default)]
struct Scratch {
    /// Both families' plans (see [`PlanArena`]).
    plans: PlanArena,
    /// Whether population index `ci` produced a plan this round.
    live: Vec<bool>,
    /// The adversary's push plan for the segment being attacked.
    byz_plan: PushPlan,
    /// Honest pushes surviving limiter/liveness/loss, as
    /// `(absolute target index, sender)` in sender-major order. Senders
    /// are dense [`NodeIdx`]es, halving the pair width at paper scale+.
    survivors: Vec<(u32, NodeIdx)>,
    /// `survivors` counting-sorted by target — the apply phase reads
    /// per-receiver runs instead of per-message dispatch.
    sorted: Vec<(u32, NodeIdx)>,
    /// Counting-sort offsets; after the fill pass, `counts[t]` is the
    /// *end* of target `t`'s run (its start is `counts[t-1]`).
    counts: Vec<u32>,
    /// Adversary pushes surviving limiter/liveness/loss, in plan order.
    byz_survivors: Vec<(u32, NodeIdx)>,
    /// `byz_survivors` counting-sorted by victim.
    byz_sorted: Vec<(u32, NodeIdx)>,
    /// Counting-sort offsets for the adversary runs.
    byz_counts: Vec<u32>,
    /// Reusable sequential-phase answer buffer (ranked-family pulls,
    /// trusted ablation answers, Byzantine answers held by the event
    /// network).
    reply: Vec<NodeId>,
    /// Reusable observation-target buffer (identification attack).
    observed: Vec<NodeId>,
    /// Deferred pull answers, requester-major.
    events: Vec<PullEvent>,
    /// The adversary-RNG snapshots `PullEvent::ByzReplay` events name.
    byz_rngs: Vec<Xoshiro256StarStar>,
    /// Event range per population index (`events[start[ci]..start[ci+1]]`).
    event_start: Vec<u32>,
    /// Materialised answers for responders whose view had already
    /// mutated at pull time, as dense indices.
    arena: Vec<NodeIdx>,
    /// Post-plan view snapshots, one `view_size`-stride row per
    /// population index, as dense indices.
    snap_ids: Vec<NodeIdx>,
    /// Occupied length of each snapshot row.
    snap_len: Vec<u32>,
    /// Whether a node's view has mutated during the current exchange
    /// phase (trusted swap or churn removal) — after the first mutation,
    /// answers from it must be materialised instead of snapshot-deferred.
    view_mutated: Vec<bool>,
    /// Per-node round outcomes, folded sequentially after the apply
    /// phase.
    stats: Vec<RoundStat>,
}

impl Scratch {
    /// Sizes the per-node lanes once (no-op afterwards).
    fn ensure_capacity(&mut self, pop: usize, plan_stride: usize) {
        if self.live.len() != pop {
            self.plans.resize(pop, plan_stride);
            self.live.resize(pop, false);
            self.view_mutated.resize(pop, false);
            self.stats.resize_with(pop, RoundStat::default);
            self.snap_len.resize(pop, 0);
            self.event_start.resize(pop + 1, 0);
        }
    }
}

/// Per-round metric aggregates, filled by the sequential node-order fold
/// over the apply phase's [`RoundStat`] slots and folded into the run
/// series by [`Simulation::finish_round_metrics`]. Fully streaming: no
/// per-node buffer survives the fold — the smoothed shares accumulate as
/// a running sum in node-index order (the same addition sequence the
/// historical buffered `iter().sum()` performed, so the mean is
/// bit-identical), and the spread check re-reads the stat slots.
struct RoundAccumulator {
    share_sum: f64,
    share_count: usize,
    smoothed_sum: f64,
    smoothed_count: usize,
    all_discovered: bool,
    discovered_sum: usize,
    discovered_nodes: usize,
}

impl RoundAccumulator {
    fn new() -> Self {
        Self {
            share_sum: 0.0,
            share_count: 0,
            smoothed_sum: 0.0,
            smoothed_count: 0,
            all_discovered: true,
            discovered_sum: 0,
            discovered_nodes: 0,
        }
    }
}

/// One node's lanes in the parallel plan phase. The view-snapshot row
/// and mutation flag serve Brahms-family nodes, whose untrusted answers
/// are deferred by reference to the snapshot.
struct PlanLane<'a> {
    node: &'a mut Node,
    row: PlanRow<'a>,
    live: &'a mut bool,
    mutated: &'a mut bool,
    snap: &'a mut [NodeIdx],
    snap_len: &'a mut u32,
}

/// One node's lanes in the parallel apply/finish phase.
struct FinishLane<'a> {
    node: &'a mut Node,
    stat: &'a mut RoundStat,
    disc: DiscoveryLane<'a>,
    ring: ShareRingRow<'a>,
}

/// One node's post-round view census: Byzantine entries feed the
/// pollution share, correct ones the discovery row.
#[derive(Default)]
struct ViewTally {
    len: usize,
    byz_in_view: usize,
}

impl ViewTally {
    fn see(&mut self, id: NodeId, byz: usize, total: usize, disc: &mut DiscoveryLane<'_>) {
        self.len += 1;
        if id.index() < byz {
            self.byz_in_view += 1;
        } else if id.index() < total {
            disc.insert(id.index());
        }
    }

    /// Books the census into the node's stat slot and smoothing window.
    fn book(self, stat: &mut RoundStat, disc: &mut DiscoveryLane<'_>, ring: &mut ShareRingRow<'_>) {
        stat.discovered = disc.count() as u32;
        if self.len > 0 {
            let share = self.byz_in_view as f64 / self.len as f64;
            stat.share = share;
            stat.has_share = true;
            stat.smoothed = ring.push_and_mean(share);
        }
    }
}

/// Narrows a wire identity to its dense arena index: a cast, because
/// the simulation numbers its actors `0..total_actors()` (Byzantine
/// prefix first), so the identity *is* the index.
#[inline]
fn narrow(id: NodeId) -> NodeIdx {
    NodeIdx(id.0 as u32)
}

/// Widens a dense arena index back to the wire identity (see [`narrow`]).
#[inline]
fn widen(idx: NodeIdx) -> NodeId {
    NodeId(u64::from(idx.0))
}

/// Split-borrows two distinct population entries.
fn two_nodes<N>(nodes: &mut [N], a: usize, b: usize) -> (&mut N, &mut N) {
    assert_ne!(a, b, "cannot borrow the same node twice");
    let (x, y, swapped) = if a < b { (a, b, false) } else { (b, a, true) };
    let (lo, hi) = nodes.split_at_mut(y);
    if swapped {
        (&mut hi[0], &mut lo[x])
    } else {
        (&mut lo[x], &mut hi[0])
    }
}

/// Stable counting sort of `(target, payload)` pairs by target over the
/// universe `0..total`. After the fill pass `counts[t]` is the end of
/// `t`'s run, so run `t` is `sorted[counts[t-1]..counts[t]]` (`0` for
/// `t = 0`). Stability preserves each receiver's arrival order, so
/// streaming over the runs is observationally identical to per-message
/// dispatch.
fn counting_sort_by_target(
    survivors: &[(u32, NodeIdx)],
    sorted: &mut Vec<(u32, NodeIdx)>,
    counts: &mut Vec<u32>,
    total: usize,
) {
    counts.clear();
    counts.resize(total + 1, 0);
    for &(t, _) in survivors {
        counts[t as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    sorted.clear();
    sorted.resize(survivors.len(), (0, NodeIdx(0)));
    for &(t, payload) in survivors {
        let pos = &mut counts[t as usize];
        sorted[*pos as usize] = (t, payload);
        *pos += 1;
    }
}

/// The `[start, end)` bounds of target `t`'s run in a
/// [`counting_sort_by_target`]-sorted buffer.
#[inline]
fn run_bounds(counts: &[u32], t: usize) -> (usize, usize) {
    let start = if t == 0 { 0 } else { counts[t - 1] as usize };
    (start, counts[t] as usize)
}

/// Marks non-Byzantine `id` as discovered in `row` (no-op for Byzantine
/// and out-of-universe IDs).
fn note_discovered(
    discovery: &mut Discovery,
    byz_count: usize,
    total: usize,
    row: usize,
    id: NodeId,
) {
    if id.index() >= byz_count && id.index() < total {
        discovery.insert(row, id.index());
    }
}

/// One deterministic simulation run.
pub struct Simulation {
    scenario: Scenario,
    /// The correct population by population index, segment after
    /// segment in layout order.
    nodes: Vec<Node>,
    trusted: Vec<bool>,
    alive: Vec<bool>,
    loss_rng: Xoshiro256StarStar,
    byz_count: usize,
    adversary: Adversary,
    limiter: PushRateLimiter,
    /// The per-identity push allowance the limiter grants: the largest
    /// fanout any segment uses (equal across segments at matched view
    /// sizes). The adversary's lawful budget is `byz_count` times this.
    limiter_fanout: usize,
    /// Per-node discovery state of every non-Byzantine actor: exact
    /// bitset rows below [`crate::bitset::EXACT_DISCOVERY_THRESHOLD`]
    /// actors, mergeable HLL sketches above (rows by population index,
    /// universe = absolute indices).
    discovery: Discovery,
    discovery_target: usize,
    /// Per-node rings of recent per-round view pollution shares, used
    /// for the smoothed spread-stability criterion.
    share_rings: ShareRings,
    /// All non-Byzantine actor IDs by population index (the adversary's
    /// victim pool; alive filtering happens at delivery time) — built
    /// once. Segment `s` owns `victims[s.start..s.start + s.len]`, and
    /// the prefix below `Scenario::n` (everything but injected nodes) is
    /// what the identification attack may observe.
    victims: Vec<NodeId>,
    /// Segment metadata, in layout order.
    segs: Vec<SegMeta>,
    /// Per-segment mean Byzantine-share series.
    seg_series: Vec<Vec<f64>>,
    /// Per-segment mean discovered-fraction series — feeds the
    /// per-segment discovery-round metric.
    seg_discovered_series: Vec<Vec<f64>>,
    /// Reusable round buffers (see [`Scratch`]).
    scratch: Scratch,
    /// Per-worker arenas for the parallel phases.
    workers: Vec<WorkerScratch>,
    /// The delivery substrate every message leaves through — at the
    /// all-zero configuration under [`NetworkModel::Rounds`], where
    /// every message lands in its sending round.
    net: EventNet,
    non_byz_total: usize,
    round: usize,
    byz_share_series: Vec<f64>,
    mean_discovered_series: Vec<f64>,
    discovery_round: Option<usize>,
    spread_stability_round: Option<usize>,
    best_identification: Option<IdentificationResult>,
    floods_detected: u64,
    total_evicted: u64,
    seed_rotations: u64,
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
    /// injected view-poisoned trusted nodes.
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
        let n = scenario.n;
        let total = scenario.total_actors();
        let byz = scenario.byzantine_count();
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
        let byz_ids: Vec<NodeId> = (0..byz as u64).map(NodeId).collect();
        // One index table and one list buffer serve every bootstrap draw,
        // so a draw costs its `k`, not the population.
        let mut idx = IndexScratch::default();
        let mut bootstrap: Vec<NodeId> = Vec::new();

        // Byzantine actors are the identity prefix [0, byz) and carry no
        // state; the correct population follows, segment by segment,
        // each segment's trusted nodes first.
        let non_byz_total = total - byz;
        let mut trusted_flags = vec![false; total];
        let mut segs: Vec<SegMeta> = Vec::with_capacity(specs.len());
        let mut nodes: Vec<Node> = Vec::with_capacity(non_byz_total);
        // The adversary answers pulls at the largest view size in play.
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
                        trusted_flags[abs] = true;
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
                        (&byz_ids, scenario.view_size)
                    } else {
                        (&all_ids, scenario.view_size + 2)
                    };
                    rng.sample_into(pool, k, &mut idx, &mut bootstrap);
                    let mut node = if i < seg_trusted || is_injected {
                        trusted_flags[abs] = true;
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
        let discovery_target = (DISCOVERY_TARGET_SHARE * non_byz_total as f64).ceil() as usize;

        // The limiter grants the largest per-identity fanout any segment
        // uses (equal across segments at matched view sizes).
        let limiter_fanout = segs.iter().map(|x| x.fanout).max().unwrap_or(1);
        let mut adversary = Adversary::new(byz_ids, total, answer_size, rng.next_u64());
        // Section VI-B: the adversary advertises its injected poisoned
        // trusted nodes so the system contacts them and the poison can
        // flow into the genuine trusted tier.
        adversary.advertise_injected((n..total).map(|i| NodeId(i as u64)));
        let net = EventNet::from_scenario(&scenario);
        let mut sim = Self {
            adversary,
            limiter: PushRateLimiter::new(total, limiter_fanout as u32),
            limiter_fanout,
            nodes,
            trusted: trusted_flags,
            alive: vec![true; total],
            loss_rng: rng.split(),
            byz_count: byz,
            discovery,
            discovery_target,
            share_rings: ShareRings::new(non_byz_total),
            victims: (byz..total).map(|i| NodeId(i as u64)).collect(),
            seg_series: vec![Vec::with_capacity(scenario.rounds); segs.len()],
            seg_discovered_series: vec![Vec::with_capacity(scenario.rounds); segs.len()],
            segs,
            scratch: Scratch::default(),
            workers: Vec::new(),
            net,
            non_byz_total,
            round: 0,
            byz_share_series: Vec::with_capacity(scenario.rounds),
            mean_discovered_series: Vec::with_capacity(scenario.rounds),
            discovery_round: None,
            spread_stability_round: None,
            best_identification: None,
            floods_detected: 0,
            total_evicted: 0,
            seed_rotations: 0,
            churn_seed: 0,
            recovery: None,
            trust: None,
            audit: None,
            bandit: None,
            trusted_dir: Vec::new(),
            invariant_ids: Vec::new(),
            scenario,
        };
        sim.init_robustness();
        sim
    }

    /// Initialises the robustness subsystems: the churn draw seed, the
    /// recovery accounting (dynamic churn or attestation expiry only),
    /// the trusted-tier degradation state, the audit challenger and the
    /// adaptive adversary's bandit. With everything off this sets one
    /// integer and leaves every option `None` — the historical engine,
    /// bit for bit.
    fn init_robustness(&mut self) {
        self.churn_seed = mix64(self.scenario.seed ^ 0x0C4A_54E5_50DD_BA11);
        if self.scenario.churn.dynamic() || self.scenario.attest_ttl > 0 {
            self.recovery = Some(RecoveryState {
                pending: vec![None; self.non_byz_total],
                ..RecoveryState::default()
            });
        }
        if self.scenario.attest_ttl > 0 {
            let total = self.total_actors();
            let ttl = self.scenario.attest_ttl as u64;
            // Rebuild the attestation service the constructor
            // provisioned through (same measurement, same group key) and
            // re-certify every trusted platform so renewals verify.
            let mut service = provisioning::new_attestation_service(self.scenario.seed ^ 0x6E0C);
            let seed = mix64(self.scenario.seed ^ 0x7255_7ED0_0DDA_7E5A);
            let mut expires = vec![0u64; total];
            for (abs, expiry) in expires.iter_mut().enumerate().skip(self.byz_count) {
                if !self.trusted[abs] {
                    continue;
                }
                service.certify_platform(0x1000 + abs as u64);
                // Staggered initial expiry in [ttl, 2·ttl): certificates
                // issued at different pre-run moments, so the tier never
                // expires as one synchronized cliff.
                *expiry = ttl + mix64(seed ^ mix64(abs as u64)) % ttl;
            }
            self.trust = Some(TrustTier {
                service,
                seed,
                expires,
                heal_at: vec![0; total],
                degraded: vec![false; total],
            });
        }
        if let Some(cfg) = self.scenario.audit {
            self.audit = Some(Challenger::new(
                cfg,
                self.scenario.seed,
                self.total_actors(),
                self.byz_count,
            ));
        }
        if self.scenario.adversary_mode == AdversaryMode::Adaptive {
            // One arm per (segment, candidate strategy) pair. The
            // coordinator is pure bookkeeping (no RNG), so static-mode
            // runs — where it stays `None` — replay byte-identically.
            self.bandit = Some(AdaptiveCoordinator::new(
                self.segs.len() * ADAPTIVE_STRATEGIES.len(),
            ));
        }
    }

    /// Whether actor `abs` currently *behaves* trusted: provisioned into
    /// the trusted tier and (when attestation expiry is active) holding
    /// an unexpired certificate. Degraded nodes keep their group key but
    /// fail the freshness check every verifier applies, so their
    /// exchanges fall back to the untrusted path until they re-attest.
    fn effective_trusted(&self, abs: usize) -> bool {
        Self::effective_trusted_in(&self.trusted, self.trust.as_ref(), abs)
    }

    /// [`Simulation::effective_trusted`] over the raw fields, for call
    /// sites holding a mutable borrow of the population.
    fn effective_trusted_in(trusted: &[bool], trust: Option<&TrustTier>, abs: usize) -> bool {
        trusted[abs] && trust.is_none_or(|t| !t.degraded[abs])
    }

    /// The scenario driving this run.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Total actors in the run (Byzantine identities + correct nodes).
    pub fn total_actors(&self) -> usize {
        self.byz_count + self.non_byz_total
    }

    /// Whether actor `id` is Byzantine.
    pub fn is_byzantine(&self, id: NodeId) -> bool {
        id.index() < self.byz_count
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

    /// Current round index.
    pub fn round(&self) -> usize {
        self.round
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

    /// Number of non-Byzantine IDs `id` has discovered so far (None for
    /// Byzantine actors and for an ID that names no actor).
    pub fn discovery_count(&self, id: NodeId) -> Option<usize> {
        if id.index() < self.byz_count || id.index() >= self.total_actors() {
            return None;
        }
        Some(self.discovery.count(id.index() - self.byz_count))
    }

    /// Read access to a correct Brahms/RAPTEE node (None for Byzantine
    /// actors and for BASALT-family actors).
    pub fn node(&self, id: NodeId) -> Option<&RapteeNode> {
        match self.nodes.get(id.index().checked_sub(self.byz_count)?)? {
            Node::Raptee(node) => Some(node),
            Node::Ranked(_) => None,
        }
    }

    /// Read access to a correct ranked-family node (None for Byzantine
    /// actors and for Brahms-family actors).
    pub fn ranked(&self, id: NodeId) -> Option<&RankedNode> {
        match self.nodes.get(id.index().checked_sub(self.byz_count)?)? {
            Node::Ranked(node) => Some(node),
            Node::Raptee(_) => None,
        }
    }

    /// Read access to a correct BASALT node (None for Byzantine actors
    /// and actors of any other family).
    pub fn basalt(&self, id: NodeId) -> Option<&BasaltNode> {
        self.ranked(id).and_then(RankedNode::as_basalt)
    }

    /// Read access to a correct LIFT node (None for Byzantine actors and
    /// actors of any other family).
    pub fn lift(&self, id: NodeId) -> Option<&raptee_lift::LiftNode> {
        self.ranked(id).and_then(RankedNode::as_lift)
    }

    /// Read access to a correct Honeybee node (None for Byzantine actors
    /// and actors of any other family).
    pub fn honeybee(&self, id: NodeId) -> Option<&raptee_honeybee::HoneybeeNode> {
        self.ranked(id).and_then(RankedNode::as_honeybee)
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
        let total = self.total_actors();

        // Churn injection, one-shot flavour: crash a batch of correct
        // nodes at the configured round. Crashed nodes stop planning,
        // answering and pushing; pulls towards them time out. This draws
        // from `loss_rng` at exactly the historical point, so legacy
        // one-shot scenarios replay bit-for-bit.
        if self.scenario.churn.crash_fraction > 0.0 && self.round == self.scenario.churn.crash_round
        {
            let candidates: Vec<usize> =
                (self.byz_count..total).filter(|&i| self.alive[i]).collect();
            let k = (self.scenario.churn.crash_fraction * candidates.len() as f64).round() as usize;
            for idx in self.loss_rng.sample(&candidates, k) {
                self.crash_node(idx);
            }
        }

        // Churn injection, continuous flavour: per-round hash-derived
        // crash/restart draws (steady rates plus catastrophe bursts).
        // Hash draws — never shared-RNG draws — so enabling churn cannot
        // shift any other stochastic stream, and the schedule is
        // identical at any thread count.
        if self.scenario.churn.dynamic() {
            let crash_rate = self.scenario.churn.crash_rate_at(self.round);
            let restart_rate = self.scenario.churn.restart_rate;
            let round_tag = (self.round as u64) << 1;
            for abs in self.byz_count..total {
                if self.alive[abs] {
                    if crash_rate > 0.0
                        && hash_unit(mix64(
                            self.churn_seed ^ mix64(round_tag) ^ mix64(abs as u64),
                        )) < crash_rate
                    {
                        self.crash_node(abs);
                    }
                } else if restart_rate > 0.0
                    && hash_unit(mix64(
                        self.churn_seed ^ mix64(round_tag | 1) ^ mix64(abs as u64),
                    )) < restart_rate
                {
                    self.restart_node(abs);
                }
            }
        }

        // Trusted-tier degradation: expire stale certificates, re-attest
        // healed ones (hash-derived heal delays; the attestation service
        // is its own deterministic stream).
        self.update_trust_tier();

        // Proactive trusted-directory refresh (BASALT-family trusted
        // exchanges and audit targeting; off by default).
        self.refresh_trusted_directory();

        // The scratch arenas move out for the duration of the round so
        // `&mut self` stays available to the control passes.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut workers = std::mem::take(&mut self.workers);
        scratch.ensure_capacity(self.non_byz_total, self.limiter_fanout.max(1));
        self.protocol_round(&mut scratch, &mut workers);
        self.scratch = scratch;
        self.workers = workers;

        // Audit pass: view commitments, beacon-drawn challenges,
        // verdicts and quarantine (no-op — zero beacon draws — unless
        // the scenario enables the challenger).
        self.audit_round();

        self.update_recovery_metrics();
        if cfg!(debug_assertions) {
            if let Err(violation) = self.check_invariants() {
                panic!("{violation}");
            }
        }
        self.round += 1;
    }

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
    /// ([`EventNet::check_conservation`]).
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

    /// Marks a correct actor dead and books the crash. A node that was
    /// still converging after an earlier rejoin loses its pending
    /// recovery — it died before recovering.
    fn crash_node(&mut self, abs: usize) {
        self.alive[abs] = false;
        let ci = abs - self.byz_count;
        if let Some(rec) = self.recovery.as_mut() {
            rec.crashes += 1;
            rec.pending[ci] = None;
        }
    }

    /// Restarts a crashed correct actor through its protocol family's
    /// rejoin path. Cold rejoiners bootstrap from a fresh hash-derived
    /// membership sample with reinitialised samplers/rankings; warm
    /// rejoiners resume from their persisted view, paying the staleness
    /// penalty (Brahms probe revalidation / BASALT forced rotation).
    /// Trusted rejoiners additionally re-run the attestation handshake
    /// when certificate expiry is active.
    fn restart_node(&mut self, abs: usize) {
        self.alive[abs] = true;
        let byz = self.byz_count;
        let ci = abs - byz;
        let total = self.total_actors();
        let round = self.round as u64;
        let rejoin = self.scenario.churn.rejoin;
        let cold_seed = mix64(self.churn_seed ^ mix64(abs as u64) ^ mix64(round) ^ 0xC01D);
        let view_size = self.scenario.view_size;
        let bootstrap_of = |churn_seed: u64, k: usize| -> Vec<NodeId> {
            (0..k as u64)
                .map(|j| {
                    NodeId(mix64(churn_seed ^ mix64(abs as u64) ^ mix64(round) ^ j) % total as u64)
                })
                .collect()
        };
        let churn_seed = self.churn_seed;
        let alive = &self.alive;
        let is_alive = |id: NodeId| alive.get(id.index()).copied().unwrap_or(false);
        match &mut self.nodes[ci] {
            Node::Raptee(node) => match rejoin {
                RejoinPolicy::Cold => {
                    let boot = bootstrap_of(churn_seed, view_size + 2);
                    node.rejoin_cold(&boot, cold_seed);
                }
                RejoinPolicy::Warm => {
                    node.rejoin_warm(is_alive);
                }
            },
            Node::Ranked(node) => match rejoin {
                RejoinPolicy::Cold => {
                    let boot = bootstrap_of(churn_seed, node.view_size() + 2);
                    node.rejoin_cold(&boot, cold_seed);
                }
                RejoinPolicy::Warm => {
                    node.rejoin_warm();
                }
            },
        }
        // A trusted rejoiner re-attests on the spot (the trusted
        // re-handshake): fresh certificate, degradation cleared.
        if self.trusted[abs] {
            if let Some(tier) = self.trust.as_mut() {
                let ttl = self.scenario.attest_ttl as u64;
                if let Ok(cert) = provisioning::renew_attestation(
                    &mut tier.service,
                    0x1000 + abs as u64,
                    round,
                    ttl,
                ) {
                    tier.degraded[abs] = false;
                    tier.expires[abs] = cert.expires_round;
                }
            }
        }
        if let Some(rec) = self.recovery.as_mut() {
            rec.restarts += 1;
            rec.pending[ci] = Some(self.round as u32);
        }
        // Audit bookkeeping: a cold rejoiner lost its sealed commitment
        // state, so its chain restarts from genesis; a warm rejoiner
        // re-commits on the existing chain. Either way the rejoin round
        // is the new detection-latency reference point.
        if let Some(aud) = self.audit.as_mut() {
            if matches!(rejoin, RejoinPolicy::Cold) {
                aud.restart_chain(abs);
            }
            aud.mark_active(abs, self.round as u32);
        }
    }

    /// Advances the trusted-tier degradation state machine: unexpired →
    /// degraded when the certificate lapses (with a 1–3 round re-attest
    /// delay), degraded → healed when the node re-attests successfully.
    /// Revoked platforms stay degraded forever.
    fn update_trust_tier(&mut self) {
        let Some(mut tier) = self.trust.take() else {
            return;
        };
        let round = self.round as u64;
        let ttl = self.scenario.attest_ttl as u64;
        for abs in self.byz_count..self.total_actors() {
            if !self.trusted[abs] {
                continue;
            }
            if tier.degraded[abs] {
                if self.alive[abs] && round >= tier.heal_at[abs] {
                    if let Ok(cert) = provisioning::renew_attestation(
                        &mut tier.service,
                        0x1000 + abs as u64,
                        round,
                        ttl,
                    ) {
                        tier.degraded[abs] = false;
                        tier.expires[abs] = cert.expires_round;
                    }
                }
            } else if round >= tier.expires[abs] {
                tier.degraded[abs] = true;
                tier.heal_at[abs] =
                    round + 1 + mix64(tier.seed ^ mix64(abs as u64) ^ mix64(round)) % 3;
            }
        }
        self.trust = Some(tier);
    }

    /// Rebuilds the proactive trusted directory when the refresh period
    /// elapses: live, effective-trusted, non-quarantined actors in
    /// index order. Never built (and the exchange pass never runs)
    /// while `Scenario::trusted_directory_refresh` is 0.
    fn refresh_trusted_directory(&mut self) {
        let period = self.scenario.trusted_directory_refresh;
        if period == 0 || !self.round.is_multiple_of(period) {
            return;
        }
        let mut dir = std::mem::take(&mut self.trusted_dir);
        dir.clear();
        for abs in self.byz_count..self.total_actors() {
            if self.trusted[abs]
                && self.alive[abs]
                && self.effective_trusted(abs)
                && !self.audit.as_ref().is_some_and(|a| a.is_quarantined(abs))
            {
                dir.push(abs as u32);
            }
        }
        self.trusted_dir = dir;
    }

    /// The audit pass of one round: every live effective-trusted node
    /// commits its view onto its chain, the challenger draws its
    /// beacon targets and audits each, convictions are purged from all
    /// honest views, and standing suspicions decay. A strict no-op —
    /// zero beacon draws, zero state — when `Scenario::audit` is off.
    fn audit_round(&mut self) {
        let Some(mut aud) = self.audit.take() else {
            return;
        };
        let round = self.round as u32;
        let total = self.total_actors();
        let byz = self.byz_count;
        // Commit phase: commitments ride the attested exchange path, so
        // a dead node or a degraded (expired) certificate suspends them.
        let mut view_buf: Vec<NodeId> = Vec::new();
        for abs in byz..total {
            if self.trusted[abs] && self.alive[abs] && self.effective_trusted(abs) {
                self.view_ids_into(abs, &mut view_buf);
                aud.commit_view(round, abs, &view_buf);
            }
        }
        // Challenge phase: beacon-drawn targets answer — or fail to.
        let mut targets = Vec::new();
        aud.draw_targets(total, &mut targets);
        let mut convicted: Vec<usize> = Vec::new();
        for t in targets {
            // The challenger observes from the high end of the index
            // space; a partition window separating it from the target
            // makes the opening undeliverable (a pure schedule lookup —
            // no latency or loss draws are consumed).
            let partitioned = self.net.separated(self.round, t, total - 1);
            let response = if t < byz {
                // Byzantine responders answer, but recorded traffic and
                // chained commitment cannot both hold — the replay
                // exposes the equivocation.
                AuditResponse::Equivocation
            } else if !self.alive[t]
                || partitioned
                || (self.trusted[t] && !self.effective_trusted(t))
            {
                // Dead, churned-out or partitioned targets cannot
                // answer; an expired certificate makes the commitment
                // inadmissible (`provisioning::commitment_admissible`).
                AuditResponse::Unavailable
            } else {
                self.view_ids_into(t, &mut view_buf);
                AuditResponse::Opening { view: &view_buf }
            };
            if aud.audit(round, t, response) == Verdict::Convicted {
                convicted.push(t);
            }
        }
        if !convicted.is_empty() {
            self.purge_quarantined(&convicted);
        }
        aud.end_round(round);
        self.audit = Some(aud);
    }

    /// Copies the current view of correct actor `abs` into `out` (slot
    /// order — the leaf order of its merkle commitment).
    fn view_ids_into(&self, abs: usize, out: &mut Vec<NodeId>) {
        out.clear();
        // `extend` sizes the round's reused buffer to a view at once.
        match &self.nodes[abs - self.byz_count] {
            Node::Raptee(node) => out.extend(node.brahms().view().ids()),
            Node::Ranked(node) => node.for_each_sample(|id| out.push(id)),
        }
    }

    /// Conviction-time purge: removes the freshly convicted identities
    /// from every honest view, waiting list and trusted directory. The
    /// pull-path blacklist keeps re-learned entries out afterwards.
    fn purge_quarantined(&mut self, convicted: &[usize]) {
        for node in &mut self.nodes {
            for &c in convicted {
                let id = NodeId(c as u64);
                match node {
                    Node::Raptee(node) => {
                        node.brahms_mut().view_mut().remove(id);
                        node.forget_trusted_peer(id);
                    }
                    Node::Ranked(node) => {
                        node.quarantine(id);
                    }
                }
            }
        }
        self.trusted_dir
            .retain(|&a| !convicted.contains(&(a as usize)));
    }

    /// Books this round's recovery metrics: availability node-rounds,
    /// the effective-trusted live fraction, and time-to-recover for
    /// rejoiners whose smoothed pollution share has re-entered the
    /// population band (within [`STABILITY_SPREAD`] of the smoothed
    /// mean, after at least [`SMOOTHING_WINDOW`] post-restart rounds).
    fn update_recovery_metrics(&mut self) {
        let Some(mut rec) = self.recovery.take() else {
            return;
        };
        let byz = self.byz_count;
        let total = self.total_actors();
        rec.node_rounds += (total - byz) as u64;
        rec.live_node_rounds += self.alive[byz..total].iter().filter(|&&a| a).count() as u64;
        let trusted_total = self.trusted.iter().filter(|&&t| t).count();
        if trusted_total > 0 {
            let live = (byz..total)
                .filter(|&abs| self.trusted[abs] && self.alive[abs] && self.effective_trusted(abs))
                .count();
            rec.trusted_live_fraction
                .push(live as f64 / trusted_total as f64);
        }
        let stats = &self.scratch.stats;
        let mut sum = 0.0;
        let mut count = 0usize;
        for st in stats {
            if st.participated && st.has_share {
                sum += st.smoothed;
                count += 1;
            }
        }
        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
        for (ci, st) in stats.iter().enumerate().take(total - byz) {
            let Some(restart) = rec.pending[ci] else {
                continue;
            };
            if st.participated
                && st.has_share
                && self.round + 1 - restart as usize >= SMOOTHING_WINDOW
                && (st.smoothed - mean).abs() <= STABILITY_SPREAD
            {
                rec.recovered += 1;
                rec.ttr_sum += (self.round + 1 - restart as usize) as u64;
                rec.pending[ci] = None;
            }
        }
        self.recovery = Some(rec);
    }

    /// Collects the honest pushes of every segment, in population-index
    /// order, that survive the rate limiter, liveness and message loss
    /// (sender-major, so the loss RNG stream is unchanged), then
    /// counting-sorts them by target into `s.sorted`.
    fn collect_and_sort_pushes(&mut self, s: &mut Scratch) {
        let byz = self.byz_count;
        let message_loss = self.scenario.message_loss;
        s.survivors.clear();
        // Late pushes from earlier rounds arrive first: they are the
        // oldest messages each receiver sees, and the stable counting
        // sort preserves that ordering per target.
        self.net.drain_due_pushes(NetLane::Honest, &mut s.survivors);
        // Segments are contiguous in layout order, so population-index
        // order is every segment's senders in turn.
        for ci in (0..self.non_byz_total).filter(|&ci| s.live[ci]) {
            let targets = s.plans.pushes(ci);
            let sender = NodeId((byz + ci) as u64);
            let granted = self.limiter.try_push_n(sender, targets.len());
            for &target in &targets[..granted] {
                let t = target.index();
                if !self.alive[t] {
                    continue;
                }
                if message_loss > 0.0 && self.loss_rng.chance(message_loss) {
                    continue;
                }
                if !self
                    .net
                    .send_push(self.round, byz + ci, t, sender, NetLane::Honest)
                {
                    continue;
                }
                s.survivors.push((target.0, narrow(sender)));
            }
        }
        let total = self.total_actors();
        counting_sort_by_target(&s.survivors, &mut s.sorted, &mut s.counts, total);
    }

    /// The adversary's segment-matched attacks — balanced/targeted
    /// random-ID pushes against Brahms-family segments, distinct-ID
    /// force pushes against ranked-family segments — saturating exactly
    /// its lawful budget B·fanout, split proportionally to segment sizes.
    /// In adaptive mode the bandit instead concentrates the entire
    /// budget on its chosen (segment, strategy) `bandit_arm`; every
    /// other segment gets zero this round.
    ///
    /// Each planned push is charged to a Byzantine identity through the
    /// rate limiter (rotating payers), passes the liveness and
    /// message-loss filters, and the survivors are counting-sorted by
    /// victim for the parallel phases. One pass for every segment, so
    /// cross-family comparisons face provably identical adversary
    /// machinery.
    fn collect_byz_pushes(&mut self, s: &mut Scratch, bandit_arm: Option<usize>) {
        let Scratch {
            byz_plan: plan,
            byz_survivors: survivors,
            byz_sorted: sorted,
            byz_counts: counts,
            ..
        } = s;
        survivors.clear();
        self.net.drain_due_pushes(NetLane::Adversary, survivors);
        let total_budget = self.byz_count * self.limiter_fanout;
        let mut assigned = 0usize;
        let mut charge_rotor = 0usize;
        for (si, seg) in self.segs.iter().enumerate() {
            let (budget, attack) = match bandit_arm {
                Some(arm) => {
                    let budget = if si == arm / ADAPTIVE_STRATEGIES.len() {
                        total_budget
                    } else {
                        0
                    };
                    (budget, ADAPTIVE_STRATEGIES[arm % ADAPTIVE_STRATEGIES.len()])
                }
                None => {
                    let budget = if si + 1 == self.segs.len() {
                        total_budget - assigned
                    } else {
                        total_budget * seg.len / self.non_byz_total
                    };
                    (budget, self.scenario.attack)
                }
            };
            assigned += budget;
            Self::plan_attack(
                &mut self.adversary,
                attack,
                seg.protocol.is_ranked_family(),
                &self.victims[seg.start..seg.start + seg.len],
                budget,
                plan,
            );
            for &(victim, advertised) in plan.iter() {
                let mut charged = false;
                for _ in 0..self.byz_count {
                    let payer = NodeId((charge_rotor % self.byz_count.max(1)) as u64);
                    charge_rotor += 1;
                    if self.limiter.try_push(payer) {
                        charged = true;
                        break;
                    }
                }
                if !charged {
                    continue;
                }
                if !self.alive[victim.index()] {
                    continue;
                }
                if self.scenario.message_loss > 0.0
                    && self.loss_rng.chance(self.scenario.message_loss)
                {
                    continue;
                }
                // The adversary's pushes originate at the advertised
                // identity's host (injected poisoned nodes send from
                // their own addresses).
                if !self.net.send_push(
                    self.round,
                    advertised.index(),
                    victim.index(),
                    advertised,
                    NetLane::Adversary,
                ) {
                    continue;
                }
                survivors.push((victim.index() as u32, narrow(advertised)));
            }
        }
        // Quarantine filter: adversary pushes advertising a convicted
        // identity (including copies drained from earlier rounds) are
        // discarded — honest nodes blacklist the quarantined ID.
        if let Some(aud) = self.audit.as_ref() {
            survivors.retain(|&(_, advertised)| !aud.is_quarantined(widen(advertised).index()));
        }
        counting_sort_by_target(survivors, sorted, counts, self.total_actors());
    }

    /// Plans one segment's share of the adversary's pushes, honouring the
    /// attack strategy: `balanced` spreads the budget evenly, `targeted`
    /// focuses a share of it on a fixed prefix of the segment's correct
    /// nodes (deterministic per scenario; the adversary knows the
    /// membership). The planners match the victim family: random
    /// Byzantine IDs against Brahms/RAPTEE, distinct-ID coverage against
    /// ranked views.
    fn plan_attack(
        adversary: &mut Adversary,
        attack: AttackStrategy,
        ranked: bool,
        victims: &[NodeId],
        budget: usize,
        plan: &mut PushPlan,
    ) {
        match attack {
            AttackStrategy::Balanced if !ranked => {
                adversary.plan_balanced_pushes_into(victims, budget, plan);
            }
            // The coverage play is family-independent: always the
            // round-robin distinct-identity planner, and the ranked
            // family's balanced attack is exactly that.
            AttackStrategy::Balanced | AttackStrategy::ForcePush => {
                adversary.plan_force_pushes_into(victims, budget, plan);
            }
            AttackStrategy::Targeted {
                victim_fraction,
                focus,
            } => {
                let k = ((victims.len() as f64) * victim_fraction).round() as usize;
                let targets = &victims[..k.min(victims.len())];
                if ranked {
                    adversary
                        .plan_targeted_force_pushes_into(victims, targets, budget, focus, plan);
                } else {
                    adversary.plan_targeted_pushes_into(victims, targets, budget, focus, plan);
                }
            }
        }
    }

    /// Feeds the adaptive bandit the observed pollution yield of the arm
    /// it played this round: the mean Byzantine view share over the
    /// attacked segment. No-op when the adversary is static.
    fn bandit_reward(&mut self, stats: &[RoundStat], arm: Option<usize>) {
        let (Some(bandit), Some(arm)) = (self.bandit.as_mut(), arm) else {
            return;
        };
        let seg = &self.segs[arm / ADAPTIVE_STRATEGIES.len()];
        let mut sum = 0.0;
        let mut count = 0usize;
        for st in &stats[seg.start..seg.start + seg.len] {
            if st.participated && st.has_share {
                sum += st.share;
                count += 1;
            }
        }
        let observed = if count == 0 { 0.0 } else { sum / count as f64 };
        bandit.reward(arm, observed);
    }

    /// One protocol round (the paper's loop) for the whole population:
    /// the phases of the module doc, over the shared scratch arenas.
    /// Shared sequential streams (rate limiter, loss RNG, adversary
    /// coordinator RNG) are consumed in population-index order.
    fn protocol_round(&mut self, s: &mut Scratch, workers: &mut Vec<WorkerScratch>) {
        let total = self.total_actors();
        let byz = self.byz_count;
        let stride = self.scenario.view_size;
        let pop = self.non_byz_total;
        // No correct nodes: nothing to simulate.
        if pop == 0 {
            return;
        }

        // Phase 1 (parallel, one pass over the arena): plans, drawn into
        // a per-worker plan buffer and stored in the flat plan arena.
        // Brahms-family rows also snapshot their post-plan views (for
        // deferred answers); every row resets its view-mutation flag.
        if s.snap_ids.len() != pop * stride {
            s.snap_ids.resize(pop * stride, NodeIdx(0));
        }
        {
            let alive = &self.alive[byz..];
            let mut lanes: Vec<PlanLane> = self
                .nodes
                .iter_mut()
                .zip(s.plans.rows())
                .zip(&mut s.live)
                .zip(&mut s.view_mutated)
                .zip(s.snap_ids.chunks_mut(stride))
                .zip(&mut s.snap_len)
                .map(
                    |(((((node, row), live), mutated), snap), snap_len)| PlanLane {
                        node,
                        row,
                        live,
                        mutated,
                        snap,
                        snap_len,
                    },
                )
                .collect();
            rayon::par_for_each_scratch(&mut lanes, workers, |ws, ci, lane| {
                *lane.mutated = false;
                *lane.live = alive[ci];
                if !alive[ci] {
                    *lane.snap_len = 0;
                    return;
                }
                match lane.node {
                    Node::Raptee(node) => {
                        node.plan_round_into(&mut ws.plan);
                        lane.row.store(&ws.plan.push_targets, &ws.plan.pull_targets);
                        let view = node.brahms().view();
                        for (k, e) in view.entries().iter().enumerate() {
                            lane.snap[k] = narrow(e.id);
                        }
                        *lane.snap_len = view.len() as u32;
                    }
                    Node::Ranked(node) => {
                        node.plan_round_into(&mut ws.ranked_plan);
                        let plan = &ws.ranked_plan;
                        lane.row.store(&plan.push_targets, &plan.pull_targets);
                    }
                }
            });
        }

        // Phase 2a (sequential control): honest pushes from every
        // segment, in population-index order, through the shared rate
        // limiter and loss filter, counting-sorted into per-receiver
        // runs. No per-ID node work happens here — the runs are consumed
        // by the parallel phases below.
        self.collect_and_sort_pushes(s);

        // Phase 2b (sequential control): the adversary's pushes. The
        // adaptive bandit's arm is fed its observed yield after the fold.
        let bandit_arm = self.bandit.as_ref().map(|b| b.choose());
        self.collect_byz_pushes(s, bandit_arm);

        // Phase 2c (parallel, per ranked segment, sharded by receiver):
        // rank the honest run, then the adversary's run, into each
        // receiver's view; honest senders count as discovered. (The
        // ranked family consumes pushes before the pull phase; the
        // Brahms family consumes its runs at finish time.)
        {
            let Scratch {
                sorted,
                counts,
                byz_sorted,
                byz_counts,
                ..
            } = s;
            let (sorted, counts) = (&sorted[..], &counts[..]);
            let (byz_sorted, byz_counts) = (&byz_sorted[..], &byz_counts[..]);
            struct Lane<'a> {
                node: &'a mut RankedNode,
                disc: DiscoveryLane<'a>,
            }
            for seg in self
                .segs
                .iter()
                .filter(|seg| seg.protocol.is_ranked_family())
            {
                let start = seg.start;
                let mut lanes: Vec<Lane> = self.nodes[start..start + seg.len]
                    .iter_mut()
                    .zip(self.discovery.rows_mut().skip(start))
                    .map(|(node, disc)| Lane {
                        node: node.ranked_mut(),
                        disc,
                    })
                    .collect();
                rayon::par_for_each_mut(&mut lanes, |i, lane| {
                    let abs = byz + start + i;
                    let (h0, h1) = run_bounds(counts, abs);
                    for &(_, sender) in &sorted[h0..h1] {
                        let sender = widen(sender);
                        lane.node.record_push(sender);
                        if sender.index() >= byz && sender.index() < total {
                            lane.disc.insert(sender.index());
                        }
                    }
                    let (b0, b1) = run_bounds(byz_counts, abs);
                    for &(_, advertised) in &byz_sorted[b0..b1] {
                        lane.node.record_push(widen(advertised));
                    }
                });
            }
        }

        // Phase 3 (sequential control): pulls in population-index order.
        // Only the shared ordered streams run here for the Brahms family
        // — loss draws, handshakes, the adversary RNG, and the (rare)
        // trusted swaps — with every untrusted answer deferred as a pull
        // event for the parallel apply phase. Ranked-family answers are
        // ranked on arrival and shape later answers, so they cannot
        // shard. Answers deferred from earlier rounds deliver first
        // (they are the oldest answers the requester sees), through the
        // same `deliver` as a fresh answer; dead requesters consume and
        // drop theirs.
        s.events.clear();
        s.byz_rngs.clear();
        s.arena.clear();
        let due = self.net.take_due_answers();
        let mut due_cursor = 0usize;
        for ci in 0..pop {
            s.event_start[ci] = s.events.len() as u32;
            while due_cursor < due.len() && due[due_cursor].ci as usize <= ci {
                let ans = &due[due_cursor];
                due_cursor += 1;
                if ans.ci as usize != ci {
                    continue;
                }
                // The first delivered copy claims the exchange; deadline
                // retransmits and injected duplicates are suppressed.
                if !self.net.accept_answer(ans) || !s.live[ci] {
                    continue;
                }
                s.reply.clear();
                s.reply
                    .extend(self.net.due_ids(ans).iter().map(|&idx| widen(idx)));
                self.deliver(ci, ans.from, false, PullGate::Inline, s);
            }
            if !s.live[ci] {
                continue;
            }
            for k in 0..s.plans.pulls(ci).len() {
                let target = widen(s.plans.pulls(ci)[k]);
                if let Some(gate) = self.open_pull(ci, target, s) {
                    self.pull(ci, target, gate, s);
                }
            }
        }
        s.event_start[pop] = s.events.len() as u32;

        // Phase 3b (sequential): proactive trusted exchanges of the
        // Raptee segment. Each trusted node initiates one exchange with
        // the oldest entry of its trusted directory (framework criterion
        // (1): round-robin probing) — the mechanism that keeps a sparse
        // trusted population meeting every round once discovered. Swaps
        // here cannot invalidate snapshot-deferred answers: those
        // reference the frozen snapshot arena, not the live views.
        // Ranked-family trusted nodes have no node-level directory —
        // their trusted exchanges are opportunistic, on the pull path,
        // or driven by phase 3c.
        if self.scenario.trusted_swap {
            for seg in self
                .segs
                .iter()
                .filter(|seg| !seg.protocol.is_ranked_family())
            {
                for ci in seg.start..seg.start + seg.len {
                    let abs = byz + ci;
                    if !Self::effective_trusted_in(&self.trusted, self.trust.as_ref(), abs) {
                        continue;
                    }
                    let node = self.nodes[ci].raptee_mut();
                    let Some(partner) = node.trusted_partner() else {
                        continue;
                    };
                    if partner.index() == abs || !self.alive[abs] {
                        continue;
                    }
                    if !self.alive[partner.index()] {
                        // Timeout: forget the dead trusted peer.
                        node.forget_trusted_peer(partner);
                        continue;
                    }
                    if !Self::effective_trusted_in(
                        &self.trusted,
                        self.trust.as_ref(),
                        partner.index(),
                    ) {
                        // The partner is alive but its certificate lapsed:
                        // skip the exchange without forgetting it — it
                        // will re-attest and answer again.
                        continue;
                    }
                    // A directory only learns peers from RAPTEE trusted
                    // swaps, so the partner is a RAPTEE node too.
                    let (a, b) = two_nodes(&mut self.nodes, ci, partner.index() - byz);
                    RapteeNode::trusted_swap_kind(a.raptee_mut(), b.raptee_mut(), false);
                }
            }
        }

        // Phase 3c (sequential): proactive ranked-family trusted exchanges
        // off the engine-level directory (`Scenario::trusted_directory_refresh`)
        // — the hybrid's counterpart of the Raptee directory
        // round-robin, so trusted swaps and audit coverage don't depend
        // on random encounter. Partner draws come from a dedicated hash
        // stream; with the refresh off the directory is empty and this
        // pass vanishes.
        if self.scenario.trusted_directory_refresh > 0 && self.trusted_dir.len() > 1 {
            let dir_seed = mix64(self.scenario.seed ^ TRUSTED_DIR_SALT);
            let round_tag = mix64(self.round as u64);
            let dir = std::mem::take(&mut self.trusted_dir);
            for &abs_u in &dir {
                let abs = abs_u as usize;
                let ci = abs - byz;
                if !self.alive[abs] || !self.effective_trusted(abs) {
                    continue;
                }
                if !self.in_ranked_segment(ci) {
                    continue; // Raptee trusted nodes already ran phase 3b
                }
                let mut pick =
                    (mix64(dir_seed ^ round_tag ^ mix64(abs as u64)) % dir.len() as u64) as usize;
                if dir[pick] as usize == abs {
                    pick = (pick + 1) % dir.len();
                }
                let partner_abs = dir[pick] as usize;
                let pc = partner_abs - byz;
                if partner_abs == abs
                    || !self.alive[partner_abs]
                    || !self.effective_trusted(partner_abs)
                    || !self.in_ranked_segment(pc)
                {
                    continue;
                }
                // Bidirectional attested swap (the ranked both-trusted
                // idiom of `pull`): each side's distinct view ranks into
                // the other, bypassing the waiting lists.
                self.nodes[pc].answer_into(&mut s.reply);
                self.rank_answer(ci, NodeId(partner_abs as u64), &s.reply, true);
                self.nodes[ci].answer_into(&mut s.observed);
                self.rank_answer(pc, NodeId(abs as u64), &s.observed, true);
            }
            self.trusted_dir = dir;
        }

        // Phase 4 (sequential): adversary observation pulls of the
        // identification attack, over the one Brahms-family segment
        // `validate` confines it to.
        if self.scenario.identification_attack && byz > 0 {
            // β·l1 observation pulls each; α = β in the paper's config.
            let beta_count = self.limiter_fanout;
            let candidates = &self.victims[..self.scenario.n - byz];
            for _ in 0..byz {
                self.adversary
                    .observation_targets_into(candidates, beta_count, &mut s.observed);
                for &t in &s.observed {
                    let view = self
                        .node(t)
                        .expect("Scenario::validate: identification_attack needs a uniform Brahms or RAPTEE run")
                        .brahms()
                        .view();
                    if view.is_empty() {
                        continue;
                    }
                    let byz_in_view = view.ids().filter(|id| id.index() < byz).count();
                    let share = byz_in_view as f64 / view.len() as f64;
                    self.adversary.record_share(t, share);
                }
            }
        }

        // Phase 5 (parallel apply, one pass over the arena): round
        // finalisation and per-node metric observation into the stat
        // slots. Brahms-family nodes reconstruct their push/pull streams
        // from the shared arenas; ranked nodes verify their waiting lists
        // (probe contacts succeed iff the candidate is alive), then
        // finalise.
        let validation_due = self.scenario.sampler_validation_period > 0
            && (self.round + 1).is_multiple_of(self.scenario.sampler_validation_period);
        {
            let Scratch {
                stats,
                events,
                byz_rngs,
                event_start,
                arena,
                snap_ids,
                snap_len,
                sorted,
                counts,
                byz_sorted,
                byz_counts,
                ..
            } = s;
            let (events, byz_rngs, event_start) = (&events[..], &byz_rngs[..], &event_start[..]);
            let (arena, snap_ids, snap_len) = (&arena[..], &snap_ids[..], &snap_len[..]);
            let (sorted, counts) = (&sorted[..], &counts[..]);
            let (byz_sorted, byz_counts) = (&byz_sorted[..], &byz_counts[..]);
            let alive = &self.alive;
            let is_alive = |id: NodeId| alive.get(id.index()).copied().unwrap_or(false);
            let adversary = &self.adversary;
            let mut lanes: Vec<FinishLane> = self
                .nodes
                .iter_mut()
                .zip(stats.iter_mut())
                .zip(self.discovery.rows_mut())
                .zip(self.share_rings.rows_mut())
                .map(|(((node, stat), disc), ring)| FinishLane {
                    node,
                    stat,
                    disc,
                    ring,
                })
                .collect();
            rayon::par_for_each_scratch(&mut lanes, workers, |ws, ci, it| {
                let abs = byz + ci;
                *it.stat = RoundStat::default();
                if !alive[abs] {
                    return;
                }
                it.stat.participated = true;
                match it.node {
                    Node::Raptee(node) => {
                        if validation_due {
                            // Brahms sampler validation: probe sampled
                            // nodes, re-draw the samplers whose sample is
                            // dead.
                            let (sampler, rng) = node.brahms_mut().sampler_and_rng_mut();
                            sampler.validate(is_alive, rng);
                        }
                        let me = NodeId(abs as u64);
                        // Push stream: the honest counting-sorted run,
                        // then the adversary's run — each receiver's
                        // historical arrival order, with the
                        // `record_push` self-filter.
                        ws.pushed.clear();
                        let (h0, h1) = run_bounds(counts, abs);
                        ws.pushed.extend(
                            sorted[h0..h1]
                                .iter()
                                .map(|&(_, sender)| widen(sender))
                                .filter(|&x| x != me),
                        );
                        let (b0, b1) = run_bounds(byz_counts, abs);
                        ws.pushed.extend(
                            byz_sorted[b0..b1]
                                .iter()
                                .map(|&(_, advertised)| widen(advertised))
                                .filter(|&x| x != me),
                        );
                        // Untrusted pull stream, reconstructed in delivery
                        // order.
                        ws.untrusted.clear();
                        let e0 = event_start[ci] as usize;
                        let e1 = event_start[ci + 1] as usize;
                        for ev in &events[e0..e1] {
                            match ev {
                                PullEvent::Snapshot { responder } => {
                                    let r = *responder as usize;
                                    let base = r * stride;
                                    ws.untrusted.extend(
                                        snap_ids[base..base + snap_len[r] as usize]
                                            .iter()
                                            .map(|&i| widen(i)),
                                    );
                                }
                                PullEvent::Arena { start, len } => {
                                    let (a, b) = (*start as usize, (*start + *len) as usize);
                                    ws.untrusted.extend(arena[a..b].iter().map(|&i| widen(i)));
                                }
                                PullEvent::ByzReplay { slot } => {
                                    let mut rng = byz_rngs[*slot as usize].clone();
                                    adversary.replay_pull_answer(
                                        &mut rng,
                                        &mut ws.idx,
                                        &mut ws.reply,
                                    );
                                    ws.untrusted.extend_from_slice(&ws.reply);
                                }
                            }
                        }
                        let outcome = node.finish_round_streamed(
                            &ws.pushed,
                            &mut ws.untrusted,
                            (e1 - e0) as u32,
                            &mut ws.pulled,
                            &mut ws.finish,
                        );
                        it.stat.evicted = outcome.evicted as u32;
                        it.stat.flood = outcome.report.push_flood_detected;
                    }
                    Node::Ranked(node) => {
                        // Quarantine drain before finalisation: a no-op
                        // while the waiting list is disabled (plain
                        // BASALT, LIFT), live for the wlist hybrid and for
                        // Honeybee, whose verified walk endpoints pass the
                        // reachability probe here.
                        node.drain_wlist(is_alive);
                        it.stat.rotated = node.finish_round() as u32;
                    }
                }
                // Discovery counts an ID once it has *entered the view*
                // (matching the paper's round counts; IDs merely seen in
                // transit — or evicted — do not count).
                let mut tally = ViewTally::default();
                it.node
                    .for_each_view_id(|id| tally.see(id, byz, total, &mut it.disc));
                tally.book(it.stat, &mut it.disc, &mut it.ring);
            });
        }

        // Fold (sequential, node-index order — float accumulation order
        // is exactly the historical per-actor loop's).
        self.fold_round_stats(&s.stats);
        self.bandit_reward(&s.stats, bandit_arm);

        if self.scenario.identification_attack {
            let flagged = self
                .adversary
                .classify_trusted(self.scenario.identification_threshold);
            let trusted = &self.trusted;
            let n = self.scenario.n;
            // Ground truth: genuine trusted nodes (injected ones are the
            // adversary's own and excluded).
            let actual = trusted[byz..n].iter().filter(|&&t| t).count();
            let result = IdentificationResult::evaluate(
                &flagged,
                |id| id.index() < n && trusted[id.index()],
                actual,
                self.round,
            );
            let better = match &self.best_identification {
                None => true,
                Some(best) => result.f1 > best.f1,
            };
            if better {
                self.best_identification = Some(result);
            }
        }
    }

    /// The prelude every pull shares, whatever the requester's family:
    /// self and out-of-range targets, the quarantine blacklist, the
    /// event model's reachability gate, the dead-peer timeout and the
    /// loss draw, in that order. Returns the gate when the exchange goes
    /// ahead and `None` when it ended here.
    fn open_pull(
        &mut self,
        requester_ci: usize,
        target: NodeId,
        s: &mut Scratch,
    ) -> Option<PullGate> {
        let requester_abs = self.byz_count + requester_ci;
        let t = target.index();
        if t == requester_abs || t >= self.total_actors() {
            return None;
        }
        // A convicted (quarantined) target is blacklisted before any
        // connection or RNG draw.
        if self.audit.as_ref().is_some_and(|a| a.is_quarantined(t)) {
            self.drop_link(requester_ci, target, true, s);
            return None;
        }
        // Reachability gating and round-trip timing. A refused exchange
        // never opens a connection, so (unlike a crash timeout) the
        // requester drops nothing and no loss RNG draw happens — at the
        // zero-latency config no exchange is ever refused and every one
        // runs inline.
        let gate = self.net.gate_pull(self.round, requester_abs, t);
        if gate == PullGate::Refused {
            return None;
        }
        // A crashed responder times out: the requester learns nothing,
        // and any in-flight retransmit copies die with the exchange.
        if !self.alive[t] {
            self.drop_link(requester_ci, target, false, s);
            self.net.drop_pending_copies();
            return None;
        }
        if self.scenario.message_loss > 0.0 && self.loss_rng.chance(self.scenario.message_loss) {
            self.net.drop_pending_copies();
            return None; // request or answer lost in transit
        }
        Some(gate)
    }

    /// The requester gives up on `target` after a timeout or a
    /// conviction. A Brahms-family requester drops the stale link from
    /// its view and trusted directory either way (Cyclon-style timeout
    /// handling). A ranked-family requester evicts only a convicted
    /// identity: a dead peer's stale samples are recycled by seed
    /// rotation rather than an explicit removal.
    fn drop_link(&mut self, requester_ci: usize, target: NodeId, convicted: bool, s: &mut Scratch) {
        match &mut self.nodes[requester_ci] {
            Node::Raptee(node) => {
                node.brahms_mut().view_mut().remove(target);
                node.forget_trusted_peer(target);
                s.view_mutated[requester_ci] = true;
            }
            Node::Ranked(node) => {
                if convicted {
                    node.quarantine(target);
                }
            }
        }
    }

    /// One opened pull (see [`Simulation::open_pull`]) of requester `ci`,
    /// whatever its family: authentication, then the answer. Three paths
    /// copy no IDs: a Brahms-family requester replays a Byzantine answer
    /// from an adversary-RNG snapshot and defers an untouched
    /// Brahms-family responder's answer by reference to its plan-time
    /// snapshot, and a RAPTEE trusted pair swaps view halves. Every
    /// other answer is materialised into `s.reply` — at request time,
    /// even when it lands in a later round — and handed to
    /// [`Simulation::deliver`]. A ranked responder then books the
    /// exchange: a trusted ranked pair's swap ranks the requester's
    /// view back into it, and any other requester counts as a contact.
    /// The Brahms protocol has no responder-side hook.
    fn pull(&mut self, ci: usize, target: NodeId, gate: PullGate, s: &mut Scratch) {
        let byz = self.byz_count;
        let me = NodeId((byz + ci) as u64);
        let t = target.index();
        let raptee_requester = !self.in_ranked_segment(ci);
        let deferred = matches!(gate, PullGate::Deferred { .. });
        if t < byz {
            // Byzantine responders fail authentication (random keys) and
            // answer with exclusively Byzantine IDs. The coordinator RNG
            // must advance here, in event order.
            if raptee_requester && !deferred {
                // Only the draws happen here; the parallel apply phase
                // regenerates the IDs from the pre-draw snapshot.
                let slot = s.byz_rngs.len() as u32;
                s.byz_rngs.push(self.adversary.rng_snapshot());
                self.adversary.skip_pull_answer();
                s.events.push(PullEvent::ByzReplay { slot });
            } else {
                self.adversary.pull_answer_into(&mut s.reply);
                self.deliver(ci, target, false, gate, s);
            }
            return;
        }
        let tc = t - byz;
        // Effective trust: an expired attestation certificate fails the
        // freshness check even though the group keys still agree, so a
        // degraded pair's exchange falls back to the untrusted path.
        let mut trusted = self.effective_trusted(me.index()) && self.effective_trusted(t);
        if self.scenario.real_crypto_handshakes {
            // The real four-message handshake instead of the role-based
            // shortcut; its nonces draw from both nodes' own RNGs.
            let (Node::Raptee(a), Node::Raptee(b)) = two_nodes(&mut self.nodes, ci, tc) else {
                unreachable!(
                    "Scenario::validate: real_crypto_handshakes needs a uniform Brahms or RAPTEE run"
                )
            };
            let (oa, ob) = RapteeNode::run_handshake(a, b);
            debug_assert_eq!(oa, ob);
            debug_assert_eq!(
                oa == AuthOutcome::Trusted,
                self.trusted[me.index()] && self.trusted[t]
            );
            trusted &= oa == AuthOutcome::Trusted;
        }
        if trusted {
            // Trusted exchanges apply inline even when the gate deferred
            // the answer (the attested channel is synchronous); drop any
            // pending retransmit copies so they cannot double-deliver.
            self.net.drop_pending_copies();
        }
        let target_ranked = self.in_ranked_segment(tc);
        if raptee_requester && !target_ranked {
            if trusted && self.scenario.trusted_swap {
                let (a, b) = two_nodes(&mut self.nodes, ci, tc);
                RapteeNode::trusted_swap(a.raptee_mut(), b.raptee_mut());
                s.view_mutated[ci] = true;
                s.view_mutated[tc] = true;
                return;
            }
            if !trusted && !deferred && !s.view_mutated[tc] {
                // An untrusted answer is the responder's full view at
                // this moment, still exactly its post-plan snapshot.
                s.events.push(PullEvent::Snapshot {
                    responder: tc as u32,
                });
                return;
            }
        }
        self.nodes[tc].answer_into(&mut s.reply);
        self.deliver(ci, target, trusted, gate, s);
        // The request itself arrives synchronously (requests are tiny;
        // only answers carry enough state to matter across rounds), so
        // the responder's bookkeeping stays inline.
        if target_ranked && trusted && !raptee_requester {
            // The swap's reverse half: the requester's attested distinct
            // view ranks into the responder, bypassing its waiting list.
            self.nodes[ci].answer_into(&mut s.observed);
            self.rank_answer(tc, me, &s.observed, true);
        } else if target_ranked {
            self.note_contact(tc, me);
        }
    }

    /// Hands the answer in `s.reply` from `from` to requester `ci`. An
    /// untrusted answer the gate deferred is queued on the net for a
    /// later round. Otherwise a ranked requester ranks it at once, a
    /// trusted Brahms-family requester records it past eviction, and any
    /// other answer becomes a pull event over the answer arena.
    fn deliver(&mut self, ci: usize, from: NodeId, trusted: bool, gate: PullGate, s: &mut Scratch) {
        if let (PullGate::Deferred { round, held }, false) = (gate, trusted) {
            self.net
                .queue_answer(round, held, ci as u32, from, &s.reply);
            return;
        }
        if self.in_ranked_segment(ci) {
            self.rank_answer(ci, from, &s.reply, trusted);
        } else if trusted {
            self.nodes[ci].raptee_mut().record_trusted_pull(&s.reply);
        } else {
            let start = s.arena.len() as u32;
            s.arena.extend(s.reply.iter().map(|&id| narrow(id)));
            s.events.push(PullEvent::Arena {
                start,
                len: s.reply.len() as u32,
            });
        }
    }

    /// Whether population index `ci` lies in a ranked-family segment,
    /// read off the segment ranges: the exchange pass learns a family
    /// without touching the node, which at large N is a cache miss per
    /// pull for an answer it defers anyway.
    fn in_ranked_segment(&self, ci: usize) -> bool {
        self.segs.iter().any(|seg| {
            seg.protocol.is_ranked_family() && (seg.start..seg.start + seg.len).contains(&ci)
        })
    }

    /// Ranks a pull answer into ranked-family node `ci` — through the
    /// attested path, bypassing the waiting list, when `trusted` — and
    /// counts the responder and every answered ID as discovered.
    ///
    /// Discovery in the ranked family counts *ranked candidates*: the
    /// view is deliberately stable (slots converge to their distance
    /// minima), so the Brahms "entered the dynamic view" criterion would
    /// measure rotation pacing, not knowledge. A candidate that has been
    /// ranked against every slot has genuinely been discovered.
    fn rank_answer(&mut self, ci: usize, from: NodeId, ids: &[NodeId], trusted: bool) {
        let node = self.nodes[ci].ranked_mut();
        if trusted {
            node.record_pull_answer_trusted(from, ids);
        } else {
            node.record_pull_answer(from, ids);
        }
        let (byz, total) = (self.byz_count, self.total_actors());
        note_discovered(&mut self.discovery, byz, total, ci, from);
        for &id in ids {
            note_discovered(&mut self.discovery, byz, total, ci, id);
        }
    }

    /// Ranked-family responder `ci` books an incoming exchange from
    /// `requester` as a contact: the requester is ranked like a pushed
    /// ID and counts as discovered.
    fn note_contact(&mut self, ci: usize, requester: NodeId) {
        self.nodes[ci].ranked_mut().record_push(requester);
        let (byz, total) = (self.byz_count, self.total_actors());
        note_discovered(&mut self.discovery, byz, total, ci, requester);
    }

    /// Folds the apply phase's per-node stat slots, in node-index order,
    /// into the run counters and this round's [`RoundAccumulator`], then
    /// into the run series. Each segment's mean raw share and mean
    /// discovered fraction additionally land in its per-segment series.
    fn fold_round_stats(&mut self, stats: &[RoundStat]) {
        let mut acc = RoundAccumulator::new();
        let target_pool = (self.non_byz_total as f64).max(1.0);
        for si in 0..self.segs.len() {
            let (start, len) = (self.segs[si].start, self.segs[si].len);
            let mut seg_sum = 0.0;
            let mut seg_count = 0usize;
            let mut seg_disc_sum = 0usize;
            let mut seg_disc_count = 0usize;
            for stat in &stats[start..start + len] {
                if !stat.participated {
                    continue;
                }
                self.total_evicted += u64::from(stat.evicted);
                if stat.flood {
                    self.floods_detected += 1;
                }
                self.seed_rotations += u64::from(stat.rotated);
                acc.discovered_sum += stat.discovered as usize;
                acc.discovered_nodes += 1;
                if (stat.discovered as usize) < self.discovery_target {
                    acc.all_discovered = false;
                }
                seg_disc_sum += stat.discovered as usize;
                seg_disc_count += 1;
                if stat.has_share {
                    acc.smoothed_sum += stat.smoothed;
                    acc.smoothed_count += 1;
                    acc.share_sum += stat.share;
                    acc.share_count += 1;
                    seg_sum += stat.share;
                    seg_count += 1;
                }
            }
            self.seg_series[si].push(if seg_count == 0 {
                0.0
            } else {
                seg_sum / seg_count as f64
            });
            self.seg_discovered_series[si].push(if seg_disc_count == 0 {
                0.0
            } else {
                seg_disc_sum as f64 / seg_disc_count as f64 / target_pool
            });
        }
        self.finish_round_metrics(&acc, stats);
    }

    /// Folds one round's [`RoundAccumulator`] into the run series:
    /// pollution curve, discovery round, mean-discovery series and the
    /// spread-stability detector. `stats` re-enters only for the spread
    /// check, which streams over the stat slots instead of a buffered
    /// share vector — no per-(node,round) allocation remains.
    fn finish_round_metrics(&mut self, acc: &RoundAccumulator, stats: &[RoundStat]) {
        let mean_share = if acc.share_count == 0 {
            0.0
        } else {
            acc.share_sum / acc.share_count as f64
        };
        self.byz_share_series.push(mean_share);

        if self.discovery_round.is_none() && acc.all_discovered {
            self.discovery_round = Some(self.round);
        }
        if acc.discovered_nodes > 0 {
            let target_pool = (self.non_byz_total as f64).max(1.0);
            self.mean_discovered_series
                .push(acc.discovered_sum as f64 / acc.discovered_nodes as f64 / target_pool);
        }
        // Spread stability (the paper's criterion): every non-Byzantine
        // node's pollution within STABILITY_SPREAD of the average. Each
        // node's share is smoothed over SMOOTHING_WINDOW rounds first —
        // at reduced view sizes a single view entry moves the raw share
        // by 5-10 points of pure quantisation noise, which would make the
        // criterion unreachable regardless of convergence. The smoothed
        // criterion stays gated by laggard nodes, like the original. The
        // running smoothed sum accumulates in node-index order, exactly
        // the addition sequence of the historical buffered sum.
        let smoothed_mean = if acc.smoothed_count == 0 {
            0.0
        } else {
            acc.smoothed_sum / acc.smoothed_count as f64
        };
        if self.spread_stability_round.is_none()
            && self.round + 1 >= SMOOTHING_WINDOW
            && acc.smoothed_count > 0
            && stats
                .iter()
                .filter(|st| st.participated && st.has_share)
                .all(|st| (st.smoothed - smoothed_mean).abs() <= STABILITY_SPREAD)
        {
            self.spread_stability_round = Some(self.round);
        }
    }

    /// Mean of the last `tail_window` entries of a share series — the
    /// resilience metric.
    fn tail_mean(series: &[f64], tail_window: usize) -> f64 {
        let tail = tail_window.min(series.len());
        if tail == 0 {
            0.0
        } else {
            series[series.len() - tail..].iter().sum::<f64>() / tail as f64
        }
    }

    fn into_result(self) -> RunResult {
        let resilience = Self::tail_mean(&self.byz_share_series, self.scenario.tail_window);
        let stability_round = self
            .spread_stability_round
            .or_else(|| crate::metrics::series_stability_round(&self.byz_share_series, resilience));
        let mean_discovery_round = crate::metrics::fractional_crossing(
            &self.mean_discovered_series,
            crate::metrics::DISCOVERY_TARGET_SHARE,
        );
        // Per-segment pollution, discovery and stability: one entry per
        // population segment, from the per-segment series.
        let mut segments: Vec<SegmentResult> = self
            .segs
            .iter()
            .zip(&self.seg_series)
            .zip(&self.seg_discovered_series)
            .map(|((seg, series), disc_series)| {
                let seg_resilience = Self::tail_mean(series, self.scenario.tail_window);
                SegmentResult {
                    protocol: seg.protocol,
                    nodes: seg.len,
                    resilience: seg_resilience,
                    mean_discovery_round: crate::metrics::fractional_crossing(
                        disc_series,
                        crate::metrics::DISCOVERY_TARGET_SHARE,
                    ),
                    stability_round: crate::metrics::series_stability_round(series, seg_resilience),
                    byz_share_series: series.clone(),
                }
            })
            .collect();
        // A lone segment *is* the population, so however it was spelled
        // it reports the combined metrics: the spread criterion before
        // the series-only stability fallback, and a discovery series
        // that skips rounds nobody took part in. (Its share series and
        // resilience already equal the combined ones bit for bit — same
        // additions in the same order.)
        if let [only] = &mut segments[..] {
            only.mean_discovery_round = mean_discovery_round;
            only.stability_round = stability_round;
        }
        // The two reporting rules of the one net: an event run measures
        // ticks and reports its counters (`finish` counts the messages
        // still in flight); a round run counts one tick per round and
        // reports none.
        let (virtual_ticks, net) = match self.scenario.network {
            NetworkModel::Rounds => (self.round as u64, None),
            NetworkModel::Events(_) => (
                self.round as u64 * self.net.round_ticks(),
                Some(self.net.finish()),
            ),
        };
        // Recovery metrics exist only when dynamic churn or attestation
        // expiry ran — the all-off configuration reports `None` and
        // pre-existing results compare (and hash) unchanged.
        let recovery = self.recovery.map(|rec| RecoveryStats {
            availability: if rec.node_rounds == 0 {
                1.0
            } else {
                rec.live_node_rounds as f64 / rec.node_rounds as f64
            },
            crashes: rec.crashes,
            restarts: rec.restarts,
            recovered: rec.recovered,
            mean_time_to_recover: (rec.recovered > 0)
                .then(|| rec.ttr_sum as f64 / rec.recovered as f64),
            trusted_live_fraction: rec.trusted_live_fraction,
        });
        // Audit stats exist only when the challenger ran — `None`
        // otherwise, so audit-off results compare (and hash) unchanged.
        let audit = self.audit.map(Challenger::into_stats);
        RunResult {
            resilience,
            discovery_round: self.discovery_round,
            mean_discovery_round,
            stability_round,
            spread_stability_round: self.spread_stability_round,
            byz_share_series: self.byz_share_series,
            identification: self.best_identification,
            rounds: self.round,
            floods_detected: self.floods_detected,
            total_evicted: self.total_evicted,
            seed_rotations: self.seed_rotations,
            segments,
            virtual_ticks,
            net,
            recovery,
            audit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Protocol;
    use raptee::EvictionPolicy;

    fn small(protocol: Protocol) -> Scenario {
        Scenario {
            n: 120,
            byzantine_fraction: 0.1,
            trusted_fraction: 0.05,
            view_size: 12,
            sample_size: 12,
            rounds: 90,
            tail_window: 10,
            protocol,
            seed: 424242,
            ..Scenario::default()
        }
    }

    #[test]
    fn brahms_run_converges_below_catastrophe() {
        let result = Simulation::new(small(Protocol::Brahms)).run();
        assert_eq!(result.rounds, 90);
        assert!(result.resilience > 0.0, "some pollution is inevitable");
        assert!(
            result.resilience < 0.9,
            "Brahms keeps the adversary below near-total control: {}",
            result.resilience
        );
        assert_eq!(result.byz_share_series.len(), 90);
    }

    #[test]
    fn raptee_beats_brahms_at_equal_workload() {
        // A healthy share of trusted nodes so the effect clears run-to-run
        // noise at this small scale (the full sweeps in the bench harness
        // cover the small-t regime with repetitions).
        let mut scenario = small(Protocol::Raptee);
        scenario.trusted_fraction = 0.2;
        let brahms = Simulation::new(scenario.brahms_baseline()).run();
        let raptee = Simulation::new(scenario).run();
        assert!(
            raptee.resilience < brahms.resilience,
            "RAPTEE {} should improve on Brahms {}",
            raptee.resilience,
            brahms.resilience
        );
    }

    #[test]
    fn discovery_and_stability_reached_in_calm_runs() {
        let result = Simulation::new(small(Protocol::Brahms)).run();
        assert!(
            result.mean_discovery_round.is_some(),
            "mean discovery must complete: series tail {:?}",
            result.byz_share_series.last()
        );
        assert!(
            result.stability_round.is_some(),
            "stability must be reached"
        );
        if let (Some(all), Some(mean)) = (result.discovery_round, result.mean_discovery_round) {
            assert!(
                all as f64 >= mean.floor(),
                "all-nodes discovery cannot precede the mean"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Simulation::new(small(Protocol::Raptee)).run();
        let b = Simulation::new(small(Protocol::Raptee)).run();
        assert_eq!(a, b);
        let mut other = small(Protocol::Raptee);
        other.seed = 99;
        let c = Simulation::new(other).run();
        assert_ne!(a.byz_share_series, c.byz_share_series);
    }

    #[test]
    fn real_crypto_handshakes_match_shortcut() {
        let mut with_crypto = small(Protocol::Raptee);
        with_crypto.real_crypto_handshakes = true;
        with_crypto.rounds = 12;
        let mut shortcut = with_crypto.clone();
        shortcut.real_crypto_handshakes = false;
        // The handshake outcome is key equality either way; the RNG
        // streams differ (nonce draws), so compare qualitative behaviour:
        // both runs complete and produce sane shares.
        let a = Simulation::new(with_crypto).run();
        let b = Simulation::new(shortcut).run();
        assert_eq!(a.rounds, b.rounds);
        assert!((a.resilience - b.resilience).abs() < 0.25);
    }

    #[test]
    fn eviction_only_happens_under_raptee() {
        let brahms = Simulation::new(small(Protocol::Brahms)).run();
        assert_eq!(brahms.total_evicted, 0);
        let mut s = small(Protocol::Raptee);
        s.eviction = EvictionPolicy::Fixed(0.8);
        let raptee = Simulation::new(s).run();
        assert!(raptee.total_evicted > 0);
    }

    #[test]
    fn identification_attack_produces_result() {
        let mut s = small(Protocol::Raptee);
        s.identification_attack = true;
        s.eviction = EvictionPolicy::Fixed(1.0); // most detectable config
        s.trusted_fraction = 0.2;
        let result = Simulation::new(s).run();
        let ident = result.identification.expect("attack enabled");
        assert!(ident.precision >= 0.0 && ident.precision <= 1.0);
        assert!(ident.recall >= 0.0 && ident.recall <= 1.0);
    }

    #[test]
    fn injected_nodes_join_population() {
        let mut s = small(Protocol::Raptee);
        s.injected_poisoned_fraction = 0.1;
        let sim = Simulation::new(s.clone());
        assert_eq!(sim.total_actors(), s.total_actors());
        // The injected trusted nodes start with fully Byzantine views.
        let first_injected = NodeId(s.n as u64);
        assert!(sim.is_trusted(first_injected));
        let node = sim.node(first_injected).unwrap();
        assert!(node
            .brahms()
            .view()
            .ids()
            .all(|id| id.index() < s.byzantine_count()));
        let result = sim.run();
        assert_eq!(result.rounds, s.rounds);
    }

    #[test]
    fn message_loss_slows_but_does_not_break() {
        let mut s = small(Protocol::Brahms);
        s.message_loss = 0.5;
        s.rounds = 30;
        let r = Simulation::new(s).run();
        assert_eq!(r.rounds, 30);
        assert!(r.resilience < 0.95);
    }

    #[test]
    fn crash_marks_nodes_dead_and_views_recover() {
        let mut s = small(Protocol::Brahms);
        s.churn = crate::scenario::ChurnSchedule::one_shot(0.2, 10);
        s.rounds = 30;
        let byz = s.byzantine_count();
        let n = s.n;
        let mut sim = Simulation::new(s);
        for _ in 0..30 {
            sim.run_round();
        }
        let dead = (byz..n)
            .filter(|&i| !sim.is_alive(NodeId(i as u64)))
            .count();
        let expected = ((n - byz) as f64 * 0.2).round() as usize;
        assert_eq!(dead, expected);
        // Survivors keep full views despite the departures.
        for i in byz..n {
            let id = NodeId(i as u64);
            if sim.is_alive(id) {
                assert!(!sim.node(id).unwrap().brahms().view().is_empty());
            }
        }
    }

    #[test]
    fn targeted_attack_runs() {
        let mut s = small(Protocol::Brahms);
        s.attack = crate::scenario::AttackStrategy::Targeted {
            victim_fraction: 0.1,
            focus: 0.7,
        };
        s.rounds = 20;
        let r = Simulation::new(s).run();
        assert_eq!(r.rounds, 20);
    }

    #[test]
    fn role_queries() {
        let s = small(Protocol::Raptee);
        let byz = s.byzantine_count();
        let sim = Simulation::new(s);
        assert!(sim.is_byzantine(NodeId(0)));
        assert!(!sim.is_byzantine(NodeId(byz as u64)));
        assert!(sim.is_trusted(NodeId(byz as u64)));
        assert!(sim.node(NodeId(0)).is_none());
        assert!(sim.node(NodeId(byz as u64)).is_some());
    }

    #[test]
    fn queries_about_an_id_beyond_the_run_answer_instead_of_panicking() {
        let mut s = small(Protocol::Raptee);
        s.audit = Some(crate::scenario::AuditConfig::with_budget(2));
        let sim = Simulation::new(s);
        for id in [NodeId(sim.total_actors() as u64), NodeId(u64::MAX)] {
            assert!(!sim.is_alive(id));
            assert!(!sim.is_trusted(id));
            assert!(!sim.is_quarantined(id));
            assert_eq!(sim.discovery_count(id), None);
            assert!(sim.node(id).is_none() && sim.ranked(id).is_none());
        }
    }

    #[test]
    fn every_round_keeps_the_node_invariants() {
        let mut s = small(Protocol::Raptee);
        s.trusted_fraction = 0.2;
        s.rounds = 20;
        s.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
        let mut sim = Simulation::new(s);
        for _ in 0..20 {
            sim.run_round();
            assert_eq!(sim.check_invariants(), Ok(()));
        }
        // A directory entry that was never provisioned is named.
        let untrusted = (0..sim.total_actors())
            .map(|i| NodeId(i as u64))
            .find(|&id| sim.node(id).is_some() && !sim.is_trusted(id))
            .expect("an untrusted correct node");
        let trusted = (0..sim.total_actors())
            .map(|i| NodeId(i as u64))
            .find(|&id| sim.node(id).is_some() && sim.is_trusted(id))
            .expect("a trusted correct node");
        let ci = trusted.index() - sim.byz_count;
        let node = sim.nodes[ci].raptee_mut();
        if let Some(oldest) = node.directory().oldest() {
            node.forget_trusted_peer(oldest.id); // make room
        }
        node.note_trusted_peer(untrusted);
        let err = sim
            .check_invariants()
            .expect_err("an untrusted directory entry");
        assert!(err.contains("not a provisioned trusted actor"), "{err}");
    }

    #[test]
    fn ranked_nodes_are_checked_too() {
        let mut sim = Simulation::new(half_mixed());
        for _ in 0..5 {
            sim.run_round();
            assert_eq!(sim.check_invariants(), Ok(()));
        }
        // A BASALT node made to rank identities beyond the run is named.
        let total = sim.total_actors();
        let ci = sim.nodes.len() - 1;
        let node = sim.nodes[ci].ranked_mut();
        for stranger in total..total + 1_000 {
            node.record_push(NodeId(stranger as u64));
        }
        let err = sim.check_invariants().expect_err("a sampled stranger");
        assert!(err.contains("not an actor of this run"), "{err}");
    }

    #[test]
    fn the_arena_costs_nothing_over_a_raptee_node() {
        assert_eq!(
            std::mem::size_of::<Node>(),
            std::mem::size_of::<RapteeNode>()
        );
    }

    #[test]
    fn basalt_beats_brahms_under_balanced_attack() {
        // The head-to-head the BASALT paper argues qualitatively: ranked
        // hit-counter views bound the adversary near its population share,
        // where Brahms' renewal admits the full push/pull pressure.
        let s = small(Protocol::Brahms);
        let brahms = Simulation::new(s.clone()).run();
        let basalt = Simulation::new(s.basalt_variant(15)).run();
        assert_eq!(basalt.rounds, 90);
        assert!(basalt.resilience > 0.0, "some pollution is inevitable");
        assert!(
            basalt.resilience < brahms.resilience,
            "BASALT {} must undercut Brahms {}",
            basalt.resilience,
            brahms.resilience
        );
        assert_eq!(
            basalt.total_evicted, 0,
            "no eviction without a trusted tier"
        );
        assert_eq!(basalt.floods_detected, 0, "no Brahms flood detector runs");
    }

    #[test]
    fn basalt_deterministic_per_seed() {
        let s = small(Protocol::Brahms).basalt_variant(15);
        let a = Simulation::new(s.clone()).run();
        let b = Simulation::new(s.clone()).run();
        assert_eq!(a, b);
        let mut other = s;
        other.seed = 99;
        let c = Simulation::new(other).run();
        assert_ne!(a.byz_share_series, c.byz_share_series);
    }

    #[test]
    fn basalt_counts_seed_rotations() {
        let mut s = small(Protocol::Brahms).basalt_variant(10);
        s.rounds = 40;
        let r = Simulation::new(s.clone()).run();
        // 4 rotation epochs × one slot × every alive correct node.
        let expected = 4 * (s.n - s.byzantine_count()) as u64;
        assert_eq!(r.seed_rotations, expected);
        let never = Simulation::new(s.basalt_variant(0)).run();
        assert_eq!(never.seed_rotations, 0);
    }

    #[test]
    fn basalt_discovery_and_stability_reached() {
        let result = Simulation::new(small(Protocol::Brahms).basalt_variant(15)).run();
        assert!(
            result.mean_discovery_round.is_some(),
            "mean discovery must complete: tail {:?}",
            result.byz_share_series.last()
        );
        assert!(
            result.stability_round.is_some(),
            "stability must be reached"
        );
    }

    #[test]
    fn basalt_role_queries() {
        let s = small(Protocol::Brahms).basalt_variant(15);
        let byz = s.byzantine_count();
        let sim = Simulation::new(s);
        assert!(
            sim.basalt(NodeId(0)).is_none(),
            "Byzantine actors expose no node"
        );
        assert!(sim.basalt(NodeId(byz as u64)).is_some());
        assert!(
            sim.node(NodeId(byz as u64)).is_none(),
            "no RAPTEE nodes under BASALT"
        );
        assert!(!sim.is_trusted(NodeId(byz as u64)));
    }

    fn basalt_tee(view: usize) -> Protocol {
        Protocol::BasaltTee {
            view_size: view,
            rotation_interval: 15,
            wlist_ttl: 8,
        }
    }

    fn half_mixed() -> Scenario {
        let mut s = small(Protocol::Raptee);
        s.trusted_fraction = 0.1;
        s.half_and_half(Protocol::Raptee, basalt_tee(12))
    }

    #[test]
    fn basalt_tee_uniform_runs_with_trusted_tier() {
        let mut s = small(Protocol::Brahms).basalt_tee_variant(15, 8);
        s.trusted_fraction = 0.1;
        let byz = s.byzantine_count();
        let trusted = s.trusted_count();
        assert!(trusted > 0);
        let sim = Simulation::new(s.clone());
        // The trusted tier sits directly after the Byzantine prefix and
        // holds attested group keys.
        let first_trusted = NodeId(byz as u64);
        assert!(sim.is_trusted(first_trusted));
        assert!(!sim.is_trusted(NodeId((byz + trusted) as u64)));
        let node = sim.basalt(first_trusted).expect("BASALT node");
        assert!(node.is_trusted());
        assert!(node.group_key().is_some());
        assert!(
            sim.node(first_trusted).is_none(),
            "no Brahms-family nodes under the hybrid"
        );
        let r = sim.run();
        assert_eq!(r.rounds, s.rounds);
        assert!(r.seed_rotations > 0, "rotation still runs under the hybrid");
        assert_eq!(r.total_evicted, 0, "no Brahms eviction in BASALT views");
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].protocol, s.protocol);
        assert_eq!(r.segments[0].resilience.to_bits(), r.resilience.to_bits());
    }

    #[test]
    fn mixed_population_reports_segments() {
        let s = half_mixed();
        let correct = s.n - s.byzantine_count();
        let r = Simulation::new(s.clone()).run();
        assert_eq!(r.rounds, s.rounds);
        assert_eq!(r.segments.len(), 2);
        assert_eq!(r.segments[0].protocol, Protocol::Raptee);
        assert_eq!(r.segments[1].protocol, basalt_tee(12));
        assert_eq!(
            r.segments.iter().map(|x| x.nodes).sum::<usize>(),
            correct,
            "segments cover the correct population"
        );
        for seg in &r.segments {
            assert_eq!(seg.byz_share_series.len(), s.rounds);
            assert!(seg.resilience > 0.0 && seg.resilience < 1.0);
        }
        // The combined series is the per-round mean over all correct
        // nodes, so it lies between the segment series.
        for round in 0..s.rounds {
            let lo =
                r.segments[0].byz_share_series[round].min(r.segments[1].byz_share_series[round]);
            let hi =
                r.segments[0].byz_share_series[round].max(r.segments[1].byz_share_series[round]);
            let combined = r.byz_share_series[round];
            assert!(
                combined >= lo - 1e-12 && combined <= hi + 1e-12,
                "round {round}: combined {combined} outside [{lo}, {hi}]"
            );
        }
        // RAPTEE eviction ran in its segment.
        assert!(r.total_evicted > 0);
        // BASALT seed rotation ran in the other.
        assert!(r.seed_rotations > 0);
    }

    #[test]
    fn mixed_population_deterministic_per_seed() {
        let s = half_mixed();
        let a = Simulation::new(s.clone()).run();
        let b = Simulation::new(s.clone()).run();
        assert_eq!(a, b);
        let mut other = s;
        other.seed = 99;
        let c = Simulation::new(other).run();
        assert_ne!(a.byz_share_series, c.byz_share_series);
    }

    #[test]
    fn mixed_population_role_and_node_accessors() {
        let s = half_mixed();
        let byz = s.byzantine_count();
        let trusted_counts = s.segment_trusted_counts();
        let segs = s.segments();
        let sim = Simulation::new(s);
        // First Raptee-segment node: trusted RAPTEE.
        let raptee_first = NodeId(byz as u64);
        assert!(sim.is_trusted(raptee_first));
        assert!(sim.node(raptee_first).is_some());
        assert!(sim.basalt(raptee_first).is_none());
        // First BASALT-segment node: trusted BASALT.
        let basalt_first = NodeId((byz + segs[0].count) as u64);
        assert!(sim.is_trusted(basalt_first));
        let node = sim.basalt(basalt_first).expect("BASALT node");
        assert!(node.is_trusted());
        assert!(sim.node(basalt_first).is_none());
        // Untrusted tail of the BASALT segment.
        let basalt_last = NodeId((byz + segs[0].count + segs[1].count - 1) as u64);
        assert!(!sim.is_trusted(basalt_last));
        assert!(trusted_counts[1] < segs[1].count);
    }

    #[test]
    fn mixed_population_survives_loss_and_crashes() {
        let mut s = small(Protocol::Brahms).half_and_half(
            Protocol::Brahms,
            Protocol::Basalt {
                view_size: 12,
                rotation_interval: 15,
            },
        );
        s.message_loss = 0.2;
        s.churn = crate::scenario::ChurnSchedule::one_shot(0.15, 10);
        s.rounds = 30;
        let byz = s.byzantine_count();
        let n = s.n;
        let mut sim = Simulation::new(s);
        for _ in 0..30 {
            sim.run_round();
        }
        let dead = (byz..n)
            .filter(|&i| !sim.is_alive(NodeId(i as u64)))
            .count();
        let expected = ((n - byz) as f64 * 0.15).round() as usize;
        assert_eq!(dead, expected);
        // Survivors of both families keep non-empty views.
        for i in byz..n {
            let id = NodeId(i as u64);
            if !sim.is_alive(id) {
                continue;
            }
            if let Some(node) = sim.node(id) {
                assert!(!node.brahms().view().is_empty());
            } else {
                assert!(!sim.basalt(id).unwrap().view().is_empty());
            }
        }
    }

    #[test]
    fn wlist_hybrid_quarantines_hearsay_in_engine() {
        // A BasaltTee run with a long TTL and crashes: waiting lists
        // must actually fill and drain through the engine's finish
        // phase.
        let mut s = small(Protocol::Brahms).basalt_tee_variant(0, 12);
        s.trusted_fraction = 0.05;
        s.rounds = 5;
        let byz = s.byzantine_count();
        let mut sim = Simulation::new(s.clone());
        sim.run_round();
        let queued: usize = (byz..s.n)
            .filter_map(|i| sim.basalt(NodeId(i as u64)))
            .map(|n| n.wlist_len())
            .sum();
        assert!(queued > 0, "pull hearsay must hit the waiting lists");
    }

    #[test]
    fn basalt_survives_loss_and_crashes() {
        let mut s = small(Protocol::Brahms).basalt_variant(15);
        s.message_loss = 0.3;
        s.churn = crate::scenario::ChurnSchedule::one_shot(0.2, 10);
        s.rounds = 30;
        let byz = s.byzantine_count();
        let n = s.n;
        let mut sim = Simulation::new(s);
        for _ in 0..30 {
            sim.run_round();
        }
        let dead = (byz..n)
            .filter(|&i| !sim.is_alive(NodeId(i as u64)))
            .count();
        let expected = ((n - byz) as f64 * 0.2).round() as usize;
        assert_eq!(dead, expected);
        // Survivors keep ranked views despite the churn.
        for i in byz..n {
            let id = NodeId(i as u64);
            if sim.is_alive(id) {
                assert!(!sim.basalt(id).unwrap().view().is_empty());
            }
        }
    }

    #[test]
    fn legacy_one_shot_crash_reports_no_recovery_metrics() {
        let mut s = small(Protocol::Raptee);
        s.churn = crate::scenario::ChurnSchedule::one_shot(0.2, 10);
        let r = Simulation::new(s).run();
        assert!(
            r.recovery.is_none(),
            "one-shot crashes predate the recovery family"
        );
    }

    #[test]
    fn steady_churn_with_restarts_reports_recovery_metrics() {
        let mut s = small(Protocol::Raptee);
        s.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
        let a = Simulation::new(s.clone()).run();
        let rec = a
            .recovery
            .as_ref()
            .expect("dynamic churn yields recovery stats");
        assert!(rec.crashes > 0, "steady rate must crash someone");
        assert!(rec.restarts > 0, "restart process must fire");
        assert!(rec.recovered <= rec.restarts);
        assert!(rec.availability > 0.0 && rec.availability < 1.0);
        if let Some(ttr) = rec.mean_time_to_recover {
            assert!(ttr >= SMOOTHING_WINDOW as f64);
        }
        let b = Simulation::new(s).run();
        assert_eq!(a, b, "churn draws are hash-deterministic");
    }

    #[test]
    fn catastrophe_burst_crashes_more_than_steady_alone() {
        let mut steady = small(Protocol::Raptee);
        steady.churn = crate::scenario::ChurnSchedule::steady(0.005, 0.5);
        let mut burst = steady.clone();
        burst.churn.bursts = vec![crate::scenario::ChurnBurst {
            start: 20,
            end: 25,
            crash_rate: 0.5,
        }];
        let a = Simulation::new(steady).run();
        let b = Simulation::new(burst).run();
        let (ra, rb) = (a.recovery.unwrap(), b.recovery.unwrap());
        assert!(
            rb.crashes > ra.crashes,
            "burst window raises crash volume: {} vs {}",
            rb.crashes,
            ra.crashes
        );
    }

    #[test]
    fn cold_and_warm_rejoin_policies_diverge() {
        let mut cold = small(Protocol::Raptee);
        cold.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
        let mut warm = cold.clone();
        warm.churn.rejoin = RejoinPolicy::Warm;
        let a = Simulation::new(cold).run();
        let b = Simulation::new(warm).run();
        assert!(a.recovery.is_some() && b.recovery.is_some());
        // Crash/restart draws are state-independent hashes, so both runs
        // see identical membership timelines — only the rebuilt node
        // state differs, and that must show up in the trajectories.
        assert_ne!(a.byz_share_series, b.byz_share_series);
    }

    #[test]
    fn basalt_family_survives_dynamic_churn_with_warm_rejoin() {
        let mut s = small(Protocol::Brahms).basalt_variant(15);
        s.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
        s.churn.rejoin = RejoinPolicy::Warm;
        let r = Simulation::new(s).run();
        let rec = r.recovery.expect("recovery stats under dynamic churn");
        assert!(rec.crashes > 0 && rec.restarts > 0);
        assert!(rec.availability > 0.0 && rec.availability < 1.0);
    }

    #[test]
    fn mixed_population_routes_restarts_to_both_families() {
        let mut s = small(Protocol::Brahms).half_and_half(
            Protocol::Brahms,
            Protocol::Basalt {
                view_size: 12,
                rotation_interval: 15,
            },
        );
        s.churn = crate::scenario::ChurnSchedule::steady(0.03, 0.5);
        let a = Simulation::new(s.clone()).run();
        assert!(a.recovery.as_ref().unwrap().restarts > 0);
        let b = Simulation::new(s).run();
        assert_eq!(a, b);
    }

    #[test]
    fn attestation_expiry_degrades_and_heals_the_trusted_tier() {
        let mut s = small(Protocol::Raptee);
        s.attest_ttl = 6;
        let a = Simulation::new(s.clone()).run();
        let rec = a
            .recovery
            .as_ref()
            .expect("attest_ttl alone activates recovery stats");
        assert_eq!(rec.trusted_live_fraction.len(), s.rounds);
        // No churn: availability stays perfect even while certs lapse.
        assert!((rec.availability - 1.0).abs() < 1e-12);
        assert_eq!(rec.crashes, 0);
        // Initial expiries are staggered over [ttl, 2*ttl), so the tier
        // starts whole, dips when certs lapse, and heals back up after
        // re-attestation.
        assert!((rec.trusted_live_fraction[0] - 1.0).abs() < 1e-12);
        let dip = rec
            .trusted_live_fraction
            .iter()
            .position(|&f| f < 1.0)
            .expect("a six-round TTL must degrade someone");
        assert!(
            rec.trusted_live_fraction[dip..]
                .iter()
                .any(|&f| f > rec.trusted_live_fraction[dip]),
            "re-attestation must heal the tier after the first dip"
        );
        // Degraded trusted nodes act untrusted, which changes the
        // protocol trajectory relative to the eternal-cert baseline.
        let mut eternal = s.clone();
        eternal.attest_ttl = 0;
        let base = Simulation::new(eternal).run();
        assert_ne!(a.byz_share_series, base.byz_share_series);
        let b = Simulation::new(s).run();
        assert_eq!(a, b, "degradation schedule is hash-deterministic");
    }
}
