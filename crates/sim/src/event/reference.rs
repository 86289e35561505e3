//! The heap substrate, kept as the test oracle.
//!
//! This is the storage [`EventNet`](super::EventNet) shipped with before
//! it became a round calendar, moved here unchanged: one
//! [`EventQueue`] of [`Envelope`]s — round-timer ticks included — whose
//! replies each own their answered view, and a nonce set with its own
//! retirement heap for the dedup. Gates, draws and statistics are
//! repeated here on purpose, so the differential test in `event.rs`
//! also pins that the calendar makes every latency, offset, fault and
//! partition draw at the same point. Two things differ from the code as
//! it shipped: `hole_open` spells out the wrapped subtraction release
//! builds performed (a hole dated in the future is not open yet), and
//! `begin_round` no longer debug-asserts that no round was skipped, so
//! the test can compare what release builds always did with one. The
//! NAT table is never swept here, which is what makes the calendar's
//! sweep checkable.

use super::{unit, EventQueue, Lane, PullGate};
use crate::metrics::NetRunStats;
use crate::scenario::{
    EventNetConfig, LatencyModel, NetworkModel, PartitionWindow, Reachability, Scenario,
};
use raptee::wire::Message;
use raptee_net::{NodeId, NodeIdx};
use raptee_util::rng::mix64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

impl<T> EventQueue<T> {
    /// Pops the earliest event only if it is scheduled strictly before
    /// `horizon` (the delivery loop of [`HeapNet`]).
    pub(super) fn pop_before(&mut self, horizon: u64) -> Option<(u64, u64, T)> {
        if self.heap.peek().is_some_and(|e| e.time < horizon) {
            self.pop()
        } else {
            None
        }
    }
}

/// A timed protocol event in flight. The payload is the wire-level
/// [`Message`]; routing metadata (receiver, lane, partition-hold flag)
/// rides alongside it.
#[derive(Debug, Clone)]
pub(super) enum Envelope {
    /// A round-timer tick: the boundary event that opens round `round`.
    /// One is scheduled per round at construction;
    /// [`HeapNet::begin_round`] consumes it.
    SelfNotif {
        /// The round this tick opens.
        round: usize,
    },
    /// A push request in flight ([`Message::Push`]).
    Request {
        /// Absolute actor index of the receiver.
        dst: u32,
        /// Honest or adversarial delivery bucket.
        lane: Lane,
        /// Whether a partition cut held this message back.
        held: bool,
        /// The wire payload.
        msg: Message,
    },
    /// A pull answer in flight ([`Message::PullAnswer`]).
    Reply {
        /// Correct-population index of the requester.
        ci: u32,
        /// The responder's wire identity.
        from: NodeId,
        /// Whether a partition cut held this message back.
        held: bool,
        /// Exchange nonce: every copy of the same answer (deadline
        /// retransmits, injected duplicates) carries the same value, so
        /// the engine's dedup applies at most one.
        nonce: u64,
        /// The wire payload.
        msg: Message,
    },
}

/// A pull answer due this round, drained from the queue by
/// [`HeapNet::begin_round`] and injected at the head of the requester's
/// pull phase.
#[derive(Debug, Clone)]
pub(super) struct DueAnswer {
    /// Correct-population index of the requester.
    pub ci: u32,
    /// The responder's wire identity.
    pub from: NodeId,
    /// Exchange nonce — pass to [`HeapNet::accept_answer`] before
    /// applying; duplicates of an already-applied answer return `false`.
    pub nonce: u64,
    /// The answered view.
    pub ids: Vec<NodeId>,
}

/// The heap-backed delivery substrate.
#[derive(Debug, Clone)]
pub(super) struct HeapNet {
    cfg: EventNetConfig,
    /// Hash seed (scenario seed XOR a domain salt — derived, never drawn
    /// from the master RNG, so construction leaves the golden draw
    /// sequences untouched).
    seed: u64,
    total: usize,
    rounds: usize,
    /// First NAT-ted absolute actor index (== `total` when reachability
    /// is full).
    natted_from: usize,
    /// Punched NAT holes: `(natted node, peer) -> round of last outbound
    /// contact`. A plain HashMap — never iterated, only point-queried,
    /// so its order cannot leak into results.
    holes: HashMap<(u32, u32), usize>,
    /// Per-message counter salting the latency hash, bumped in
    /// sequential control order.
    msg_seq: u64,
    /// Counter salting the fault-injection hash (retry jitter,
    /// duplicate/reorder draws). A stream of its own: fault draws never
    /// advance `msg_seq`, so the protocol-visible latency sequence of a
    /// run is identical whether the injectors are on or off.
    fault_seq: u64,
    /// Next exchange nonce (0 is never issued).
    next_nonce: u64,
    /// Nonces whose answer has already been applied (point-queried
    /// only — set order cannot leak into results).
    seen_nonces: HashSet<u64>,
    /// Retirement schedule bounding `seen_nonces`: `(last possible
    /// arrival round, nonce)` min-heap, swept at each round open. Every
    /// copy of a nonce is queued at `queue_answer` time, so its last
    /// arrival round is known exactly — the sweep can never evict a
    /// nonce that could still be presented, keeping dedup behaviour
    /// byte-identical while the set stays bounded on long runs.
    nonce_retire: BinaryHeap<Reverse<(usize, u64)>>,
    /// Deadline-expired answer copies of the pull currently being
    /// gated: `(arrival tick, held)` recorded by the retry loop, queued
    /// (with the shared nonce) when the engine materialises the answer,
    /// and dropped by the next gate when it never does.
    dup_pending: Vec<(u64, bool)>,
    queue: EventQueue<Envelope>,
    /// This round's due pushes, honest lane: `(receiver, advertised)`
    /// pairs ready to head the survivor list.
    due_honest: Vec<(u32, NodeIdx)>,
    /// This round's due pushes, adversary lane.
    due_byz: Vec<(u32, NodeIdx)>,
    /// This round's due pull answers, stably sorted by requester.
    due_answers: Vec<DueAnswer>,
    stats: NetRunStats,
}

impl HeapNet {
    /// Builds the substrate for `scenario`, or `None` under the round
    /// model. Pure derivation from the scenario — consumes no RNG.
    pub(super) fn from_scenario(scenario: &Scenario) -> Option<Self> {
        match &scenario.network {
            NetworkModel::Rounds => None,
            NetworkModel::Events(cfg) => Some(Self::new(scenario, cfg.clone())),
        }
    }

    fn new(scenario: &Scenario, cfg: EventNetConfig) -> Self {
        let total = scenario.total_actors();
        let byz = scenario.byzantine_count();
        let natted_from = match cfg.reachability {
            Reachability::Full => total,
            Reachability::Nat { fraction, .. } => {
                let correct = total - byz;
                total - ((fraction * correct as f64).ceil() as usize).min(correct)
            }
        };
        let mut queue = EventQueue::new();
        // The per-round SelfNotif ticks: the round-timer events that
        // anchor every round window on the shared queue.
        for r in 0..scenario.rounds {
            queue.push(r as u64 * cfg.round_ticks, Envelope::SelfNotif { round: r });
        }
        Self {
            seed: scenario.seed ^ 0xE7E7_4E75_C0DE_D00D,
            total,
            rounds: scenario.rounds,
            natted_from,
            holes: HashMap::new(),
            msg_seq: 0,
            fault_seq: 0,
            next_nonce: 0,
            seen_nonces: HashSet::new(),
            nonce_retire: BinaryHeap::new(),
            dup_pending: Vec::new(),
            queue,
            due_honest: Vec::new(),
            due_byz: Vec::new(),
            due_answers: Vec::new(),
            stats: NetRunStats::default(),
            cfg,
        }
    }

    /// Opens round `round`: consumes the round's `SelfNotif` tick and
    /// drains every envelope scheduled inside the round window into the
    /// due buckets (pushes per lane; answers stably sorted by
    /// requester).
    pub(super) fn begin_round(&mut self, round: usize) {
        self.due_honest.clear();
        self.due_byz.clear();
        self.due_answers.clear();
        // Generation sweep: retire nonces whose last possible arrival
        // round has passed — no remaining copy can present them, so
        // removal is invisible to the dedup semantics.
        while let Some(&Reverse((last_round, nonce))) = self.nonce_retire.peek() {
            if last_round >= round {
                break;
            }
            self.nonce_retire.pop();
            if self.seen_nonces.remove(&nonce) {
                self.stats.nonce_evictions += 1;
            }
        }
        let horizon = (round as u64 + 1) * self.cfg.round_ticks;
        let mut ticked = false;
        while let Some((_, _, env)) = self.queue.pop_before(horizon) {
            match env {
                Envelope::SelfNotif { round: r } => {
                    debug_assert!(r <= round, "round-timer ticks fire in order");
                    ticked = true;
                }
                Envelope::Request {
                    dst,
                    lane,
                    held,
                    msg,
                } => {
                    let Message::Push { sender } = msg else {
                        unreachable!("requests carry push payloads")
                    };
                    if held {
                        self.stats.partition_released += 1;
                    }
                    let pair = (dst, NodeIdx::of(sender));
                    match lane {
                        Lane::Honest => self.due_honest.push(pair),
                        Lane::Adversary => self.due_byz.push(pair),
                    }
                }
                Envelope::Reply {
                    ci,
                    from,
                    held,
                    nonce,
                    msg,
                } => {
                    let Message::PullAnswer { ids } = msg else {
                        unreachable!("replies carry pull-answer payloads")
                    };
                    if held {
                        self.stats.partition_released += 1;
                    }
                    self.due_answers.push(DueAnswer {
                        ci,
                        from,
                        nonce,
                        ids,
                    });
                }
            }
        }
        debug_assert!(ticked, "every round window contains its SelfNotif tick");
        // Stable sort: per requester, answers keep their (time, seq)
        // arrival order.
        self.due_answers.sort_by_key(|a| a.ci);
    }

    /// Moves this round's due pushes of `lane` to the head of
    /// `survivors` (they are the *oldest* messages each receiver sees —
    /// the subsequent stable counting sort preserves that).
    pub(super) fn drain_due_pushes(&mut self, lane: Lane, survivors: &mut Vec<(u32, NodeIdx)>) {
        let bucket = match lane {
            Lane::Honest => &mut self.due_honest,
            Lane::Adversary => &mut self.due_byz,
        };
        survivors.append(bucket);
    }

    /// Routes one push from actor `src` to actor `dst` advertising
    /// `advertised`. Returns `true` when the message lands inside the
    /// sending round (deliver through the unchanged inline path), `false`
    /// when it was queued for a later round or blocked by the NAT.
    pub(super) fn send_push(
        &mut self,
        round: usize,
        src: usize,
        dst: usize,
        advertised: NodeId,
        lane: Lane,
    ) -> bool {
        if self.natted(src) {
            // Outbound contact punches the return hole peers need to
            // reach this node.
            self.holes.insert((src as u32, dst as u32), round);
        }
        if self.natted(dst) && !self.hole_open(dst, src, round) {
            self.stats.nat_blocked += 1;
            return false;
        }
        let ticks = self.cfg.round_ticks;
        let send = round as u64 * ticks + self.offset(src);
        let (mut arrival, _) = (send + self.latency(src, dst), ());
        let held = self.partition_clamp(src, dst, &mut arrival);
        if held {
            self.stats.partition_held += 1;
        }
        let arrival_round = (arrival / ticks) as usize;
        if arrival_round <= round {
            return true;
        }
        self.stats.late_deliveries += 1;
        self.queue.push(
            arrival,
            Envelope::Request {
                dst: dst as u32,
                lane,
                held,
                msg: Message::Push { sender: advertised },
            },
        );
        false
    }

    /// Gates one pull exchange from requester `req` (absolute index) to
    /// `tgt`: refused across a NAT or an active cut, inline when the
    /// round trip fits the sending round, deferred otherwise.
    ///
    /// With [`RetryConfig`](crate::scenario::RetryConfig) enabled, each
    /// request arms a deadline timer of one round period. A refused
    /// connection re-attempts after bounded exponential backoff plus
    /// hash-derived jitter (a cut that heals before the re-attempt
    /// succeeds); an answer that would miss the deadline is treated as
    /// lost and retried, while the late copy still arrives and carries
    /// the *same* nonce — exercising the dedup in the engine's answer
    /// path. The first attempt consumes draws exactly like the
    /// retry-free gate, so the all-off config stays byte-identical.
    pub(super) fn gate_pull(&mut self, round: usize, req: usize, tgt: usize) -> PullGate {
        // Copies the previous exchange left unqueued (refused, or its
        // answer never materialised) die with it.
        self.dup_pending.clear();
        let ticks = self.cfg.round_ticks;
        let retry = self.cfg.retry;
        let mut depart = round as u64 * ticks + self.offset(req);
        for attempt in 0..=retry.max_retries {
            let last = attempt == retry.max_retries;
            let depart_round = (depart / ticks) as usize;
            if depart_round >= self.rounds {
                // The run ends before this attempt fires.
                return PullGate::Refused;
            }
            // Each attempt is an outbound contact: it re-punches the
            // requester's NAT hole at its own departure round.
            if self.natted(req) {
                self.holes.insert((req as u32, tgt as u32), depart_round);
            }
            let refused = if self.natted(tgt) && !self.hole_open(tgt, req, depart_round) {
                self.stats.nat_blocked += 1;
                true
            } else if self.cut_active(depart_round, req, tgt) {
                self.stats.refused_pulls += 1;
                true
            } else {
                false
            };
            if refused {
                if last {
                    return PullGate::Refused;
                }
                depart += self.backoff(attempt, req, tgt);
                continue;
            }
            let rtt = self.latency(req, tgt) + self.latency(tgt, req);
            let mut arrival = depart + rtt;
            // The answer travels back across the same pair: a cut
            // activating before it lands holds it at the boundary.
            let held = self.partition_clamp(req, tgt, &mut arrival);
            if held {
                self.stats.partition_held += 1;
            }
            if !last && arrival > depart + ticks {
                // Deadline expired: the requester assumes loss and
                // retries. The late copy is still in flight — record it
                // so the materialised answer is also delivered at this
                // arrival, under the shared nonce.
                self.dup_pending.push((arrival, held));
                depart += self.backoff(attempt, req, tgt);
                continue;
            }
            let answer_round = (arrival / ticks) as usize;
            return if answer_round <= round && self.dup_pending.is_empty() {
                PullGate::Inline
            } else {
                // Retransmit copies are pending: the exchange must go
                // through `queue_answer` so they get their payload, so
                // an in-round arrival defers to the next round.
                PullGate::Deferred {
                    round: answer_round.max(if self.dup_pending.is_empty() {
                        0
                    } else {
                        round + 1
                    }),
                    held,
                }
            };
        }
        unreachable!("the final attempt always returns")
    }

    /// One bounded-exponential-backoff delay: `base · 2^attempt` plus
    /// hash-derived jitter in `[0, base)`, counted as a retry.
    fn backoff(&mut self, attempt: u32, req: usize, tgt: usize) -> u64 {
        self.stats.retries_issued += 1;
        let base = self.cfg.retry.base_backoff;
        (base << attempt.min(16)) + self.fault_draw(req, tgt) % base.max(1)
    }

    /// Queues a materialised pull answer for delivery at `round` (as
    /// returned by [`PullGate::Deferred`]), plus every pending
    /// deadline-retransmit copy and any injected duplicate — all under
    /// one fresh nonce, so the engine applies exactly one copy.
    pub(super) fn queue_answer(
        &mut self,
        round: usize,
        held: bool,
        ci: u32,
        from: NodeId,
        ids: Vec<NodeId>,
    ) {
        self.next_nonce += 1;
        let nonce = self.next_nonce;
        let primary = round as u64 * self.cfg.round_ticks;
        let mut copies: Vec<(u64, bool)> = vec![(primary, held)];
        copies.append(&mut self.dup_pending);
        if self.cfg.duplicate_rate > 0.0
            && unit(self.fault_draw(ci as usize, from.0 as usize)) < self.cfg.duplicate_rate
        {
            // Injected duplicate, optionally reordered by extra
            // hash-derived delay.
            let extra = if self.cfg.reorder_jitter > 0 {
                self.fault_draw(ci as usize, from.0 as usize) % (self.cfg.reorder_jitter + 1)
            } else {
                0
            };
            copies.push((primary + extra, held));
        }
        let last_arrival = copies.iter().map(|&(a, _)| a).max().unwrap_or(primary);
        self.nonce_retire.push(Reverse((
            (last_arrival / self.cfg.round_ticks) as usize,
            nonce,
        )));
        for (arrival, held) in copies {
            self.stats.late_deliveries += 1;
            self.queue.push(
                arrival,
                Envelope::Reply {
                    ci,
                    from,
                    held,
                    nonce,
                    msg: Message::PullAnswer { ids: ids.clone() },
                },
            );
        }
    }

    /// Whether this answer nonce is fresh. The engine consults this
    /// before applying a due answer: the first copy claims the nonce,
    /// every later duplicate (deadline retransmit, injected copy)
    /// returns `false` and is counted as suppressed — the idempotence
    /// guarantee of the wire path.
    pub(super) fn accept_answer(&mut self, nonce: u64) -> bool {
        if self.seen_nonces.insert(nonce) {
            true
        } else {
            self.stats.duplicates_suppressed += 1;
            false
        }
    }

    /// Takes this round's due answers (sorted by requester).
    pub(super) fn take_due_answers(&mut self) -> Vec<DueAnswer> {
        std::mem::take(&mut self.due_answers)
    }

    /// Finalises the run: anything still queued past the last round is
    /// in flight forever.
    pub(super) fn finish(mut self) -> NetRunStats {
        while let Some((_, _, env)) = self.queue.pop() {
            if !matches!(env, Envelope::SelfNotif { .. }) {
                self.stats.in_flight_at_end += 1;
            }
        }
        self.stats
    }

    /// Read access to the running statistics (tests).
    pub(super) fn stats(&self) -> &NetRunStats {
        &self.stats
    }

    fn natted(&self, actor: usize) -> bool {
        actor >= self.natted_from && actor < self.total
    }

    /// Whether `src` can traverse `natted_dst`'s NAT in `round`: the
    /// destination contacted `src` within the hole TTL.
    fn hole_open(&self, natted_dst: usize, src: usize, round: usize) -> bool {
        let Reachability::Nat { hole_ttl, .. } = self.cfg.reachability else {
            return true;
        };
        self.holes
            .get(&(natted_dst as u32, src as u32))
            .is_some_and(|&opened| round.wrapping_sub(opened) <= hole_ttl)
    }

    /// Whether an active partition separates `a` and `b` in `round`.
    fn cut_active(&self, round: usize, a: usize, b: usize) -> bool {
        self.cfg
            .partitions
            .iter()
            .any(|w| w.start <= round && round < w.end && Self::crosses(w, a, b))
    }

    fn crosses(w: &PartitionWindow, a: usize, b: usize) -> bool {
        (a < w.boundary) != (b < w.boundary)
    }

    /// Holds `arrival` at every partition boundary it would cross while
    /// active: a message between `a` and `b` cannot land inside a window
    /// that separates them, so its arrival is pushed to the healing
    /// round (fixpoint over overlapping windows). Returns whether any
    /// hold applied — the invariant the partition property tests pin:
    /// held messages are delayed to the heal, never dropped.
    fn partition_clamp(&self, a: usize, b: usize, arrival: &mut u64) -> bool {
        let ticks = self.cfg.round_ticks;
        let mut held = false;
        loop {
            let round = (*arrival / ticks) as usize;
            let Some(release) = self
                .cfg
                .partitions
                .iter()
                .filter(|w| w.start <= round && round < w.end && Self::crosses(w, a, b))
                .map(|w| w.end as u64 * ticks)
                .max()
            else {
                return held;
            };
            *arrival = release;
            held = true;
        }
    }

    /// Per-node round-timer offset in `[0, jitter]` ticks — the
    /// desynchronised-clocks model. Hash-derived, stable per node.
    fn offset(&self, actor: usize) -> u64 {
        if self.cfg.jitter == 0 {
            return 0;
        }
        mix64(self.seed ^ 0x00FF_5E75 ^ mix64(actor as u64)) % (self.cfg.jitter + 1)
    }

    /// One per-message latency draw on the `src -> dst` link.
    fn latency(&mut self, src: usize, dst: usize) -> u64 {
        match self.cfg.latency {
            LatencyModel::Constant(c) => c,
            LatencyModel::Uniform { min, max } => {
                let span = max - min + 1;
                min + self.draw(src, dst) % span
            }
            LatencyModel::LogNormal { mu, sigma, cap } => {
                // Box–Muller from two hash-derived uniforms in (0, 1).
                let u1 = unit(self.draw(src, dst));
                let u2 = unit(self.draw(src, dst));
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let lat = (mu + sigma * z).exp();
                // `as` saturates, so an extreme tail draw caps cleanly.
                (lat.round() as u64).min(cap)
            }
        }
    }

    /// The hash-derived per-message uniform: seeded by the link and a
    /// counter bumped in sequential control order — deterministic at any
    /// thread count, and independent of every protocol RNG stream.
    fn draw(&mut self, src: usize, dst: usize) -> u64 {
        self.msg_seq += 1;
        mix64(self.seed ^ mix64(((src as u64) << 32) | dst as u64) ^ mix64(self.msg_seq))
    }

    /// The fault-injection uniform (retry jitter, duplicate/reorder
    /// draws): its own salt and counter, so fault draws never shift the
    /// protocol-visible latency sequence of [`HeapNet::draw`].
    fn fault_draw(&mut self, a: usize, b: usize) -> u64 {
        self.fault_seq += 1;
        mix64(
            self.seed ^ 0xD0D0_FA17 ^ mix64(((a as u64) << 32) | b as u64) ^ mix64(self.fault_seq),
        )
    }
}
