//! The discrete-event delivery substrate.
//!
//! Every run owns one [`EventNet`]. It gives every protocol message a
//! per-link latency ([`LatencyModel`]), holds it at partition boundaries
//! ([`PartitionWindow`]), bounces it off NATs ([`Reachability::Nat`]) and
//! delivers it in the round its arrival tick falls into.
//!
//! [`crate::engine::Simulation`] keeps its phase-parallel round
//! structure and consults the net at exactly the points where a message
//! leaves a node — each honest or adversarial push, each pull
//! request/answer exchange. A message whose arrival falls inside the
//! sending round is delivered in place; a message that crosses a round
//! boundary is filed in the calendar and handed to the receiving round
//! by [`EventNet::begin_round`].
//!
//! The paper's lockstep round is this net at the all-zero
//! [`EventNetConfig`]: no latency, no clock offset, no partition, full
//! reachability. Every message then lands inside its sending round and
//! nothing is ever filed, so a [`NetworkModel::Rounds`] run is built on
//! that configuration and differs from its zero-latency
//! [`NetworkModel::Events`] twin only in how the result reports time and
//! network counters (`assert_golden` in `tests/determinism.rs` pins
//! the equality on every round-model golden).
//!
//! # The round calendar
//!
//! The engine only ever asks "what arrives during round `r`?", so the
//! store is a calendar with one bucket per *arrival round* rather than a
//! priority queue over ticks:
//!
//! * A late push is one 24-byte `Copy` record appended to the push
//!   bucket of its arrival round; one copy of a late pull answer is one
//!   32-byte [`DueAnswer`] appended to the answer bucket of its arrival
//!   round. A record that would arrive after the run's last round is
//!   counted (`in_flight_at_end`) and never stored; a driver stepping
//!   past that horizon gets rounds with nothing due, and their late
//!   traffic is counted the same way.
//! * Delivery order is ascending `(arrival tick, filing order)`. Records
//!   are filed from the engine's sequential control passes, so the order
//!   inside a bucket *is* the filing order, and a **stable** sort of the
//!   bucket by arrival tick yields exactly the `(time, seq)` order a
//!   min-heap with a monotone sequence number pops — which is what this
//!   module stored its messages in before, and what the differential
//!   test against `reference::HeapNet` pins.
//! * An answered view is written **once**, as [`NodeIdx`], however many
//!   copies of the answer travel (the primary, deadline retransmits, an
//!   injected duplicate). It lives in the payload group of the *last*
//!   arrival round among those copies, and the group — one flat arena
//!   plus a slot table — is released when that round is over. The
//!   slot's `applied` bit is the exchange's dedup state: the first copy
//!   presented to [`EventNet::accept_answer`] sets it, later copies are
//!   suppressed, and releasing the group retires it
//!   (`nonce_evictions`).
//!
//! [`EventQueue`], the `(time, seq)` min-heap, is no longer on the
//! engine's path. It stays public for the scheduler property tests in
//! `tests/asynchrony.rs` and the benchmark's `queue_push_pop_ns` probe.
//!
//! # Determinism
//!
//! Latency draws and round-timer offsets are *hash-derived* from
//! `(seed, link, message counter)` — no shared RNG stream is consumed,
//! so enabling the substrate never perturbs the protocol or loss RNG
//! draw order. Every record is filed from the engine's sequential
//! control passes, so the delivery order is independent of
//! `RAYON_NUM_THREADS` (pinned by the event-family goldens in
//! `tests/determinism.rs`).

use crate::metrics::NetRunStats;
use crate::scenario::{
    EventNetConfig, LatencyModel, NetworkModel, PartitionWindow, Reachability, Scenario,
};
use raptee_net::{NodeId, NodeIdx};
use raptee_util::rng::mix64;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

#[cfg(test)]
mod reference;

/// A deterministic min-ordered event queue.
///
/// Entries pop in ascending `(time, seq)` order; `seq` is assigned
/// monotonically at push time, so simultaneous events pop in insertion
/// order and every key is unique — pop order is a pure function of the
/// pushed `(time, seq)` pairs, invariant under heap-internal layout and
/// (via [`EventQueue::push_raw`]) under insertion-order permutations of
/// explicit keys. The scheduler property tests in `tests/asynchrony.rs`
/// pin both facts.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

// Manual ordering on (time, seq) only — the payload never participates,
// so T needs no Ord. Reversed, because BinaryHeap is a max-heap and we
// want the earliest event on top.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`, assigning the next sequence number
    /// (the deterministic same-time tiebreak). Returns the assigned seq.
    pub fn push(&mut self, time: u64, payload: T) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        seq
    }

    /// Schedules `payload` under an explicit `(time, seq)` key — the
    /// property-test hook for insertion-permutation invariance. Keeps
    /// the auto-assign counter ahead of every explicit seq so mixed use
    /// stays collision-free.
    pub fn push_raw(&mut self, time: u64, seq: u64, payload: T) {
        self.next_seq = self.next_seq.max(seq + 1);
        self.heap.push(Entry { time, seq, payload });
    }

    /// Pops the earliest event as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.payload))
    }
}

/// Which delivery bucket a queued push belongs to: the honest
/// counting-sorted run or the adversary's run. The split cannot be
/// derived from the advertised identity (injected poisoned nodes
/// advertise honest-range IDs through the adversary's lane), so the lane
/// travels with the record. Its discriminant indexes the due-push table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Honest pushes — delivered before the adversary's.
    Honest,
    /// Adversarial pushes.
    Adversary,
}

/// A push in flight: one record in the bucket of its arrival round.
#[derive(Debug, Clone, Copy)]
struct PushRecord {
    /// Arrival tick — the delivery order inside the bucket.
    arrival: u64,
    /// Absolute actor index of the receiver.
    dst: u32,
    /// The advertised identity, narrowed for the survivor list.
    sender: NodeIdx,
    lane: Lane,
    /// Whether a partition cut held this message back.
    held: bool,
}

/// One copy of a pull answer: in flight it is a record in the bucket of
/// its arrival round; once [`EventNet::begin_round`] hands it over it is
/// the handle the engine reads the answered view through
/// (`EventNet::due_ids`) and claims the exchange with
/// ([`EventNet::accept_answer`]). Valid for the round it is due in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueAnswer {
    /// Arrival tick — the delivery order per requester.
    arrival: u64,
    /// The responder's wire identity.
    pub(crate) from: NodeId,
    /// Correct-population index of the requester.
    pub(crate) ci: u32,
    /// Payload group holding the answered view.
    group: u32,
    /// The exchange's slot in that group. Every copy of one answer
    /// (deadline retransmits, injected duplicates) names the same slot,
    /// so the engine applies at most one.
    slot: u32,
    /// Whether a partition cut held this message back.
    held: bool,
}

impl DueAnswer {
    /// Identifies the exchange this copy belongs to: equal for every
    /// copy of one answer, distinct between the answers of a run.
    pub fn exchange(&self) -> (u32, u32) {
        (self.group, self.slot)
    }
}

/// The answered views whose last copy arrives in one round: a flat ID
/// arena plus one slot per exchange.
#[derive(Debug, Clone, Default)]
struct PayloadGroup {
    ids: Vec<NodeIdx>,
    slots: Vec<PayloadSlot>,
}

#[derive(Debug, Clone, Copy)]
struct PayloadSlot {
    start: u32,
    len: u32,
    /// Whether a copy of this exchange has been applied.
    applied: bool,
}

/// The substrate's verdict on one pull exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullGate {
    /// The round trip completes within the sending round: the exchange
    /// runs in place.
    Inline,
    /// No connection: the target is NAT-blocked or behind an active
    /// partition cut. The requester learns nothing (and, unlike a crash
    /// timeout, drops nothing — there is no stale-link signal).
    Refused,
    /// The round trip crosses a round boundary: materialise the answer
    /// now (the responder's state at request time) and deliver it in
    /// round `round`.
    Deferred {
        /// Delivery round of the answer.
        round: usize,
        /// Whether a partition cut held the answer back.
        held: bool,
    },
}

/// The delivery substrate of one run, built from the all-zero
/// [`EventNetConfig`] under [`NetworkModel::Rounds`]. Owned by
/// [`Simulation`](crate::engine::Simulation); consulted from the
/// sequential control passes only.
#[derive(Debug, Clone)]
pub struct EventNet {
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
    /// Punched NAT holes: `pair_key(natted node, peer) -> round of last
    /// outbound contact`, swept of expired entries at every round open.
    /// A plain HashMap — its order never reaches a result (point
    /// queries, and a sweep that only removes).
    holes: HashMap<u64, usize>,
    /// Per-message counter salting the latency hash, bumped in
    /// sequential control order.
    msg_seq: u64,
    /// Counter salting the fault-injection hash (retry jitter,
    /// duplicate/reorder draws). A stream of its own: fault draws never
    /// advance `msg_seq`, so the protocol-visible latency sequence of a
    /// run is identical whether the injectors are on or off.
    fault_seq: u64,
    /// Deadline-expired answer copies of the pull currently being
    /// gated: `(arrival tick, held)` recorded by the retry loop, filed
    /// (under the shared payload slot) when the engine materialises the
    /// answer, and dropped by the next gate when it never does.
    dup_pending: Vec<(u64, bool)>,
    /// Late pushes by arrival round (`rounds` buckets).
    pushes: Vec<Vec<PushRecord>>,
    /// Late answer copies by arrival round (`rounds` buckets).
    replies: Vec<Vec<DueAnswer>>,
    /// Answered views by the arrival round of their last copy. The
    /// extra group `rounds` holds the exchanges whose last copy outlives
    /// the run; it is never retired.
    groups: Vec<PayloadGroup>,
    /// Buckets below this index have been handed over.
    opened: usize,
    /// Payload groups below this index have been released.
    freed: usize,
    /// This round's due pushes, indexed by [`Lane`]: `(receiver,
    /// advertised)` pairs ready to head that lane's survivor list.
    due_pushes: [Vec<(u32, NodeIdx)>; 2],
    /// This round's due pull answers, by requester, then arrival.
    due_answers: Vec<DueAnswer>,
    /// Late messages that would arrive after the last round: counted,
    /// never stored.
    past_horizon: u64,
    /// Records handed over so far — with `applied`, the bookkeeping
    /// behind [`EventNet::check_conservation`].
    drained_pushes: u64,
    drained_answers: u64,
    /// Answer copies accepted so far.
    applied: u64,
    /// Records filed in the calendar with their partition-hold flag set.
    filed_held: u64,
    stats: NetRunStats,
}

impl EventNet {
    /// Builds the substrate for `scenario`: its event configuration, or
    /// the all-zero one under the round model. Pure derivation from the
    /// scenario — consumes no RNG.
    pub fn from_scenario(scenario: &Scenario) -> Self {
        let cfg = match &scenario.network {
            NetworkModel::Rounds => EventNetConfig::default(),
            NetworkModel::Events(cfg) => cfg.clone(),
        };
        let total = scenario.total_actors();
        let byz = scenario.byzantine_count();
        let natted_from = match cfg.reachability {
            Reachability::Full => total,
            Reachability::Nat { fraction, .. } => {
                let correct = total - byz;
                total - ((fraction * correct as f64).ceil() as usize).min(correct)
            }
        };
        let rounds = scenario.rounds;
        Self {
            seed: scenario.seed ^ 0xE7E7_4E75_C0DE_D00D,
            total,
            rounds,
            natted_from,
            holes: HashMap::new(),
            msg_seq: 0,
            fault_seq: 0,
            dup_pending: Vec::new(),
            pushes: vec![Vec::new(); rounds],
            replies: vec![Vec::new(); rounds],
            groups: vec![PayloadGroup::default(); rounds + 1],
            opened: 0,
            freed: 0,
            due_pushes: Default::default(),
            due_answers: Vec::new(),
            past_horizon: 0,
            drained_pushes: 0,
            drained_answers: 0,
            applied: 0,
            filed_held: 0,
            stats: NetRunStats::default(),
            cfg,
        }
    }

    /// Ticks per round (for an event run's
    /// [`RunResult::virtual_ticks`](crate::metrics::RunResult::virtual_ticks)).
    pub(crate) fn round_ticks(&self) -> u64 {
        self.cfg.round_ticks
    }

    /// Opens round `round` (later than every round opened before): hands
    /// every record arriving up to and including this round to the due
    /// buckets — pushes per lane in arrival order; answers by requester,
    /// in arrival order within one — and retires what the rounds now
    /// over leave behind. A round at or past the run's horizon has
    /// nothing due.
    pub fn begin_round(&mut self, round: usize) {
        assert!(self.opened <= round, "rounds open in ascending order");
        let open_to = (round + 1).min(self.rounds);
        for due in &mut self.due_pushes {
            due.clear();
        }
        self.due_answers.clear();
        // A hole that has expired by now is closed to every later
        // lookup, so dropping it is invisible.
        if let Reachability::Nat { hole_ttl, .. } = self.cfg.reachability {
            self.holes
                .retain(|_, &mut punched| punched + hole_ttl >= round);
        }
        // A payload group retires once its round is over: no copy of its
        // exchanges is still in flight, so their dedup state goes. The
        // groups of *skipped* rounds retire here too, although their
        // copies are only being delivered now — a driver that skips
        // rounds gets them again as fresh, exactly as from the heap
        // substrate — so those stay allocated for one more round.
        for group in &mut self.groups[self.opened.saturating_sub(1)..open_to - 1] {
            for slot in &mut group.slots {
                if std::mem::take(&mut slot.applied) {
                    self.stats.nonce_evictions += 1;
                }
            }
        }
        for group in &mut self.groups[self.freed..self.opened] {
            *group = PayloadGroup::default();
        }
        self.freed = self.opened;
        // Buckets are disjoint, ascending tick ranges, so sorting each
        // by arrival and concatenating is the global order. The sorts
        // must be stable: ties keep their filing order.
        for bucket in self.opened..open_to {
            let mut pushes = std::mem::take(&mut self.pushes[bucket]);
            pushes.sort_by_key(|p| p.arrival);
            self.drained_pushes += pushes.len() as u64;
            for p in pushes {
                self.stats.partition_released += u64::from(p.held);
                self.due_pushes[p.lane as usize].push((p.dst, p.sender));
            }
            let replies = std::mem::take(&mut self.replies[bucket]);
            // Unless rounds were skipped there is one bucket, taken whole.
            if self.due_answers.is_empty() {
                self.due_answers = replies;
            } else {
                self.due_answers.extend(replies);
            }
        }
        self.drained_answers += self.due_answers.len() as u64;
        self.stats.partition_released += self.due_answers.iter().filter(|a| a.held).count() as u64;
        self.due_answers.sort_by_key(|a| (a.ci, a.arrival));
        self.opened = open_to;
    }

    /// Moves this round's due pushes of `lane` to the head of
    /// `survivors` (they are the *oldest* messages each receiver sees —
    /// the subsequent stable counting sort preserves that).
    pub fn drain_due_pushes(&mut self, lane: Lane, survivors: &mut Vec<(u32, NodeIdx)>) {
        survivors.append(&mut self.due_pushes[lane as usize]);
    }

    /// Routes one push from actor `src` to actor `dst` advertising
    /// `advertised`. Returns `true` when the message lands inside the
    /// sending round (the caller delivers it in place), `false`
    /// when it was filed for a later round or blocked by the NAT.
    pub fn send_push(
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
            self.holes.insert(pair_key(src, dst), round);
        }
        if self.natted(dst) && !self.hole_open(dst, src, round) {
            self.stats.nat_blocked += 1;
            return false;
        }
        let ticks = self.cfg.round_ticks;
        let send = round as u64 * ticks + self.offset(src);
        let mut arrival = send + self.latency(src, dst);
        let held = self.partition_clamp(src, dst, &mut arrival);
        if held {
            self.stats.partition_held += 1;
        }
        if arrival < (round as u64 + 1) * ticks {
            return true;
        }
        self.stats.late_deliveries += 1;
        let arrival_round = (arrival / ticks) as usize;
        if arrival_round >= self.rounds {
            self.past_horizon += 1;
        } else {
            debug_assert!(arrival_round >= self.opened, "that round is already open");
            self.filed_held += u64::from(held);
            self.pushes[arrival_round].push(PushRecord {
                arrival,
                dst: dst as u32,
                sender: NodeIdx::of(advertised),
                lane,
                held,
            });
        }
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
    /// lost and retried, while the late copy still arrives and names
    /// the *same* payload slot — exercising the dedup in the engine's
    /// answer path. The first attempt consumes draws exactly like the
    /// retry-free gate, so the all-off config stays byte-identical.
    pub fn gate_pull(&mut self, round: usize, req: usize, tgt: usize) -> PullGate {
        // Copies the previous exchange left unqueued (refused, or its
        // answer never materialised) die with it.
        self.dup_pending.clear();
        let ticks = self.cfg.round_ticks;
        let retry = self.cfg.retry;
        // The first attempt departs in `round` itself: the clock offset
        // stays below one round.
        let mut depart = round as u64 * ticks + self.offset(req);
        let mut depart_round = round;
        for attempt in 0..=retry.max_retries {
            let last = attempt == retry.max_retries;
            if attempt > 0 {
                depart += self.backoff(attempt - 1, req, tgt);
                depart_round = (depart / ticks) as usize;
                if depart_round >= self.rounds {
                    // The run ends before this retry fires.
                    return PullGate::Refused;
                }
            }
            // Each attempt is an outbound contact: it re-punches the
            // requester's NAT hole at its own departure round.
            if self.natted(req) {
                self.holes.insert(pair_key(req, tgt), depart_round);
            }
            let refused = if self.natted(tgt) && !self.hole_open(tgt, req, depart_round) {
                self.stats.nat_blocked += 1;
                true
            } else if self.separated(depart_round, req, tgt) {
                self.stats.refused_pulls += 1;
                true
            } else {
                false
            };
            if refused {
                if last {
                    return PullGate::Refused;
                }
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
                // arrival, under the shared payload slot.
                self.dup_pending.push((arrival, held));
                continue;
            }
            return if arrival < (round as u64 + 1) * ticks && self.dup_pending.is_empty() {
                PullGate::Inline
            } else {
                // Retransmit copies are pending: the exchange must go
                // through `queue_answer` so they get their payload, so
                // an in-round arrival defers to the next round.
                PullGate::Deferred {
                    round: ((arrival / ticks) as usize).max(if self.dup_pending.is_empty() {
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

    /// Files a materialised pull answer for delivery at `round` (as
    /// returned by [`PullGate::Deferred`], so later than the open
    /// round), plus every pending deadline-retransmit copy and any
    /// injected duplicate. `ids` — dense actor identities — is stored
    /// once, in the payload group of the last copy's arrival round, and
    /// every copy names that one slot, so the engine applies exactly one.
    pub fn queue_answer(
        &mut self,
        round: usize,
        held: bool,
        ci: u32,
        from: NodeId,
        ids: &[NodeId],
    ) {
        let ticks = self.cfg.round_ticks;
        let primary = round as u64 * ticks;
        // The copies in filing order: the primary, the retransmits the
        // gate recorded, the injected duplicate.
        self.dup_pending.insert(0, (primary, held));
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
            self.dup_pending.push((primary + extra, held));
        }
        self.stats.late_deliveries += self.dup_pending.len() as u64;
        let rounds = self.rounds;
        let arrival_round = |arrival: u64| (arrival / ticks) as usize;
        let landing = self
            .dup_pending
            .iter()
            .filter(|&&(arrival, _)| arrival_round(arrival) < rounds)
            .count();
        self.past_horizon += (self.dup_pending.len() - landing) as u64;
        if landing == 0 {
            // Nothing arrives inside the run: there is no view to keep.
            self.dup_pending.clear();
            return;
        }
        let last_round = self
            .dup_pending
            .iter()
            .map(|&(arrival, _)| arrival_round(arrival))
            .max()
            .expect("the primary copy is always present");
        let group = last_round.min(rounds);
        let payload = &mut self.groups[group];
        let offset = |len: usize| u32::try_from(len).expect("one round's answers fit u32 offsets");
        let slot = offset(payload.slots.len());
        payload.slots.push(PayloadSlot {
            start: offset(payload.ids.len()),
            len: offset(ids.len()),
            applied: false,
        });
        payload.ids.extend(ids.iter().map(|&id| NodeIdx::of(id)));
        for (arrival, held) in self.dup_pending.drain(..) {
            let bucket = arrival_round(arrival);
            if bucket >= rounds {
                continue;
            }
            debug_assert!(bucket >= self.opened, "that round is already open");
            self.filed_held += u64::from(held);
            self.replies[bucket].push(DueAnswer {
                arrival,
                from,
                ci,
                group: group as u32,
                slot,
                held,
            });
        }
    }

    /// The answered view of a due answer.
    pub(crate) fn due_ids(&self, answer: &DueAnswer) -> &[NodeIdx] {
        let group = &self.groups[answer.group as usize];
        let slot = group.slots[answer.slot as usize];
        &group.ids[slot.start as usize..][..slot.len as usize]
    }

    /// Whether this due answer is the first copy of its exchange. The
    /// engine consults this before applying a due answer: the first
    /// copy claims the exchange, every later duplicate (deadline
    /// retransmit, injected copy) returns `false` and is counted as
    /// suppressed — the idempotence guarantee of the wire path.
    pub fn accept_answer(&mut self, answer: &DueAnswer) -> bool {
        let slot = &mut self.groups[answer.group as usize].slots[answer.slot as usize];
        if slot.applied {
            self.stats.duplicates_suppressed += 1;
            false
        } else {
            slot.applied = true;
            self.applied += 1;
            true
        }
    }

    /// Takes this round's due answers (by requester, then arrival).
    pub fn take_due_answers(&mut self) -> Vec<DueAnswer> {
        std::mem::take(&mut self.due_answers)
    }

    /// Finalises the run: whatever the calendar still holds, and
    /// whatever was due after the last round, is in flight forever.
    pub fn finish(mut self) -> NetRunStats {
        self.stats.in_flight_at_end = self.bucketed() + self.past_horizon;
        self.stats
    }

    /// Records still waiting in the calendar.
    fn bucketed(&self) -> u64 {
        let pushes: usize = self.pushes.iter().map(Vec::len).sum();
        let replies: usize = self.replies.iter().map(Vec::len).sum();
        (pushes + replies) as u64
    }

    /// The message-conservation invariant of the substrate, checked after
    /// every round by
    /// [`Simulation::check_invariants`](crate::engine::Simulation::check_invariants):
    ///
    /// * every late delivery is accounted for — handed over, still in
    ///   the calendar, or due after the run;
    /// * every message filed as held at a partition was released or is
    ///   still in the calendar (an injected duplicate of a held answer
    ///   is itself held, so `partition_released` may exceed
    ///   `partition_held`, which counts exchanges);
    /// * every answer copy handed over was applied or suppressed at
    ///   most once;
    /// * an opened bucket is empty, and so is a released payload group;
    /// * every answer copy in the calendar names a payload slot that
    ///   exists, in a group that outlives the copy.
    ///
    /// Returns the first violation found.
    pub(crate) fn check_conservation(&self) -> Result<(), String> {
        let s = &self.stats;
        let drained = self.drained_pushes + self.drained_answers;
        let accounted = drained + self.bucketed() + self.past_horizon;
        if s.late_deliveries != accounted {
            return Err(format!(
                "{} late deliveries, but {drained} handed over + {} in the calendar + {} past \
                 the horizon",
                s.late_deliveries,
                self.bucketed(),
                self.past_horizon
            ));
        }
        let pushes = self.pushes.iter().flatten().filter(|p| p.held).count();
        let replies = self.replies.iter().flatten().filter(|a| a.held).count();
        let waiting = (pushes + replies) as u64;
        if s.partition_released + waiting != self.filed_held {
            return Err(format!(
                "{} held messages filed, but {} released + {waiting} in the calendar",
                self.filed_held, s.partition_released
            ));
        }
        if self.applied + s.duplicates_suppressed > self.drained_answers {
            return Err(format!(
                "{} answers applied + {} suppressed out of {} handed over",
                self.applied, s.duplicates_suppressed, self.drained_answers
            ));
        }
        for bucket in 0..self.opened {
            if !self.pushes[bucket].is_empty() || !self.replies[bucket].is_empty() {
                return Err(format!("opened bucket {bucket} still holds records"));
            }
        }
        for (g, group) in self.groups[..self.freed].iter().enumerate() {
            if !(group.ids.is_empty() && group.slots.is_empty()) {
                return Err(format!("released payload group {g} still holds a payload"));
            }
        }
        for (bucket, replies) in self.replies.iter().enumerate() {
            for copy in replies {
                let (g, slot) = (copy.group as usize, copy.slot as usize);
                if g < bucket || slot >= self.groups[g].slots.len() {
                    return Err(format!(
                        "an answer copy due in round {bucket} names slot {slot} of payload group {g}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Read access to the running statistics (tests).
    pub fn stats(&self) -> &NetRunStats {
        &self.stats
    }

    fn natted(&self, actor: usize) -> bool {
        actor >= self.natted_from && actor < self.total
    }

    /// Whether `src` can traverse `natted_dst`'s NAT in `round`: the
    /// destination contacted `src` within the hole TTL. A retry's
    /// backoff can date a hole in the round *after* the one it was
    /// gated in; to a lookup from the earlier round that hole is not
    /// open yet.
    fn hole_open(&self, natted_dst: usize, src: usize, round: usize) -> bool {
        let Reachability::Nat { hole_ttl, .. } = self.cfg.reachability else {
            return true;
        };
        self.holes
            .get(&pair_key(natted_dst, src))
            .is_some_and(|&punched| {
                round
                    .checked_sub(punched)
                    .is_some_and(|age| age <= hole_ttl)
            })
    }

    /// Whether an active partition window separates `a` and `b` in
    /// `round` — a pure schedule lookup (no stream draws), used by the
    /// pull gate and by the audit challenger to recognise targets it
    /// cannot reach.
    pub(crate) fn separated(&self, round: usize, a: usize, b: usize) -> bool {
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
        if self.cfg.partitions.is_empty() {
            return false;
        }
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
        mix64(self.seed ^ mix64(pair_key(src, dst)) ^ mix64(self.msg_seq))
    }

    /// The fault-injection uniform (retry jitter, duplicate/reorder
    /// draws): its own salt and counter, so fault draws never shift the
    /// protocol-visible latency sequence of [`EventNet::draw`].
    fn fault_draw(&mut self, a: usize, b: usize) -> u64 {
        self.fault_seq += 1;
        mix64(self.seed ^ 0xD0D0_FA17 ^ mix64(pair_key(a, b)) ^ mix64(self.fault_seq))
    }
}

/// An ordered pair of actor indices packed into one word: the NAT
/// table's key (`natted node`, `peer`) and the link salt of the draws.
fn pair_key(a: usize, b: usize) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Maps a hash draw to a uniform in the open interval `(0, 1)`: the
/// latency and fault draws here and the churn draws of the membership
/// pass, each from its own hash stream.
pub(crate) fn unit(x: u64) -> f64 {
    ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EventNetConfig;

    #[test]
    fn queue_pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(5, "late");
        q.push(1, "first");
        q.push(5, "later"); // same time, higher seq
        q.push(2, "second");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, ["first", "second", "late", "later"]);
    }

    #[test]
    fn queue_pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        q.push(20, 'b');
        assert_eq!(q.pop_before(20).map(|(t, _, p)| (t, p)), Some((10, 'a')));
        assert_eq!(q.pop_before(20), None, "horizon is exclusive");
        assert_eq!(q.pop().map(|(t, _, p)| (t, p)), Some((20, 'b')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_raw_keys_decide_order_regardless_of_insertion() {
        let keys = [(3u64, 0u64), (1, 7), (1, 2), (9, 1)];
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        for &(t, s) in &keys {
            a.push_raw(t, s, (t, s));
        }
        for &(t, s) in keys.iter().rev() {
            b.push_raw(t, s, (t, s));
        }
        let pa: Vec<_> = std::iter::from_fn(|| a.pop()).collect();
        let pb: Vec<_> = std::iter::from_fn(|| b.pop()).collect();
        assert_eq!(pa, pb);
        assert_eq!(
            pa.iter().map(|&(t, s, _)| (t, s)).collect::<Vec<_>>(),
            vec![(1, 2), (1, 7), (3, 0), (9, 1)]
        );
    }

    fn net(cfg: EventNetConfig) -> EventNet {
        let scenario = Scenario {
            n: 100,
            rounds: 40,
            network: NetworkModel::Events(cfg),
            ..Scenario::default()
        };
        scenario.validate().unwrap();
        EventNet::from_scenario(&scenario)
    }

    #[test]
    fn zero_latency_config_is_a_pass_through() {
        // The round model's net and the zero-latency event net, inside
        // the 40-round run and stepped past it.
        let rounds_model = Scenario {
            n: 100,
            rounds: 40,
            ..Scenario::default()
        };
        for mut net in [
            EventNet::from_scenario(&rounds_model),
            net(EventNetConfig::default()),
        ] {
            for round in [0, 39, 40, 45] {
                net.begin_round(round);
                for dst in 1..50 {
                    assert!(net.send_push(round, 0, dst, NodeId(0), Lane::Honest));
                    assert_eq!(net.gate_pull(round, 0, dst), PullGate::Inline);
                }
            }
            assert_eq!(net.check_conservation(), Ok(()));
            assert_eq!(net.finish(), NetRunStats::default());
        }
    }

    #[test]
    fn constant_latency_defers_by_whole_rounds() {
        let mut net = net(EventNetConfig {
            latency: LatencyModel::Constant(2500),
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // 2500 ticks at 1000 ticks/round: arrival in round 2.
        assert!(!net.send_push(0, 3, 7, NodeId(3), Lane::Honest));
        match net.gate_pull(0, 4, 8) {
            PullGate::Deferred { round, held } => {
                assert_eq!(round, 5, "round trip is two one-way draws");
                assert!(!held);
            }
            g => panic!("expected a deferred answer, got {g:?}"),
        }
        net.begin_round(1);
        let mut survivors = Vec::new();
        net.drain_due_pushes(Lane::Honest, &mut survivors);
        assert!(survivors.is_empty(), "not due yet");
        net.begin_round(2);
        net.drain_due_pushes(Lane::Honest, &mut survivors);
        assert_eq!(survivors, vec![(7, NodeIdx(3))]);
    }

    #[test]
    fn partitions_hold_messages_until_heal() {
        let mut net = net(EventNetConfig {
            partitions: vec![PartitionWindow {
                start: 0,
                end: 10,
                boundary: 50,
            }],
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // Same side: unaffected.
        assert!(net.send_push(0, 1, 2, NodeId(1), Lane::Honest));
        // Across the cut: held to the healing round, not dropped.
        assert!(!net.send_push(0, 1, 60, NodeId(1), Lane::Honest));
        assert_eq!(net.stats().partition_held, 1);
        assert_eq!(net.gate_pull(0, 1, 60), PullGate::Refused);
        assert_eq!(net.stats().refused_pulls, 1);
        let mut survivors = Vec::new();
        for r in 1..10 {
            net.begin_round(r);
            net.drain_due_pushes(Lane::Honest, &mut survivors);
            assert!(survivors.is_empty(), "round {r} is inside the cut");
        }
        net.begin_round(10);
        net.drain_due_pushes(Lane::Honest, &mut survivors);
        assert_eq!(survivors, vec![(60, NodeIdx(1))], "released at the heal");
        assert_eq!(net.stats().partition_released, 1);
        assert_eq!(net.finish().in_flight_at_end, 0);
    }

    #[test]
    fn nat_blocks_unsolicited_inbound_until_hole_punched() {
        // 100 actors, 10 Byzantine, fraction 0.5 of the 90 correct: the
        // last 45 actors (55..100) are NAT-ted.
        let mut net = net(EventNetConfig {
            reachability: Reachability::Nat {
                fraction: 0.5,
                hole_ttl: 2,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // Unsolicited inbound to a NAT-ted node bounces.
        assert!(!net.send_push(0, 3, 70, NodeId(3), Lane::Honest));
        assert_eq!(net.stats().nat_blocked, 1);
        // The NAT-ted node contacts 3 (outbound always passes)...
        assert!(net.send_push(0, 70, 3, NodeId(70), Lane::Honest));
        // ...which punches the return hole.
        assert!(net.send_push(0, 3, 70, NodeId(3), Lane::Honest));
        net.begin_round(1);
        net.begin_round(2);
        assert!(net.send_push(2, 3, 70, NodeId(3), Lane::Honest), "ttl 2");
        net.begin_round(3);
        assert!(
            !net.send_push(3, 3, 70, NodeId(3), Lane::Honest),
            "hole expired"
        );
        // A pull from the NAT-ted node punches holes too.
        assert_eq!(net.gate_pull(3, 70, 4), PullGate::Inline);
        assert!(net.send_push(3, 4, 70, NodeId(4), Lane::Honest));
    }

    #[test]
    fn deferred_answers_sort_stably_by_requester() {
        let mut net = net(EventNetConfig::default());
        net.queue_answer(1, false, 7, NodeId(40), &[NodeId(1)]);
        net.queue_answer(1, false, 2, NodeId(41), &[NodeId(2)]);
        net.queue_answer(1, false, 7, NodeId(42), &[NodeId(3)]);
        net.begin_round(0);
        assert!(net.take_due_answers().is_empty());
        net.begin_round(1);
        let due = net.take_due_answers();
        let order: Vec<(u32, NodeId)> = due.iter().map(|a| (a.ci, a.from)).collect();
        assert_eq!(
            order,
            vec![(2, NodeId(41)), (7, NodeId(40)), (7, NodeId(42))],
            "sorted by requester, arrival order preserved within one"
        );
        let views: Vec<&[NodeIdx]> = due.iter().map(|a| net.due_ids(a)).collect();
        assert_eq!(views, [[NodeIdx(2)], [NodeIdx(1)], [NodeIdx(3)]]);
    }

    use crate::scenario::RetryConfig;

    #[test]
    fn refused_pull_retries_after_backoff_and_succeeds_past_the_heal() {
        let mut net = net(EventNetConfig {
            partitions: vec![PartitionWindow {
                start: 0,
                end: 5,
                boundary: 50,
            }],
            retry: RetryConfig {
                max_retries: 3,
                base_backoff: 5_000,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // Attempt 0 hits the cut; the single retry departs 5000..10000
        // ticks later (round 5..9), after the heal, and succeeds.
        match net.gate_pull(0, 1, 60) {
            PullGate::Deferred { round, .. } => assert!((5..10).contains(&round)),
            g => panic!("expected a post-heal deferred answer, got {g:?}"),
        }
        assert_eq!(net.stats().refused_pulls, 1);
        assert_eq!(net.stats().retries_issued, 1);
    }

    #[test]
    fn retries_stop_at_the_cap() {
        let mut net = net(EventNetConfig {
            partitions: vec![PartitionWindow {
                start: 0,
                end: 40,
                boundary: 50,
            }],
            retry: RetryConfig {
                max_retries: 3,
                base_backoff: 10,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        assert_eq!(net.gate_pull(0, 1, 60), PullGate::Refused);
        assert_eq!(net.stats().refused_pulls, 4, "initial try + 3 retries");
        assert_eq!(net.stats().retries_issued, 3, "the cap binds");
        assert_eq!(net.finish().in_flight_at_end, 0);
    }

    #[test]
    fn deadline_retransmits_share_one_slot_and_dedup_suppresses_them() {
        let mut net = net(EventNetConfig {
            latency: LatencyModel::Constant(2500),
            retry: RetryConfig {
                max_retries: 2,
                base_backoff: 100,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // Every attempt's round trip (5000 ticks) blows the one-round
        // deadline: two retries fire, and both expired copies stay in
        // flight alongside the final answer.
        let gate = net.gate_pull(0, 1, 2);
        let PullGate::Deferred { round, held } = gate else {
            panic!("expected deferred, got {gate:?}")
        };
        assert_eq!(net.stats().retries_issued, 2);
        net.queue_answer(round, held, 4, NodeId(2), &[NodeId(9), NodeId(8)]);
        let stored: usize = net.groups.iter().map(|g| g.ids.len()).sum();
        assert_eq!(stored, 2, "three copies in flight, one stored view");
        for r in 1..=round {
            net.begin_round(r);
        }
        let due = net.take_due_answers();
        assert_eq!(due.len(), 3, "final answer + two deadline retransmits");
        assert!(due.iter().all(|a| a.exchange() == due[0].exchange()));
        assert!(due
            .iter()
            .all(|a| net.due_ids(a) == [NodeIdx(9), NodeIdx(8)]));
        let applied = due.iter().filter(|a| net.accept_answer(a)).count();
        assert_eq!(applied, 1, "dedup applies exactly one copy");
        assert_eq!(net.stats().duplicates_suppressed, 2);
        // The group outlives its last copy's round and not a round more.
        net.begin_round(round + 1);
        assert_eq!(net.stats().nonce_evictions, 1);
        assert!(net
            .groups
            .iter()
            .all(|g| g.ids.is_empty() && g.slots.is_empty()));
    }

    #[test]
    fn injected_duplicates_are_suppressed_not_double_applied() {
        let mut net = net(EventNetConfig {
            duplicate_rate: 1.0,
            reorder_jitter: 100,
            ..EventNetConfig::default()
        });
        net.queue_answer(1, false, 3, NodeId(8), &[NodeId(5)]);
        net.begin_round(0);
        net.begin_round(1);
        let due = net.take_due_answers();
        assert_eq!(due.len(), 2, "the injector added one copy");
        assert_eq!(due[0].exchange(), due[1].exchange());
        assert!(net.accept_answer(&due[0]));
        assert!(!net.accept_answer(&due[1]), "second copy suppressed");
        assert_eq!(net.stats().duplicates_suppressed, 1);
    }

    #[test]
    fn dropped_exchanges_discard_pending_copies() {
        let mut net = net(EventNetConfig {
            latency: LatencyModel::Constant(2500),
            retry: RetryConfig {
                max_retries: 1,
                base_backoff: 100,
            },
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        // The first exchange's answer never materialises (crashed or
        // lossy responder, or a trusted pair applying inline): its
        // deadline copy is never queued.
        assert!(matches!(net.gate_pull(0, 1, 2), PullGate::Deferred { .. }));
        // The next gate drops it: the next queued answer files only its
        // own primary and deadline copy.
        let PullGate::Deferred { round, held } = net.gate_pull(0, 3, 4) else {
            panic!("a 5000-tick round trip defers")
        };
        net.queue_answer(round, held, 3, NodeId(4), &[NodeId(7)]);
        assert_eq!(net.stats().late_deliveries, 2);
    }

    #[test]
    fn lognormal_latency_is_deterministic_and_capped() {
        let mk = || {
            net(EventNetConfig {
                latency: LatencyModel::LogNormal {
                    mu: 6.0,
                    sigma: 1.5,
                    cap: 10_000,
                },
                ..EventNetConfig::default()
            })
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200 {
            let la = a.latency(i % 7, (i + 1) % 11);
            let lb = b.latency(i % 7, (i + 1) % 11);
            assert_eq!(la, lb, "hash-derived draws replay exactly");
            assert!(la <= 10_000, "cap truncates the tail");
        }
    }

    fn natted_net(hole_ttl: usize, retry: RetryConfig) -> EventNet {
        // As above: actors 55..100 are NAT-ted.
        net(EventNetConfig {
            reachability: Reachability::Nat {
                fraction: 0.5,
                hole_ttl,
            },
            retry,
            ..EventNetConfig::default()
        })
    }

    #[test]
    fn a_hole_dated_in_the_future_is_not_open_yet() {
        let mut net = natted_net(2, RetryConfig::default());
        // What a retry's backoff leaves behind: a hole punched in the
        // round after the one the exchange was gated in.
        net.holes.insert(pair_key(70, 3), 5);
        assert!(
            !net.hole_open(70, 3, 4),
            "round 4 cannot use a round-5 hole"
        );
        assert!(net.hole_open(70, 3, 5));
        assert!(net.hole_open(70, 3, 7), "ttl 2");
        assert!(!net.hole_open(70, 3, 8), "expired");
        assert!(!net.send_push(4, 3, 70, NodeId(3), Lane::Honest));
        assert_eq!(net.stats().nat_blocked, 1);
    }

    #[test]
    fn a_retry_backoff_into_the_next_round_dates_its_hole_there() {
        // Requester 70 is NAT-ted, and so is target 80, which never
        // contacted it: every attempt is refused, and the second one
        // departs in round 1 — where it re-punches 70's own hole.
        let mut net = natted_net(
            3,
            RetryConfig {
                max_retries: 1,
                base_backoff: 1_000,
            },
        );
        net.begin_round(0);
        assert_eq!(net.gate_pull(0, 70, 80), PullGate::Refused);
        assert_eq!(net.holes[&pair_key(70, 80)], 1);
        // Round 0 still has traffic for that pair; the lookup neither
        // underflows nor finds the hole open.
        assert!(!net.send_push(0, 80, 70, NodeId(80), Lane::Honest));
        assert!(net.send_push(1, 80, 70, NodeId(80), Lane::Honest));
    }

    #[test]
    fn the_nat_table_drops_a_hole_once_it_has_expired() {
        let mut net = natted_net(2, RetryConfig::default());
        net.begin_round(0);
        for peer in 0..10 {
            assert!(net.send_push(0, 70, peer, NodeId(70), Lane::Honest));
        }
        for r in 1..=2 {
            net.begin_round(r);
            assert_eq!(net.holes.len(), 10, "open through round 0 + ttl");
        }
        assert!(net.send_push(2, 71, 4, NodeId(71), Lane::Honest));
        net.begin_round(3);
        assert_eq!(net.holes.len(), 1, "only the round-2 hole is left");
    }

    #[test]
    fn messages_past_the_horizon_are_counted_not_stored() {
        let mut net = net(EventNetConfig {
            latency: LatencyModel::Constant(2500),
            ..EventNetConfig::default()
        });
        for r in 0..40 {
            net.begin_round(r);
        }
        // The run has 40 rounds: a push sent in round 38 would land in
        // round 40, an answer deferred to round 44 never lands either.
        assert!(!net.send_push(38, 1, 2, NodeId(1), Lane::Honest));
        let PullGate::Deferred { round, held } = net.gate_pull(39, 1, 2) else {
            panic!("a 5000-tick round trip defers")
        };
        assert_eq!(round, 44);
        net.queue_answer(round, held, 1, NodeId(2), &[NodeId(3)]);
        assert_eq!(net.stats().late_deliveries, 2);
        assert_eq!(net.bucketed(), 0);
        assert!(net.groups.iter().all(|g| g.ids.is_empty()));
        assert_eq!(net.check_conservation(), Ok(()));
        // Stepped past the horizon: nothing is due, and late traffic is
        // counted the same way.
        net.begin_round(42);
        assert!(net.take_due_answers().is_empty());
        assert!(!net.send_push(42, 1, 2, NodeId(1), Lane::Honest));
        assert_eq!(net.stats().late_deliveries, 3);
        assert_eq!(net.check_conservation(), Ok(()));
        assert_eq!(net.finish().in_flight_at_end, 3);
    }

    #[test]
    fn the_conservation_check_names_a_lost_record() {
        let mut net = net(EventNetConfig {
            latency: LatencyModel::Constant(2500),
            ..EventNetConfig::default()
        });
        net.begin_round(0);
        assert!(!net.send_push(0, 3, 7, NodeId(3), Lane::Honest));
        net.queue_answer(3, false, 4, NodeId(9), &[NodeId(1)]);
        assert_eq!(net.check_conservation(), Ok(()));
        let mut lossy = net.clone();
        lossy.pushes[2].clear();
        let err = lossy.check_conservation().expect_err("a push went missing");
        assert!(err.contains("2 late deliveries"), "{err}");
        let mut dangling = net.clone();
        dangling.groups[3] = PayloadGroup::default();
        let err = dangling
            .check_conservation()
            .expect_err("a payload went missing");
        assert!(err.contains("payload group 3"), "{err}");
    }

    use super::reference::HeapNet;
    use proptest::prelude::*;

    /// Actors of the differential scenario (4 of them Byzantine).
    const ACTORS: usize = 40;
    /// Its rounds.
    const ROUNDS: usize = 12;

    /// The calendar and the heap reference side by side, driven by the
    /// same calls and compared after each.
    struct Pair {
        cal: EventNet,
        heap: HeapNet,
        /// The round both are in (0 before the first `begin_round`).
        round: usize,
        begun: bool,
    }

    impl Pair {
        fn new(cfg: EventNetConfig) -> Self {
            let scenario = Scenario {
                n: ACTORS,
                rounds: ROUNDS,
                network: NetworkModel::Events(cfg),
                ..Scenario::default()
            };
            Self {
                cal: EventNet::from_scenario(&scenario),
                heap: HeapNet::from_scenario(&scenario).expect("events model"),
                round: 0,
                begun: false,
            }
        }

        fn push(&mut self, src: usize, dst: usize, lane: Lane) {
            let advertised = NodeId(src as u64);
            assert_eq!(
                self.cal.send_push(self.round, src, dst, advertised, lane),
                self.heap.send_push(self.round, src, dst, advertised, lane),
                "push {src} -> {dst} in round {}",
                self.round
            );
        }

        /// One gated pull; a deferred answer is materialised unless
        /// `answered` is false (a crashed or lossy responder).
        fn pull(&mut self, req: usize, tgt: usize, answered: bool, view_len: usize) {
            let gate = self.cal.gate_pull(self.round, req, tgt);
            assert_eq!(gate, self.heap.gate_pull(self.round, req, tgt));
            let PullGate::Deferred { round, held } = gate else {
                return;
            };
            if !answered {
                return;
            }
            let ids: Vec<NodeId> = (0..view_len)
                .map(|k| NodeId(((req * 7 + tgt + k) % ACTORS) as u64))
                .collect();
            let (ci, from) = (req as u32, NodeId(tgt as u64));
            self.cal.queue_answer(round, held, ci, from, &ids);
            self.heap.queue_answer(round, held, ci, from, ids);
        }

        /// Opens `round` on both and compares everything it hands over.
        fn begin(&mut self, round: usize) {
            self.cal.begin_round(round);
            self.heap.begin_round(round);
            (self.round, self.begun) = (round, true);
            for lane in [Lane::Honest, Lane::Adversary] {
                let (mut cal, mut heap) = (Vec::new(), Vec::new());
                self.cal.drain_due_pushes(lane, &mut cal);
                self.heap.drain_due_pushes(lane, &mut heap);
                assert_eq!(cal, heap, "{lane:?} pushes due in round {round}");
            }
            let cal = self.cal.take_due_answers();
            let heap = self.heap.take_due_answers();
            assert_eq!(cal.len(), heap.len(), "answers due in round {round}");
            for (c, h) in cal.iter().zip(&heap) {
                let narrowed: Vec<NodeIdx> = h.ids.iter().map(|&id| NodeIdx::of(id)).collect();
                assert_eq!(
                    (c.ci, c.from, self.cal.due_ids(c)),
                    (h.ci, h.from, &narrowed[..]),
                    "answer due in round {round}"
                );
                assert_eq!(
                    self.cal.accept_answer(c),
                    self.heap.accept_answer(h.nonce),
                    "dedup verdict in round {round}"
                );
            }
            assert_eq!(self.cal.check_conservation(), Ok(()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar is the heap substrate with different storage:
        /// whatever the configuration and however pushes, pulls and
        /// round opens (skipped rounds included) interleave, both hand
        /// over the same messages in the same order, give the same dedup
        /// verdicts and count the same statistics.
        #[test]
        fn calendar_matches_the_heap_reference(
            (latency_kind, latency, jitter) in (0u8..3, 0u64..3_000, 0u64..300),
            partitions in proptest::collection::vec((0usize..ROUNDS, 1usize..6, 1usize..ACTORS), 0..3),
            (nat, retries, base_backoff) in (0usize..5, 0u32..4, 1u64..800),
            (duplicates, reorder_jitter) in (0usize..3, 0u64..500),
            ops in proptest::collection::vec((0u8..16, 0usize..ACTORS, 0usize..ACTORS, 0usize..60), 1..240),
        ) {
            let mut pair = Pair::new(EventNetConfig {
                latency: match latency_kind {
                    0 => LatencyModel::Constant(latency),
                    1 => LatencyModel::Uniform { min: latency / 4, max: latency },
                    _ => LatencyModel::LogNormal {
                        mu: 5.0 + (latency % 25) as f64 / 10.0,
                        sigma: 0.8,
                        cap: 4_000,
                    },
                },
                jitter,
                partitions: partitions
                    .iter()
                    .map(|&(start, len, boundary)| PartitionWindow { start, end: start + len, boundary })
                    .collect(),
                reachability: match nat {
                    0 => Reachability::Full,
                    ttl => Reachability::Nat { fraction: 0.5, hole_ttl: ttl - 1 },
                },
                retry: RetryConfig { max_retries: retries, base_backoff },
                duplicate_rate: [0.0, 0.3, 1.0][duplicates],
                reorder_jitter: if duplicates == 0 { 0 } else { reorder_jitter },
                ..EventNetConfig::default()
            });
            for (kind, a, b, c) in ops {
                match kind {
                    0..=2 => pair.push(a, b, Lane::Honest),
                    3 => pair.push(a, b, Lane::Adversary),
                    // A burst wide enough that an unstable sort of its
                    // bucket shows.
                    4 => for k in 0..c {
                        let lane = if k % 5 == 0 { Lane::Adversary } else { Lane::Honest };
                        pair.push((a + k) % ACTORS, b, lane);
                    },
                    5..=9 => pair.pull(a, b, c % 4 != 0, c % 5),
                    // One requester's answers tie on their arrival tick.
                    10 => for k in 0..c {
                        pair.pull(a, (b + k) % ACTORS, k % 7 != 0, 1 + k % 3);
                    },
                    _ => {
                        let next = if pair.begun { pair.round + 1 + [0, 0, 0, 1, 2][c % 5] } else { 0 };
                        if next < ROUNDS {
                            pair.begin(next);
                        }
                    }
                }
                prop_assert_eq!(pair.cal.stats(), pair.heap.stats());
            }
            prop_assert_eq!(pair.cal.finish(), pair.heap.finish());
        }
    }
}
