//! The pull exchange (sequential control): answers due from earlier
//! rounds, then every node's pulls in population-index order. Only the
//! shared ordered streams run here for the Brahms family — loss draws,
//! the adversary RNG and the (rare) trusted swaps — with
//! every untrusted answer deferred as a pull event for the parallel
//! apply phase. Ranked-family answers are ranked on arrival and shape
//! later answers, so they cannot shard.

use super::arena::{two_nodes, PullEvent, Scratch};
use super::Simulation;
use crate::event::PullGate;
use raptee::RapteeNode;
use raptee_net::{NodeId, NodeIdx};

impl Simulation {
    /// Runs the round's pulls. Answers deferred from earlier rounds
    /// deliver first (they are the oldest answers the requester sees),
    /// through the same [`Simulation::deliver`] as a fresh answer; dead
    /// requesters consume and drop theirs.
    pub(super) fn exchange_pulls(&mut self, s: &mut Scratch) {
        let pop = self.non_byz_total;
        s.events.clear();
        s.byz_rngs.clear();
        s.arena.clear();
        let due = self.net.take_due_answers();
        let mut due_cursor = 0usize;
        for ci in 0..pop {
            s.event_start[ci] = s.events.len() as u32;
            // The due answers come sorted by requester.
            while due_cursor < due.len() && due[due_cursor].ci as usize == ci {
                let ans = &due[due_cursor];
                due_cursor += 1;
                // The first delivered copy claims the exchange; deadline
                // retransmits and injected duplicates are suppressed.
                if !self.net.accept_answer(ans) || !s.live[ci] {
                    continue;
                }
                s.reply.clear();
                s.reply
                    .extend(self.net.due_ids(ans).iter().map(|&idx| idx.id()));
                self.deliver(ci, ans.from, false, PullGate::Inline, s);
            }
            if !s.live[ci] {
                continue;
            }
            for k in 0..s.pulls.row(ci).len() {
                let target = s.pulls.row(ci)[k].id();
                if let Some(gate) = self.open_pull(ci, target, s) {
                    self.pull(ci, target, gate, s);
                }
            }
        }
        debug_assert_eq!(due_cursor, due.len(), "every due answer has a requester");
        s.event_start[pop] = s.events.len() as u32;
    }

    /// The prelude every pull shares, whatever the requester's family:
    /// self and out-of-range targets, the quarantine blacklist, the
    /// event model's reachability gate, the dead-peer timeout and the
    /// loss draw, in that order. Returns the gate when the exchange goes
    /// ahead and `None` when it ended here.
    fn open_pull(&mut self, ci: usize, target: NodeId, s: &mut Scratch) -> Option<PullGate> {
        let requester_abs = self.byz_count + ci;
        let t = target.index();
        if t == requester_abs || t >= self.total_actors() {
            return None;
        }
        // A convicted (quarantined) target is blacklisted before any
        // connection or RNG draw.
        if self.audit.as_ref().is_some_and(|a| a.is_quarantined(t)) {
            s.view_mutated[ci] |= self.nodes[ci].drop_peer(target, true);
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
        // and any in-flight retransmit copies die with the exchange (the
        // next gate drops them).
        if !self.alive[t] {
            s.view_mutated[ci] |= self.nodes[ci].drop_peer(target, false);
            return None;
        }
        if self.scenario.message_loss > 0.0 && self.loss_rng.chance(self.scenario.message_loss) {
            return None; // request or answer lost in transit
        }
        Some(gate)
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
        let trusted = self.effective_trusted(me.index()) && self.effective_trusted(t);
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
            s.arena.extend(s.reply.iter().map(|&id| NodeIdx::of(id)));
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
    pub(super) fn in_ranked_segment(&self, ci: usize) -> bool {
        self.segs
            .iter()
            .any(|seg| seg.protocol.is_ranked_family() && seg.range().contains(&ci))
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
    pub(super) fn rank_answer(&mut self, ci: usize, from: NodeId, ids: &[NodeId], trusted: bool) {
        self.nodes[ci].record_pull_answer(from, ids, trusted);
        self.note_discovered(ci, from);
        for &id in ids {
            self.note_discovered(ci, id);
        }
    }

    /// Ranked-family responder `ci` books an incoming exchange from
    /// `requester` as a contact: the requester is ranked like a pushed
    /// ID and counts as discovered.
    fn note_contact(&mut self, ci: usize, requester: NodeId) {
        self.nodes[ci].record_push(requester);
        self.note_discovered(ci, requester);
    }

    /// Marks non-Byzantine `id` as discovered in row `ci` (no-op for
    /// Byzantine and out-of-universe IDs).
    fn note_discovered(&mut self, ci: usize, id: NodeId) {
        if id.index() >= self.byz_count && id.index() < self.total_actors() {
            self.discovery.insert(ci, id.index());
        }
    }
}
