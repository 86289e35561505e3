//! The round skeleton and every phase around the pull exchange
//! (`exchange.rs`): plan, honest and adversary pushes, ranked push
//! ranking, the two trusted-directory passes, the identification
//! attack, and apply.

use super::arena::{
    two_nodes, FinishBlock, PlanBlock, PullEvent, PushLane, RoundStat, Scratch, WorkerScratch,
    BLOCK,
};
use super::population::Node;
use super::Simulation;
use crate::adversary::{split_budget, AdaptiveCoordinator, Replays};
use crate::bitset::DiscoveryRows;
use crate::event::Lane as NetLane;
use crate::metrics::IdentificationResult;
use raptee::RapteeNode;
use raptee_brahms::{Rope, Segment};
use raptee_net::{NodeId, NodeIdx};
use raptee_util::rng::mix64;

/// Salt of the proactive trusted-directory partner draws — a dedicated
/// hash stream (like the churn and audit-beacon streams), so enabling
/// the directory refresh cannot shift any other stochastic stream.
const TRUSTED_DIR_SALT: u64 = 0xD1EC_7027_7257_ED15;

impl Simulation {
    /// One protocol round (the paper's loop) for the whole population:
    /// the phases of the module doc, in order, over the shared scratch
    /// arenas. Shared sequential streams (rate limiter, loss RNG,
    /// adversary coordinator RNG) are consumed in population-index order.
    pub(super) fn protocol_round(&mut self, s: &mut Scratch, workers: &mut Vec<WorkerScratch>) {
        // No correct nodes: nothing to simulate.
        if self.non_byz_total == 0 {
            return;
        }
        self.plan(s, workers);
        self.collect_honest_pushes(s);
        let bandit_arm = self.collect_byz_pushes(s);
        self.rank_pushes(s);
        self.exchange_pulls(s);
        self.raptee_directory_swaps();
        self.ranked_directory_exchanges(s);
        self.observe_for_identification(s);
        self.apply(s, workers);
        self.fold_round(&s.stats);
        self.bandit_reward(&s.stats, bandit_arm);
        self.identify_trusted();
    }

    /// Plan (parallel, one pass over the arena, [`BLOCK`] nodes per
    /// claim): every live node draws its targets into its worker's plan
    /// buffer, stored in the flat push and pull rows. Brahms-family rows
    /// also snapshot their post-plan views (for deferred answers); every
    /// row resets its view-mutation flag.
    fn plan(&mut self, s: &mut Scratch, workers: &mut Vec<WorkerScratch>) {
        let alive = &self.alive[self.byz_count..];
        let mut blocks: Vec<PlanBlock> = self
            .nodes
            .chunks_mut(BLOCK)
            .zip(s.pushes.blocks_mut())
            .zip(s.pulls.blocks_mut())
            .zip(s.snaps.blocks_mut())
            .zip(s.live.chunks_mut(BLOCK))
            .zip(s.view_mutated.chunks_mut(BLOCK))
            .map(
                |(((((nodes, pushes), pulls), snaps), live), mutated)| PlanBlock {
                    nodes,
                    pushes,
                    pulls,
                    snaps,
                    live,
                    mutated,
                },
            )
            .collect();
        rayon::par_for_each_scratch(&mut blocks, workers, |ws, bi, block| {
            for (k, node) in block.nodes.iter_mut().enumerate() {
                let ci = bi * BLOCK + k;
                block.mutated[k] = false;
                block.live[k] = alive[ci];
                if !alive[ci] {
                    block.snaps.store(k, std::iter::empty());
                    continue;
                }
                node.plan_into(&mut ws.plan);
                if let Node::Raptee(node) = node {
                    block.snaps.store(k, node.brahms().view().ids());
                }
                block.pushes.store(k, ws.plan.push_targets.iter().copied());
                block.pulls.store(k, ws.plan.pull_targets.iter().copied());
            }
        });
    }

    /// Honest pushes (sequential control): every segment's, in
    /// population-index order (sender-major, so the loss RNG stream is
    /// fixed), through the shared rate limiter and [`Self::route_push`],
    /// then counting-sorted by receiver into `s.honest`. No per-ID node
    /// work happens here — the parallel phases consume the runs.
    fn collect_honest_pushes(&mut self, s: &mut Scratch) {
        let byz = self.byz_count;
        let lane = &mut s.honest;
        lane.survivors.clear();
        // Late pushes from earlier rounds arrive first: they are the
        // oldest messages each receiver sees, and the stable counting
        // sort preserves that ordering per target.
        self.net
            .drain_due_pushes(NetLane::Honest, &mut lane.survivors);
        // Segments are contiguous in layout order, so population-index
        // order is every segment's senders in turn.
        for ci in (0..self.non_byz_total).filter(|&ci| s.live[ci]) {
            let targets = s.pushes.row(ci);
            let sender = NodeId((byz + ci) as u64);
            let granted = self.limiter.try_push_n(sender, targets.len());
            for &target in &targets[..granted] {
                self.route_push(sender, target.index(), NetLane::Honest, lane);
            }
        }
        lane.sort(self.total_actors());
    }

    /// Adversary pushes (sequential control): the adversary's lawful
    /// budget B·fanout, split across segments by
    /// [`split_budget`](crate::adversary::split_budget) in proportion to
    /// their sizes, each share planned by
    /// [`Adversary::plan_attack`](crate::adversary::Adversary::plan_attack)
    /// for its victim family. In adaptive mode the bandit instead aims
    /// the entire budget at its chosen (segment, strategy) arm, which is
    /// returned so the fold can feed it its observed yield; every other
    /// segment gets zero this round.
    ///
    /// Each planned push is charged to a Byzantine identity through the
    /// rate limiter (rotating payers), goes through
    /// [`Self::route_push`], and the survivors are counting-sorted by
    /// victim into `s.byz` for the parallel phases. One pass for every
    /// segment, so cross-family comparisons face provably identical
    /// adversary machinery.
    fn collect_byz_pushes(&mut self, s: &mut Scratch) -> Option<usize> {
        let bandit_arm = self.bandit.as_ref().map(AdaptiveCoordinator::choose);
        let Scratch {
            byz_plan: plan,
            byz_budgets: budgets,
            byz: lane,
            ..
        } = s;
        lane.survivors.clear();
        self.net
            .drain_due_pushes(NetLane::Adversary, &mut lane.survivors);
        let (aimed, attack) = match bandit_arm.map(AdaptiveCoordinator::play) {
            Some((aimed, attack)) => (Some(aimed), attack),
            None => (None, self.scenario.attack),
        };
        budgets.clear();
        budgets.extend(split_budget(
            self.byz_count * self.limiter_fanout,
            self.segs.iter().map(|seg| seg.len),
            aimed,
        ));
        let mut charge_rotor = 0usize;
        for (si, &budget) in budgets.iter().enumerate() {
            let seg = &self.segs[si];
            let ranked = seg.protocol.is_ranked_family();
            let victims = &self.victims[seg.range()];
            self.adversary
                .plan_attack(attack, ranked, victims, budget, plan);
            for &(victim, advertised) in plan.iter() {
                let charged = (0..self.byz_count).any(|_| {
                    let payer = NodeId((charge_rotor % self.byz_count) as u64);
                    charge_rotor += 1;
                    self.limiter.try_push(payer)
                });
                if charged {
                    self.route_push(advertised, victim.index(), NetLane::Adversary, lane);
                }
            }
        }
        // Quarantine filter: adversary pushes advertising a convicted
        // identity (including copies drained from earlier rounds) are
        // discarded — honest nodes blacklist the quarantined ID.
        if let Some(aud) = self.audit.as_ref() {
            lane.survivors
                .retain(|&(_, advertised)| !aud.is_quarantined(advertised.index()));
        }
        lane.sort(self.total_actors());
        bandit_arm
    }

    /// Routes one push its lane's limiter rule let through, advertising
    /// `advertised` to actor `dst`. It leaves the advertised identity's
    /// host: an honest sender advertises itself, and the adversary's
    /// pushes originate at the identity they advertise (injected
    /// poisoned nodes send from their own addresses). A dead receiver
    /// drops it, then the loss draw, then the net: a push landing this
    /// round joins `into`, a late one is filed on the net and drained
    /// into its lane in its arrival round.
    fn route_push(&mut self, advertised: NodeId, dst: usize, lane: NetLane, into: &mut PushLane) {
        let loss = self.scenario.message_loss;
        if self.alive[dst]
            && !(loss > 0.0 && self.loss_rng.chance(loss))
            && self
                .net
                .send_push(self.round, advertised.index(), dst, advertised, lane)
        {
            into.survivors.push((dst as u32, NodeIdx::of(advertised)));
        }
    }

    /// Ranked push ranking (parallel per ranked segment, sharded by
    /// receiver in [`BLOCK`]s): rank the honest run, then the
    /// adversary's run, into each receiver's view; honest senders count
    /// as discovered. The ranked family consumes pushes before the
    /// pulls; the Brahms family consumes its runs at apply time.
    fn rank_pushes(&mut self, s: &Scratch) {
        let (byz, total) = (self.byz_count, self.total_actors());
        for seg in self
            .segs
            .iter()
            .filter(|seg| seg.protocol.is_ranked_family())
        {
            let start = seg.start;
            let mut blocks: Vec<(&mut [Node], DiscoveryRows)> = self.nodes[seg.range()]
                .chunks_mut(BLOCK)
                .zip(self.discovery.blocks_mut(seg.range(), BLOCK))
                .collect();
            rayon::par_for_each_mut(&mut blocks, |bi, (nodes, disc)| {
                for (k, node) in nodes.iter_mut().enumerate() {
                    let abs = byz + start + bi * BLOCK + k;
                    for sender in s.honest.run(abs) {
                        node.record_push(sender);
                        if sender.index() >= byz && sender.index() < total {
                            disc.insert(k, sender.index());
                        }
                    }
                    for advertised in s.byz.run(abs) {
                        node.record_push(advertised);
                    }
                }
            });
        }
    }

    /// RAPTEE directory swaps (sequential, when `Scenario::trusted_swap`
    /// is on): each effective-trusted node of a Brahms-family segment
    /// initiates one exchange with the oldest entry of its trusted
    /// directory (framework criterion (1): round-robin probing) — the
    /// mechanism that keeps a sparse trusted population meeting every
    /// round once discovered. Swaps here cannot invalidate
    /// snapshot-deferred answers: those reference the frozen snapshot
    /// arena, not the live views. Ranked trusted nodes have no
    /// node-level directory; theirs is the engine-level one of
    /// [`Simulation::ranked_directory_exchanges`].
    fn raptee_directory_swaps(&mut self) {
        if !self.scenario.trusted_swap {
            return;
        }
        let byz = self.byz_count;
        for seg in self
            .segs
            .iter()
            .filter(|seg| !seg.protocol.is_ranked_family())
        {
            for ci in seg.range() {
                let abs = byz + ci;
                if !self.effective_trusted(abs) || !self.alive[abs] {
                    continue;
                }
                let Some(partner) = self.nodes[ci].raptee_mut().trusted_partner() else {
                    continue;
                };
                let p = partner.index();
                if p == abs {
                    continue;
                }
                if !self.alive[p] {
                    // Timeout: forget the dead trusted peer.
                    self.nodes[ci].raptee_mut().forget_trusted_peer(partner);
                    continue;
                }
                // A live partner whose certificate lapsed is skipped, not
                // forgotten: it will re-attest and answer again.
                if !self.effective_trusted(p) {
                    continue;
                }
                // A directory only learns peers from RAPTEE trusted
                // swaps, so the partner is a RAPTEE node too.
                let (a, b) = two_nodes(&mut self.nodes, ci, p - byz);
                RapteeNode::trusted_swap_kind(a.raptee_mut(), b.raptee_mut(), false);
            }
        }
    }

    /// Ranked directory exchanges (sequential): proactive ranked-family
    /// trusted exchanges off the engine-level directory
    /// (`Scenario::trusted_directory_refresh`) — the hybrid's counterpart
    /// of the RAPTEE directory round-robin, so trusted swaps and audit
    /// coverage don't depend on random encounter. Partner draws come
    /// from a dedicated hash stream; with the refresh off the directory
    /// is empty and this pass vanishes.
    fn ranked_directory_exchanges(&mut self, s: &mut Scratch) {
        if self.scenario.trusted_directory_refresh == 0 || self.trusted_dir.len() < 2 {
            return;
        }
        let byz = self.byz_count;
        let dir_seed = mix64(self.scenario.seed ^ TRUSTED_DIR_SALT);
        let round_tag = mix64(self.round as u64);
        let dir = std::mem::take(&mut self.trusted_dir);
        for &abs_u in &dir {
            let abs = abs_u as usize;
            let ci = abs - byz;
            // RAPTEE trusted nodes already ran their own directory swaps.
            if !self.alive[abs] || !self.effective_trusted(abs) || !self.in_ranked_segment(ci) {
                continue;
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

    /// The identification attack's observation pulls (sequential): each
    /// Byzantine node pulls β·l1 targets (α = β in the paper's config)
    /// from the one Brahms-family segment `validate` confines the attack
    /// to, and the adversary records each answer's Byzantine share.
    fn observe_for_identification(&mut self, s: &mut Scratch) {
        let byz = self.byz_count;
        if !self.scenario.identification_attack || byz == 0 {
            return;
        }
        let candidates = &self.victims[..self.scenario.n - byz];
        for _ in 0..byz {
            self.adversary.observation_targets_into(
                candidates,
                self.limiter_fanout,
                &mut s.observed,
            );
            for &t in &s.observed {
                // `Scenario::validate` admits the attack in uniform
                // Brahms/RAPTEE runs only, so every candidate has a
                // Brahms-family node.
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

    /// Apply (parallel, one pass over the arena, [`BLOCK`] nodes per
    /// claim): round finalisation and per-node metric observation into
    /// the stat slots. Brahms-family
    /// nodes reconstruct their push/pull streams from the shared arenas;
    /// ranked nodes verify their waiting lists (probe contacts succeed
    /// iff the candidate is alive), then finalise.
    fn apply(&mut self, s: &mut Scratch, workers: &mut Vec<WorkerScratch>) {
        let (byz, total) = (self.byz_count, self.total_actors());
        let validation_due = self.scenario.sampler_validation_period > 0
            && (self.round + 1).is_multiple_of(self.scenario.sampler_validation_period);
        let Scratch {
            stats,
            events,
            byz_rngs,
            event_start,
            arena,
            snaps,
            honest,
            byz: byz_lane,
            ..
        } = s;
        let (events, event_start) = (&events[..], &event_start[..]);
        let (arena, snaps, honest, byz_lane) = (&arena[..], &*snaps, &*honest, &*byz_lane);
        let alive = &self.alive;
        let is_alive = |id: NodeId| alive.get(id.index()).copied().unwrap_or(false);
        let replays = Replays {
            adversary: &self.adversary,
            rngs: byz_rngs,
        };
        let pop = self.non_byz_total;
        let mut blocks: Vec<FinishBlock> = self
            .nodes
            .chunks_mut(BLOCK)
            .zip(stats.chunks_mut(BLOCK))
            .zip(self.discovery.blocks_mut(0..pop, BLOCK))
            .zip(self.share_rings.blocks_mut())
            .map(|(((nodes, stats), disc), rings)| FinishBlock {
                nodes,
                stats,
                disc,
                rings,
            })
            .collect();
        rayon::par_for_each_scratch(&mut blocks, workers, |ws, bi, block| {
            for (k, node) in block.nodes.iter_mut().enumerate() {
                let ci = bi * BLOCK + k;
                let abs = byz + ci;
                let stat = &mut block.stats[k];
                *stat = RoundStat::default();
                if !alive[abs] {
                    continue;
                }
                stat.participated = true;
                match node {
                    Node::Raptee(node) => {
                        if validation_due {
                            // Brahms sampler validation: probe sampled
                            // nodes, re-draw the samplers whose sample
                            // is dead.
                            let (sampler, rng) = node.brahms_mut().sampler_and_rng_mut();
                            sampler.validate(is_alive, rng);
                        }
                        let me = NodeId(abs as u64);
                        // Push stream: the honest run, then the
                        // adversary's — each receiver's historical
                        // arrival order, with the `record_push`
                        // self-filter.
                        ws.pushed.clear();
                        ws.pushed.extend(honest.run(abs).filter(|&x| x != me));
                        ws.pushed.extend(byz_lane.run(abs).filter(|&x| x != me));
                        // Untrusted pull stream, read where the
                        // exchange pass left it, in delivery order.
                        let e0 = event_start[ci] as usize;
                        let e1 = event_start[ci + 1] as usize;
                        let segments = events[e0..e1].iter().map(|ev| match *ev {
                            PullEvent::Snapshot { responder } => {
                                Segment::Dense(snaps.row(responder as usize))
                            }
                            PullEvent::Arena { start, len } => {
                                Segment::Dense(&arena[start as usize..(start + len) as usize])
                            }
                            PullEvent::ByzReplay { slot } => Segment::Drawn(slot),
                        });
                        let outcome = node.finish_round_streamed(
                            &ws.pushed,
                            Rope::new(&replays, segments),
                            (e1 - e0) as u32,
                            &mut ws.flat,
                            &mut ws.finish,
                        );
                        stat.evicted = outcome.evicted as u32;
                        stat.flood = outcome.report.push_flood_detected;
                    }
                    // Ranked nodes drain their waiting lists before they
                    // finalise: a no-op while plain BASALT's is disabled,
                    // live for the wlist hybrid. Only BASALT rotates
                    // seeds.
                    Node::Basalt(node) => {
                        node.drain_wlist(is_alive);
                        stat.rotated = node.finish_round().rotated as u32;
                    }
                    // LIFT keeps no waiting list.
                    Node::Lift(node) => {
                        node.finish_round();
                    }
                    // Honeybee's verified walk endpoints pass the
                    // reachability probe in its drain.
                    Node::Honeybee(node) => {
                        node.drain_wlist(is_alive);
                        node.finish_round();
                    }
                }
                // The post-round view census: Byzantine entries feed the
                // pollution share, correct ones the discovery row, which
                // counts an ID once it has *entered the view* (matching
                // the paper's round counts; IDs merely seen in transit —
                // or evicted — do not count).
                let (mut len, mut byz_in_view) = (0usize, 0usize);
                node.for_each_view_id(|id| {
                    len += 1;
                    if id.index() < byz {
                        byz_in_view += 1;
                    } else if id.index() < total {
                        block.disc.insert(k, id.index());
                    }
                });
                stat.discovered = block.disc.count(k) as u32;
                if len > 0 {
                    let share = byz_in_view as f64 / len as f64;
                    stat.share = share;
                    stat.has_share = true;
                    stat.smoothed = block.rings.push_and_mean(k, share);
                }
            }
        });
    }

    /// The identification attack's verdict for this round: the
    /// adversary's classifier against the ground truth of genuine trusted
    /// nodes (injected ones are the adversary's own and excluded),
    /// keeping the best F1 of the run.
    fn identify_trusted(&mut self) {
        if !self.scenario.identification_attack {
            return;
        }
        let flagged = self.adversary.classify_trusted();
        let (trusted, n) = (&self.trusted, self.scenario.n);
        let actual = trusted[self.byz_count..n].iter().filter(|&&t| t).count();
        let result = IdentificationResult::evaluate(
            &flagged,
            |id| id.index() < n && trusted[id.index()],
            actual,
            self.round,
        );
        if self
            .best_identification
            .as_ref()
            .is_none_or(|best| result.f1 > best.f1)
        {
            self.best_identification = Some(result);
        }
    }
}
