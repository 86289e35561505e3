//! The adversary of Section III-B, plus its two RAPTEE-specific attacks.
//!
//! One coordinator controls all Byzantine nodes. Its baseline strategy —
//! proved optimal for Brahms in the original paper — is:
//!
//! * **balanced pushes**: spend the collective (rate-limited) push budget
//!   `B·α·l1` spread as evenly as possible over the correct nodes, each
//!   push advertising a Byzantine ID;
//! * **poisoned pull answers**: answer every pull request with a view
//!   that "contains exclusively Byzantine IDs".
//!
//! Against RAPTEE it can additionally run:
//!
//! * the **trusted-node identification** classifier (Section VI-A):
//!   Byzantine nodes pull non-Byzantine nodes, measure the Byzantine
//!   share of each answer, and flag nodes whose share sits more than a
//!   threshold *below* the population average — the statistical shadow
//!   cast by Byzantine eviction;
//! * **view-poisoned trusted-node injection** (Section VI-B), set up by
//!   the engine: genuine enclaves bootstrapped inside a Byzantine-only
//!   network so their initial views are fully poisoned.

use crate::scenario::AttackStrategy;
use raptee_brahms::AnswerSource;
use raptee_net::NodeId;
use raptee_util::rng::{IndexScratch, Xoshiro256StarStar};
use std::ops::Range;

/// A planned batch of adversary pushes: `(victim, advertised ID)` pairs.
pub(crate) type PushPlan = Vec<(NodeId, NodeId)>;

/// The adversary's classification of one node, with bookkeeping for
/// precision/recall.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Observation {
    /// Most recently observed Byzantine share in the node's pull answer.
    byz_share: f64,
}

/// The coordinator of all Byzantine nodes.
#[derive(Debug, Clone)]
pub struct Adversary {
    byzantine_ids: Vec<NodeId>,
    /// View-poisoned trusted nodes the adversary has injected
    /// (Section VI-B). They are advertised *sparsely* — one slot of an
    /// occasional pull answer — just enough for the system to discover
    /// and contact them; flooding them into every answer would dilute
    /// the Byzantine poisoning pressure and work against the adversary.
    injected: Vec<NodeId>,
    /// The Byzantine and injected IDs as maximal runs of consecutive
    /// indices — what an answer can hold, in the shape a seen-cache is
    /// asked about a word at a time.
    answer_runs: Vec<Range<usize>>,
    view_size: usize,
    rng: Xoshiro256StarStar,
    /// Latest observation per (non-Byzantine) node index; `None` = never
    /// pulled.
    observations: Vec<Option<Observation>>,
    /// Round-robin cursor over the Byzantine identities for the
    /// force-push attack (coverage beats repetition against ranked
    /// views).
    force_rotor: usize,
    /// Reusable buffers for the per-round sampling calls (Fisher–Yates
    /// index table and the remainder-victim draw) — planning and pull
    /// answers allocate nothing in steady state.
    idx_scratch: IndexScratch,
    extra_scratch: Vec<NodeId>,
}

impl Adversary {
    /// Creates the adversary controlling `byzantine_ids`, in a system of
    /// `total_actors` nodes whose views have `view_size` entries.
    pub fn new(
        byzantine_ids: Vec<NodeId>,
        total_actors: usize,
        view_size: usize,
        seed: u64,
    ) -> Self {
        Self {
            injected: Vec::new(),
            answer_runs: runs(&byzantine_ids),
            byzantine_ids,
            view_size,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            observations: vec![None; total_actors],
            force_rotor: 0,
            idx_scratch: IndexScratch::default(),
            extra_scratch: Vec::new(),
        }
    }

    /// Registers injected view-poisoned trusted nodes for sparse
    /// advertisement so the system discovers them.
    pub(crate) fn advertise_injected(&mut self, injected: impl IntoIterator<Item = NodeId>) {
        self.injected.extend(injected);
        self.answer_runs = runs(&self.byzantine_ids);
        self.answer_runs.extend(runs(&self.injected));
    }

    /// Plans one segment's share of this round's pushes into `plan`
    /// (cleared first): the one planner, for every attack strategy and
    /// victim family. `Targeted` sends a `focus` share of the budget,
    /// spread evenly, to the first `victim_fraction` of `victims`
    /// (deterministic per scenario; the adversary knows the membership);
    /// the rest of the budget, every other strategy's whole budget, is
    /// spread evenly over all of `victims`.
    ///
    /// Against a ranked segment, and under `ForcePush`, every push
    /// advertises the next distinct Byzantine identity round-robin:
    /// repeating an ID buys nothing against a min-rank view, so maximal
    /// coverage finds every slot where some Byzantine ID ranks closest as
    /// fast as possible, and there `Balanced` *is* `ForcePush` — the same
    /// plan, the same draws. Otherwise each push advertises a random
    /// Byzantine ID.
    pub(crate) fn plan_attack(
        &mut self,
        attack: AttackStrategy,
        ranked: bool,
        victims: &[NodeId],
        budget: usize,
        plan: &mut PushPlan,
    ) {
        let round_robin = ranked || matches!(attack, AttackStrategy::ForcePush);
        let pick: fn(&mut Self) -> NodeId = if round_robin {
            Self::next_force_id
        } else {
            Self::random_byz_id
        };
        let (targets, focus) = match attack {
            AttackStrategy::Targeted {
                victim_fraction,
                focus,
            } => {
                let k = ((victims.len() as f64) * victim_fraction).round() as usize;
                (&victims[..k.min(victims.len())], focus)
            }
            AttackStrategy::Balanced | AttackStrategy::ForcePush => (&[][..], 0.0),
        };
        plan.clear();
        let focused_budget = (budget as f64 * focus.clamp(0.0, 1.0)).round() as usize;
        self.spread_append(targets, focused_budget, pick, plan);
        let spent = plan.len();
        self.spread_append(victims, budget - spent, pick, plan);
    }

    /// Plans this round's balanced push attack against Brahms-family
    /// victims into `plan` (cleared first): `(victim, advertised
    /// Byzantine ID)` pairs. `budget` is the adversary's lawful total
    /// (`B · α·l1`, enforced upstream by the rate limiter); `victims` are
    /// the correct nodes.
    ///
    /// Pushes are spread evenly: every victim receives
    /// `⌊budget / |victims|⌋`, and the remainder goes to a random subset
    /// — the "evenly balanced push messages" of the paper.
    pub fn plan_balanced_pushes_into(
        &mut self,
        victims: &[NodeId],
        budget: usize,
        plan: &mut PushPlan,
    ) {
        self.plan_attack(AttackStrategy::Balanced, false, victims, budget, plan);
    }

    /// Appends `budget` pushes spread evenly over `victims` — each gets
    /// `⌊budget / |victims|⌋`, a random subset one more — every push
    /// advertising the identity `pick` chooses. Both shares of every
    /// plan; it reserves exactly `budget`.
    fn spread_append(
        &mut self,
        victims: &[NodeId],
        budget: usize,
        pick: fn(&mut Self) -> NodeId,
        plan: &mut PushPlan,
    ) {
        if victims.is_empty() || self.byzantine_ids.is_empty() || budget == 0 {
            return;
        }
        let base = budget / victims.len();
        let remainder = budget % victims.len();
        plan.reserve(budget);
        for &v in victims {
            for _ in 0..base {
                plan.push((v, pick(self)));
            }
        }
        let Self {
            rng,
            idx_scratch,
            extra_scratch,
            ..
        } = self;
        rng.sample_into(victims, remainder, idx_scratch, extra_scratch);
        for i in 0..self.extra_scratch.len() {
            let v = self.extra_scratch[i];
            plan.push((v, pick(self)));
        }
    }

    /// Answers a pull request into `out` (cleared first): a full view of
    /// exclusively Byzantine IDs (distinct when enough identities
    /// exist). When poisoned trusted nodes have been injected, one answer
    /// in four carries a single injected ID in place of a Byzantine one —
    /// enough for discovery, negligible dilution.
    pub fn pull_answer_into(&mut self, out: &mut Vec<NodeId>) {
        let Self {
            rng,
            byzantine_ids,
            injected,
            view_size,
            idx_scratch,
            ..
        } = self;
        Self::answer_with(rng, byzantine_ids, injected, *view_size, idx_scratch, out);
    }

    /// A snapshot of the adversary's RNG, taken *before* the draws of an
    /// answer ([`Adversary::skip_pull_answer`], or
    /// [`Adversary::pull_answer_into`]) so the identical answer can
    /// later be regenerated by [`Adversary::replay_pull_answer`]. The
    /// parallel engine stores these 32-byte states per deferred answer
    /// instead of materialising the answer IDs — the coordinator RNG
    /// stays a single sequential stream (bit-identical results at any
    /// thread count), while the per-ID work moves to the parallel apply
    /// phase.
    pub(crate) fn rng_snapshot(&self) -> Xoshiro256StarStar {
        self.rng.clone()
    }

    /// Regenerates at least the first `depth` IDs of a pull answer from
    /// an [`Adversary::rng_snapshot`] taken when the answer was
    /// originally drawn, into `out` (cleared first); a `depth` of
    /// [`Adversary::answer_len`] regenerates all of it. `&self` only —
    /// safe to call from many worker threads at once with worker-owned
    /// `rng`/`idx`/`out` buffers. The produced IDs are bit-identical to
    /// what `pull_answer_into` emitted at snapshot time (the identity
    /// pools never change mid-round).
    ///
    /// A partial Fisher–Yates fixes output `i` after `i + 1` draws, so a
    /// prefix costs its own draws only — unless injected IDs are
    /// advertised: then the other draws are skipped to reach the
    /// injected-slot draw, which may land inside the prefix.
    pub(crate) fn replay_pull_answer(
        &self,
        rng: &mut Xoshiro256StarStar,
        depth: usize,
        idx: &mut IndexScratch,
        out: &mut Vec<NodeId>,
    ) {
        let (pool, len) = (self.byzantine_ids.len(), self.answer_len());
        if depth >= len || len >= pool {
            Self::answer_with(
                rng,
                &self.byzantine_ids,
                &self.injected,
                self.view_size,
                idx,
                out,
            );
            return;
        }
        rng.sample_into(&self.byzantine_ids, depth, idx, out);
        if !self.injected.is_empty() {
            rng.skip_sample_from(pool, depth, len);
            match Self::injected_slot(rng, &self.injected, len) {
                Some((slot, id)) if slot < depth => out[slot] = id,
                _ => {}
            }
        }
    }

    /// IDs in every pull answer.
    pub(crate) fn answer_len(&self) -> usize {
        self.view_size.min(self.byzantine_ids.len())
    }

    /// Where the answer drawn from the snapshot `rng` holds `me`, if it
    /// does: only in its injected slot, so only when `me` is injected.
    fn offset_in_answer(&self, rng: &Xoshiro256StarStar, me: NodeId) -> Option<usize> {
        if !self.injected.contains(&me) {
            return None;
        }
        let mut rng = rng.clone();
        let len = self.answer_len();
        rng.skip_sample(self.byzantine_ids.len(), len);
        Self::injected_slot(&mut rng, &self.injected, len)
            .and_then(|(slot, id)| (id == me).then_some(slot))
    }

    /// The shared answer body: a full view of exclusively Byzantine IDs,
    /// with the sparse injected-ID advertisement.
    fn answer_with(
        rng: &mut Xoshiro256StarStar,
        byzantine_ids: &[NodeId],
        injected: &[NodeId],
        view_size: usize,
        idx: &mut IndexScratch,
        out: &mut Vec<NodeId>,
    ) {
        let k = view_size.min(byzantine_ids.len());
        rng.sample_into(byzantine_ids, k, idx, out);
        if let Some((slot, id)) = Self::injected_slot(rng, injected, out.len()) {
            out[slot] = id;
        }
    }

    /// The sparse advertisement draw closing every answer of `len` IDs:
    /// one answer in four trades one slot for an injected ID.
    fn injected_slot(
        rng: &mut Xoshiro256StarStar,
        injected: &[NodeId],
        len: usize,
    ) -> Option<(usize, NodeId)> {
        if injected.is_empty() || len == 0 || !rng.chance(0.25) {
            return None;
        }
        let slot = rng.index(len);
        Some((slot, injected[rng.index(injected.len())]))
    }

    /// Advances the coordinator RNG exactly as
    /// [`Adversary::pull_answer_into`] would and builds nothing: for a
    /// caller that keeps the [`Adversary::rng_snapshot`] taken just before
    /// and lets [`Adversary::replay_pull_answer`] produce the IDs later.
    pub(crate) fn skip_pull_answer(&mut self) {
        let pool = self.byzantine_ids.len();
        let len = self.view_size.min(pool);
        self.rng.skip_sample(pool, len);
        Self::injected_slot(&mut self.rng, &self.injected, len);
    }

    /// Records the Byzantine share observed in a pull answer received
    /// from non-Byzantine node `from` (identification attack data
    /// collection; the engine computes the share in place from the
    /// responder's view).
    pub(crate) fn record_share(&mut self, from: NodeId, share: f64) {
        if let Some(slot) = self.observations.get_mut(from.index()) {
            *slot = Some(Observation { byz_share: share });
        }
    }

    fn next_force_id(&mut self) -> NodeId {
        let id = self.byzantine_ids[self.force_rotor % self.byzantine_ids.len()];
        self.force_rotor = self.force_rotor.wrapping_add(1);
        id
    }

    /// Picks `k` observation targets uniformly among `candidates` (the
    /// Byzantine nodes' own pull requests for the identification attack)
    /// into `out` (cleared first).
    pub(crate) fn observation_targets_into(
        &mut self,
        candidates: &[NodeId],
        k: usize,
        out: &mut Vec<NodeId>,
    ) {
        let Self {
            rng, idx_scratch, ..
        } = self;
        rng.sample_into(candidates, k, idx_scratch, out);
    }

    /// How far below the average observed Byzantine share a node must
    /// sit for [`Adversary::classify_trusted`] to flag it (paper §VI-A:
    /// 0.1 maximises the adversary's outcome).
    const IDENTIFICATION_THRESHOLD: f64 = 0.1;

    /// Runs the identification classifier (Section VI-A): computes the
    /// average observed Byzantine share, then flags every observed node
    /// whose share sits more than [`Self::IDENTIFICATION_THRESHOLD`]
    /// *below* that average. Returns the flagged node IDs.
    pub(crate) fn classify_trusted(&self) -> Vec<NodeId> {
        let observed: Vec<(usize, f64)> = self
            .observations
            .iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|o| (i, o.byz_share)))
            .collect();
        if observed.is_empty() {
            return Vec::new();
        }
        let avg = observed.iter().map(|&(_, s)| s).sum::<f64>() / observed.len() as f64;
        observed
            .into_iter()
            .filter(|&(_, share)| avg - share > Self::IDENTIFICATION_THRESHOLD)
            .map(|(i, _)| NodeId(i as u64))
            .collect()
    }

    fn random_byz_id(&mut self) -> NodeId {
        self.byzantine_ids[self.rng.index(self.byzantine_ids.len())]
    }
}

/// The candidate attacks the adaptive adversary's bandit arbitrates
/// between, per segment: the Brahms-optimal balanced spread, the
/// ranked-family coverage play, and a focused isolation attempt. The
/// targeted parameters match the `ablation_gamma` study's setting.
/// Against a ranked segment the first two are one play (see
/// [`Adversary::plan_attack`]).
const ADAPTIVE_STRATEGIES: [AttackStrategy; 3] = [
    AttackStrategy::Balanced,
    AttackStrategy::ForcePush,
    AttackStrategy::Targeted {
        victim_fraction: 0.1,
        focus: 0.75,
    },
];

/// One arm's running statistics in the [`AdaptiveCoordinator`].
#[derive(Debug, Clone, Copy, Default)]
struct ArmStats {
    /// Rounds this arm has been played.
    pulls: u64,
    /// Accumulated pollution yield (mean Byzantine view share of the
    /// attacked segment, one observation per played round).
    total_yield: f64,
}

/// The bandit scheduler behind `AdversaryMode::Adaptive`: a
/// deterministic UCB1 policy over abstract arms (the engine maps each
/// arm to one segment × attack-strategy pair), re-allocating the whole
/// lawful per-round push budget to the arm with the best upper
/// confidence bound on observed pollution yield.
///
/// Determinism: the coordinator consumes **no randomness** — arm choice
/// is a pure function of the recorded pull counts and yields, with ties
/// broken by lowest arm index. A scenario that never constructs the
/// coordinator therefore draws exactly the same RNG streams as before
/// it existed, keeping every static-adversary golden byte-identical.
#[derive(Debug, Clone)]
pub struct AdaptiveCoordinator {
    arms: Vec<ArmStats>,
    rounds: u64,
}

impl AdaptiveCoordinator {
    /// A coordinator over `arm_count` arms (must be positive).
    pub fn new(arm_count: usize) -> Self {
        // The engine builds it through `for_segments`: every population
        // has at least one segment, and each segment several strategies.
        assert!(arm_count > 0, "the bandit needs at least one arm");
        Self {
            arms: vec![ArmStats::default(); arm_count],
            rounds: 0,
        }
    }

    /// The coordinator of `AdversaryMode::Adaptive` over a population of
    /// `segments` segments: one arm per (segment, candidate strategy)
    /// pair.
    pub fn for_segments(segments: usize) -> Self {
        Self::new(segments * ADAPTIVE_STRATEGIES.len())
    }

    /// The play arm `arm` of [`AdaptiveCoordinator::for_segments`] stands
    /// for: the segment it aims the whole budget at, and the strategy.
    pub fn play(arm: usize) -> (usize, AttackStrategy) {
        let n = ADAPTIVE_STRATEGIES.len();
        (arm / n, ADAPTIVE_STRATEGIES[arm % n])
    }

    /// The arm to play this round: each arm once in index order first
    /// (the UCB1 warm-up), then the arm maximising
    /// `mean + sqrt(2·ln(t) / pulls)`; ties break to the lowest index.
    pub fn choose(&self) -> usize {
        if let Some(cold) = self.arms.iter().position(|a| a.pulls == 0) {
            return cold;
        }
        let t = self.rounds.max(1) as f64;
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, a) in self.arms.iter().enumerate() {
            let mean = a.total_yield / a.pulls as f64;
            let score = mean + (2.0 * t.ln() / a.pulls as f64).sqrt();
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// Records the observed pollution yield of playing `arm` this round
    /// (the engine feeds the attacked segment's mean Byzantine view
    /// share after the round's stats fold).
    pub fn reward(&mut self, arm: usize, observed_yield: f64) {
        let a = &mut self.arms[arm];
        a.pulls += 1;
        a.total_yield += observed_yield.clamp(0.0, 1.0);
        self.rounds += 1;
    }
}

/// The adversary's lawful per-round push `budget` split across the
/// population's segments of `lens` nodes, in segment order. A static
/// adversary gives each segment its share in proportion to its size,
/// rounded down, and the last segment the remainder; the adaptive
/// adversary's bandit aims the whole budget at segment `aimed` (the
/// segment [`AdaptiveCoordinator::play`] names, which must be one of the
/// `lens.len()` segments) and gives every other segment zero. Either way
/// the shares sum to `budget` exactly: the adversary never mints budget.
pub fn split_budget<I>(budget: usize, lens: I, aimed: Option<usize>) -> impl Iterator<Item = usize>
where
    I: ExactSizeIterator<Item = usize> + Clone,
{
    debug_assert!(aimed.is_none_or(|a| a < lens.len()));
    let total: usize = lens.clone().sum();
    let last = lens.len().saturating_sub(1);
    let mut assigned = 0;
    lens.enumerate().map(move |(si, len)| {
        let share = match aimed {
            Some(aimed) if si == aimed => budget,
            Some(_) => 0,
            None if si == last => budget - assigned,
            None => budget * len / total,
        };
        assigned += share;
        share
    })
}

/// The maximal runs of consecutive indices in `ids`, in order.
fn runs(ids: &[NodeId]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    for id in ids {
        match runs.last_mut() {
            Some(run) if run.end == id.index() => run.end += 1,
            _ => runs.push(id.index()..id.index() + 1),
        }
    }
    runs
}

/// One round's Byzantine pull answers, each regenerated from the
/// adversary-RNG snapshot taken when it was drawn: the
/// [`AnswerSource`] behind the [`Segment::Drawn`](raptee_brahms::Segment)
/// slots of the engine's pulled streams.
pub(crate) struct Replays<'a> {
    pub(crate) adversary: &'a Adversary,
    /// The snapshots, by slot.
    pub(crate) rngs: &'a [Xoshiro256StarStar],
}

impl AnswerSource for Replays<'_> {
    fn answer_len(&self) -> usize {
        self.adversary.answer_len()
    }

    fn id_runs(&self) -> &[Range<usize>] {
        &self.adversary.answer_runs
    }

    fn offset_of(&self, slot: u32, me: NodeId) -> Option<usize> {
        self.adversary
            .offset_in_answer(&self.rngs[slot as usize], me)
    }

    fn draw(&self, slot: u32, depth: usize, idx: &mut IndexScratch, out: &mut Vec<NodeId>) {
        let mut rng = self.rngs[slot as usize].clone();
        self.adversary.replay_pull_answer(&mut rng, depth, idx, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adversary(byz: u64, total: usize) -> Adversary {
        Adversary::new((0..byz).map(NodeId).collect(), total, 10, 7)
    }

    /// The plan one `_into` planner writes into a fresh buffer.
    fn planned(plan: impl FnOnce(&mut PushPlan)) -> PushPlan {
        let mut out = Vec::new();
        plan(&mut out);
        out
    }

    /// The targeted attack on the first `victim_fraction` of the victims.
    fn targeted(victim_fraction: f64, focus: f64) -> AttackStrategy {
        AttackStrategy::Targeted {
            victim_fraction,
            focus,
        }
    }

    /// One pull answer into a fresh buffer.
    fn answer(a: &mut Adversary) -> Vec<NodeId> {
        let mut out = Vec::new();
        a.pull_answer_into(&mut out);
        out
    }

    #[test]
    fn balanced_pushes_are_even_and_within_budget() {
        let mut a = adversary(20, 100);
        let victims: Vec<NodeId> = (20..100).map(NodeId).collect();
        let budget = 20 * 4; // B·α·l1 with α·l1 = 4
        let plan = planned(|p| a.plan_balanced_pushes_into(&victims, budget, p));
        assert_eq!(plan.len(), budget);
        // Per-victim counts differ by at most one.
        let mut counts = vec![0usize; 100];
        for &(v, id) in &plan {
            counts[v.index()] += 1;
            assert!(id.0 < 20, "advertised IDs are Byzantine");
        }
        let victim_counts: Vec<usize> = (20..100).map(|i| counts[i]).collect();
        let min = victim_counts.iter().min().unwrap();
        let max = victim_counts.iter().max().unwrap();
        assert!(max - min <= 1, "balanced: min {min}, max {max}");
    }

    #[test]
    fn push_plan_edge_cases() {
        let mut a = adversary(5, 10);
        assert!(planned(|p| a.plan_balanced_pushes_into(&[], 10, p)).is_empty());
        assert!(planned(|p| a.plan_balanced_pushes_into(&[NodeId(9)], 0, p)).is_empty());
        let mut empty = Adversary::new(vec![], 10, 10, 1);
        assert!(planned(|p| empty.plan_balanced_pushes_into(&[NodeId(9)], 10, p)).is_empty());
    }

    #[test]
    fn pull_answers_are_fully_byzantine_and_distinct() {
        let mut a = adversary(50, 100);
        let ans = answer(&mut a);
        assert_eq!(ans.len(), 10);
        assert!(ans.iter().all(|id| id.0 < 50));
        let mut dedup = ans.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn pull_answer_with_few_identities() {
        let mut a = adversary(3, 100);
        let ans = answer(&mut a);
        assert_eq!(ans.len(), 3, "cannot exceed the identity pool");
    }

    #[test]
    fn identification_flags_low_share_nodes() {
        let mut a = adversary(10, 100);
        // Regular honest nodes: 50 % Byzantine answers.
        for i in 20..40u64 {
            a.record_share(NodeId(i), 0.5);
        }
        // One trusted-looking node: 0 % Byzantine.
        a.record_share(NodeId(40), 0.0);
        let flagged = a.classify_trusted();
        assert_eq!(flagged, vec![NodeId(40)]);
        assert_eq!(a.observations.iter().flatten().count(), 21);
    }

    #[test]
    fn identification_silent_without_contrast() {
        // All nodes look alike → nobody exceeds the threshold.
        let mut a = adversary(10, 100);
        for i in 20..40u64 {
            a.record_share(NodeId(i), 1.0);
        }
        assert!(a.classify_trusted().is_empty());
        // And with no observations at all.
        let a2 = adversary(10, 100);
        assert!(a2.classify_trusted().is_empty());
    }

    #[test]
    fn observation_targets_sampled_from_candidates() {
        let mut a = adversary(10, 100);
        let candidates: Vec<NodeId> = (10..100).map(NodeId).collect();
        let mut targets = Vec::new();
        a.observation_targets_into(&candidates, 5, &mut targets);
        assert_eq!(targets.len(), 5);
        assert!(targets.iter().all(|t| t.0 >= 10));
    }

    #[test]
    fn targeted_plan_focuses_budget() {
        let mut a = adversary(20, 200);
        let all: Vec<NodeId> = (20..200).map(NodeId).collect();
        // 5 % of the 180 victims.
        let targets: Vec<NodeId> = (20..29).map(NodeId).collect();
        let budget = 80;
        let plan = planned(|p| a.plan_attack(targeted(0.05, 0.75), false, &all, budget, p));
        assert_eq!(plan.len(), budget);
        let focused = plan.iter().filter(|(v, _)| targets.contains(v)).count();
        // 75% of the budget goes to the 9 victims (they also receive a
        // trickle from the balanced remainder).
        assert!(
            focused >= 60,
            "focus must dominate victim traffic: {focused}/{budget}"
        );
    }

    #[test]
    fn targeted_plan_degenerates_to_balanced() {
        let mut a = adversary(20, 200);
        let all: Vec<NodeId> = (20..200).map(NodeId).collect();
        let plan = planned(|p| a.plan_attack(targeted(0.0, 0.9), false, &all, 40, p));
        assert_eq!(plan.len(), 40, "empty target set falls back to balanced");
        let mut b = adversary(20, 200);
        let two = 2.0 / all.len() as f64;
        assert!(planned(|p| b.plan_attack(targeted(two, 0.9), false, &all, 0, p)).is_empty());
    }

    #[test]
    fn injected_ids_advertised_sparsely() {
        let mut a = adversary(5, 100);
        a.advertise_injected([NodeId(90), NodeId(91)]);
        let mut injected_slots = 0usize;
        let mut total_slots = 0usize;
        for _ in 0..200 {
            let ans = answer(&mut a);
            assert!(ans.iter().all(|id| id.0 < 5 || id.0 >= 90));
            injected_slots += ans.iter().filter(|id| id.0 >= 90).count();
            total_slots += ans.len();
        }
        assert!(injected_slots > 0, "injected IDs must appear eventually");
        let share = injected_slots as f64 / total_slots as f64;
        assert!(
            share < 0.15,
            "advertisement must stay sparse, got {share:.3}"
        );
    }

    #[test]
    fn force_pushes_maximise_identity_coverage() {
        let mut a = adversary(20, 100);
        let victims: Vec<NodeId> = (20..100).map(NodeId).collect();
        let budget = 20 * 4;
        let plan =
            planned(|p| a.plan_attack(AttackStrategy::ForcePush, false, &victims, budget, p));
        assert_eq!(plan.len(), budget);
        // Every Byzantine identity is advertised (budget ≥ identities),
        // and the per-victim spread stays balanced.
        let mut advertised: Vec<u64> = plan.iter().map(|&(_, id)| id.0).collect();
        advertised.sort_unstable();
        advertised.dedup();
        assert_eq!(advertised.len(), 20, "full identity coverage");
        let mut counts = vec![0usize; 100];
        for &(v, id) in &plan {
            counts[v.index()] += 1;
            assert!(id.0 < 20, "advertised IDs are Byzantine");
        }
        let victim_counts: Vec<usize> = (20..100).map(|i| counts[i]).collect();
        let min = victim_counts.iter().min().unwrap();
        let max = victim_counts.iter().max().unwrap();
        assert!(max - min <= 1, "balanced: min {min}, max {max}");
    }

    #[test]
    fn force_push_rotor_advances_across_rounds() {
        // Each victim eventually sees every Byzantine identity, not the
        // same prefix over and over.
        let mut a = adversary(8, 20);
        let victims = [NodeId(10)];
        let mut seen: Vec<u64> = Vec::new();
        for _ in 0..4 {
            for (_, id) in
                planned(|p| a.plan_attack(AttackStrategy::ForcePush, false, &victims, 2, p))
            {
                seen.push(id.0);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "the rotor must cycle the identity pool");
    }

    #[test]
    fn targeted_force_plan_focuses_budget_with_distinct_ids() {
        let mut a = adversary(20, 200);
        let all: Vec<NodeId> = (20..200).map(NodeId).collect();
        let targets: Vec<NodeId> = (20..29).map(NodeId).collect();
        let budget = 80;
        let plan = planned(|p| a.plan_attack(targeted(0.05, 0.75), true, &all, budget, p));
        assert_eq!(plan.len(), budget);
        let focused = plan.iter().filter(|(v, _)| targets.contains(v)).count();
        assert!(
            focused >= 60,
            "focus must dominate victim traffic: {focused}/{budget}"
        );
        // The focused traffic still cycles distinct identities.
        let mut victim_ids: Vec<u64> = plan
            .iter()
            .filter(|(v, _)| targets.contains(v))
            .map(|&(_, id)| id.0)
            .collect();
        victim_ids.sort_unstable();
        victim_ids.dedup();
        assert_eq!(victim_ids.len(), 20, "victims see the full identity pool");
        // Degenerate forms.
        assert_eq!(
            planned(|p| a.plan_attack(targeted(0.0, 0.9), true, &all, 40, p)).len(),
            40
        );
        assert!(planned(|p| a.plan_attack(targeted(0.05, 0.9), true, &all, 0, p)).is_empty());
    }

    #[test]
    fn force_push_edge_cases() {
        let force = AttackStrategy::ForcePush;
        let mut a = adversary(5, 10);
        assert!(planned(|p| a.plan_attack(force, false, &[], 10, p)).is_empty());
        assert!(planned(|p| a.plan_attack(force, false, &[NodeId(9)], 0, p)).is_empty());
        let mut empty = Adversary::new(vec![], 10, 10, 1);
        assert!(planned(|p| empty.plan_attack(force, false, &[NodeId(9)], 10, p)).is_empty());
    }

    #[test]
    fn replayed_pull_answers_match_the_original() {
        let mut a = adversary(50, 100);
        a.advertise_injected([NodeId(90), NodeId(91)]);
        let (mut idx, mut out) = (IndexScratch::default(), Vec::new());
        for _ in 0..100 {
            let mut snap = a.rng_snapshot();
            let original = answer(&mut a);
            a.replay_pull_answer(&mut snap, usize::MAX, &mut idx, &mut out);
            assert_eq!(out, original, "replay must be bit-identical");
        }
    }

    #[test]
    fn skip_pull_answer_makes_the_draws_of_pull_answer_into() {
        // Fewer identities than the view (full shuffle), exactly as many,
        // and the usual partial draw; view size is 10.
        for byz in [3u64, 10, 50] {
            for inject in [false, true] {
                let mut generating = adversary(byz, 100);
                if inject {
                    generating.advertise_injected([NodeId(90), NodeId(91)]);
                }
                let mut skipping = generating.clone();
                let (mut idx, mut answer, mut replayed) =
                    (IndexScratch::default(), Vec::new(), Vec::new());
                for _ in 0..200 {
                    let mut snap = skipping.rng_snapshot();
                    generating.pull_answer_into(&mut answer);
                    skipping.skip_pull_answer();
                    assert_eq!(
                        skipping.rng_snapshot(),
                        generating.rng_snapshot(),
                        "byz={byz} inject={inject}"
                    );
                    skipping.replay_pull_answer(&mut snap, usize::MAX, &mut idx, &mut replayed);
                    assert_eq!(replayed, answer, "byz={byz} inject={inject}");
                }
            }
        }
    }

    #[test]
    fn force_push_is_the_balanced_play_against_a_ranked_segment() {
        // Two rounds each, so the force rotor's state shows in the second
        // plan; 83 pushes over 80 victims leave a remainder to draw.
        let victims: Vec<NodeId> = (20..100).map(NodeId).collect();
        let play = |attack, ranked| {
            let mut a = adversary(20, 100);
            let plans: Vec<PushPlan> = (0..2)
                .map(|_| planned(|p| a.plan_attack(attack, ranked, &victims, 83, p)))
                .collect();
            (plans, a.rng_snapshot())
        };
        let (balanced, force) = (AttackStrategy::Balanced, AttackStrategy::ForcePush);
        assert_eq!(
            play(balanced, true),
            play(force, true),
            "ranked: one plan, one RNG state"
        );
        let (brahms_balanced, brahms_force) = (play(balanced, false), play(force, false));
        assert_ne!(
            brahms_balanced.0, brahms_force.0,
            "Brahms: random vs rotor IDs"
        );
        assert_ne!(
            brahms_balanced.1, brahms_force.1,
            "Brahms: the random IDs cost draws"
        );
    }

    #[test]
    fn bandit_warms_up_in_index_order() {
        let mut c = AdaptiveCoordinator::new(3);
        for expect in 0..3 {
            let arm = c.choose();
            assert_eq!(arm, expect, "cold arms are explored in index order");
            c.reward(arm, 0.1 * arm as f64);
        }
    }

    #[test]
    fn bandit_converges_on_the_best_arm() {
        let mut c = AdaptiveCoordinator::new(4);
        // Arm 2 yields double everyone else.
        let yields = [0.1, 0.1, 0.3, 0.1];
        let mut played = [0u64; 4];
        for _ in 0..400 {
            let arm = c.choose();
            played[arm] += 1;
            c.reward(arm, yields[arm]);
        }
        assert!(
            played[2] > played[0] + played[1] + played[3],
            "UCB1 must concentrate on the best arm: {played:?}"
        );
        let best = &c.arms[2];
        assert!((best.total_yield / best.pulls as f64 - 0.3).abs() < 1e-9);
    }

    #[test]
    fn bandit_allocation_conserves_the_budget() {
        let lens = [40, 7, 13, 22, 1];
        let mut c = AdaptiveCoordinator::for_segments(lens.len());
        for round in 0..50 {
            let arm = c.choose();
            let aimed = AdaptiveCoordinator::play(arm).0;
            let split: Vec<usize> = split_budget(777, lens.iter().copied(), Some(aimed)).collect();
            assert_eq!(split.iter().sum::<usize>(), 777);
            assert_eq!(split.iter().filter(|&&b| b > 0).count(), 1);
            assert_eq!(
                split[aimed], 777,
                "the whole budget rides the chosen arm's segment"
            );
            c.reward(arm, (round % 3) as f64 * 0.1);
        }
        let split: Vec<usize> = split_budget(777, lens.iter().copied(), None).collect();
        assert_eq!(
            split,
            [374, 65, 121, 205, 12],
            "shares by size, remainder last"
        );
    }

    /// The bandit's segment must be one of the population's: an aim past
    /// the last segment would drop the whole budget, so debug builds
    /// refuse it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "aimed.is_none_or")]
    fn aiming_past_the_last_segment_is_refused() {
        let _ = split_budget(10, [3, 4].into_iter(), Some(2));
    }

    #[test]
    fn bandit_is_deterministic() {
        let play = || {
            let mut c = AdaptiveCoordinator::new(3);
            let mut trace = Vec::new();
            for round in 0..60u64 {
                let arm = c.choose();
                trace.push(arm);
                c.reward(arm, ((round * 7 + arm as u64) % 10) as f64 / 10.0);
            }
            trace
        };
        assert_eq!(play(), play(), "identical inputs replay identically");
    }
}
