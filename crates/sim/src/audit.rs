//! Verifiable audit layer: merkle-committed views, challenger replay,
//! conviction and quarantine (PR 9).
//!
//! Every trusted-tier node commits its view each round as a chained
//! [`ViewCommitment`] (see `raptee_tee::merkle`); the commitments ride
//! the attested exchange path and expire with the node's attestation
//! certificate. A [`Challenger`], driven by the hash-deterministic
//! [`Beacon`], samples `audit_budget` nodes per round, demands a merkle
//! opening of one sampled view slot, replays it against the recorded
//! commitment chain and issues a [`Verdict`]:
//!
//! * [`Verdict::Cleared`] — the opening verifies against the chained
//!   commitment; any standing suspicion is lifted.
//! * [`Verdict::Suspected`] — the opening is missing or inadmissible
//!   (crashed, churned-out, partitioned or certificate-expired target).
//!   Suspicion is *never* escalated to a conviction; it decays after the
//!   configured grace window, so transiently unavailable correct nodes
//!   are tolerated.
//! * [`Verdict::Convicted`] — the opening is *inconsistent* with the
//!   chained commitment (equivocation): cryptographic proof of
//!   misbehaviour. Convicted nodes enter quarantine and are purged from
//!   honest views and trusted directories by the engine.
//!
//! Convictions require proof; unavailability only ever suspects. That
//! asymmetry is what makes `correct_nodes_are_never_convicted` a
//! structural guarantee rather than a tuning outcome.
//!
//! The beacon is a dedicated `mix64` stream (salted with
//! [`AUDIT_BEACON_SALT`]) that no other subsystem reads, and the
//! challenger only exists when `Scenario::audit` is set — so audit-off
//! runs never draw from it and every pre-existing golden replays
//! byte-for-byte.

use crate::metrics::AuditStats;
use crate::scenario::AuditConfig;
use raptee_crypto::sha256::Digest;
use raptee_net::NodeId;
use raptee_tee::merkle::{leaf_hash, verify, MerkleTree, ViewCommitment};
use raptee_util::rng::mix64;

/// Salt of the audit randomness beacon — a dedicated hash stream so the
/// challenger's draws never perturb protocol, churn, trust-tier or
/// network randomness.
pub(crate) const AUDIT_BEACON_SALT: u64 = 0xA0D1_7BEA_C05A_17ED;

/// Hash-deterministic randomness beacon: a counter-mode `mix64` stream.
/// Every consumer sees the same sequence for the same scenario seed, at
/// any thread count, and [`Beacon::draws`] exposes how many values were
/// ever taken (zero when audits are off).
#[derive(Debug, Clone)]
pub(crate) struct Beacon {
    seed: u64,
    ctr: u64,
}

impl Beacon {
    /// Derives the beacon for a scenario `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Self {
            seed: mix64(seed ^ AUDIT_BEACON_SALT),
            ctr: 0,
        }
    }

    /// The next beacon value.
    pub(crate) fn next_value(&mut self) -> u64 {
        self.ctr += 1;
        mix64(self.seed ^ mix64(self.ctr))
    }

    /// The next beacon value reduced below `n` (`n > 0`).
    pub(crate) fn next_below(&mut self, n: u64) -> u64 {
        // Its callers pass the population size (`Scenario::validate`
        // demands n ≥ 2), `tree.len().max(1)` and a four-leaf tree's
        // length.
        debug_assert!(n > 0);
        self.next_value() % n
    }

    /// Total values drawn so far.
    pub(crate) fn draws(&self) -> u64 {
        self.ctr
    }
}

/// The challenger's ruling on one audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Opening verified against the chained commitment.
    Cleared,
    /// Opening missing or inadmissible — tolerated, decays after the
    /// grace window.
    Suspected,
    /// Opening inconsistent with the chained commitment — proof of
    /// misbehaviour; the node is quarantined.
    Convicted,
}

/// What an audited node produced in answer to a challenge.
#[derive(Debug, Clone, Copy)]
pub enum AuditResponse<'a> {
    /// A live honest node opens its current committed view.
    Opening {
        /// The view whose commitment the node answers for.
        view: &'a [NodeId],
    },
    /// No answer: the target is dead, churned out, partitioned away or
    /// its attestation certificate expired (the commitment would be
    /// inadmissible — see `raptee_tee::Certificate::valid_at`).
    Unavailable,
    /// A Byzantine node answers, but its opening cannot be consistent
    /// with the recorded traffic *and* the chained commitment at once —
    /// the replay exposes the equivocation.
    Equivocation,
}

/// Per-node audit bookkeeping plus the run-level [`AuditStats`] it
/// counts into.
#[derive(Debug, Clone)]
pub struct Challenger {
    cfg: AuditConfig,
    beacon: Beacon,
    /// Latest chained commitment per actor (`None` before the first
    /// commit or right after a cold rejoin restarted the chain).
    chains: Vec<Option<ViewCommitment>>,
    /// Round a standing suspicion was raised in, per actor.
    suspected_at: Vec<Option<u32>>,
    quarantined: Vec<bool>,
    /// Round each actor first became active (for detection latency).
    first_active: Vec<u32>,
    byz_count: usize,
    /// The run's counters; [`Challenger::into_stats`] only fills in the
    /// mean detection latency.
    stats: AuditStats,
    /// Sum of detection latencies over the detected Byzantine nodes.
    latency_sum: u64,
}

impl Challenger {
    /// A challenger over `total` actors of which the prefix
    /// `[0, byz_count)` is Byzantine, drawing from the beacon derived
    /// from `seed`.
    pub fn new(cfg: AuditConfig, seed: u64, total: usize, byz_count: usize) -> Self {
        Self {
            cfg,
            beacon: Beacon::new(seed),
            chains: vec![None; total],
            suspected_at: vec![None; total],
            quarantined: vec![false; total],
            first_active: vec![0; total],
            byz_count,
            stats: AuditStats::default(),
            latency_sum: 0,
        }
    }

    /// Beacon draws consumed so far (zero iff the challenger never ran).
    pub(crate) fn beacon_draws(&self) -> u64 {
        self.beacon.draws()
    }

    /// Whether `abs` has been convicted and quarantined.
    pub fn is_quarantined(&self, abs: usize) -> bool {
        self.quarantined[abs]
    }

    /// Records that `abs` (re)joined at `round` — the reference point
    /// for its detection latency.
    pub(crate) fn mark_active(&mut self, abs: usize, round: u32) {
        self.first_active[abs] = round;
    }

    /// Records `abs`'s chained commitment of `view` at `round`. The
    /// merkle root is over the view's IDs in slot order; the commitment
    /// chains onto the previous one (genesis after boot or a cold
    /// rejoin).
    pub fn commit_view(&mut self, round: u32, abs: usize, view: &[NodeId]) {
        let root = view_tree(view).root();
        let commitment = match &self.chains[abs] {
            None => ViewCommitment::genesis(round as u64, root),
            Some(prev) => ViewCommitment::chained(prev, round as u64, root),
        };
        self.chains[abs] = Some(commitment);
        self.stats.commitments_recorded += 1;
    }

    /// A cold rejoin restarts `abs`'s chain from genesis (the sealed
    /// state is gone; the next commitment uses the genesis `prev`).
    /// Warm rejoins keep the chain and simply re-commit.
    pub(crate) fn restart_chain(&mut self, abs: usize) {
        if self.chains[abs].take().is_some() {
            self.stats.chain_restarts += 1;
        }
    }

    /// Draws this round's audit targets from the beacon: `budget`
    /// draws over `[0, total)`, skipping already-quarantined nodes
    /// (their draw is still consumed, keeping the stream aligned).
    pub(crate) fn draw_targets(&mut self, total: usize, out: &mut Vec<usize>) {
        out.clear();
        for _ in 0..self.cfg.budget {
            let t = self.beacon.next_below(total as u64) as usize;
            if !self.quarantined[t] {
                out.push(t);
            }
        }
    }

    /// Audits `target` at `round` given its response, and returns the
    /// verdict. Convictions happen *only* on proof inconsistency —
    /// unavailability suspects at worst.
    pub fn audit(&mut self, round: u32, target: usize, response: AuditResponse<'_>) -> Verdict {
        self.stats.audits_issued += 1;
        let consistent = match response {
            AuditResponse::Unavailable => {
                if self.suspected_at[target].is_none() {
                    self.suspected_at[target] = Some(round);
                    self.stats.suspected += 1;
                }
                return Verdict::Suspected;
            }
            AuditResponse::Opening { view } => {
                let tree = view_tree(view);
                let slot = self.beacon.next_below(tree.len().max(1) as u64) as usize;
                let proof = tree.open(slot);
                // An empty view commits to the empty pad, which is its
                // own root; otherwise open the drawn slot.
                let opened = if view.is_empty() {
                    tree.root()
                } else {
                    leaf(view[slot])
                };
                match &self.chains[target] {
                    // The opening must verify against the *committed*
                    // root of the chain head.
                    Some(head) => head.root == tree.root() && verify(&head.root, &opened, &proof),
                    // No commitment on file (untrusted node, or chain
                    // restarted this very round): verify the opening
                    // self-consistently.
                    None => verify(&tree.root(), &opened, &proof),
                }
            }
            AuditResponse::Equivocation => {
                // Replay: the node's recorded traffic (what it actually
                // advertised on the wire) differs from anything it
                // committed, so whichever opening it supplies fails the
                // cross-check. Model the supplied opening as the
                // recorded-traffic view and verify it against the
                // chained commitment.
                let recorded: Vec<NodeId> = (0..4)
                    .map(|i| NodeId(mix64(target as u64 ^ mix64(u64::from(round)) ^ i)))
                    .collect();
                let tree = view_tree(&recorded);
                let slot = self.beacon.next_below(tree.len() as u64) as usize;
                let opened = leaf(recorded[slot]);
                let verified = match &self.chains[target] {
                    Some(head) => {
                        head.root == tree.root() && verify(&head.root, &opened, &tree.open(slot))
                    }
                    // Exchanged on the attested path without ever
                    // committing — itself a protocol violation.
                    None => false,
                };
                // `recorded` holds four 64-bit hashes of (target, round),
                // never IDs of a population bounded by `u32::MAX`, so no
                // committed view has its root short of a SHA-256
                // collision.
                debug_assert!(!verified, "an equivocating opening must fail replay");
                verified
            }
        };
        self.stats.audits_answered += 1;
        // An answer lifts any standing suspicion, whatever it proves.
        self.suspected_at[target] = None;
        if consistent {
            self.stats.cleared += 1;
            Verdict::Cleared
        } else {
            self.convict(round, target)
        }
    }

    fn convict(&mut self, round: u32, target: usize) -> Verdict {
        // The per-round target batch is drawn up-front, so the same
        // target can be audited twice in one round; only the first
        // conviction counts (quarantine is idempotent).
        if !self.quarantined[target] {
            self.quarantined[target] = true;
            self.stats.convictions += 1;
            if target < self.byz_count {
                self.stats.detected_byzantine += 1;
                self.latency_sum += u64::from(round + 1 - self.first_active[target]);
            } else {
                self.stats.false_accusations += 1;
            }
        }
        Verdict::Convicted
    }

    /// Closes `round`: standing suspicions older than the grace window
    /// decay (the target was only unavailable, not provably faulty) and
    /// the quarantine population — the convictions so far, as each one
    /// quarantines a node not yet quarantined — is appended to the
    /// per-round series.
    pub(crate) fn end_round(&mut self, round: u32) {
        let grace = self.cfg.grace as u32;
        for s in self.suspected_at.iter_mut() {
            if let Some(raised) = *s {
                if round >= raised + grace {
                    *s = None;
                }
            }
        }
        let quarantined = u32::try_from(self.stats.convictions)
            .expect("at most one conviction per actor, and actors are u32-indexed");
        self.stats.quarantine_series.push(quarantined);
    }

    /// The run-level [`AuditStats`], with the mean detection latency
    /// filled in.
    pub(crate) fn into_stats(self) -> AuditStats {
        let detected = self.stats.detected_byzantine;
        AuditStats {
            mean_detection_latency: (detected > 0)
                .then(|| self.latency_sum as f64 / detected as f64),
            ..self.stats
        }
    }
}

/// The leaf of view slot `id`: the ID's little-endian bytes, leaf-hashed.
fn leaf(id: NodeId) -> Digest {
    leaf_hash(&id.0.to_le_bytes())
}

/// The merkle tree over a view: one [`leaf`] per slot, in slot order.
/// Its root is what [`Challenger::commit_view`] chains, and the audits
/// open its leaves.
fn view_tree(view: &[NodeId]) -> MerkleTree {
    view.iter().map(|&id| leaf(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AuditConfig;

    fn cfg(budget: usize, grace: usize) -> AuditConfig {
        AuditConfig { budget, grace }
    }

    fn view(ids: &[u64]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn beacon_is_deterministic_and_counts_draws() {
        let mut a = Beacon::new(42);
        let mut b = Beacon::new(42);
        let seq_a: Vec<u64> = (0..8).map(|_| a.next_value()).collect();
        let seq_b: Vec<u64> = (0..8).map(|_| b.next_value()).collect();
        assert_eq!(seq_a, seq_b);
        assert_eq!(a.draws(), 8);
        let mut c = Beacon::new(43);
        assert_ne!(seq_a[0], c.next_value(), "distinct seeds, distinct streams");
    }

    #[test]
    fn honest_opening_clears_and_lifts_suspicion() {
        let mut ch = Challenger::new(cfg(1, 5), 7, 10, 2);
        let v = view(&[3, 4, 5, 6]);
        ch.commit_view(0, 5, &v);
        // First the node is unavailable → suspected.
        assert_eq!(
            ch.audit(1, 5, AuditResponse::Unavailable),
            Verdict::Suspected
        );
        // Then it answers honestly → cleared, suspicion lifted.
        assert_eq!(
            ch.audit(2, 5, AuditResponse::Opening { view: &v }),
            Verdict::Cleared
        );
        let stats = ch.into_stats();
        assert_eq!(stats.cleared, 1);
        assert_eq!(stats.suspected, 1);
        assert_eq!(stats.convictions, 0);
        assert_eq!(stats.false_accusations, 0);
    }

    #[test]
    fn tampered_opening_is_convicted() {
        let mut ch = Challenger::new(cfg(1, 5), 7, 10, 2);
        let committed = view(&[3, 4, 5, 6]);
        ch.commit_view(0, 1, &committed);
        // The node answers with a view that differs from its commitment.
        let tampered = view(&[3, 4, 99, 6]);
        assert_eq!(
            ch.audit(1, 1, AuditResponse::Opening { view: &tampered }),
            Verdict::Convicted
        );
        assert!(ch.is_quarantined(1));
        let stats = ch.into_stats();
        assert_eq!(stats.convictions, 1);
        assert_eq!(stats.detected_byzantine, 1);
        assert_eq!(stats.false_accusations, 0);
        assert_eq!(stats.mean_detection_latency, Some(2.0));
    }

    #[test]
    fn equivocation_is_convicted_and_latency_measured() {
        let mut ch = Challenger::new(cfg(1, 5), 7, 10, 3);
        ch.mark_active(2, 4);
        ch.commit_view(4, 2, &view(&[1, 2, 3]));
        assert_eq!(
            ch.audit(9, 2, AuditResponse::Equivocation),
            Verdict::Convicted
        );
        let stats = ch.into_stats();
        assert_eq!(stats.detected_byzantine, 1);
        // Active since round 4, convicted in round 9 → latency 6 rounds.
        assert_eq!(stats.mean_detection_latency, Some(6.0));
    }

    #[test]
    fn suspicion_decays_after_grace_window() {
        let mut ch = Challenger::new(cfg(1, 3), 7, 4, 0);
        assert_eq!(
            ch.audit(10, 0, AuditResponse::Unavailable),
            Verdict::Suspected
        );
        ch.end_round(10);
        ch.end_round(11);
        // Still within grace at round 12; decays at round 13.
        ch.end_round(12);
        assert!(ch.suspected_at[0].is_some(), "grace window still open");
        ch.end_round(13);
        assert!(ch.suspected_at[0].is_none(), "suspicion must decay");
        // A second unavailability after decay counts as a new suspicion.
        assert_eq!(
            ch.audit(14, 0, AuditResponse::Unavailable),
            Verdict::Suspected
        );
        assert_eq!(ch.into_stats().suspected, 2);
    }

    #[test]
    fn unavailability_never_convicts() {
        let mut ch = Challenger::new(cfg(2, 2), 7, 6, 0);
        for round in 0..50 {
            ch.audit(round, 3, AuditResponse::Unavailable);
            ch.end_round(round);
        }
        let stats = ch.into_stats();
        assert_eq!(stats.convictions, 0);
        assert_eq!(stats.false_accusations, 0);
    }

    #[test]
    fn draw_targets_skips_quarantined_but_consumes_draws() {
        let mut ch = Challenger::new(cfg(4, 5), 7, 8, 8);
        let mut a = Vec::new();
        ch.draw_targets(8, &mut a);
        let draws_before = ch.beacon_draws();
        // Convict everyone, then draw again: the stream advances by the
        // full budget even though every target is filtered out.
        for t in 0..8 {
            ch.audit(0, t, AuditResponse::Equivocation);
        }
        let mut b = Vec::new();
        ch.draw_targets(8, &mut b);
        assert!(b.is_empty());
        assert_eq!(ch.beacon_draws(), draws_before + 8 + 4);
    }

    #[test]
    fn cold_rejoin_restarts_chain_warm_keeps_it() {
        let mut ch = Challenger::new(cfg(1, 5), 7, 4, 0);
        let v = view(&[1, 2, 3]);
        ch.commit_view(0, 2, &v);
        ch.commit_view(1, 2, &v);
        // Warm rejoin: chain untouched, next commit still chains on.
        ch.commit_view(2, 2, &v);
        assert_eq!(ch.into_stats().chain_restarts, 0);

        let mut ch = Challenger::new(cfg(1, 5), 7, 4, 0);
        ch.commit_view(0, 2, &v);
        ch.restart_chain(2);
        ch.commit_view(5, 2, &v);
        // Restarting an empty chain is a no-op.
        ch.restart_chain(3);
        let stats = ch.into_stats();
        assert_eq!(stats.chain_restarts, 1);
        assert_eq!(stats.commitments_recorded, 2);
    }

    #[test]
    fn quarantine_series_tracks_convictions() {
        let mut ch = Challenger::new(cfg(1, 5), 7, 6, 6);
        ch.end_round(0);
        ch.audit(1, 0, AuditResponse::Equivocation);
        ch.end_round(1);
        ch.audit(2, 1, AuditResponse::Equivocation);
        // Re-auditing an already-convicted node (possible within one
        // round's pre-drawn batch) still answers Convicted but counts
        // nothing twice.
        assert_eq!(
            ch.audit(2, 1, AuditResponse::Equivocation),
            Verdict::Convicted
        );
        ch.end_round(2);
        let stats = ch.into_stats();
        assert_eq!(stats.quarantine_series, vec![0, 1, 2]);
        assert_eq!(stats.convictions, 2);
        assert_eq!(stats.detected_byzantine, 2);
    }
}
