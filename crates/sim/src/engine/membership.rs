//! Who is alive and who is trusted: churn (crash and restart through
//! each family's rejoin path), the trusted tier's attestation expiry and
//! renewal, the proactive trusted directory, and the recovery metrics.
//! Every draw here comes from a dedicated hash stream, so enabling any
//! of it cannot shift another stochastic stream.

use super::arena::{RoundStat, SMOOTHING_WINDOW};
use super::Simulation;
use crate::event::unit;
use crate::metrics::{RecoveryStats, STABILITY_SPREAD};
use crate::scenario::{RejoinPolicy, Scenario};
use raptee::provisioning;
use raptee_net::NodeId;
use raptee_tee::AttestationService;
use raptee_util::rng::mix64;

/// The attested platform of trusted actor `abs`: the one the constructor
/// certifies and provisions and the trust tier renews.
pub(super) fn platform(abs: usize) -> u64 {
    0x1000 + abs as u64
}

/// Trusted-tier degradation state (attestation certificates with a TTL):
/// expired trusted nodes fall back to untrusted behaviour until they
/// re-attest through the same service that provisioned them. Engine
/// level only — the nodes keep their group keys, but the engine's
/// authentication shortcut treats a stale certificate as failed
/// freshness, exactly as a verifier would.
pub(super) struct TrustTier {
    service: AttestationService,
    seed: u64,
    ttl: u64,
    /// Per-actor certificate expiry round (trusted actors only).
    expires: Vec<u64>,
    /// Per-actor re-attestation round for degraded trusted actors.
    heal_at: Vec<u64>,
    degraded: Vec<bool>,
}

impl TrustTier {
    /// The tier of a run with `Scenario::attest_ttl > 0` (`None`
    /// otherwise), taking over `service`, the attestation service that
    /// certified every trusted platform and provisioned its group key,
    /// so renewals verify.
    pub(super) fn new(
        scenario: &Scenario,
        trusted: &[bool],
        service: AttestationService,
    ) -> Option<Self> {
        if scenario.attest_ttl == 0 {
            return None;
        }
        let ttl = scenario.attest_ttl as u64;
        let seed = mix64(scenario.seed ^ 0x7255_7ED0_0DDA_7E5A);
        let mut expires = vec![0u64; trusted.len()];
        for (abs, expiry) in expires.iter_mut().enumerate() {
            if !trusted[abs] {
                continue;
            }
            // Staggered initial expiry in [ttl, 2·ttl): certificates
            // issued at different pre-run moments, so the tier never
            // expires as one synchronized cliff.
            *expiry = ttl + mix64(seed ^ mix64(abs as u64)) % ttl;
        }
        Some(Self {
            service,
            seed,
            ttl,
            expires,
            heal_at: vec![0; trusted.len()],
            degraded: vec![false; trusted.len()],
        })
    }

    /// Re-attests trusted actor `abs` at `round`: a fresh certificate
    /// clears its degradation. A revoked platform's renewal fails and
    /// changes nothing.
    fn renew(&mut self, abs: usize, round: u64) {
        if let Ok(cert) =
            provisioning::renew_attestation(&mut self.service, platform(abs), round, self.ttl)
        {
            self.degraded[abs] = false;
            self.expires[abs] = cert.expires_round;
        }
    }
}

/// Run-long recovery accounting, allocated only when dynamic churn or
/// attestation expiry is active (so the all-off configuration carries
/// zero extra state and [`crate::RunResult::recovery`] stays `None`).
#[derive(Default)]
pub(super) struct RecoveryState {
    /// The run's counters and trusted-live series;
    /// [`RecoveryState::into_stats`] only fills in the availability and
    /// the mean time to recover.
    stats: RecoveryStats,
    /// Sum of (recovery round − restart round) over recovered rejoins.
    ttr_sum: u64,
    live_node_rounds: u64,
    node_rounds: u64,
    /// Per-correct-node restart round while the rejoiner's smoothed
    /// pollution has not yet re-entered the population band.
    pending: Vec<Option<u32>>,
}

impl RecoveryState {
    /// The accounting of a run with dynamic churn or attestation expiry
    /// over `pop` correct nodes (`None` otherwise).
    pub(super) fn new(scenario: &Scenario, pop: usize) -> Option<Self> {
        (scenario.churn.dynamic() || scenario.attest_ttl > 0).then(|| Self {
            pending: vec![None; pop],
            ..Self::default()
        })
    }

    /// Books a crash: a node still converging after an earlier rejoin
    /// died before recovering.
    fn crash(&mut self, ci: usize) {
        self.stats.crashes += 1;
        self.pending[ci] = None;
    }

    /// Books a restart at `round`, the rejoiner's recovery reference.
    fn restart(&mut self, ci: usize, round: usize) {
        self.stats.restarts += 1;
        self.pending[ci] = Some(round as u32);
    }

    /// Books round `round`: `live` of `pop` correct nodes alive, the
    /// effective-trusted live fraction when a trusted tier exists, and
    /// time-to-recover for rejoiners whose smoothed pollution share has
    /// re-entered the population band (within [`STABILITY_SPREAD`] of
    /// `smoothed_mean`, after at least [`SMOOTHING_WINDOW`] post-restart
    /// rounds).
    fn book_round(
        &mut self,
        (live, pop): (usize, usize),
        trusted_live: Option<f64>,
        stats: &[RoundStat],
        smoothed_mean: f64,
        round: usize,
    ) {
        self.node_rounds += pop as u64;
        self.live_node_rounds += live as u64;
        self.stats.trusted_live_fraction.extend(trusted_live);
        for (pending, st) in self.pending.iter_mut().zip(stats) {
            let Some(restart) = *pending else {
                continue;
            };
            let since = round + 1 - restart as usize;
            if st.participated
                && st.has_share
                && since >= SMOOTHING_WINDOW
                && (st.smoothed - smoothed_mean).abs() <= STABILITY_SPREAD
            {
                self.stats.recovered += 1;
                self.ttr_sum += since as u64;
                *pending = None;
            }
        }
    }

    pub(super) fn into_stats(self) -> RecoveryStats {
        let recovered = self.stats.recovered;
        RecoveryStats {
            availability: if self.node_rounds == 0 {
                1.0
            } else {
                self.live_node_rounds as f64 / self.node_rounds as f64
            },
            mean_time_to_recover: (recovered > 0).then(|| self.ttr_sum as f64 / recovered as f64),
            ..self.stats
        }
    }
}

impl Simulation {
    /// Whether actor `abs` currently *behaves* trusted: provisioned into
    /// the trusted tier and (when attestation expiry is active) holding
    /// an unexpired certificate. Degraded nodes keep their group key but
    /// fail the freshness check every verifier applies, so their
    /// exchanges fall back to the untrusted path until they re-attest.
    #[inline]
    pub(super) fn effective_trusted(&self, abs: usize) -> bool {
        self.trusted[abs] && self.trust.as_ref().is_none_or(|t| !t.degraded[abs])
    }

    /// A hash draw of the churn stream for actor `abs` under `tag`
    /// (steady crashes, restarts, cold-rejoin seeds and bootstraps).
    fn churn_hash(&self, abs: usize, tag: u64) -> u64 {
        mix64(self.churn_seed ^ mix64(abs as u64) ^ tag)
    }

    /// Churn injection. The one-shot flavour crashes a batch of correct
    /// nodes at the configured round, drawing from `loss_rng` at exactly
    /// the historical point, so legacy one-shot scenarios replay
    /// bit-for-bit. The continuous flavour makes per-round hash-derived
    /// crash/restart draws (steady rates plus catastrophe bursts) —
    /// never shared-RNG draws, so enabling it cannot shift any other
    /// stochastic stream and the schedule is identical at any thread
    /// count. Crashed nodes stop planning, answering and pushing; pulls
    /// towards them time out.
    pub(super) fn churn(&mut self) {
        let total = self.total_actors();
        let churn = &self.scenario.churn;
        if churn.crash_fraction > 0.0 && self.round == churn.crash_round {
            let candidates: Vec<usize> =
                (self.byz_count..total).filter(|&i| self.alive[i]).collect();
            let k = (churn.crash_fraction * candidates.len() as f64).round() as usize;
            for idx in self.loss_rng.sample(&candidates, k) {
                self.crash_node(idx);
            }
        }
        let churn = &self.scenario.churn;
        if !churn.dynamic() {
            return;
        }
        let (crash_rate, restart_rate) = (churn.crash_rate_at(self.round), churn.restart_rate);
        let round_tag = (self.round as u64) << 1;
        for abs in self.byz_count..total {
            if self.alive[abs] {
                if crash_rate > 0.0 && unit(self.churn_hash(abs, mix64(round_tag))) < crash_rate {
                    self.crash_node(abs);
                }
            } else if restart_rate > 0.0
                && unit(self.churn_hash(abs, mix64(round_tag | 1))) < restart_rate
            {
                self.restart_node(abs);
            }
        }
    }

    /// Marks a correct actor dead and books the crash.
    fn crash_node(&mut self, abs: usize) {
        self.alive[abs] = false;
        if let Some(rec) = self.recovery.as_mut() {
            rec.crash(abs - self.byz_count);
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
        let ci = abs - self.byz_count;
        let (total, round) = (self.total_actors() as u64, self.round);
        let rejoin = self.scenario.churn.rejoin;
        let round_mix = mix64(round as u64);
        let cold_seed = self.churn_hash(abs, round_mix ^ 0xC01D);
        let bootstrap = |k: usize| -> Vec<NodeId> {
            (0..k as u64)
                .map(|j| NodeId(self.churn_hash(abs, round_mix ^ j) % total))
                .collect()
        };
        match rejoin {
            RejoinPolicy::Cold => {
                let boot = bootstrap(self.nodes[ci].view_size() + 2);
                self.nodes[ci].rejoin_cold(&boot, cold_seed);
            }
            RejoinPolicy::Warm => {
                let alive = &self.alive;
                let is_alive = |id: NodeId| alive.get(id.index()).copied().unwrap_or(false);
                self.nodes[ci].rejoin_warm(is_alive);
            }
        }
        // A trusted rejoiner re-attests on the spot (the trusted
        // re-handshake): fresh certificate, degradation cleared.
        if self.trusted[abs] {
            if let Some(tier) = self.trust.as_mut() {
                tier.renew(abs, round as u64);
            }
        }
        if let Some(rec) = self.recovery.as_mut() {
            rec.restart(ci, round);
        }
        // Audit bookkeeping: a cold rejoiner lost its sealed commitment
        // state, so its chain restarts from genesis; a warm rejoiner
        // re-commits on the existing chain. Either way the rejoin round
        // is the new detection-latency reference point.
        if let Some(aud) = self.audit.as_mut() {
            if matches!(rejoin, RejoinPolicy::Cold) {
                aud.restart_chain(abs);
            }
            aud.mark_active(abs, round as u32);
        }
    }

    /// Advances the trusted-tier degradation state machine: unexpired →
    /// degraded when the certificate lapses (with a 1–3 round re-attest
    /// delay), degraded → healed when the node re-attests successfully.
    /// Revoked platforms stay degraded forever. The heal delays are
    /// hash-derived and the attestation service is its own deterministic
    /// stream.
    pub(super) fn update_trust_tier(&mut self) {
        let Some(tier) = self.trust.as_mut() else {
            return;
        };
        let round = self.round as u64;
        for abs in self.byz_count..self.trusted.len() {
            if !self.trusted[abs] {
                continue;
            }
            if tier.degraded[abs] {
                if self.alive[abs] && round >= tier.heal_at[abs] {
                    tier.renew(abs, round);
                }
            } else if round >= tier.expires[abs] {
                tier.degraded[abs] = true;
                tier.heal_at[abs] =
                    round + 1 + mix64(tier.seed ^ mix64(abs as u64) ^ mix64(round)) % 3;
            }
        }
    }

    /// Rebuilds the proactive trusted directory when the refresh period
    /// elapses: live, effective-trusted, non-quarantined actors in
    /// index order. Never built (and the ranked directory exchanges
    /// never run) while `Scenario::trusted_directory_refresh` is 0.
    pub(super) fn refresh_trusted_directory(&mut self) {
        let period = self.scenario.trusted_directory_refresh;
        if period == 0 || !self.round.is_multiple_of(period) {
            return;
        }
        let mut dir = std::mem::take(&mut self.trusted_dir);
        dir.clear();
        for abs in self.byz_count..self.total_actors() {
            if self.alive[abs]
                && self.effective_trusted(abs)
                && !self.audit.as_ref().is_some_and(|a| a.is_quarantined(abs))
            {
                dir.push(abs as u32);
            }
        }
        self.trusted_dir = dir;
    }

    /// Books this round's recovery metrics (see
    /// [`RecoveryState::book_round`]).
    pub(super) fn update_recovery_metrics(&mut self) {
        let Some(mut rec) = self.recovery.take() else {
            return;
        };
        let (byz, total) = (self.byz_count, self.total_actors());
        let live = self.alive[byz..total].iter().filter(|&&a| a).count();
        let trusted_total = self.trusted.iter().filter(|&&t| t).count();
        let trusted_live = (trusted_total > 0).then(|| {
            let live = (byz..total)
                .filter(|&abs| self.alive[abs] && self.effective_trusted(abs))
                .count();
            live as f64 / trusted_total as f64
        });
        rec.book_round(
            (live, total - byz),
            trusted_live,
            &self.scratch.stats,
            self.tally.smoothed_mean,
            self.round,
        );
        self.recovery = Some(rec);
    }
}
