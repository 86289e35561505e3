//! The RAPTEE node: modified Brahms + mutual auth + trusted comms +
//! Byzantine eviction.
//!
//! All nodes — honest untrusted ones and trusted ones alike — run this
//! wrapper; the only behavioural differences are gated on holding the
//! attested group key, never on message shapes, so an eavesdropper cannot
//! tell the two apart (Section IV-C of the paper explains why trusted
//! nodes must keep issuing pull requests like everyone else).
//!
//! Per round, the caller (simulation engine, test, or example):
//!
//! 1. [`RapteeNode::plan_round`] — Brahms targets; resets contact counters.
//! 2. delivers pushes via [`RapteeNode::record_push`];
//! 3. for each planned pull, runs the handshake
//!    ([`RapteeNode::run_handshake`] or the message-level `auth_*`
//!    methods) and then either
//!    [`RapteeNode::trusted_swap`] (both trusted) or
//!    [`RapteeNode::record_untrusted_pull`] (everything else);
//! 4. [`RapteeNode::finish_round`] — eviction, then the Brahms round
//!    finalisation (attack blocking, view renewal, sampling).

use crate::eviction::EvictionPolicy;
use raptee_brahms::{
    AnswerSource, BrahmsConfig, BrahmsNode, FinishScratch, Rope, RoundPlan, RoundReport, Segment,
    SliceRope,
};
use raptee_crypto::auth::{
    AuthChallenge, AuthConfirm, AuthOutcome, AuthResponse, Authenticator, InitiatorPending,
    ResponderPending, NONCE_LEN,
};
use raptee_crypto::SecretKey;
use raptee_gossip::exchange::{integrate, prepare_buffer};
use raptee_gossip::view::Directory;
use raptee_net::NodeId;

/// Full RAPTEE node configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RapteeConfig {
    /// The underlying Brahms parameters.
    pub brahms: BrahmsConfig,
    /// The Byzantine-eviction policy applied by trusted nodes.
    pub eviction: EvictionPolicy,
}

impl RapteeConfig {
    /// Paper-default Brahms parameters with the adaptive eviction policy.
    pub fn paper_defaults(view_size: usize) -> Self {
        Self {
            brahms: BrahmsConfig::paper_defaults(view_size, view_size),
            eviction: EvictionPolicy::adaptive(),
        }
    }
}

/// Result of finalising a RAPTEE round.
#[derive(Debug, Clone, PartialEq)]
pub struct RapteeRoundOutcome {
    /// The Brahms-level report (renewal, flood detection, counts).
    pub report: RoundReport,
    /// The eviction rate applied this round (0 for untrusted nodes).
    pub eviction_rate: f64,
    /// How many pulled IDs were evicted.
    pub evicted: usize,
    /// Number of pulled IDs actually admitted to Brahms (post-eviction,
    /// plus trusted-swap IDs). A count rather than the ID list: the
    /// round loop streams the survivors straight into Brahms instead of
    /// materialising them (the engine's discovery metric reads the view).
    pub admitted_pulled: usize,
}

/// The pull answers a [`RapteeNode`] records during a round, until
/// [`RapteeNode::finish_round`] or
/// [`RapteeNode::finish_round_streamed`] consumes them. Only a trusted
/// exchange or the buffered standalone path records anything — the
/// engine streams every untrusted answer past the node — so most nodes
/// of a large run never allocate this box.
#[derive(Debug, Clone, Default)]
struct Pulled {
    /// Answers from peers that did not authenticate as trusted: subject
    /// to eviction.
    untrusted: Vec<NodeId>,
    /// IDs from trusted swaps and trusted answers: exempt from eviction.
    trusted: Vec<NodeId>,
}

/// A RAPTEE node.
///
/// See the crate-level docs for a usage sketch and
/// [`crate::provisioning`] for how trusted nodes obtain the group key.
#[derive(Debug, Clone)]
pub struct RapteeNode {
    /// The Brahms layer, which holds the `BrahmsConfig` half of the
    /// node's [`RapteeConfig`].
    brahms: BrahmsNode,
    /// The other half: the Byzantine-eviction policy.
    eviction: EvictionPolicy,
    authenticator: Authenticator,
    trusted: bool,
    /// Directory of peers that have mutually authenticated as trusted —
    /// the "mutual trusted capacity" trusted nodes learn (paper
    /// Section III-A). The one structure whose entries age: partner
    /// selection for the proactive trusted exchange probes the oldest
    /// entry (round-robin), and entries past [`Self::DIRECTORY_TTL`]
    /// expire. Never revealed to untrusted parties.
    directory: Directory,
    /// This round's recorded pull answers, boxed on first use (see
    /// [`Pulled`]).
    pulled: Option<Box<Pulled>>,
    contacts_total: u32,
    contacts_trusted: u32,
}

impl RapteeNode {
    /// Creates an *untrusted* node: it generates its own random secret
    /// key, so its handshakes never conclude `Trusted` with anyone.
    ///
    /// # Panics
    ///
    /// Panics with the broken rule when [`BrahmsConfig::validate`] or
    /// [`EvictionPolicy::validate`] rejects `config`; call them first to
    /// get the rule as a value.
    pub fn new_untrusted(
        id: NodeId,
        config: RapteeConfig,
        bootstrap: &[NodeId],
        seed: u64,
    ) -> Self {
        // Derive the key from both the node seed and the ID through the
        // keyed PRF; unique per node, unrelated to the group key.
        let key = SecretKey::from_seed(seed).derive("raptee-untrusted-node-key", &id.to_bytes());
        Self::with_key(id, config, bootstrap, seed, key, false)
    }

    /// Creates a *trusted* node holding the attested `group_key` (see
    /// [`crate::provisioning::provision_trusted_key`]).
    ///
    /// # Panics
    ///
    /// Panics with the broken rule when [`BrahmsConfig::validate`] or
    /// [`EvictionPolicy::validate`] rejects `config`; call them first to
    /// get the rule as a value.
    pub fn new_trusted(
        id: NodeId,
        config: RapteeConfig,
        bootstrap: &[NodeId],
        seed: u64,
        group_key: SecretKey,
    ) -> Self {
        Self::with_key(id, config, bootstrap, seed, group_key, true)
    }

    /// The constructor both roles share. [`BrahmsNode::new`] checks the
    /// Brahms half of the config, and the eviction half is checked here,
    /// so the panic names the first broken rule, Brahms first.
    fn with_key(
        id: NodeId,
        config: RapteeConfig,
        bootstrap: &[NodeId],
        seed: u64,
        key: SecretKey,
        trusted: bool,
    ) -> Self {
        let brahms = BrahmsNode::new(id, config.brahms, bootstrap, seed);
        if let Err(rule) = config.eviction.validate() {
            panic!("{rule}");
        }
        Self {
            brahms,
            directory: Directory::empty(id, config.brahms.view_size),
            eviction: config.eviction,
            authenticator: Authenticator::new(key),
            trusted,
            pulled: None,
            contacts_total: 0,
            contacts_trusted: 0,
        }
    }

    /// Cold rejoin after a crash–restart: the Brahms layer comes back
    /// from a fresh bootstrap ([`raptee_brahms::BrahmsNode::rejoin_cold`]) and the
    /// trusted directory is emptied — authenticated trust is a live
    /// property, so a returning node must re-handshake its trusted
    /// peers from scratch (the re-attested enclave keeps the sealed
    /// group key, which is why `trusted` itself survives the restart —
    /// see the sealing test in [`crate::provisioning`]).
    pub fn rejoin_cold(&mut self, bootstrap: &[NodeId], seed: u64) {
        self.brahms.rejoin_cold(bootstrap, seed);
        self.directory = Directory::empty(self.id(), self.brahms.config().view_size);
        self.clear_pulled();
        self.contacts_total = 0;
        self.contacts_trusted = 0;
    }

    /// Warm rejoin after a crash–restart: Brahms probe-revalidates the
    /// persisted view and samples, and directory entries whose trusted
    /// peer died while this node was down are purged — the trusted
    /// re-handshake then happens opportunistically against the
    /// survivors. Returns `(view entries purged, samplers reset)`.
    pub fn rejoin_warm<F: FnMut(NodeId) -> bool>(&mut self, mut is_alive: F) -> (usize, usize) {
        self.directory.retain(|e| is_alive(e.id));
        self.clear_pulled();
        self.brahms.rejoin_warm(is_alive)
    }

    /// Forgets this round's recorded pull answers.
    fn clear_pulled(&mut self) {
        if let Some(pulled) = &mut self.pulled {
            pulled.untrusted.clear();
            pulled.trusted.clear();
        }
    }

    /// The recorded pull answers, boxed on first use.
    fn pulled_mut(&mut self) -> &mut Pulled {
        self.pulled.get_or_insert_with(Box::default)
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.brahms.id()
    }

    /// Whether this node runs inside an (attested, simulated) enclave.
    pub fn is_trusted(&self) -> bool {
        self.trusted
    }

    /// The underlying Brahms node (views, samplers, counters).
    pub fn brahms(&self) -> &BrahmsNode {
        &self.brahms
    }

    /// Mutable access to the underlying Brahms node — for sampler
    /// validation and tests.
    pub fn brahms_mut(&mut self) -> &mut BrahmsNode {
        &mut self.brahms
    }

    /// How long a directory entry survives without being refreshed by an
    /// *opportunistic* (Brahms-pull-driven) authentication. Ties the
    /// trusted overlay's persistence to the presence of trusted IDs in
    /// dynamic views: under a 100 % eviction rate trusted IDs spread
    /// poorly, opportunistic meetings dry up, and the directory drains —
    /// the slowdown Fig. 8 of the paper attributes to that policy.
    pub(crate) const DIRECTORY_TTL: u32 = 30;

    /// Starts a round: resets the per-round contact accounting, ages the
    /// trusted directory (expiring stale entries), and plans the Brahms
    /// pushes/pulls.
    pub fn plan_round(&mut self) -> RoundPlan {
        let mut plan = RoundPlan::default();
        self.plan_round_into(&mut plan);
        plan
    }

    /// [`RapteeNode::plan_round`] into a caller-owned plan (cleared and
    /// refilled) — the engine reuses one plan per worker thread.
    pub fn plan_round_into(&mut self, plan: &mut RoundPlan) {
        self.contacts_total = 0;
        self.contacts_trusted = 0;
        self.directory.increase_age();
        self.directory.expire(Self::DIRECTORY_TTL);
        self.brahms.plan_round_into(plan);
    }

    /// The peer this trusted node proactively initiates its trusted
    /// exchange with this round: the *oldest* directory entry —
    /// round-robin probing, criterion (1) of the framework instantiation.
    /// `None` for untrusted nodes or before any trusted peer was met.
    pub fn trusted_partner(&self) -> Option<NodeId> {
        if !self.trusted {
            return None;
        }
        self.directory.oldest().map(|e| e.id)
    }

    /// The directory of known trusted peers (read-only; exposed for
    /// metrics and tests).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// Records that `peer` mutually authenticated as trusted. Resets the
    /// entry's age when already known (the probe succeeded), which is
    /// what keeps the oldest-first selection cycling.
    pub fn note_trusted_peer(&mut self, peer: NodeId) {
        if self.directory.contains(peer) {
            self.directory.remove(peer);
        }
        self.directory.insert_fresh(peer);
    }

    /// Removes an unresponsive directory entry (crashed trusted peer).
    pub fn forget_trusted_peer(&mut self, peer: NodeId) {
        self.directory.remove(peer);
    }

    /// Records an incoming push.
    pub fn record_push(&mut self, sender: NodeId) {
        self.brahms.record_push(sender);
    }

    /// Answers a pull request with the full view — identical for trusted
    /// and untrusted nodes, by design.
    pub fn pull_answer(&self) -> Vec<NodeId> {
        self.brahms.pull_answer()
    }

    /// Records a pull answer received from a peer that did *not*
    /// authenticate as trusted. Subject to end-of-round eviction when
    /// this node is trusted.
    pub fn record_untrusted_pull(&mut self, ids: &[NodeId]) {
        self.contacts_total += 1;
        self.pulled_mut().untrusted.extend_from_slice(ids);
    }

    /// Records a pull answer received from an *authenticated trusted*
    /// peer outside the view-swap path (used by the swap-disabled
    /// ablation): exempt from eviction and counted as a trusted contact.
    pub fn record_trusted_pull(&mut self, ids: &[NodeId]) {
        self.contacts_total += 1;
        self.contacts_trusted += 1;
        self.pulled_mut().trusted.extend_from_slice(ids);
    }

    // ------------------------------------------------------------------
    // Mutual authentication (message-level API + in-process convenience)
    // ------------------------------------------------------------------

    /// Handshake step 1 (initiator): fresh challenge.
    pub fn auth_initiate(&mut self) -> (AuthChallenge, InitiatorPending) {
        let nonce = self.fresh_nonce();
        self.authenticator.initiate(nonce)
    }

    /// Handshake step 2 (responder).
    pub fn auth_respond(&mut self, challenge: &AuthChallenge) -> (AuthResponse, ResponderPending) {
        let nonce = self.fresh_nonce();
        self.authenticator.respond(challenge, nonce)
    }

    /// Handshake step 3 (initiator): verdict + confirm message (always
    /// produced, to keep the wire pattern constant).
    pub fn auth_finish_initiator(
        &self,
        pending: &InitiatorPending,
        response: &AuthResponse,
    ) -> (AuthOutcome, AuthConfirm) {
        self.authenticator.verify_response(pending, response)
    }

    /// Handshake step 4 (responder): verdict.
    pub fn auth_finish_responder(
        &self,
        pending: &ResponderPending,
        confirm: &AuthConfirm,
    ) -> AuthOutcome {
        self.authenticator.verify_confirm(pending, confirm)
    }

    /// Runs the complete four-step handshake between two in-process nodes
    /// and returns (initiator verdict, responder verdict). The verdicts
    /// agree unless messages were tampered with in flight.
    pub fn run_handshake(initiator: &mut Self, responder: &mut Self) -> (AuthOutcome, AuthOutcome) {
        let (challenge, i_pending) = initiator.auth_initiate();
        let (response, r_pending) = responder.auth_respond(&challenge);
        let (i_out, confirm) = initiator.auth_finish_initiator(&i_pending, &response);
        let r_out = responder.auth_finish_responder(&r_pending, &confirm);
        (i_out, r_out)
    }

    fn fresh_nonce(&mut self) -> [u8; NONCE_LEN] {
        let rng = self.brahms.rng_mut();
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
        nonce[8..].copy_from_slice(&rng.next_u64().to_le_bytes());
        nonce
    }

    // ------------------------------------------------------------------
    // Trusted communications (Section IV-B)
    // ------------------------------------------------------------------

    /// Performs the trusted peer-sampling exchange between two mutually
    /// authenticated trusted nodes:
    ///
    /// 1. each swaps half of its dynamic view with the other (Jelasity
    ///    framework, swap semantics, initiator self-insertion);
    /// 2. each records the received IDs into its pulled-ID stream, so
    ///    they reach the sampler and compete for the `β·l1` slice of the
    ///    next view renewal.
    ///
    /// Both sides count the exchange as a trusted contact for the
    /// adaptive eviction rule.
    ///
    /// # Panics
    ///
    /// Panics if either node is not trusted — the caller must only invoke
    /// this after a successful mutual authentication.
    pub fn trusted_swap(initiator: &mut Self, responder: &mut Self) {
        Self::trusted_swap_kind(initiator, responder, true);
    }

    /// [`RapteeNode::trusted_swap`] with explicit provenance:
    /// `opportunistic = true` for exchanges triggered by a Brahms pull
    /// hitting a trusted peer (refreshes directory ages — real, view-
    /// driven contact), `false` for the proactive directory-driven round
    /// exchange (inserts unknown peers but does not refresh ages, so a
    /// directory cut off from view-driven contact eventually drains).
    pub fn trusted_swap_kind(initiator: &mut Self, responder: &mut Self, opportunistic: bool) {
        assert!(
            initiator.trusted && responder.trusted,
            "trusted_swap requires two authenticated trusted nodes"
        );
        // Dynamic-view halves are prepared on both sides first (the swap
        // is symmetric), then integrated.
        let buf_i = {
            let (view, rng) = initiator.brahms.view_and_rng_mut();
            prepare_buffer(view, rng)
        };
        let buf_r = {
            let (view, rng) = responder.brahms.view_and_rng_mut();
            prepare_buffer(view, rng)
        };
        {
            let (view, rng) = initiator.brahms.view_and_rng_mut();
            integrate(view, &buf_r, rng);
        }
        {
            let (view, rng) = responder.brahms.view_and_rng_mut();
            integrate(view, &buf_i, rng);
        }
        initiator.note_trusted_exchange(buf_r.iter().map(|e| e.id));
        responder.note_trusted_exchange(buf_i.iter().map(|e| e.id));

        // Directory gossip: the pair also swaps halves of their trusted
        // directories (all entries are authenticated trusted peers, and
        // the sender runs attested code, so the exchange cannot inject
        // fakes) and refreshes each other's entry. This is what lets a
        // sparse trusted population (t = 1 %) find itself and keep
        // meeting every round — the "dissemination-efficient" exchange
        // among trusted nodes of Section III-A.
        let dir_i = prepare_buffer(&mut initiator.directory, initiator.brahms.rng_mut());
        let dir_r = prepare_buffer(&mut responder.directory, responder.brahms.rng_mut());
        integrate(&mut initiator.directory, &dir_r, initiator.brahms.rng_mut());
        integrate(&mut responder.directory, &dir_i, responder.brahms.rng_mut());
        if opportunistic {
            initiator.note_trusted_peer(responder.id());
            responder.note_trusted_peer(initiator.id());
        } else {
            // Known peers keep their age; unknown ones join fresh.
            let (i_id, r_id) = (initiator.id(), responder.id());
            initiator.directory.insert_fresh(r_id);
            responder.directory.insert_fresh(i_id);
        }
    }

    fn note_trusted_exchange(&mut self, received: impl Iterator<Item = NodeId>) {
        self.contacts_total += 1;
        self.contacts_trusted += 1;
        self.pulled_mut().trusted.extend(received);
    }

    // ------------------------------------------------------------------
    // Round finalisation (Section IV-C)
    // ------------------------------------------------------------------

    /// The eviction rate implied by this round's contact mix (0 for
    /// untrusted nodes).
    fn round_eviction_rate(&self, contacts_total: u32) -> f64 {
        if !self.trusted {
            return 0.0;
        }
        let trusted_share = if contacts_total == 0 {
            0.0
        } else {
            f64::from(self.contacts_trusted) / f64::from(contacts_total)
        };
        self.eviction.rate(trusted_share)
    }

    /// Finalises the round: applies Byzantine eviction to the IDs pulled
    /// from untrusted peers (trusted nodes only), forwards the survivors
    /// and the trusted-swap IDs to Brahms, and runs the Brahms round
    /// finalisation.
    pub fn finish_round(&mut self) -> RapteeRoundOutcome {
        let mut pulled = self.pulled.take().unwrap_or_default();
        let eviction_rate = self.round_eviction_rate(self.contacts_total);
        let evicted = self.evict(&mut pulled.untrusted, eviction_rate);
        let admitted_pulled = pulled.untrusted.len() + pulled.trusted.len();
        self.brahms.record_pulled(&pulled.untrusted);
        self.brahms.record_pulled(&pulled.trusted);
        pulled.untrusted.clear();
        pulled.trusted.clear();
        self.pulled = Some(pulled);
        RapteeRoundOutcome {
            report: self.brahms.finish_round(),
            eviction_rate,
            evicted,
            admitted_pulled,
        }
    }

    /// Byzantine eviction at `rate` over this round's untrusted pull
    /// stream: each ID survives an in-place Bernoulli draw with
    /// probability 1 − rate. `retain` visits the IDs in delivery order,
    /// so the RNG draw sequence is fixed; a rate of 0 draws nothing.
    /// Returns how many IDs were evicted.
    fn evict(&mut self, untrusted: &mut Vec<NodeId>, rate: f64) -> usize {
        let before = untrusted.len();
        if rate > 0.0 {
            let rng = self.brahms.rng_mut();
            untrusted.retain(|_| !rng.chance(rate));
        }
        before - untrusted.len()
    }

    /// [`RapteeNode::finish_round`] over caller-owned streams — the
    /// parallel engine path. The engine defers untrusted pull answers
    /// instead of copying them into per-node buffers, and the node reads
    /// them where they lie:
    ///
    /// * `pushed` — the round's delivered push senders, already filtered
    ///   of this node's own ID (`record_push` semantics);
    /// * `untrusted` — the untrusted pull answers, in delivery order,
    ///   *unfiltered* (eviction draws happen per element before the
    ///   self-ID filter, exactly like the buffered path);
    /// * `untrusted_contacts` — how many untrusted pull answers the
    ///   stream represents (the deferred `record_untrusted_pull` contact
    ///   count; trusted contacts were recorded on the node directly);
    /// * `flat` / `scratch` — worker-owned reusable buffers.
    ///
    /// A node that evicts nothing this round (every untrusted node) and
    /// whose seen-cache already holds every ID a drawn answer can carry
    /// hands Brahms the rope itself, followed by its trusted-swap IDs.
    /// Any other node flattens the untrusted answers into `flat`,
    /// drawing each answer once, and one whose eviction rate is above 0
    /// runs the per-ID eviction draw over that buffer first.
    /// The RNG draw sequence is bit-identical to the buffered path on
    /// identical streams.
    pub fn finish_round_streamed<'a, 's, A, I>(
        &mut self,
        pushed: &[NodeId],
        untrusted: Rope<'a, A, I>,
        untrusted_contacts: u32,
        flat: &mut Vec<NodeId>,
        scratch: &mut FinishScratch,
    ) -> RapteeRoundOutcome
    where
        A: AnswerSource,
        's: 'a,
        I: Iterator<Item = Segment<'s>> + Clone,
    {
        // Streamed and buffered untrusted-pull delivery cannot be mixed
        // within one round: buffered IDs would be skipped now (their
        // contacts double-counted) and leak into the next round.
        debug_assert!(
            self.pulled.as_ref().is_none_or(|p| p.untrusted.is_empty()),
            "record_untrusted_pull and finish_round_streamed are mutually exclusive in a round"
        );
        let eviction_rate = self.round_eviction_rate(self.contacts_total + untrusted_contacts);
        // The trusted IDs are read in place too: their box leaves the
        // node for the call and comes back emptied.
        let pulled = self.pulled.take();
        let trusted = pulled.as_deref().map_or(&[][..], |p| &p.trusted[..]);
        // Reading the answers in place pays where the samplers can skip
        // the drawn ones; a node that cannot would draw each twice, once
        // whole for the samplers and again as far as its picks reach.
        let flatten =
            eviction_rate > 0.0 || !untrusted.skips_answers(self.brahms.sampler(), self.id());
        let (report, evicted, admitted_untrusted) = if flatten {
            untrusted.flatten_into(scratch, flat);
            let evicted = self.evict(flat, eviction_rate);
            let stream = SliceRope::slice(flat).with_tail(trusted);
            let report = self.brahms.finish_round_with(pushed, stream, scratch);
            (report, evicted, flat.len())
        } else {
            let admitted = untrusted.len();
            let stream = untrusted.with_tail(trusted);
            (
                self.brahms.finish_round_with(pushed, stream, scratch),
                0,
                admitted,
            )
        };
        let admitted_pulled = admitted_untrusted + trusted.len();
        self.pulled = pulled;
        self.clear_pulled();
        RapteeRoundOutcome {
            report,
            eviction_rate,
            evicted,
            admitted_pulled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptee_crypto::auth::AuthOutcome;

    fn cfg(eviction: EvictionPolicy) -> RapteeConfig {
        RapteeConfig {
            brahms: BrahmsConfig::paper_defaults(10, 10),
            eviction,
        }
    }

    fn boot(range: std::ops::Range<u64>) -> Vec<NodeId> {
        range.map(NodeId).collect()
    }

    fn trusted(id: u64, seed: u64, eviction: EvictionPolicy) -> RapteeNode {
        RapteeNode::new_trusted(
            NodeId(id),
            cfg(eviction),
            &boot(100..110),
            seed,
            SecretKey::from_seed(42),
        )
    }

    fn untrusted(id: u64, seed: u64) -> RapteeNode {
        RapteeNode::new_untrusted(
            NodeId(id),
            cfg(EvictionPolicy::adaptive()),
            &boot(100..110),
            seed,
        )
    }

    #[test]
    fn trusted_pair_authenticates() {
        let mut a = trusted(1, 1, EvictionPolicy::adaptive());
        let mut b = trusted(2, 2, EvictionPolicy::adaptive());
        let (ia, ib) = RapteeNode::run_handshake(&mut a, &mut b);
        assert_eq!(ia, AuthOutcome::Trusted);
        assert_eq!(ib, AuthOutcome::Trusted);
    }

    #[test]
    fn mixed_pairs_do_not_authenticate() {
        let mut t = trusted(1, 1, EvictionPolicy::adaptive());
        let mut u = untrusted(2, 2);
        let mut u2 = untrusted(3, 3);
        assert_eq!(
            RapteeNode::run_handshake(&mut t, &mut u),
            (AuthOutcome::Untrusted, AuthOutcome::Untrusted)
        );
        assert_eq!(
            RapteeNode::run_handshake(&mut u, &mut u2),
            (AuthOutcome::Untrusted, AuthOutcome::Untrusted)
        );
    }

    #[test]
    fn untrusted_nodes_have_distinct_keys() {
        // Two untrusted nodes created from close seeds must not share a
        // key (they would otherwise mutually "trust").
        let mut a = untrusted(1, 7);
        let mut b = untrusted(2, 8);
        let (oa, ob) = RapteeNode::run_handshake(&mut a, &mut b);
        assert_eq!(oa, AuthOutcome::Untrusted);
        assert_eq!(ob, AuthOutcome::Untrusted);
    }

    #[test]
    fn eviction_full_rate_drops_all_untrusted_pulls() {
        let mut t = trusted(1, 1, EvictionPolicy::Fixed(1.0));
        t.plan_round();
        t.record_push(NodeId(200));
        t.record_untrusted_pull(&boot(300..340));
        let out = t.finish_round();
        assert_eq!(out.eviction_rate, 1.0);
        assert_eq!(out.evicted, 40);
        assert_eq!(out.admitted_pulled, 0);
        // No pulled IDs admitted → Brahms treats the round as starved.
        assert!(!out.report.view_renewed);
    }

    #[test]
    fn eviction_zero_rate_admits_everything() {
        let mut t = trusted(1, 1, EvictionPolicy::none());
        t.plan_round();
        t.record_untrusted_pull(&boot(300..340));
        let out = t.finish_round();
        assert_eq!(out.evicted, 0);
        assert_eq!(out.admitted_pulled, 40);
    }

    #[test]
    fn eviction_statistics_match_rate() {
        let mut evicted_total = 0usize;
        let n_ids = 200usize;
        let reps = 50;
        for seed in 0..reps {
            let mut t = trusted(1, seed, EvictionPolicy::Fixed(0.6));
            t.plan_round();
            t.record_untrusted_pull(&boot(1000..(1000 + n_ids as u64)));
            evicted_total += t.finish_round().evicted;
        }
        let rate = evicted_total as f64 / (n_ids * reps as usize) as f64;
        assert!((rate - 0.6).abs() < 0.03, "empirical eviction rate {rate}");
    }

    #[test]
    fn untrusted_nodes_never_evict() {
        let mut u = untrusted(1, 1);
        u.plan_round();
        u.record_untrusted_pull(&boot(300..340));
        let out = u.finish_round();
        assert_eq!(out.eviction_rate, 0.0);
        assert_eq!(out.evicted, 0);
    }

    #[test]
    fn adaptive_rate_follows_contact_mix() {
        // All contacts untrusted → share 0 → rate 0.8.
        let mut t = trusted(1, 1, EvictionPolicy::adaptive());
        t.plan_round();
        t.record_untrusted_pull(&boot(300..310));
        assert!((t.finish_round().eviction_rate - 0.8).abs() < 1e-12);

        // Half of the contacts trusted → rate 0.5.
        let mut a = trusted(1, 1, EvictionPolicy::adaptive());
        let mut b = trusted(2, 2, EvictionPolicy::adaptive());
        a.plan_round();
        b.plan_round();
        RapteeNode::trusted_swap(&mut a, &mut b);
        a.record_untrusted_pull(&boot(300..310));
        let out = a.finish_round();
        assert!(
            (out.eviction_rate - 0.5).abs() < 1e-12,
            "rate {}",
            out.eviction_rate
        );
    }

    #[test]
    fn no_contacts_means_max_adaptive_rate_but_nothing_to_evict() {
        let mut t = trusted(1, 1, EvictionPolicy::adaptive());
        t.plan_round();
        let out = t.finish_round();
        assert_eq!(out.eviction_rate, 0.8);
        assert_eq!(out.evicted, 0);
    }

    #[test]
    fn trusted_swap_exchanges_views_and_feeds_pulled() {
        let mut a = RapteeNode::new_trusted(
            NodeId(1),
            cfg(EvictionPolicy::none()),
            &boot(100..110),
            1,
            SecretKey::from_seed(42),
        );
        let mut b = RapteeNode::new_trusted(
            NodeId(2),
            cfg(EvictionPolicy::none()),
            &boot(200..210),
            2,
            SecretKey::from_seed(42),
        );
        a.plan_round();
        b.plan_round();
        RapteeNode::trusted_swap(&mut a, &mut b);
        // Views exchanged halves.
        assert!(a.brahms().view().ids().any(|i| (200..210).contains(&i.0)));
        assert!(b.brahms().view().ids().any(|i| (100..110).contains(&i.0)));
        // Self-links crossed over.
        assert!(b.brahms().view().contains(NodeId(1)));
        // Received IDs count as pulled: with a push the round renews.
        a.record_push(NodeId(150));
        let out = a.finish_round();
        assert!(out.report.view_renewed);
        assert!(out.admitted_pulled > 0);
        assert!(a.brahms().view().invariants_hold());
    }

    #[test]
    #[should_panic(expected = "requires two authenticated trusted nodes")]
    fn swap_with_untrusted_panics() {
        let mut t = trusted(1, 1, EvictionPolicy::adaptive());
        let mut u = untrusted(2, 2);
        RapteeNode::trusted_swap(&mut t, &mut u);
    }

    /// A view of one slot renews nothing, and the Brahms half is checked
    /// first: the panic names that rule even when the eviction rate is
    /// out of range too.
    #[test]
    #[should_panic(expected = "alpha*l1 rounds to 0")]
    fn a_view_that_renews_nothing_is_refused_before_the_eviction_rule() {
        let config = RapteeConfig {
            brahms: BrahmsConfig::paper_defaults(1, 1),
            eviction: EvictionPolicy::Fixed(1.5),
        };
        RapteeNode::new_trusted(
            NodeId(1),
            config,
            &boot(100..110),
            1,
            SecretKey::from_seed(42),
        );
    }

    #[test]
    fn plan_round_resets_contact_counters() {
        let mut a = trusted(1, 1, EvictionPolicy::adaptive());
        let mut b = trusted(2, 2, EvictionPolicy::adaptive());
        a.plan_round();
        b.plan_round();
        RapteeNode::trusted_swap(&mut a, &mut b);
        a.finish_round();
        // New round: no contacts yet, so an untrusted-only round gets the
        // maximal adaptive rate again.
        a.plan_round();
        a.record_untrusted_pull(&boot(300..310));
        assert!((a.finish_round().eviction_rate - 0.8).abs() < 1e-12);
    }

    #[test]
    fn wire_behaviour_identical_for_trusted_and_untrusted() {
        // Same plan sizes, same pull answer semantics: nothing observable
        // distinguishes a trusted node before authentication.
        let mut t = trusted(1, 5, EvictionPolicy::adaptive());
        let mut u = untrusted(2, 5);
        let pt = t.plan_round();
        let pu = u.plan_round();
        assert_eq!(pt.push_targets.len(), pu.push_targets.len());
        assert_eq!(pt.pull_targets.len(), pu.pull_targets.len());
        assert_eq!(t.pull_answer().len(), u.pull_answer().len());
    }
}
