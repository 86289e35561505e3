//! Experiment configuration.

use crate::bitset::EXACT_DISCOVERY_THRESHOLD;
use raptee::{EvictionPolicy, RapteeConfig};
use raptee_basalt::BasaltConfig;
use raptee_brahms::BrahmsConfig;
use raptee_honeybee::HoneybeeConfig;
use raptee_lift::LiftConfig;
use std::fmt;

/// How the engine tracks per-node discovery (see
/// [`crate::bitset::Discovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiscoveryMode {
    /// Exact bitsets up to 16,384 total actors,
    /// HLL sketches above — the default, and what every committed golden
    /// scenario resolves to (they all sit below the threshold, on the
    /// byte-identical exact path).
    #[default]
    Auto,
    /// Force exact bitsets regardless of scale. Rejected by
    /// [`Scenario::validate`] above 2^17 actors, where the O(N²) matrix
    /// would exceed ~2 GiB.
    Exact,
    /// Force HLL sketches regardless of scale (estimated discovery
    /// counts, ~6.5 % relative standard error; O(N) memory).
    Sketch,
}

/// Hard cap for [`DiscoveryMode::Exact`]: above this many total actors
/// the exact matrix costs more than ~2 GiB (`(2^17)² / 8` bytes) and
/// validation rejects the forced-exact request.
pub(crate) const EXACT_FORCE_LIMIT: usize = 1 << 17;

/// The adversary's push strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackStrategy {
    /// Spread faulty pushes evenly over all correct nodes — proved
    /// optimal for the system-wide objective in the Brahms paper, and
    /// the strategy used throughout the evaluation.
    Balanced,
    /// Dedicate `focus` of the push budget to a victim subset of
    /// `victim_fraction` of the correct nodes (the isolation attempt
    /// Brahms' history sampling defeats; exercised by the
    /// `ablation_gamma` analysis and the targeted-attack tests).
    Targeted {
        /// Fraction of correct nodes under focused attack.
        victim_fraction: f64,
        /// Fraction of the adversary's push budget aimed at them.
        focus: f64,
    },
    /// Spread the budget evenly like [`AttackStrategy::Balanced`], but
    /// advertise distinct Byzantine identities round-robin instead of
    /// random draws — the coverage play that matters against ranked
    /// (BASALT/LIFT) and walk-sampled (Honeybee) views, where repeating
    /// an ID buys nothing. Against Brahms-family victims it degrades to
    /// a balanced attack with a different identity schedule.
    ForcePush,
}

/// How the adversary allocates its lawful budget across rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdversaryMode {
    /// Run [`Scenario::attack`] unchanged every round (the evaluation
    /// default; every committed golden uses it).
    #[default]
    Static,
    /// Bandit-style adaptation: a deterministic UCB1 coordinator
    /// re-allocates the whole lawful budget each round across
    /// segment × strategy arms by observed per-round pollution yield
    /// (mean Byzantine view share). Draws nothing from any RNG stream,
    /// so switching it off leaves every existing run byte-identical.
    Adaptive,
}

/// Which protocol a (sub-)population of correct nodes runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Plain Brahms: no trusted nodes, no authentication, no eviction —
    /// the paper's baseline (Fig. 3).
    Brahms,
    /// RAPTEE: `t·N` trusted nodes with mutual auth, trusted
    /// communications and Byzantine eviction.
    Raptee,
    /// BASALT (Auvolat et al., PAPERS.md): ranked hit-counter views with
    /// periodic seed rotation — the purely algorithmic Byzantine-tolerant
    /// baseline. No trusted tier exists under this protocol.
    Basalt {
        /// Number of ranked view slots `v` (kept equal to
        /// [`Scenario::view_size`] for budget-parity comparisons).
        view_size: usize,
        /// Rounds between seed rotations (`0` disables rotation).
        rotation_interval: usize,
    },
    /// The BASALT+TEE hybrid: BASALT's ranked hit-counter views hardened
    /// with (a) the waiting-list / TTL anti-poisoning refinement for
    /// hearsay IDs, and (b) a trusted tier of `t·N` enclave-attested
    /// nodes (provisioned through the same `raptee-tee` attestation flow
    /// as RAPTEE) whose mutual exchanges bypass the waiting list.
    BasaltTee {
        /// Number of ranked view slots `v`.
        view_size: usize,
        /// Rounds between seed rotations (`0` disables rotation).
        rotation_interval: usize,
        /// Waiting-list TTL in rounds for hearsay candidates (`0`
        /// degrades to plain BASALT semantics plus the trusted tier).
        wlist_ttl: usize,
    },
    /// LIFT (see PAPERS.md): hub-score estimation over gossip exchanges
    /// with score-weighted neighbour replacement — nodes track how often
    /// each peer is advertised and probabilistically avoid hubs, so a
    /// flooding adversary marks its own identities as hubs and prices
    /// itself out of views. No trusted tier exists under this protocol.
    Lift {
        /// Number of view slots `v` (kept equal to
        /// [`Scenario::view_size`] for budget-parity comparisons).
        view_size: usize,
        /// Rounds between score fades (halving); `0` is rejected. The
        /// table stays bounded either way (its score capacity evicts
        /// the coldest off-view counter), but an unfading score only
        /// grows: a peer once mentioned often stays a hub for the rest
        /// of the run, so LIFT would rank peers by lifetime counts
        /// instead of recent gossip. `LiftConfig` accepts 0 (no
        /// fading), which its own tests use.
        fade_interval: usize,
    },
    /// Honeybee (see PAPERS.md): verifiable random walks with
    /// hash-committed transcripts (`raptee-crypto` SHA-256 chains);
    /// verified walk endpoints pass through the shared BASALT
    /// waiting-list quarantine before admission, and transcripts that
    /// fail verification convict their responder. No trusted tier exists
    /// under this protocol.
    Honeybee {
        /// Number of view slots `v`.
        view_size: usize,
        /// Hops per random walk.
        walk_length: usize,
    },
}

impl Protocol {
    /// Short CLI/report label.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::Brahms => "brahms",
            Protocol::Raptee => "raptee",
            Protocol::Basalt { .. } => "basalt",
            Protocol::BasaltTee { .. } => "basalt-tee",
            Protocol::Lift { .. } => "lift",
            Protocol::Honeybee { .. } => "honeybee",
        }
    }

    /// Whether this protocol runs as a ranked-family engine segment
    /// (caller-owned plans, answers ranked on arrival, no Brahms sampler
    /// or node-level trusted directory): BASALT, BASALT+TEE, LIFT or
    /// Honeybee, as opposed to the Brahms/RAPTEE view-renewal family.
    pub fn is_ranked_family(&self) -> bool {
        !matches!(self, Protocol::Brahms | Protocol::Raptee)
    }

    /// Whether a trusted tier exists under this protocol.
    pub(crate) fn supports_trusted(&self) -> bool {
        matches!(self, Protocol::Raptee | Protocol::BasaltTee { .. })
    }
}

/// One entry of a mixed-population specification: `count` correct nodes
/// running `protocol`. See [`Scenario::population`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentSpec {
    /// The protocol this segment runs.
    pub protocol: Protocol,
    /// Number of correct nodes in the segment.
    pub count: usize,
}

/// Per-link latency distribution for the event-driven network model,
/// in virtual ticks (see [`EventNetConfig::round_ticks`]). Every link
/// draw is hash-derived from `(seed, src, dst)` — no shared RNG stream
/// is consumed, so enabling latency never perturbs the protocol RNG
/// draw order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this many ticks. `Constant(0)` is
    /// the asynchrony-equivalence configuration: deliveries land in the
    /// sending round and the event engine reproduces the round engine
    /// bit-for-bit.
    Constant(u64),
    /// Uniform in `[min, max]` ticks.
    Uniform {
        /// Inclusive lower bound.
        min: u64,
        /// Inclusive upper bound.
        max: u64,
    },
    /// Log-normal with the given location/scale of the underlying
    /// normal (the classic heavy-tailed WAN latency shape used by the
    /// BASALT and Honeybee evaluations), truncated at `cap` ticks so a
    /// tail draw cannot stall a message past the run.
    LogNormal {
        /// Location `μ` of `ln(latency)`.
        mu: f64,
        /// Scale `σ ≥ 0` of `ln(latency)`.
        sigma: f64,
        /// Hard upper truncation, in ticks (`> 0`).
        cap: u64,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Constant(0)
    }
}

/// One network partition: for rounds in `[start, end)` no message
/// crosses the cut between actor indices `< boundary` (side A) and
/// `>= boundary` (side B). In-flight messages are held at the cut and
/// released when the partition heals — delayed, never dropped (loss is
/// the [`Scenario::message_loss`] model's job). New pull requests
/// across an active cut are refused at the sender (no connection, so no
/// message ever exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First partitioned round (inclusive).
    pub start: usize,
    /// Healing round (exclusive; the cut is down again from here).
    pub end: usize,
    /// Actor-index split point: side A is `index < boundary`.
    pub boundary: usize,
}

/// Who can reach whom, independent of partitions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Reachability {
    /// Everyone can open a connection to everyone (the round model's
    /// implicit assumption).
    #[default]
    Full,
    /// NAT-like asymmetric reachability: the last `fraction` of correct
    /// actors (by index) sit behind NATs. Inbound traffic to a NATted
    /// node is only delivered through a *hole* — a reverse path opened
    /// whenever the NATted node itself contacts a peer (push or pull),
    /// fresh for `hole_ttl` rounds. A retry whose backoff crosses into
    /// the next round dates its hole there: traffic still leaving in
    /// the earlier round finds it not open yet. Pull answers always
    /// pass (the requester just contacted the responder). This is the
    /// hole-punching asymmetry that lets an adversary who gets into a
    /// victim's view amplify an eclipse: the victim keeps refreshing
    /// holes toward its (poisoned) view while random honest pushes
    /// bounce off the NAT.
    Nat {
        /// Fraction of *correct* actors behind NATs, in `[0, 1)`.
        fraction: f64,
        /// Rounds a punched hole stays open (`>= 1`).
        hole_ttl: usize,
    },
}

/// Bounded exponential-backoff retry policy for pull requests on the
/// event network. A pull whose connection is refused (an active cut, a
/// closed NAT) re-arms a deadline timer and tries again after
/// `base_backoff · 2^(attempt-1)` ticks plus deterministic hash-derived
/// jitter, up to `max_retries` extra attempts. The all-zero default
/// disables retries entirely and is draw-for-draw identical to the
/// pre-retry engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryConfig {
    /// Maximum retry attempts per pull beyond the first try (`0`
    /// disables retries).
    pub max_retries: u32,
    /// Backoff base in virtual ticks; attempt `k` waits
    /// `base_backoff · 2^(k-1)` plus jitter. Must be positive when
    /// `max_retries > 0`.
    pub base_backoff: u64,
}

/// Configuration of the event-driven delivery substrate.
#[derive(Debug, Clone, PartialEq)]
pub struct EventNetConfig {
    /// Per-link latency distribution.
    pub latency: LatencyModel,
    /// Virtual ticks per protocol round — the period of every node's
    /// round timer. A message sent in round `r` with latency `d` lands
    /// in round `(r·round_ticks + offset + d) / round_ticks`.
    pub round_ticks: u64,
    /// Maximum per-node round-timer offset (desynchronized clocks),
    /// hash-derived per node in `[0, jitter]`; must stay below
    /// `round_ticks`. `0` means all round timers fire in lockstep —
    /// required for the asynchrony-equivalence tests.
    pub jitter: u64,
    /// Partition/healing schedule (may overlap).
    pub partitions: Vec<PartitionWindow>,
    /// Asymmetric-reachability model.
    pub reachability: Reachability,
    /// Pull retry/timeout/backoff policy (all-zero default: off).
    pub retry: RetryConfig,
    /// Duplicate-delivery fault injector: probability that a pull
    /// answer is delivered twice (the second copy carries the same
    /// nonce, so the engine's dedup must suppress it). Hash-derived
    /// from a dedicated fault stream — protocol-visible latency draws
    /// are unperturbed, so a run differs from `0.0` only in net
    /// counters.
    pub duplicate_rate: f64,
    /// Reorder fault injector: extra hash-derived delay in
    /// `[0, reorder_jitter]` ticks added to duplicate copies, shuffling
    /// them against the original delivery order (`0` disables).
    pub reorder_jitter: u64,
}

impl Default for EventNetConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::Constant(0),
            round_ticks: 1000,
            jitter: 0,
            partitions: Vec::new(),
            reachability: Reachability::Full,
            retry: RetryConfig::default(),
            duplicate_rate: 0.0,
            reorder_jitter: 0,
        }
    }
}

/// Which delivery substrate drives the protocol cores.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum NetworkModel {
    /// The lockstep phase-parallel round engine (the default; exactly
    /// the pre-event-engine behavior).
    #[default]
    Rounds,
    /// The discrete-event engine: protocol messages get an arrival
    /// tick and deliver in `(tick, sending order)`, with per-link
    /// latency, partitions and NAT-like reachability. With the all-zero
    /// default config this reproduces the round engine bit-for-bit
    /// (`assert_golden` in `tests/determinism.rs`).
    Events(EventNetConfig),
}

/// How a restarted node rebuilds its protocol state when it rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RejoinPolicy {
    /// Fresh bootstrap: a hash-derived seed view (as if re-provisioned
    /// from the bootstrap service) and reinitialised samplers — the
    /// node remembers nothing of its pre-crash state.
    #[default]
    Cold,
    /// Persisted state with a staleness penalty: the node keeps its
    /// pre-crash view and samples, but every entry is revalidated
    /// against liveness on rejoin (Brahms probe revalidation) and
    /// BASALT-family nodes are forced through an immediate seed
    /// rotation, so stale entries cost real view slots until purged.
    Warm,
}

/// A windowed churn burst: for rounds in `[start, end)` the per-round
/// crash probability is raised to `crash_rate` (a catastrophe window —
/// correlated failures like a datacenter outage or a flash crowd
/// departing at once).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnBurst {
    /// First burst round (inclusive).
    pub start: usize,
    /// End round (exclusive).
    pub end: usize,
    /// Per-round crash probability inside the window, in `[0, 1)`.
    pub crash_rate: f64,
}

/// The dynamic-membership schedule: hash-deterministic per-round
/// crash/restart processes over the correct population, plus the legacy
/// one-shot crash batch for backward compatibility. Every draw is
/// hash-derived from `(churn seed, round, node)` — no shared RNG stream
/// is consumed, so the all-off default leaves every golden byte-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnSchedule {
    /// Legacy one-shot batch: fraction of correct nodes crashed at
    /// [`ChurnSchedule::crash_round`] (`0.0` disables). Uses the shared
    /// loss RNG exactly as the pre-churn engine did, preserving old
    /// fingerprints.
    pub crash_fraction: f64,
    /// Round at which the one-shot crash batch happens.
    pub crash_round: usize,
    /// Steady-state per-round crash probability for each live correct
    /// node, in `[0, 1)`.
    pub crash_rate: f64,
    /// Per-round restart probability for each crashed correct node, in
    /// `[0, 1]` (`0.0` means crashes are permanent, as before).
    pub restart_rate: f64,
    /// Catastrophe windows overriding the steady rate.
    pub bursts: Vec<ChurnBurst>,
    /// How restarted nodes rebuild their state.
    pub rejoin: RejoinPolicy,
}

impl ChurnSchedule {
    /// The legacy one-shot crash batch: `fraction` of correct nodes
    /// crash at `round`, permanently (compatibility constructor for the
    /// old `Scenario::{crash_fraction, crash_round}` fields).
    pub fn one_shot(fraction: f64, round: usize) -> Self {
        Self {
            crash_fraction: fraction,
            crash_round: round,
            ..Self::default()
        }
    }

    /// Continuous churn: per-round crash probability `crash_rate` for
    /// live nodes, per-round restart probability `restart_rate` for
    /// crashed ones.
    pub fn steady(crash_rate: f64, restart_rate: f64) -> Self {
        Self {
            crash_rate,
            restart_rate,
            ..Self::default()
        }
    }

    /// Whether membership evolves beyond the legacy one-shot batch
    /// (steady rates, bursts, or restarts).
    pub fn dynamic(&self) -> bool {
        self.crash_rate > 0.0 || self.restart_rate > 0.0 || !self.bursts.is_empty()
    }

    /// The per-round crash probability at `round`: the maximum of the
    /// steady rate and every active burst window.
    pub(crate) fn crash_rate_at(&self, round: usize) -> f64 {
        self.bursts
            .iter()
            .filter(|b| (b.start..b.end).contains(&round))
            .map(|b| b.crash_rate)
            .fold(self.crash_rate, f64::max)
    }
}

/// Challenger configuration for the verifiable audit layer: every
/// round the challenger draws `budget` targets from its dedicated
/// randomness beacon, demands merkle openings of sampled view slots,
/// and issues verdicts (see `crate::audit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditConfig {
    /// Audit challenges issued per round.
    pub budget: usize,
    /// Suspicion grace window in rounds: a `Suspected` verdict (missing
    /// or inadmissible opening — a crashed, churned-out or
    /// certificate-expired target) decays after this many rounds, so
    /// crash-recovery never escalates towards a conviction.
    pub grace: usize,
}

/// Default suspicion grace window (rounds).
pub const DEFAULT_AUDIT_GRACE: usize = 10;

impl AuditConfig {
    /// An audit configuration with the default grace window.
    pub fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            grace: DEFAULT_AUDIT_GRACE,
        }
    }
}

/// One experimental setup, mirroring the paper's Section V-B: "An
/// experimental setup consists of selected proportions of Byzantine
/// nodes, f, and trusted nodes, t, and a fixed Byzantine eviction rate."
///
/// # Examples
///
/// ```
/// use raptee_sim::{Protocol, Scenario};
/// use raptee::EvictionPolicy;
///
/// let s = Scenario {
///     n: 500,
///     byzantine_fraction: 0.1,
///     trusted_fraction: 0.01,
///     eviction: EvictionPolicy::adaptive(),
///     protocol: Protocol::Raptee,
///     ..Scenario::default()
/// };
/// assert_eq!(s.validate(), Ok(()));
/// assert_eq!(s.byzantine_count(), 50);
/// assert_eq!(s.trusted_count(), 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Total number of (original) nodes `N`.
    pub n: usize,
    /// Byzantine share `f` of the original population.
    pub byzantine_fraction: f64,
    /// Trusted share `t` of the original population (ignored under
    /// [`Protocol::Brahms`]).
    pub trusted_fraction: f64,
    /// Additional view-poisoned trusted nodes injected by the adversary,
    /// as a fraction of `n` (Section VI-B). They hold the genuine group
    /// key and run correct code, but bootstrap with all-Byzantine views.
    pub injected_poisoned_fraction: f64,
    /// The adversary's push strategy.
    pub attack: AttackStrategy,
    /// Eviction policy for trusted nodes.
    pub eviction: EvictionPolicy,
    /// Enable the trusted view-swap (Section IV-B). Disabling it while
    /// keeping eviction isolates the contribution of trusted
    /// communications — the `ablation_trusted_swap` bench.
    pub trusted_swap: bool,
    /// Brahms history-sample weight `γ` (paper default 0.2); `α = β =
    /// (1 − γ)/2`. Swept by the `ablation_gamma` bench to isolate the
    /// self-healing contribution.
    pub gamma: f64,
    /// Dynamic view size `l1`. The paper uses 200 at `N = 10,000` (2 %).
    pub view_size: usize,
    /// Sample list size `l2` (paper: equal to `l1`).
    pub sample_size: usize,
    /// Rounds per run (paper: 200).
    pub rounds: usize,
    /// Protocol selection for a *uniform* correct population (ignored
    /// when [`Scenario::population`] is non-empty).
    pub protocol: Protocol,
    /// Mixed-population specification: per-protocol counts of correct
    /// nodes, laid out contiguously after the Byzantine prefix in spec
    /// order. Empty (the default) means the whole correct population
    /// runs [`Scenario::protocol`]. When non-empty, the counts must sum
    /// to `n - byzantine_count()`, each protocol may appear at most
    /// once, and the RAPTEE-only attack toggles
    /// (`injected_poisoned_fraction`, `identification_attack`) must stay
    /// off.
    pub population: Vec<SegmentSpec>,
    /// Enable the trusted-node identification attack bookkeeping
    /// (Section VI-A); costs β·l1 extra observation pulls per Byzantine
    /// node per round, the lawful pull fanout.
    pub identification_attack: bool,
    /// Uniform message-loss probability applied to pushes and pull
    /// answers (failure injection; the paper's testbed is lossless).
    pub message_loss: f64,
    /// Dynamic-membership schedule: one-shot crash batches, steady
    /// churn rates, catastrophe bursts and crash–recovery restarts
    /// (exercises Brahms' probe-based sampler validation, the timeout
    /// handling of pulls, and every protocol family's rejoin path).
    pub churn: ChurnSchedule,
    /// Attestation-certificate lifetime in rounds (`0` disables
    /// expiry). When positive, trusted nodes' certificates expire on a
    /// staggered schedule; an expired node degrades to untrusted
    /// behaviour (no trusted swaps or trusted pulls) until a
    /// re-attestation event heals it a few rounds later.
    pub attest_ttl: usize,
    /// Run the sampler liveness validation every `k` rounds (0 disables).
    /// The original Brahms probes its samples so departed nodes leave
    /// the sample list.
    pub sampler_validation_period: usize,
    /// Verifiable audit layer: `None` (the default) disables the
    /// challenger entirely — no commitments are taken and the audit
    /// beacon stream is never drawn from, so audit-off runs replay
    /// byte-for-byte. Requires a provisioned trusted tier.
    pub audit: Option<AuditConfig>,
    /// Proactive trusted-directory refresh period, in rounds (`0`
    /// disables — the default, preserving all golden fingerprints).
    /// When positive, the engine rebuilds a directory of live,
    /// certificate-valid trusted nodes every this-many rounds and
    /// BASALT-family trusted nodes perform one directory-driven
    /// trusted exchange per round — instead of relying on the
    /// opportunistic both-trusted pull encounters of the hybrid path.
    pub trusted_directory_refresh: usize,
    /// Push-flood threshold margin in standard deviations above `α·l1`.
    /// `0` keeps the paper-literal `α·l1` threshold (appropriate at the
    /// paper's view size, where `α·l1` already sits ≈ 4σ above the mean
    /// arrival rate); the reduced-scale default of `4.0` reproduces that
    /// same relative margin. See `BrahmsConfig::flood_threshold`.
    pub flood_slack_sigmas: f64,
    /// Rounds averaged at the end of the run for the resilience metric.
    pub tail_window: usize,
    /// Discovery-metric representation (exact bitsets vs HLL sketches).
    pub discovery: DiscoveryMode,
    /// Adversary budget scheduling: [`AdversaryMode::Static`] (the
    /// default) replays [`Scenario::attack`] every round;
    /// [`AdversaryMode::Adaptive`] layers a deterministic UCB1 bandit
    /// over segments × strategies, re-allocating the whole lawful budget
    /// each round by observed pollution yield.
    pub adversary_mode: AdversaryMode,
    /// Delivery substrate: lockstep rounds (default) or the
    /// discrete-event engine with latency, partitions and NAT-like
    /// reachability.
    pub network: NetworkModel,
    /// Master seed; every repetition derives its own sub-seed.
    pub seed: u64,
}

impl Default for Scenario {
    fn default() -> Self {
        Self {
            n: 1000,
            byzantine_fraction: 0.1,
            trusted_fraction: 0.01,
            injected_poisoned_fraction: 0.0,
            attack: AttackStrategy::Balanced,
            eviction: EvictionPolicy::adaptive(),
            trusted_swap: true,
            gamma: 0.2,
            view_size: 20,
            sample_size: 20,
            rounds: 120,
            protocol: Protocol::Raptee,
            population: Vec::new(),
            identification_attack: false,
            message_loss: 0.0,
            churn: ChurnSchedule::default(),
            attest_ttl: 0,
            sampler_validation_period: 0,
            audit: None,
            trusted_directory_refresh: 0,
            flood_slack_sigmas: 4.0,
            tail_window: 20,
            discovery: DiscoveryMode::Auto,
            adversary_mode: AdversaryMode::Static,
            network: NetworkModel::Rounds,
            seed: 0x5A97EE,
        }
    }
}

/// Why [`Scenario::validate`] rejected a scenario: the first rule it
/// broke. Displays as `knob: reason`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// The [`Scenario`] field path of the offending knob, e.g. `"n"`,
    /// `"network.partitions"` or `"audit"`.
    pub knob: &'static str,
    /// The rule the knob broke.
    pub reason: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.knob, self.reason)
    }
}

impl std::error::Error for ScenarioError {}

/// One validation rule about `knob`; [`Check::or`] gives its reason.
fn check(holds: bool, knob: &'static str) -> Check {
    Check { holds, knob }
}

/// A rule [`check`] evaluated, waiting for the reason it reports.
struct Check {
    holds: bool,
    knob: &'static str,
}

impl Check {
    /// `Ok` when the rule holds, otherwise the error naming the knob.
    /// `reason` is only formatted on failure, so a valid scenario
    /// allocates nothing.
    fn or(self, reason: impl fmt::Display) -> Result<(), ScenarioError> {
        if self.holds {
            Ok(())
        } else {
            Err(ScenarioError {
                knob: self.knob,
                reason: reason.to_string(),
            })
        }
    }
}

/// A protocol family's node parameters, as [`Scenario::family_config`]
/// maps a [`Protocol`] to them for [`Scenario::validate`] and the
/// engine's population builder alike.
pub(crate) enum FamilyConfig {
    /// Brahms and RAPTEE.
    Raptee(RapteeConfig),
    /// BASALT and BASALT+TEE.
    Basalt(BasaltConfig),
    Lift(LiftConfig),
    Honeybee(HoneybeeConfig),
}

impl FamilyConfig {
    /// The first rule of the family config's own `validate` broken.
    fn validate(&self) -> Result<(), &'static str> {
        match self {
            FamilyConfig::Raptee(cfg) => cfg.brahms.validate(),
            FamilyConfig::Basalt(cfg) => cfg.validate(),
            FamilyConfig::Lift(cfg) => cfg.validate(),
            FamilyConfig::Honeybee(cfg) => cfg.validate(),
        }
    }
}

impl Scenario {
    /// The paper's full-scale configuration: 10,000 nodes, view size 200,
    /// 200 rounds.
    pub fn paper_scale() -> Self {
        Self {
            n: 10_000,
            view_size: 200,
            sample_size: 200,
            rounds: 200,
            flood_slack_sigmas: 0.0, // paper-literal α·l1 threshold
            ..Self::default()
        }
    }

    /// Checks every range and consistency rule, in a fixed order, and
    /// reports the first one broken.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] naming the offending knob when, for example,
    /// a fraction leaves `[0, 1]`, the fractions sum past 1, a size or
    /// window is zero or outside the run, a RAPTEE-only toggle is set
    /// outside a uniform Brahms or RAPTEE run, or the trusted target
    /// exceeds the TEE-capable correct population.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), raptee_sim::ScenarioError> {
    /// use raptee_sim::Scenario;
    ///
    /// Scenario::default().validate()?;
    /// let err = Scenario { n: 1, ..Scenario::default() }.validate().unwrap_err();
    /// assert_eq!(err.knob, "n");
    /// assert_eq!(err.to_string(), "n: population must contain at least two nodes");
    /// # Ok(())
    /// # }
    /// ```
    pub fn validate(&self) -> Result<(), ScenarioError> {
        check(self.n > 1, "n").or("population must contain at least two nodes")?;
        for (name, v) in [
            ("byzantine_fraction", self.byzantine_fraction),
            ("trusted_fraction", self.trusted_fraction),
            (
                "injected_poisoned_fraction",
                self.injected_poisoned_fraction,
            ),
        ] {
            check((0.0..=1.0).contains(&v), name).or(format_args!("{name} must be in [0,1]"))?;
        }
        // Actors are numbered by `u32` indices (`NodeIdx`) throughout the
        // engine; a population that fits them but not in memory is an
        // allocation failure, not a rule.
        check(self.total_actors() <= u32::MAX as usize, "n").or(format_args!(
            "{} actors do not fit u32 actor indices (at most {})",
            self.total_actors(),
            u32::MAX
        ))?;
        check(
            self.byzantine_fraction + self.trusted_fraction <= 1.0 + 1e-9,
            "trusted_fraction",
        )
        .or("byzantine + trusted fractions exceed the population")?;
        check(self.view_size > 0, "view_size").or("sizes must be positive")?;
        check(self.sample_size > 0, "sample_size").or("sizes must be positive")?;
        check(self.rounds > 0, "rounds").or("must run at least one round")?;
        check(self.tail_window > 0, "tail_window").or("tail window must be positive")?;
        check((0.0..1.0).contains(&self.gamma), "gamma").or("gamma must be in [0,1)")?;
        check(self.flood_slack_sigmas >= 0.0, "flood_slack_sigmas")
            .or("flood slack must be non-negative")?;
        check((0.0..=1.0).contains(&self.message_loss), "message_loss")
            .or("message loss must be in [0,1]")?;
        if let AttackStrategy::Targeted {
            victim_fraction,
            focus,
        } = self.attack
        {
            check((0.0..=1.0).contains(&victim_fraction), "attack")
                .or("victim fraction must be in [0,1]")?;
            check((0.0..=1.0).contains(&focus), "attack").or("focus must be in [0,1]")?;
        }
        self.validate_churn()?;
        check(
            self.attest_ttl == 0 || self.trusted_count() > 0,
            "attest_ttl",
        )
        .or("attestation expiry needs a provisioned trusted tier")?;
        self.validate_audit()?;
        check(
            self.trusted_directory_refresh == 0 || self.trusted_count() > 0,
            "trusted_directory_refresh",
        )
        .or("the trusted-directory refresh needs a provisioned trusted tier")?;
        self.eviction.validate().map_err(|reason| ScenarioError {
            knob: "eviction",
            reason: reason.to_string(),
        })?;
        check(
            self.discovery != DiscoveryMode::Exact || self.total_actors() <= EXACT_FORCE_LIMIT,
            "discovery",
        )
        .or(format_args!(
            "exact discovery forced at {} actors: the O(N²) matrix would exceed the \
             ~2 GiB guard (limit {EXACT_FORCE_LIMIT}); use DiscoveryMode::Auto or Sketch",
            self.total_actors()
        ))?;
        if let NetworkModel::Events(net) = &self.network {
            self.validate_network(net)?;
        }
        // Injected poisoned trusted nodes and the identification attack
        // are wired into the Brahms/RAPTEE node alone.
        if !self.population.is_empty() || self.protocol.is_ranked_family() {
            for (knob, on) in [
                (
                    "injected_poisoned_fraction",
                    self.injected_poisoned_fraction > 0.0,
                ),
                ("identification_attack", self.identification_attack),
            ] {
                check(!on, knob)
                    .or("RAPTEE-only toggle: it needs a uniform Brahms or RAPTEE run")?;
            }
        }
        if self.population.is_empty() {
            self.validate_protocol(self.protocol, "protocol")?;
        } else {
            self.validate_population()?;
        }
        // Like Brahms or BASALT, a run without TEE-capable segments
        // simply ignores `trusted_fraction`; but where a tier *can*
        // exist, it must fit, however the population is spelled.
        let capacity = self.tee_capacity();
        check(
            capacity == 0 || self.total_trusted_target() <= capacity,
            "trusted_fraction",
        )
        .or("trusted fraction exceeds the TEE-capable segment capacity")
    }

    /// The node parameters `protocol` runs with, unvalidated: a ranked
    /// family's from the protocol's own fields, the Brahms family's from
    /// the scenario's view and sample sizes, `gamma`, eviction policy and
    /// flood slack.
    pub(crate) fn family_config(&self, protocol: Protocol) -> FamilyConfig {
        match protocol {
            Protocol::Brahms | Protocol::Raptee => {
                let mut brahms = BrahmsConfig {
                    view_size: self.view_size,
                    sample_size: self.sample_size,
                    gamma: self.gamma,
                    flood_threshold: None,
                };
                if self.flood_slack_sigmas > 0.0 {
                    let alpha_count = brahms.alpha_count() as f64;
                    let slack = self.flood_slack_sigmas * alpha_count.sqrt();
                    brahms.flood_threshold = Some((alpha_count + slack).round() as usize);
                }
                FamilyConfig::Raptee(RapteeConfig {
                    brahms,
                    eviction: self.eviction,
                })
            }
            Protocol::Basalt {
                view_size,
                rotation_interval,
            } => FamilyConfig::Basalt(BasaltConfig::for_view(view_size, rotation_interval)),
            Protocol::BasaltTee {
                view_size,
                rotation_interval,
                wlist_ttl,
            } => FamilyConfig::Basalt(BasaltConfig::with_wlist(
                view_size,
                rotation_interval,
                wlist_ttl,
            )),
            Protocol::Lift {
                view_size,
                fade_interval,
            } => FamilyConfig::Lift(LiftConfig::for_view(view_size, fade_interval)),
            Protocol::Honeybee {
                view_size,
                walk_length,
            } => FamilyConfig::Honeybee(HoneybeeConfig::for_view(view_size, walk_length)),
        }
    }

    /// The rules of `protocol`'s family config, for the uniform protocol
    /// (`knob = "protocol"`) and every population segment
    /// (`"population"`), then the one rule no config states: LIFT's
    /// positive fade interval (see [`Protocol::Lift`]).
    fn validate_protocol(
        &self,
        protocol: Protocol,
        knob: &'static str,
    ) -> Result<(), ScenarioError> {
        if let Err(rule) = self.family_config(protocol).validate() {
            return check(false, knob).or(rule);
        }
        if let Protocol::Lift { fade_interval, .. } = protocol {
            check(fade_interval > 0, knob)
                .or("LIFT needs a positive fade interval (scores must decay)")?;
        }
        Ok(())
    }

    /// Event-network consistency checks.
    fn validate_network(&self, net: &EventNetConfig) -> Result<(), ScenarioError> {
        check(net.round_ticks > 0, "network.round_ticks").or("round_ticks must be positive")?;
        check(net.jitter < net.round_ticks, "network.jitter")
            .or("round-timer jitter must stay below one round period")?;
        match net.latency {
            LatencyModel::Constant(_) => {}
            LatencyModel::Uniform { min, max } => {
                check(min <= max, "network.latency").or("uniform latency needs min <= max")?;
            }
            LatencyModel::LogNormal { sigma, cap, .. } => {
                check(sigma >= 0.0, "network.latency")
                    .or("log-normal sigma must be non-negative")?;
                check(cap > 0, "network.latency").or("log-normal latency cap must be positive")?;
            }
        }
        for p in &net.partitions {
            check(
                p.start < p.end && p.end <= self.rounds,
                "network.partitions",
            )
            .or("partition windows need start < end <= rounds")?;
            check(p.boundary <= self.total_actors(), "network.partitions")
                .or("partition boundary exceeds the actor count")?;
        }
        if let Reachability::Nat { fraction, hole_ttl } = net.reachability {
            check((0.0..1.0).contains(&fraction), "network.reachability")
                .or("NAT fraction must be in [0,1)")?;
            check(hole_ttl >= 1, "network.reachability")
                .or("NAT hole TTL must be at least one round")?;
        }
        check(
            net.retry.max_retries == 0 || net.retry.base_backoff > 0,
            "network.retry",
        )
        .or("retry backoff base must be positive when retries are enabled")?;
        check(
            (0.0..=1.0).contains(&net.duplicate_rate),
            "network.duplicate_rate",
        )
        .or("duplicate rate must be in [0,1]")?;
        check(
            net.reorder_jitter == 0 || net.duplicate_rate > 0.0,
            "network.reorder_jitter",
        )
        .or("reorder jitter shuffles duplicate copies; it needs duplicate_rate > 0")
    }

    /// Audit-layer consistency checks.
    fn validate_audit(&self) -> Result<(), ScenarioError> {
        let Some(audit) = &self.audit else {
            return Ok(());
        };
        check(audit.budget > 0, "audit").or("audit budget must be positive")?;
        check(audit.grace > 0, "audit").or("audit grace window must be positive")?;
        check(self.trusted_count() > 0, "audit")
            .or("the audit layer needs a provisioned trusted tier (t > 0 under a TEE protocol)")?;
        // Commitments expire with the attestation certificate: a TTL
        // shorter than the grace window would leave an honest node
        // certificate-less for longer than suspicion is allowed to
        // persist, making an expired-but-honest node indistinguishable
        // from an evasive one. Reject the combination outright.
        check(
            self.attest_ttl == 0 || self.attest_ttl >= audit.grace,
            "audit",
        )
        .or(
            "attestation TTL shorter than the audit grace window would make \
             expired-but-honest nodes convictable; use attest_ttl >= grace",
        )
    }

    /// Churn-schedule consistency checks.
    fn validate_churn(&self) -> Result<(), ScenarioError> {
        let churn = &self.churn;
        check(
            (0.0..1.0).contains(&churn.crash_fraction),
            "churn.crash_fraction",
        )
        .or("crash fraction must be in [0,1)")?;
        check(
            churn.crash_fraction == 0.0 || churn.crash_round < self.rounds,
            "churn.crash_round",
        )
        .or("one-shot crash round must fall inside the run (crash_round < rounds)")?;
        check((0.0..1.0).contains(&churn.crash_rate), "churn.crash_rate")
            .or("steady churn crash rate must be in [0,1)")?;
        check(
            (0.0..=1.0).contains(&churn.restart_rate),
            "churn.restart_rate",
        )
        .or("restart rate must be in [0,1]")?;
        for b in &churn.bursts {
            check(b.start < b.end && b.end <= self.rounds, "churn.bursts")
                .or("churn bursts need start < end <= rounds")?;
            check((0.0..1.0).contains(&b.crash_rate), "churn.bursts")
                .or("churn burst crash rate must be in [0,1)")?;
        }
        Ok(())
    }

    /// Mixed-population consistency checks.
    fn validate_population(&self) -> Result<(), ScenarioError> {
        let mut sum = 0usize;
        for (i, seg) in self.population.iter().enumerate() {
            check(seg.count > 0, "population").or("population segments must be non-empty")?;
            self.validate_protocol(seg.protocol, "population")?;
            check(
                !self.population[..i].iter().any(|s| {
                    std::mem::discriminant(&s.protocol) == std::mem::discriminant(&seg.protocol)
                }),
                "population",
            )
            .or("each protocol may appear at most once in a population spec")?;
            sum = sum.saturating_add(seg.count);
        }
        let correct = self.n.saturating_sub(self.byzantine_count());
        check(sum == correct, "population").or(format_args!(
            "population segment counts must sum to the correct population \
             (n - byzantine_count = {correct})"
        ))
    }

    /// Number of Byzantine nodes `round(f·N)` (at least 1 when `f > 0`).
    pub fn byzantine_count(&self) -> usize {
        let b = (self.byzantine_fraction * self.n as f64).round() as usize;
        if self.byzantine_fraction > 0.0 {
            b.max(1)
        } else {
            0
        }
    }

    /// The scenario-level trusted-tier target `round(t·N)` (at least 1
    /// when `t > 0`), before any capping to TEE-capable segment capacity.
    fn total_trusted_target(&self) -> usize {
        let t = (self.trusted_fraction * self.n as f64).round() as usize;
        if self.trusted_fraction > 0.0 {
            t.max(1)
        } else {
            0
        }
    }

    /// Number of trusted nodes the engine builds: `round(t·N)` (at least
    /// 1 when `t > 0` and a TEE-capable protocol — RAPTEE or BasaltTee —
    /// runs somewhere; the paper's smallest setting is "1 % of
    /// SGX-capable devices"), capped at the TEE-capable segments'
    /// capacity, which `validate` requires it to fit. Brahms and plain
    /// BASALT run no trusted tier. It is read off
    /// [`Scenario::segments`], so a uniform run and its one-segment
    /// population agree, and [`Scenario::segment_trusted_counts`]
    /// distributes exactly this many.
    pub fn trusted_count(&self) -> usize {
        match self.tee_capacity() {
            0 => 0,
            capacity => self.total_trusted_target().min(capacity),
        }
    }

    /// The correct nodes in TEE-capable segments of
    /// [`Scenario::segments`], without building the list: `validate`
    /// asks for it on every scenario. Saturating, so it stays total on
    /// counts `validate` has yet to reject.
    fn tee_capacity(&self) -> usize {
        self.segment_iter()
            .filter(|s| s.protocol.supports_trusted())
            .fold(0usize, |sum, s| sum.saturating_add(s.count))
    }

    /// The effective per-protocol layout of the correct population: the
    /// explicit [`Scenario::population`] spec when given, otherwise one
    /// segment of the whole correct population running
    /// [`Scenario::protocol`]. Segments occupy contiguous index ranges
    /// after the Byzantine prefix, in spec order.
    pub fn segments(&self) -> Vec<SegmentSpec> {
        self.segment_iter().collect()
    }

    /// [`Scenario::segments`], one by one.
    fn segment_iter(&self) -> impl Iterator<Item = SegmentSpec> + '_ {
        let uniform = self.population.is_empty().then(|| SegmentSpec {
            protocol: self.protocol,
            count: self.n.saturating_sub(self.byzantine_count()),
        });
        uniform.into_iter().chain(self.population.iter().copied())
    }

    /// Trusted-node counts per segment (aligned with
    /// [`Scenario::segments`]): [`Scenario::trusted_count`] distributed
    /// over the TEE-capable segments proportionally to their sizes (floor
    /// shares first, then the remainder one-by-one in segment order),
    /// capped at segment capacity. Within a segment, the trusted nodes
    /// occupy the first indices — mirroring the uniform layout, where
    /// trusted nodes directly follow the Byzantine prefix.
    pub fn segment_trusted_counts(&self) -> Vec<usize> {
        let segs = self.segments();
        // No capacity (no TEE-capable segment, or only empty ones, which
        // `validate` rejects) takes no trusted tier, and `total` is 0.
        // The arithmetic cannot overflow even on the counts `validate`
        // has yet to reject.
        let (capacity, total) = (self.tee_capacity(), self.trusted_count());
        let mut out: Vec<usize> = segs
            .iter()
            .map(|s| {
                if total == 0 || !s.protocol.supports_trusted() {
                    return 0;
                }
                let share = total as u128 * s.count as u128 / capacity as u128;
                (share as usize).min(s.count)
            })
            .collect();
        // One pass places the remainder: a remainder above 0 means the
        // target is below capacity, so every non-empty segment's floor
        // share left it room, and the remainder (the sum of fractional
        // parts) is smaller than the number of such segments.
        let assigned = out.iter().fold(0usize, |sum, &c| sum.saturating_add(c));
        let mut remainder = total.saturating_sub(assigned);
        for (c, s) in out.iter_mut().zip(&segs) {
            if remainder > 0 && s.protocol.supports_trusted() && *c < s.count {
                *c += 1;
                remainder -= 1;
            }
        }
        out
    }

    /// Number of injected view-poisoned trusted nodes (extra, on top of
    /// `n`).
    pub(crate) fn injected_count(&self) -> usize {
        (self.injected_poisoned_fraction * self.n as f64).round() as usize
    }

    /// Total actors in the run, including injected nodes.
    pub fn total_actors(&self) -> usize {
        self.n.saturating_add(self.injected_count())
    }

    /// Whether this run tracks discovery with HLL sketches (resolving
    /// [`DiscoveryMode::Auto`] against 16,384 actors).
    pub fn sketch_discovery(&self) -> bool {
        match self.discovery {
            DiscoveryMode::Exact => false,
            DiscoveryMode::Sketch => true,
            DiscoveryMode::Auto => self.total_actors() > EXACT_DISCOVERY_THRESHOLD,
        }
    }

    /// A copy of this scenario switched to the Brahms baseline (used to
    /// compute resilience improvement and round overheads).
    pub fn brahms_baseline(&self) -> Scenario {
        Scenario {
            protocol: Protocol::Brahms,
            trusted_fraction: 0.0,
            injected_poisoned_fraction: 0.0,
            identification_attack: false,
            population: Vec::new(),
            ..self.clone()
        }
    }

    /// A copy of this scenario switched to BASALT at the same view size
    /// and workload (the algorithmic counterpart of
    /// [`Scenario::brahms_baseline`]): same `N`, `f`, rounds and message
    /// budget, no trusted tier, seeds rotated every `rotation_interval`
    /// rounds.
    pub fn basalt_variant(&self, rotation_interval: usize) -> Scenario {
        Scenario {
            trusted_fraction: 0.0,
            ..self.uniform_ranked(Protocol::Basalt {
                view_size: self.view_size,
                rotation_interval,
            })
        }
    }

    /// A copy of this scenario switched to the BASALT+TEE hybrid at the
    /// same view size and workload: BASALT ranked views with the
    /// waiting-list refinement (`wlist_ttl` rounds of hearsay
    /// quarantine), plus this scenario's `trusted_fraction` of
    /// enclave-attested nodes whose mutual exchanges bypass the list.
    pub fn basalt_tee_variant(&self, rotation_interval: usize, wlist_ttl: usize) -> Scenario {
        self.uniform_ranked(Protocol::BasaltTee {
            view_size: self.view_size,
            rotation_interval,
            wlist_ttl,
        })
    }

    /// A copy of this scenario switched to LIFT at the same view size
    /// and workload: hub-score-weighted views with scores halved every
    /// `fade_interval` rounds, no trusted tier.
    pub fn lift_variant(&self, fade_interval: usize) -> Scenario {
        Scenario {
            trusted_fraction: 0.0,
            ..self.uniform_ranked(Protocol::Lift {
                view_size: self.view_size,
                fade_interval,
            })
        }
    }

    /// A copy of this scenario switched to Honeybee at the same view
    /// size and workload: verifiable `walk_length`-hop random walks with
    /// quarantined endpoint admission, no trusted tier.
    pub fn honeybee_variant(&self, walk_length: usize) -> Scenario {
        Scenario {
            trusted_fraction: 0.0,
            ..self.uniform_ranked(Protocol::Honeybee {
                view_size: self.view_size,
                walk_length,
            })
        }
    }

    /// A uniform copy running the ranked `protocol`, with the RAPTEE-only
    /// toggles a ranked family rejects cleared (as by an empty
    /// [`Scenario::with_population`]).
    fn uniform_ranked(&self, protocol: Protocol) -> Scenario {
        Scenario {
            protocol,
            ..self.with_population(Vec::new())
        }
    }

    /// A copy of this scenario running a mixed population: the correct
    /// nodes split over `segments` (counts must sum to
    /// `n - byzantine_count()`). RAPTEE-only attack toggles are cleared,
    /// as mixed mode forbids them.
    pub fn with_population(&self, segments: Vec<SegmentSpec>) -> Scenario {
        Scenario {
            population: segments,
            injected_poisoned_fraction: 0.0,
            identification_attack: false,
            ..self.clone()
        }
    }

    /// A copy of this scenario moved onto the event-driven substrate
    /// with the given network configuration (everything else — seeds,
    /// protocol, attack — unchanged).
    pub fn with_network(&self, net: EventNetConfig) -> Scenario {
        Scenario {
            network: NetworkModel::Events(net),
            ..self.clone()
        }
    }

    /// A copy of this scenario on the event engine in its equivalence
    /// configuration: zero latency, no partitions, full reachability,
    /// synchronized round timers. Every round-model golden of
    /// `tests/determinism.rs` asserts this reproduces the round engine
    /// bit-for-bit.
    pub fn evented_zero_latency(&self) -> Scenario {
        self.with_network(EventNetConfig::default())
    }

    /// Convenience for an even two-protocol split of the correct
    /// population (the odd node goes to the first segment).
    pub fn half_and_half(&self, first: Protocol, second: Protocol) -> Scenario {
        let correct = self.n - self.byzantine_count();
        let half = correct / 2;
        self.with_population(vec![
            SegmentSpec {
                protocol: first,
                count: correct - half,
            },
            SegmentSpec {
                protocol: second,
                count: half,
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        Scenario::default().validate().unwrap();
        Scenario::paper_scale().validate().unwrap();
        assert_eq!(Scenario::paper_scale().n, 10_000);
    }

    #[test]
    fn counts_partition_population() {
        let s = Scenario {
            n: 1000,
            byzantine_fraction: 0.14,
            trusted_fraction: 0.05,
            ..Scenario::default()
        };
        assert_eq!(s.byzantine_count(), 140);
        assert_eq!(s.trusted_count(), 50);
    }

    #[test]
    fn tiny_fractions_round_up_to_one() {
        let s = Scenario {
            n: 50,
            byzantine_fraction: 0.001,
            trusted_fraction: 0.001,
            ..Scenario::default()
        };
        assert_eq!(s.byzantine_count(), 1);
        assert_eq!(s.trusted_count(), 1);
    }

    #[test]
    fn brahms_protocol_has_no_trusted_nodes() {
        let s = Scenario {
            trusted_fraction: 0.3,
            protocol: Protocol::Brahms,
            ..Scenario::default()
        };
        assert_eq!(s.trusted_count(), 0);
    }

    #[test]
    fn baseline_strips_raptee_features() {
        let s = Scenario {
            injected_poisoned_fraction: 0.1,
            identification_attack: true,
            ..Scenario::default()
        };
        let b = s.brahms_baseline();
        assert_eq!(b.protocol, Protocol::Brahms);
        assert_eq!(b.trusted_count(), 0);
        assert_eq!(b.injected_count(), 0);
        assert!(!b.identification_attack);
        // Workload knobs preserved.
        assert_eq!(b.n, s.n);
        assert_eq!(b.byzantine_fraction, s.byzantine_fraction);
        assert_eq!(b.seed, s.seed);
    }

    #[test]
    fn injected_are_extra_actors() {
        let s = Scenario {
            n: 100,
            injected_poisoned_fraction: 0.2,
            ..Scenario::default()
        };
        assert_eq!(s.injected_count(), 20);
        assert_eq!(s.total_actors(), 120);
    }

    #[test]
    fn basalt_variant_strips_trusted_tier() {
        let s = Scenario {
            trusted_fraction: 0.2,
            injected_poisoned_fraction: 0.1,
            identification_attack: true,
            ..Scenario::default()
        };
        let b = s.basalt_variant(30);
        b.validate().unwrap();
        assert_eq!(
            b.protocol,
            Protocol::Basalt {
                view_size: s.view_size,
                rotation_interval: 30
            }
        );
        assert_eq!(b.trusted_count(), 0);
        assert_eq!(b.injected_count(), 0);
        assert!(!b.identification_attack);
        // Workload knobs preserved.
        assert_eq!(b.n, s.n);
        assert_eq!(b.byzantine_fraction, s.byzantine_fraction);
        assert_eq!(b.seed, s.seed);
    }

    #[test]
    fn basalt_rejects_injection_attack() {
        let s = Scenario {
            injected_poisoned_fraction: 0.1,
            ..Scenario::default().basalt_variant(10)
        };
        assert_eq!(rejected(s), "injected_poisoned_fraction");
    }

    #[test]
    fn basalt_zero_view_rejected() {
        let s = Scenario {
            protocol: Protocol::Basalt {
                view_size: 0,
                rotation_interval: 10,
            },
            ..Scenario::default()
        };
        let err = s.validate().unwrap_err();
        assert_eq!(err.knob, "protocol");
        assert_eq!(err.reason, "BASALT view size must be positive");
    }

    /// A view past the largest LIFT's table indexes is an error, not a
    /// panic in the node constructor.
    #[test]
    fn lift_view_past_its_table_rejected() {
        let lift = |view_size| Scenario {
            protocol: Protocol::Lift {
                view_size,
                fade_interval: 10,
            },
            ..Scenario::default()
        };
        let max = raptee_lift::LiftConfig::MAX_VIEW_SIZE;
        assert_eq!(lift(max).validate(), Ok(()));
        let err = lift(max + 1).validate().unwrap_err();
        assert_eq!(err.knob, "protocol");
        assert_eq!(
            err.reason,
            format!("LIFT views above {max} outgrow the score table's index")
        );
        assert_eq!(lift(usize::MAX).validate().unwrap_err().knob, "protocol");
    }

    /// A ranked protocol with a zero parameter is rejected with knob
    /// `"protocol"` and the reason its family config gives, except the
    /// zeros that mean "off" (no rotation, no waiting list) and LIFT's
    /// fade interval, the one rule no config states.
    #[test]
    fn ranked_zero_parameters_rejected_with_their_configs_reason() {
        let uniform = |protocol| Scenario {
            protocol,
            ..Scenario::default()
        };
        let (view_size, rotation_interval) = (0, 10);
        for protocol in [
            Protocol::Basalt {
                view_size,
                rotation_interval,
            },
            Protocol::BasaltTee {
                view_size,
                rotation_interval,
                wlist_ttl: 8,
            },
            Protocol::Lift {
                view_size,
                fade_interval: 10,
            },
            Protocol::Honeybee {
                view_size,
                walk_length: 4,
            },
            Protocol::Honeybee {
                view_size: 20,
                walk_length: 0,
            },
        ] {
            let s = uniform(protocol);
            let reason = s.family_config(protocol).validate().unwrap_err();
            let err = s.validate().unwrap_err();
            assert_eq!((err.knob, err.reason.as_str()), ("protocol", reason));
        }
        let err = uniform(Protocol::Lift {
            view_size: 20,
            fade_interval: 0,
        })
        .validate()
        .unwrap_err();
        assert_eq!(err.knob, "protocol");
        assert!(err.reason.contains("fade interval"), "{err}");
        for off in [
            Protocol::Basalt {
                view_size: 20,
                rotation_interval: 0,
            },
            Protocol::BasaltTee {
                view_size: 20,
                rotation_interval: 0,
                wlist_ttl: 0,
            },
        ] {
            assert_eq!(uniform(off).validate(), Ok(()), "{off:?}");
        }
    }

    /// At view size 1, `α·l1` rounds to 0: a Brahms or RAPTEE node
    /// would push and pull nothing, so the run is rejected with its
    /// config's reason, while a ranked family at the same view runs on
    /// a parity fanout of 1.
    #[test]
    fn a_brahms_family_view_that_renews_nothing_rejected() {
        let view_one = |protocol| Scenario {
            view_size: 1,
            sample_size: 1,
            protocol,
            ..Scenario::default()
        };
        let s = view_one(Protocol::Raptee);
        let reason = s.family_config(Protocol::Raptee).validate().unwrap_err();
        assert!(reason.contains("rounds to 0"), "{reason}");
        let err = s.validate().unwrap_err();
        assert_eq!((err.knob, err.reason.as_str()), ("protocol", reason));
        let basalt = view_one(Protocol::Basalt {
            view_size: 1,
            rotation_interval: 10,
        });
        assert_eq!(basalt.validate(), Ok(()));
    }

    /// The same rule at a larger view: `γ` close enough to 1 leaves
    /// `α·l1 = (1 − γ)/2 · l1` below one half, inside the `[0, 1)` range
    /// the `gamma` knob accepts.
    #[test]
    fn a_gamma_that_renews_nothing_rejected_under_protocol() {
        let with = |gamma, view_size| Scenario {
            gamma,
            view_size,
            sample_size: view_size,
            ..Scenario::default()
        };
        let err = with(0.95, 10).validate().unwrap_err();
        assert_eq!(err.knob, "protocol");
        assert!(err.reason.contains("rounds to 0"), "{err}");
        // α·l1 = 1 at γ = 0.8 and at γ = 0.95 over a view of 40.
        assert_eq!(with(0.8, 10).validate(), Ok(()));
        assert_eq!(with(0.95, 40).validate(), Ok(()));
    }

    /// In a population the Brahms-family segment is what breaks the
    /// rule, under knob `"population"`; ranked segments alone run at a
    /// view of one slot.
    #[test]
    fn a_segment_that_renews_nothing_rejected_under_population() {
        let s = Scenario {
            view_size: 1,
            sample_size: 1,
            n: 401,
            ..Scenario::default()
        };
        let basalt = Protocol::Basalt {
            view_size: 1,
            rotation_interval: 10,
        };
        let lift = Protocol::Lift {
            view_size: 1,
            fade_interval: 10,
        };
        for brahms_family in [Protocol::Brahms, Protocol::Raptee] {
            let err = s
                .half_and_half(basalt, brahms_family)
                .validate()
                .unwrap_err();
            assert_eq!(err.knob, "population", "{brahms_family:?}");
            assert!(err.reason.contains("rounds to 0"), "{err}");
        }
        assert_eq!(s.half_and_half(basalt, lift).validate(), Ok(()));
    }

    /// A population segment with a zero parameter is rejected the same
    /// way, under knob `"population"`.
    #[test]
    fn segment_zero_parameters_rejected_under_population() {
        for protocol in [
            Protocol::Basalt {
                view_size: 0,
                rotation_interval: 10,
            },
            Protocol::Lift {
                view_size: 20,
                fade_interval: 0,
            },
            Protocol::Honeybee {
                view_size: 20,
                walk_length: 0,
            },
        ] {
            let s = Scenario {
                n: 401,
                ..Scenario::default()
            }
            .half_and_half(Protocol::Raptee, protocol);
            let uniform = Scenario {
                protocol,
                ..Scenario::default()
            };
            let (mixed, alone) = (s.validate().unwrap_err(), uniform.validate().unwrap_err());
            assert_eq!(mixed.knob, "population", "{protocol:?}");
            assert_eq!(mixed.reason, alone.reason, "{protocol:?}");
        }
    }

    #[test]
    fn raptee_only_toggles_need_a_uniform_brahms_family_run() {
        let s = Scenario {
            identification_attack: true,
            ..Scenario::default()
        };
        assert_eq!(s.validate(), Ok(()));
        assert_eq!(s.brahms_baseline().validate(), Ok(()));
        for ranked in [
            Scenario {
                protocol: Protocol::Basalt {
                    view_size: 20,
                    rotation_interval: 10,
                },
                ..s.clone()
            },
            Scenario {
                protocol: Protocol::Lift {
                    view_size: 20,
                    fade_interval: 10,
                },
                ..s.clone()
            },
            Scenario {
                protocol: Protocol::Honeybee {
                    view_size: 20,
                    walk_length: 4,
                },
                ..s.clone()
            },
        ] {
            let err = ranked.validate().unwrap_err();
            assert_eq!(err.knob, "identification_attack", "{err}");
            // The family variants clear the toggle they would reject.
            assert_eq!(
                Scenario {
                    identification_attack: false,
                    ..ranked
                }
                .validate(),
                Ok(())
            );
        }
        assert_eq!(s.basalt_variant(10).validate(), Ok(()));
        assert_eq!(s.lift_variant(10).validate(), Ok(()));
        assert_eq!(s.honeybee_variant(4).validate(), Ok(()));
    }

    #[test]
    fn event_network_validates() {
        let s = Scenario::default().evented_zero_latency();
        s.validate().unwrap();
        assert_eq!(
            s.network,
            NetworkModel::Events(EventNetConfig::default()),
            "equivalence config is the all-zero default"
        );
        Scenario::default()
            .with_network(EventNetConfig {
                latency: LatencyModel::LogNormal {
                    mu: 5.0,
                    sigma: 0.8,
                    cap: 4000,
                },
                jitter: 250,
                partitions: vec![PartitionWindow {
                    start: 10,
                    end: 30,
                    boundary: 500,
                }],
                reachability: Reachability::Nat {
                    fraction: 0.3,
                    hole_ttl: 3,
                },
                ..EventNetConfig::default()
            })
            .validate()
            .unwrap();
    }

    /// The knob `validate` blames for `s`.
    fn rejected(s: Scenario) -> &'static str {
        s.validate().unwrap_err().knob
    }

    #[test]
    fn event_network_rejects_jitter_over_round() {
        let s = Scenario::default().with_network(EventNetConfig {
            round_ticks: 100,
            jitter: 100,
            ..EventNetConfig::default()
        });
        assert_eq!(rejected(s), "network.jitter");
    }

    #[test]
    fn event_network_rejects_partition_past_run() {
        let s = Scenario::default();
        let rounds = s.rounds;
        let s = s.with_network(EventNetConfig {
            partitions: vec![PartitionWindow {
                start: 5,
                end: rounds + 1,
                boundary: 10,
            }],
            ..EventNetConfig::default()
        });
        let err = s.validate().unwrap_err();
        assert_eq!(err.knob, "network.partitions");
        assert_eq!(
            err.to_string(),
            "network.partitions: partition windows need start < end <= rounds"
        );
    }

    #[test]
    fn event_network_rejects_inverted_uniform() {
        let s = Scenario::default().with_network(EventNetConfig {
            latency: LatencyModel::Uniform { min: 9, max: 3 },
            ..EventNetConfig::default()
        });
        assert_eq!(rejected(s), "network.latency");
    }

    #[test]
    fn event_network_rejects_full_nat() {
        let s = Scenario::default().with_network(EventNetConfig {
            reachability: Reachability::Nat {
                fraction: 1.0,
                hole_ttl: 2,
            },
            ..EventNetConfig::default()
        });
        assert_eq!(rejected(s), "network.reachability");
    }

    fn mixed(n: usize, f: f64, specs: &[(Protocol, usize)]) -> Scenario {
        Scenario {
            n,
            byzantine_fraction: f,
            population: specs
                .iter()
                .map(|&(protocol, count)| SegmentSpec { protocol, count })
                .collect(),
            ..Scenario::default()
        }
    }

    fn basalt_tee(view: usize) -> Protocol {
        Protocol::BasaltTee {
            view_size: view,
            rotation_interval: 15,
            wlist_ttl: 8,
        }
    }

    #[test]
    fn basalt_tee_variant_keeps_trusted_tier() {
        let s = Scenario {
            trusted_fraction: 0.2,
            ..Scenario::default()
        };
        let b = s.basalt_tee_variant(30, 10);
        b.validate().unwrap();
        assert_eq!(
            b.protocol,
            Protocol::BasaltTee {
                view_size: s.view_size,
                rotation_interval: 30,
                wlist_ttl: 10
            }
        );
        assert_eq!(b.trusted_count(), 200, "the trusted tier survives");
        assert!(b.protocol.supports_trusted());
        assert_eq!(b.protocol.label(), "basalt-tee");
    }

    #[test]
    fn uniform_scenarios_are_one_segment() {
        let s = Scenario::default();
        let segs = s.segments();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].protocol, Protocol::Raptee);
        assert_eq!(segs[0].count, s.n - s.byzantine_count());
        assert_eq!(s.segment_trusted_counts(), vec![s.trusted_count()]);
    }

    #[test]
    fn mixed_population_validates_and_partitions() {
        let s = mixed(400, 0.1, &[(Protocol::Raptee, 180), (basalt_tee(20), 180)]);
        s.validate().unwrap();
        assert_eq!(s.byzantine_count(), 40);
        let segs = s.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs.iter().map(|x| x.count).sum::<usize>(), 360);
    }

    #[test]
    fn trusted_tier_splits_proportionally_over_tee_segments() {
        let mut s = mixed(400, 0.1, &[(Protocol::Raptee, 180), (basalt_tee(20), 180)]);
        s.trusted_fraction = 0.1; // round(0.1·400) = 40 trusted total
        s.validate().unwrap();
        assert_eq!(s.segment_trusted_counts(), vec![20, 20]);
        assert_eq!(s.trusted_count(), 40);

        // Brahms segments never take trusted nodes.
        let mut s = mixed(
            400,
            0.1,
            &[(Protocol::Brahms, 180), (Protocol::Raptee, 180)],
        );
        s.trusted_fraction = 0.1;
        s.validate().unwrap();
        assert_eq!(s.segment_trusted_counts(), vec![0, 40]);

        // No TEE-capable segment → no trusted tier at all.
        let mut s = mixed(
            400,
            0.1,
            &[
                (Protocol::Brahms, 180),
                (
                    Protocol::Basalt {
                        view_size: 20,
                        rotation_interval: 15,
                    },
                    180,
                ),
            ],
        );
        s.trusted_fraction = 0.1;
        s.validate().unwrap();
        assert_eq!(s.trusted_count(), 0);
    }

    #[test]
    fn trusted_remainder_lands_in_segment_order() {
        let mut s = mixed(100, 0.1, &[(Protocol::Raptee, 45), (basalt_tee(10), 45)]);
        s.trusted_fraction = 0.05; // 5 trusted over two 45-node segments
        s.validate().unwrap();
        assert_eq!(s.segment_trusted_counts(), vec![3, 2]);
    }

    #[test]
    fn both_spellings_size_the_tier_alike() {
        // A uniform run and its one-segment population must agree on
        // validity, on the tier's size, and on the tier the engine
        // builds. The grid reaches trusted targets above the correct
        // population, n = 3, f = t = 0.5 among them.
        const FRACTIONS: [f64; 6] = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75];
        let built = |s: &Scenario| {
            let sim = crate::Simulation::new(s.clone());
            (0..s.total_actors() as u64)
                .filter(|&i| sim.is_trusted(raptee_net::NodeId(i)))
                .count()
        };
        for protocol in [Protocol::Raptee, basalt_tee(8)] {
            for n in 2..=40 {
                for (f, t) in FRACTIONS.iter().flat_map(|&f| FRACTIONS.map(|t| (f, t))) {
                    let uniform = Scenario {
                        n,
                        byzantine_fraction: f,
                        trusted_fraction: t,
                        view_size: 8,
                        sample_size: 8,
                        protocol,
                        ..Scenario::default()
                    };
                    let correct = n - uniform.byzantine_count();
                    if f + t > 1.0 || correct == 0 {
                        continue;
                    }
                    let spelled = uniform.with_population(vec![SegmentSpec {
                        protocol,
                        count: correct,
                    }]);
                    let case = format!("{protocol:?} n={n} f={f} t={t}");
                    let knob = |s: &Scenario| s.validate().map_err(|e| e.knob);
                    assert_eq!(knob(&uniform), knob(&spelled), "{case}");
                    if knob(&uniform).is_ok() {
                        let count = uniform.trusted_count();
                        assert_eq!(count, spelled.trusted_count(), "{case}");
                        assert_eq!(uniform.segment_trusted_counts(), [count], "{case}");
                        assert_eq!(spelled.segment_trusted_counts(), [count], "{case}");
                        // One segment either way: the builder lays out both alike.
                        assert_eq!(count, built(&uniform), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn half_and_half_splits_correct_population() {
        let s = Scenario {
            n: 401,
            byzantine_fraction: 0.1,
            ..Scenario::default()
        }
        .half_and_half(Protocol::Raptee, basalt_tee(20));
        s.validate().unwrap();
        let segs = s.segments();
        assert_eq!(segs[0].count + segs[1].count, 401 - s.byzantine_count());
        assert!(segs[0].count >= segs[1].count);
    }

    #[test]
    fn population_counts_must_sum() {
        let err = mixed(400, 0.1, &[(Protocol::Raptee, 100), (basalt_tee(20), 100)])
            .validate()
            .unwrap_err();
        assert_eq!(err.knob, "population");
        assert!(
            err.reason.contains("sum to the correct population"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_protocols_rejected() {
        let s = mixed(
            400,
            0.1,
            &[(Protocol::Raptee, 180), (Protocol::Raptee, 180)],
        );
        assert_eq!(rejected(s), "population");
    }

    #[test]
    fn empty_segment_rejected() {
        let s = mixed(400, 0.1, &[(Protocol::Raptee, 0), (basalt_tee(20), 360)]);
        assert_eq!(rejected(s), "population");
    }

    #[test]
    fn mixed_rejects_identification_attack() {
        let mut s = mixed(
            400,
            0.1,
            &[(Protocol::Raptee, 180), (Protocol::Brahms, 180)],
        );
        s.identification_attack = true;
        assert_eq!(rejected(s), "identification_attack");
    }

    #[test]
    fn basalt_tee_rejects_injection() {
        let mut s = Scenario::default().basalt_tee_variant(15, 8);
        s.injected_poisoned_fraction = 0.1;
        assert_eq!(rejected(s), "injected_poisoned_fraction");
    }

    #[test]
    fn baseline_and_variants_clear_population() {
        let s = mixed(400, 0.1, &[(Protocol::Raptee, 180), (basalt_tee(20), 180)]);
        assert!(s.brahms_baseline().population.is_empty());
        assert!(s.basalt_variant(15).population.is_empty());
        assert!(s.basalt_tee_variant(15, 8).population.is_empty());
    }

    #[test]
    fn overfull_population_rejected() {
        let s = Scenario {
            byzantine_fraction: 0.7,
            trusted_fraction: 0.5,
            ..Scenario::default()
        };
        assert_eq!(rejected(s), "trusted_fraction");
    }

    #[test]
    fn negative_fraction_rejected() {
        let s = Scenario {
            byzantine_fraction: -0.1,
            ..Scenario::default()
        };
        let err = s.validate().unwrap_err();
        assert_eq!(err.knob, "byzantine_fraction");
        assert_eq!(err.reason, "byzantine_fraction must be in [0,1]");
    }

    #[test]
    fn actor_count_is_bounded_by_u32_indices() {
        let at_limit = Scenario {
            n: u32::MAX as usize,
            ..Scenario::default()
        };
        at_limit.validate().unwrap();
        for s in [
            Scenario {
                n: u32::MAX as usize + 1,
                ..Scenario::default()
            },
            Scenario {
                n: usize::MAX,
                ..Scenario::default()
            },
            // Injected actors count too.
            Scenario {
                n: u32::MAX as usize,
                injected_poisoned_fraction: 0.01,
                ..Scenario::default()
            },
        ] {
            assert_eq!(s.validate().unwrap_err().knob, "n", "n = {}", s.n);
        }
    }

    #[test]
    fn discovery_mode_resolves_by_scale() {
        let small = Scenario::default();
        assert_eq!(small.discovery, DiscoveryMode::Auto);
        assert!(!small.sketch_discovery(), "default scale stays exact");
        assert!(!Scenario::paper_scale().sketch_discovery());
        let huge = Scenario {
            n: 100_000,
            ..Scenario::default()
        };
        assert!(huge.sketch_discovery(), "auto switches above the threshold");
        let forced = Scenario {
            n: 100_000,
            discovery: DiscoveryMode::Sketch,
            ..Scenario::default()
        };
        forced.validate().unwrap();
        assert!(forced.sketch_discovery());
        let forced_exact = Scenario {
            discovery: DiscoveryMode::Exact,
            ..Scenario::default()
        };
        forced_exact.validate().unwrap();
        assert!(!forced_exact.sketch_discovery());
    }

    #[test]
    fn one_shot_churn_matches_legacy_fields() {
        let c = ChurnSchedule::one_shot(0.2, 30);
        assert_eq!(c.crash_fraction, 0.2);
        assert_eq!(c.crash_round, 30);
        assert!(!c.dynamic(), "a one-shot batch is not continuous churn");
        Scenario {
            churn: c,
            ..Scenario::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn burst_overrides_steady_rate_inside_its_window() {
        let c = ChurnSchedule {
            crash_rate: 0.01,
            restart_rate: 0.2,
            bursts: vec![ChurnBurst {
                start: 10,
                end: 20,
                crash_rate: 0.3,
            }],
            ..ChurnSchedule::default()
        };
        assert!(c.dynamic());
        assert_eq!(c.crash_rate_at(9), 0.01);
        assert_eq!(c.crash_rate_at(10), 0.3);
        assert_eq!(c.crash_rate_at(19), 0.3);
        assert_eq!(c.crash_rate_at(20), 0.01);
        Scenario {
            churn: c,
            ..Scenario::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn one_shot_crash_past_the_run_rejected() {
        let s = Scenario {
            churn: ChurnSchedule::one_shot(0.2, 120),
            rounds: 120,
            ..Scenario::default()
        };
        assert_eq!(rejected(s), "churn.crash_round");
    }

    #[test]
    fn full_steady_crash_rate_rejected() {
        let s = Scenario {
            churn: ChurnSchedule::steady(1.0, 0.5),
            ..Scenario::default()
        };
        assert_eq!(rejected(s), "churn.crash_rate");
    }

    #[test]
    fn churn_burst_past_the_run_rejected() {
        let s = Scenario {
            churn: ChurnSchedule {
                bursts: vec![ChurnBurst {
                    start: 100,
                    end: 200,
                    crash_rate: 0.2,
                }],
                ..ChurnSchedule::default()
            },
            rounds: 120,
            ..Scenario::default()
        };
        assert_eq!(rejected(s), "churn.bursts");
    }

    #[test]
    fn attest_ttl_requires_trusted_tier() {
        let s = Scenario {
            attest_ttl: 20,
            protocol: Protocol::Brahms,
            ..Scenario::default()
        };
        assert_eq!(rejected(s), "attest_ttl");
    }

    #[test]
    fn attest_ttl_validates_with_trusted_tier() {
        Scenario {
            attest_ttl: 20,
            trusted_fraction: 0.1,
            ..Scenario::default()
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn retry_without_backoff_base_rejected() {
        let s = Scenario::default().with_network(EventNetConfig {
            retry: RetryConfig {
                max_retries: 3,
                base_backoff: 0,
            },
            ..EventNetConfig::default()
        });
        assert_eq!(rejected(s), "network.retry");
    }

    #[test]
    fn reorder_without_duplicates_rejected() {
        let s = Scenario::default().with_network(EventNetConfig {
            reorder_jitter: 50,
            ..EventNetConfig::default()
        });
        assert_eq!(rejected(s), "network.reorder_jitter");
    }

    #[test]
    fn fault_injectors_validate() {
        Scenario::default()
            .with_network(EventNetConfig {
                retry: RetryConfig {
                    max_retries: 3,
                    base_backoff: 120,
                },
                duplicate_rate: 0.25,
                reorder_jitter: 80,
                ..EventNetConfig::default()
            })
            .validate()
            .unwrap();
    }

    #[test]
    fn forced_exact_discovery_rejected_at_scale() {
        let err = Scenario {
            n: (EXACT_FORCE_LIMIT) + 1,
            discovery: DiscoveryMode::Exact,
            ..Scenario::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.knob, "discovery");
        assert!(err.reason.contains("2 GiB guard"), "{err}");
    }
}
