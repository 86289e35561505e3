//! Determinism regression suite.
//!
//! The performance work (allocation-free round engine, sampler
//! seen-cache, batched delivery, dynamically scheduled sweeps) is only valid if
//! it is *observationally invisible*: identical seeds must keep yielding
//! bit-identical [`RunResult`]s. Two layers of protection:
//!
//! 1. **Golden fingerprints** — the exact metric bits each pinned
//!    scenario produced when it was introduced (the first five at the
//!    seed commit). Any change to an RNG draw, a delivery order that
//!    matters, or a metric fold breaks these constants. Every golden is
//!    one [`assert_golden`] call, which checks the whole determinism
//!    contract on it: the same result at 1, 2 and 4 intra-run threads,
//!    the pinned fingerprint, and — on the round model — the same
//!    result as the zero-latency event run, the one engine path under
//!    the other reporting rule.
//! 2. **Thread-count invariance of aggregates** — repetition/sweep
//!    aggregates under 1 worker vs several (through the rayon shim's
//!    scoped override), so the shim's dynamic scheduler provably cannot
//!    leak schedule dependence into results.

use raptee_sim::{
    runner, AdversaryMode, AttackStrategy, AuditConfig, AuditStats, ChurnSchedule, DiscoveryMode,
    EventNetConfig, LatencyModel, NetRunStats, NetworkModel, PartitionWindow, Protocol,
    Reachability, RejoinPolicy, RetryConfig, RunResult, Scenario, SegmentSpec, Simulation,
};

/// A compact, bit-exact fingerprint of a [`RunResult`].
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    resilience_bits: u64,
    series_hash: u64,
    discovery: Option<usize>,
    mean_discovery_bits: Option<u64>,
    stability: Option<usize>,
    spread_stability: Option<usize>,
    floods: u64,
    evicted: u64,
    rotations: u64,
}

fn fingerprint(r: &RunResult) -> Fingerprint {
    let series_hash = r
        .byz_share_series
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits());
    Fingerprint {
        resilience_bits: r.resilience.to_bits(),
        series_hash,
        discovery: r.discovery_round,
        mean_discovery_bits: r.mean_discovery_round.map(f64::to_bits),
        stability: r.stability_round,
        spread_stability: r.spread_stability_round,
        floods: r.floods_detected,
        evicted: r.total_evicted,
        rotations: r.seed_rotations,
    }
}

fn base(protocol: Protocol) -> Scenario {
    Scenario {
        n: 150,
        byzantine_fraction: 0.1,
        trusted_fraction: 0.1,
        view_size: 12,
        sample_size: 12,
        rounds: 60,
        tail_window: 10,
        protocol,
        seed: 0xD5EED,
        ..Scenario::default()
    }
}

fn churn_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee);
    s.message_loss = 0.1;
    s.churn = ChurnSchedule::one_shot(0.15, 20);
    s.sampler_validation_period = 5;
    s.identification_attack = true;
    s
}

/// Trusted-node injection (Section VI-B) under loss: 5 % extra
/// view-poisoned trusted nodes bootstrapped inside a Byzantine-only
/// network and advertised by the adversary.
fn injected_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee);
    s.injected_poisoned_fraction = 0.05;
    s.message_loss = 0.05;
    s
}

/// The raptee golden scenario with the real four-message HMAC
/// handshake before every pull instead of the role shortcut (the nonce
/// draws shift the node RNG streams, so the bits differ from
/// `golden_raptee`).
fn real_handshakes_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee);
    s.real_crypto_handshakes = true;
    s
}

fn basalt_targeted_scenario() -> Scenario {
    let mut s = base(Protocol::Brahms).basalt_variant(10);
    s.attack = AttackStrategy::Targeted {
        victim_fraction: 0.2,
        focus: 0.6,
    };
    s.message_loss = 0.05;
    s
}

/// The random-identity targeted plan: a Brahms-family segment, so the
/// focused share advertises random Byzantine IDs.
fn raptee_targeted_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee);
    s.attack = AttackStrategy::Targeted {
        victim_fraction: 0.2,
        focus: 0.6,
    };
    s
}

/// The round-robin identity plan against Brahms-family victims.
fn brahms_force_push_scenario() -> Scenario {
    let mut s = base(Protocol::Brahms).brahms_baseline();
    s.attack = AttackStrategy::ForcePush;
    s
}

/// Mixed population #1: Brahms + plain BASALT halves under message
/// loss — the two un-hardened protocols sharing one adversary.
fn mixed_brahms_basalt_scenario() -> Scenario {
    let mut s = base(Protocol::Brahms).brahms_baseline().half_and_half(
        Protocol::Brahms,
        Protocol::Basalt {
            view_size: 12,
            rotation_interval: 15,
        },
    );
    s.message_loss = 0.05;
    s
}

/// Mixed population #2: RAPTEE + BASALT+TEE halves, both with trusted
/// tiers (t = 10 % split across the segments), under churn.
fn mixed_raptee_basalt_tee_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee).half_and_half(
        Protocol::Raptee,
        Protocol::BasaltTee {
            view_size: 12,
            rotation_interval: 15,
            wlist_ttl: 8,
        },
    );
    s.churn = ChurnSchedule::one_shot(0.1, 25);
    s.sampler_validation_period = 5;
    s
}

/// LIFT under loss: hub-score-weighted replacement on the ranked
/// engine lane, pinned with the same workload knobs as the BASALT
/// golden so family-level drift is easy to spot.
fn lift_scenario() -> Scenario {
    let mut s = base(Protocol::Brahms).lift_variant(15);
    s.message_loss = 0.05;
    s
}

/// Honeybee under loss: verifiable random walks (live waiting-list
/// quarantine on the endpoints) on the same workload.
fn honeybee_scenario() -> Scenario {
    let mut s = base(Protocol::Brahms).honeybee_variant(4);
    s.message_loss = 0.05;
    s
}

/// The adaptive adversary on the two-family mixed population: the UCB
/// coordinator re-aims the lawful budget across (segment, strategy)
/// arms each round. Pinned so the bandit's deterministic choice
/// sequence is part of the golden surface.
fn adaptive_mixed_scenario() -> Scenario {
    let mut s = mixed_brahms_basalt_scenario();
    s.adversary_mode = AdversaryMode::Adaptive;
    s
}

/// The sketch-discovery determinism scenario: the raptee golden
/// scenario with HLL sketches forced on (well below the automatic
/// crossover, so exact-mode goldens are untouched). Runs longer than
/// `base` because the 60-round exact run only crosses the 75 %
/// discovery target in its final rounds — a few percent of sketch
/// estimation error must not push the crossing off the end of the run.
fn sketch_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee);
    s.discovery = DiscoveryMode::Sketch;
    s.rounds = 120;
    s
}

/// Event family #1 (latency-only): the raptee golden scenario on the
/// event engine with log-normal per-link latency and desynchronised
/// round timers — a realistic WAN where a tail of answers and pushes
/// crosses round boundaries.
fn event_latency_scenario() -> Scenario {
    base(Protocol::Raptee).with_network(EventNetConfig {
        latency: LatencyModel::LogNormal {
            mu: 6.2,
            sigma: 0.8,
            cap: 5_000,
        },
        round_ticks: 1_000,
        jitter: 200,
        ..EventNetConfig::default()
    })
}

/// Event family #2 (partition-and-heal): a clean cut through the
/// population for 15 rounds mid-run; held messages release at the heal.
fn event_partition_scenario() -> Scenario {
    base(Protocol::Raptee).with_network(EventNetConfig {
        latency: LatencyModel::Uniform { min: 50, max: 600 },
        partitions: vec![PartitionWindow {
            start: 10,
            end: 25,
            boundary: 75,
        }],
        ..EventNetConfig::default()
    })
}

/// Event family #3 (NAT eclipse): 40 % of the correct population behind
/// NAT-like asymmetric reachability — unsolicited inbound pushes bounce
/// unless the receiver recently contacted the sender, starving the
/// natted tail of honest pushes while pulls (outbound) still work.
fn event_nat_eclipse_scenario() -> Scenario {
    base(Protocol::Raptee).with_network(EventNetConfig {
        latency: LatencyModel::Constant(100),
        reachability: Reachability::Nat {
            fraction: 0.4,
            hole_ttl: 3,
        },
        ..EventNetConfig::default()
    })
}

/// Robustness family #1 (this PR): steady churn with warm-rejoin
/// restarts riding on the lognormal-latency event substrate, with
/// bounded-backoff retries and a duplicate/reorder fault injector — the
/// full dynamic-membership surface in one pinned run.
fn event_churn_recovery_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee).with_network(EventNetConfig {
        latency: LatencyModel::LogNormal {
            mu: 6.2,
            sigma: 0.8,
            cap: 5_000,
        },
        round_ticks: 1_000,
        jitter: 200,
        retry: RetryConfig {
            max_retries: 2,
            base_backoff: 250,
        },
        duplicate_rate: 0.1,
        reorder_jitter: 50,
        ..EventNetConfig::default()
    });
    s.churn = ChurnSchedule::steady(0.02, 0.4);
    s.churn.rejoin = RejoinPolicy::Warm;
    s
}

/// Robustness family #2 (this PR): attestation certificates expiring on
/// a 15-round TTL over the 10 % trusted tier — degraded nodes act
/// untrusted until re-attestation heals them.
fn trusted_expiry_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee);
    s.attest_ttl = 15;
    s
}

/// Audit family (PR 9): the NAT-eclipse substrate with the verifiable
/// audit layer switched on and gentle warm-rejoin churn — commitments,
/// challenger sampling, conviction/quarantine and the churn interaction
/// (re-commits after restarts) in one pinned run.
fn audit_eclipse_scenario() -> Scenario {
    let mut s = event_nat_eclipse_scenario();
    s.audit = Some(AuditConfig {
        budget: 4,
        grace: 8,
    });
    s.churn = ChurnSchedule::steady(0.01, 0.4);
    s.churn.rejoin = RejoinPolicy::Warm;
    s
}

/// The audit layer on the round model: uniform RAPTEE whose 10 %
/// trusted tier commits its views, with no partition for the
/// challenger's lookup to find.
fn audited_scenario() -> Scenario {
    let mut s = base(Protocol::Raptee);
    s.audit = Some(AuditConfig {
        budget: 4,
        grace: 8,
    });
    s
}

/// Every family at once: Raptee, Brahms, BASALT, BASALT+TEE, LIFT and
/// Honeybee segments under steady churn, loss, audits and the proactive
/// trusted directory, with `rejoin` as every restart's path — so each
/// ranked family's rejoin, waiting-list and quarantine code runs in one
/// pinned population.
fn six_families_churn_scenario(rejoin: RejoinPolicy) -> Scenario {
    let base = base(Protocol::Raptee);
    let families = [
        Protocol::Raptee,
        Protocol::Brahms,
        Protocol::Basalt {
            view_size: 12,
            rotation_interval: 15,
        },
        Protocol::BasaltTee {
            view_size: 12,
            rotation_interval: 15,
            wlist_ttl: 8,
        },
        Protocol::Lift {
            view_size: 12,
            fade_interval: 15,
        },
        Protocol::Honeybee {
            view_size: 12,
            walk_length: 4,
        },
    ];
    let correct = base.n - base.byzantine_count();
    let segments = families
        .into_iter()
        .enumerate()
        .map(|(i, protocol)| SegmentSpec {
            protocol,
            count: correct / 6 + usize::from(i < correct % 6),
        })
        .collect();
    let mut s = base.with_population(segments);
    s.churn = ChurnSchedule::steady(0.02, 0.4);
    s.churn.rejoin = rejoin;
    s.audit = Some(AuditConfig {
        budget: 4,
        grace: 8,
    });
    s.trusted_directory_refresh = 5;
    s.message_loss = 0.05;
    s
}

/// The determinism contract, checked on one golden scenario:
///
/// 1. the run is the same at 1, 2 and 4 intra-run threads, so neither
///    a repeated run nor the phase-parallel schedule moves a bit — and
///    at the ambient `RAYON_NUM_THREADS` when it is none of these, so a
///    suite pinned to 8 workers runs every golden at 8;
/// 2. it produces the pinned `golden` fingerprint, and a lone segment
///    reports the combined resilience;
/// 3. on the round model, the zero-latency event run equals it (see
///    [`assert_equivalent`]).
///
/// Returns the 1-thread result, from which a golden reads its further
/// pins instead of running the scenario again.
fn assert_golden(name: &str, scenario: Scenario, golden: Fingerprint) -> RunResult {
    let run =
        |threads| rayon::with_num_threads(threads, || Simulation::new(scenario.clone()).run());
    let result = run(1);
    let mut counts = vec![2, 4];
    let ambient = rayon::current_num_threads();
    if ![1, 2, 4].contains(&ambient) {
        counts.push(ambient);
    }
    for threads in counts {
        assert_eq!(
            run(threads),
            result,
            "{name}: RunResult must match at {threads} intra-run threads"
        );
    }
    assert_eq!(
        fingerprint(&result),
        golden,
        "{name}: RunResult diverged from the seed-commit engine"
    );
    if let [only] = &result.segments[..] {
        assert_eq!(
            only.resilience.to_bits(),
            result.resilience.to_bits(),
            "{name}: the single segment must report the combined resilience"
        );
    }
    if scenario.network == NetworkModel::Rounds {
        assert_equivalent(name, &scenario, &result);
    }
    result
}

/// Asserts the zero-latency event run of round-model `scenario`
/// reproduces its round run exactly — every metric, every series value,
/// every per-segment result — with only the reporting rule's fields
/// apart: a round run counts one tick per round and reports no net
/// counters.
fn assert_equivalent(name: &str, scenario: &Scenario, round: &RunResult) {
    let mut event = Simulation::new(scenario.evented_zero_latency()).run();
    assert_eq!(
        event.net,
        Some(NetRunStats::default()),
        "{name}: the zero-latency substrate must route nothing through the queue"
    );
    assert_eq!(
        event.virtual_ticks,
        round.rounds as u64 * 1_000,
        "{name}: event time advances in whole synchronized rounds"
    );
    assert_eq!(
        round.net, None,
        "{name}: a round run reports no net counters"
    );
    assert_eq!(round.virtual_ticks, round.rounds as u64);
    event.net = None;
    event.virtual_ticks = round.virtual_ticks;
    assert_eq!(
        &event, round,
        "{name}: zero-latency event run diverged from the round run"
    );
}

/// An [`AuditStats`] as one comparable tuple, in field order, with the
/// quarantine series folded to its length and hash.
type AuditPins = (
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    Option<u64>,
    u64,
    u64,
    usize,
    u64,
);

fn audit_pins(a: &AuditStats) -> AuditPins {
    let series_hash = a
        .quarantine_series
        .iter()
        .fold(0u64, |acc, &v| acc.rotate_left(7) ^ u64::from(v));
    (
        a.audits_issued,
        a.audits_answered,
        a.cleared,
        a.suspected,
        a.convictions,
        a.false_accusations,
        a.detected_byzantine,
        a.mean_detection_latency.map(f64::to_bits),
        a.commitments_recorded,
        a.chain_restarts,
        a.quarantine_series.len(),
        series_hash,
    )
}

/// A ten-round `base` run: small enough to break on purpose.
fn tiny() -> Scenario {
    Scenario {
        n: 60,
        rounds: 10,
        tail_window: 5,
        ..base(Protocol::Raptee)
    }
}

// The contract's checks bite: each refuses a result that breaks it.

#[test]
#[should_panic(expected = "RunResult diverged from the seed-commit engine")]
fn assert_golden_refuses_a_moved_pin() {
    let pinned = fingerprint(&Simulation::new(tiny()).run());
    assert_golden(
        "moved pin",
        tiny(),
        Fingerprint {
            floods: pinned.floods + 1,
            ..pinned
        },
    );
}

#[test]
#[should_panic(expected = "zero-latency event run diverged from the round run")]
fn assert_equivalent_refuses_a_diverged_round_run() {
    let mut round = Simulation::new(tiny()).run();
    round.total_evicted += 1;
    assert_equivalent("diverged", &tiny(), &round);
}

#[test]
#[should_panic(expected = "a round run reports no net counters")]
fn assert_equivalent_refuses_net_counters_on_a_round_run() {
    let mut round = Simulation::new(tiny()).run();
    round.net = Some(NetRunStats::default());
    assert_equivalent("net counters", &tiny(), &round);
}

// Golden constants captured from the engine BEFORE the perf rewrite
// (PR 2 state), at the scenarios above.

#[test]
fn golden_brahms() {
    assert_golden(
        "brahms",
        base(Protocol::Brahms).brahms_baseline(),
        Fingerprint {
            resilience_bits: 0x3fda3ddc203b4efa,
            series_hash: 0x977d282f517c692,
            discovery: None,
            mean_discovery_bits: None,
            stability: Some(11),
            spread_stability: None,
            floods: 1,
            evicted: 0,
            rotations: 0,
        },
    );
}

#[test]
fn golden_raptee() {
    assert_golden(
        "raptee",
        base(Protocol::Raptee),
        Fingerprint {
            resilience_bits: 0x3fd942da9bc93fe8,
            series_hash: 0xcf5597f0420987a6,
            discovery: None,
            mean_discovery_bits: Some(4633423779339946151),
            stability: Some(12),
            spread_stability: None,
            floods: 4,
            evicted: 21465,
            rotations: 0,
        },
    );
}

#[test]
fn golden_basalt() {
    assert_golden(
        "basalt",
        base(Protocol::Brahms).basalt_variant(15),
        Fingerprint {
            resilience_bits: 0x3fc09fcb68cd4e41,
            series_hash: 0xa9cc604284e88158,
            discovery: None,
            mean_discovery_bits: Some(4618751561592782251),
            stability: Some(12),
            spread_stability: None,
            floods: 0,
            evicted: 0,
            rotations: 540,
        },
    );
}

#[test]
fn golden_raptee_under_churn_loss_validation_and_identification() {
    let r = assert_golden(
        "raptee-churn",
        churn_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd910204974809e,
            series_hash: 0x1bccb30147a4c96f,
            discovery: None,
            mean_discovery_bits: None,
            stability: Some(35),
            spread_stability: None,
            floods: 0,
            evicted: 16960,
            rotations: 0,
        },
    );
    // The fingerprint omits `RunResult::identification`, so the attack's
    // observation pulls and per-round classification are pinned here.
    let id = r.identification.expect("the identification attack is on");
    assert_eq!(
        (
            id.precision.to_bits(),
            id.recall.to_bits(),
            id.f1.to_bits(),
            id.round
        ),
        (
            0x3fd83759f2298376,
            0x3fedddddddddddde,
            0x3fe13b13b13b13b2,
            48
        ),
        "raptee-churn: IdentificationResult diverged from the seed-commit engine"
    );
}

// Golden constants for the two uniform-RAPTEE capabilities no other
// golden reaches — injected poisoned trusted nodes and real handshakes —
// captured at the last commit that still had a separate uniform lane.

#[test]
fn golden_raptee_injected() {
    assert_golden(
        "raptee-injected",
        injected_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd616c8c6ad6c1e,
            series_hash: 0x48071d376d5ca521,
            discovery: None,
            mean_discovery_bits: Some(4632912606498898254),
            stability: Some(7),
            spread_stability: None,
            floods: 1,
            evicted: 29666,
            rotations: 0,
        },
    );
}

#[test]
fn golden_raptee_real_handshakes() {
    assert_golden(
        "raptee-real-handshakes",
        real_handshakes_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd709d1d78e3735,
            series_hash: 0x6048a23232ae5a17,
            discovery: None,
            mean_discovery_bits: Some(4632969405969277141),
            stability: Some(10),
            spread_stability: None,
            floods: 3,
            evicted: 21970,
            rotations: 0,
        },
    );
}

#[test]
fn golden_basalt_under_targeted_attack_and_loss() {
    assert_golden(
        "basalt-targeted",
        basalt_targeted_scenario(),
        Fingerprint {
            resilience_bits: 0x3fc12b5caa69f096,
            series_hash: 0x7ae0846b13676301,
            discovery: Some(51),
            mean_discovery_bits: Some(4619542959363840151),
            stability: Some(10),
            spread_stability: None,
            floods: 0,
            evicted: 0,
            rotations: 810,
        },
    );
}

// Golden constants for the two Brahms-family plans no uniform golden
// above runs (random-ID targeted, round-robin force push), captured
// before the adversary's planners became one.

#[test]
fn golden_raptee_under_targeted_attack() {
    assert_golden(
        "raptee-targeted",
        raptee_targeted_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd860cc99cd93e2,
            series_hash: 0x152932889742e748,
            discovery: None,
            mean_discovery_bits: Some(4633466610765878613),
            stability: Some(12),
            spread_stability: None,
            floods: 5,
            evicted: 23905,
            rotations: 0,
        },
    );
}

#[test]
fn golden_brahms_under_force_push() {
    assert_golden(
        "brahms-force-push",
        brahms_force_push_scenario(),
        Fingerprint {
            resilience_bits: 0x3fda9b272e1f2b75,
            series_hash: 0xf38f64f19ab4f1a4,
            discovery: None,
            mean_discovery_bits: None,
            stability: Some(11),
            spread_stability: None,
            floods: 3,
            evicted: 0,
            rotations: 0,
        },
    );
}

// Golden constants for multi-segment populations, captured at the PR 5
// introduction commit. They run the same lane as the uniform goldens
// above: a uniform scenario is a one-segment population.

#[test]
fn golden_mixed_brahms_basalt() {
    let r = assert_golden(
        "mixed-brahms-basalt",
        mixed_brahms_basalt_scenario(),
        Fingerprint {
            resilience_bits: 0x3fc9cda0a95bb63b,
            series_hash: 0x448d08372a1e1020,
            discovery: None,
            mean_discovery_bits: Some(4627133993233927481),
            stability: Some(3),
            spread_stability: None,
            floods: 6,
            evicted: 0,
            rotations: 268,
        },
    );
    // Per-segment pollution is part of the pinned surface as well.
    let seg_bits: Vec<u64> = r.segments.iter().map(|s| s.resilience.to_bits()).collect();
    assert_eq!(seg_bits, vec![0x3fd1c93ab62af98b, 0x3fbfc6f0f89ce953]);
    assert_eq!(r.segments[0].protocol, Protocol::Brahms);
    assert!(
        r.segments[1].resilience < r.segments[0].resilience,
        "the BASALT half must stay cleaner than the Brahms half"
    );
}

#[test]
fn golden_mixed_raptee_basalt_tee() {
    let r = assert_golden(
        "mixed-raptee-basalt-tee",
        mixed_raptee_basalt_tee_scenario(),
        Fingerprint {
            resilience_bits: 0x3fcab0a1c4d4b6d5,
            series_hash: 0xc5d4b56bfa25dadf,
            discovery: None,
            mean_discovery_bits: Some(4626768043502488254),
            stability: Some(6),
            spread_stability: None,
            floods: 3,
            evicted: 12690,
            rotations: 250,
        },
    );
    let seg_bits: Vec<u64> = r.segments.iter().map(|s| s.resilience.to_bits()).collect();
    assert_eq!(seg_bits, vec![0x3fd267dd24c3b6aa, 0x3fc0bc035b7d0ff2]);
}

// Golden constant for the sketch-discovery engine (this PR), captured
// at its introduction commit. Sketches touch nothing but the discovery
// counters — `sketch_mode_only_moves_discovery_metrics` below proves
// the non-discovery metrics stay bit-identical to an exact run of the
// same scenario.

#[test]
fn golden_sketch_raptee() {
    assert_golden(
        "raptee-sketch",
        sketch_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd88874ce99e6f6,
            series_hash: 0xfeb9f7ed8dbcc980,
            discovery: None,
            mean_discovery_bits: Some(4634281981934209955),
            stability: Some(11),
            spread_stability: None,
            floods: 4,
            evicted: 41893,
            rotations: 0,
        },
    );
}

// Golden constants for the LIFT / Honeybee protocol families and the
// adaptive adversary (this PR), captured at their introduction commit.
// The pre-existing goldens above are untouched by construction: with
// `AdversaryMode::Static` and a non-ranked or BASALT protocol the new
// code paths consume zero RNG draws.

#[test]
fn golden_lift() {
    assert_golden(
        "lift",
        lift_scenario(),
        Fingerprint {
            resilience_bits: 4588185012371869861,
            series_hash: 8344924728755860859,
            discovery: Some(4),
            mean_discovery_bits: Some(4612898595231693904),
            stability: Some(9),
            spread_stability: Some(9),
            floods: 0,
            evicted: 0,
            rotations: 0,
        },
    );
}

#[test]
fn golden_honeybee() {
    assert_golden(
        "honeybee",
        honeybee_scenario(),
        Fingerprint {
            resilience_bits: 4595063843802712798,
            series_hash: 1628966297862320722,
            discovery: Some(8),
            mean_discovery_bits: Some(4614639924362755912),
            stability: Some(15),
            spread_stability: None,
            floods: 0,
            evicted: 0,
            rotations: 0,
        },
    );
}

#[test]
fn golden_adaptive_mixed() {
    let adaptive = assert_golden(
        "adaptive-mixed",
        adaptive_mixed_scenario(),
        Fingerprint {
            resilience_bits: 4596544877487963725,
            series_hash: 9871653851333298584,
            discovery: None,
            mean_discovery_bits: Some(4627340315227848702),
            stability: Some(1),
            spread_stability: None,
            floods: 9,
            evicted: 0,
            rotations: 268,
        },
    );
    // The adaptive coordinator must *move the needle* relative to the
    // same mixed population under the static balanced split — its whole
    // point is concentrating the budget where pollution sticks. The
    // static run's resilience is `golden_mixed_brahms_basalt`'s.
    let static_resilience = f64::from_bits(0x3fc9cda0a95bb63b);
    assert!(
        adaptive.resilience > static_resilience,
        "adaptive ({}) must out-pollute the static proportional split ({static_resilience})",
        adaptive.resilience,
    );
}

#[test]
fn sketch_mode_only_moves_discovery_metrics() {
    // Sketches replace the discovery counters and nothing else, so
    // every non-discovery metric matches the exact run bit-for-bit and
    // the discovery estimate stays within the HLL error envelope.
    let mut exact_scenario = sketch_scenario();
    exact_scenario.discovery = DiscoveryMode::Auto; // 150 actors → exact
    let exact = Simulation::new(exact_scenario).run();
    let sketched = Simulation::new(sketch_scenario()).run();
    assert_eq!(
        exact.resilience.to_bits(),
        sketched.resilience.to_bits(),
        "resilience must not depend on the discovery representation"
    );
    assert_eq!(exact.byz_share_series, sketched.byz_share_series);
    assert_eq!(exact.stability_round, sketched.stability_round);
    assert_eq!(exact.total_evicted, sketched.total_evicted);
    assert_eq!(exact.floods_detected, sketched.floods_detected);
    match (exact.mean_discovery_round, sketched.mean_discovery_round) {
        (Some(e), Some(s)) => {
            let bound = (0.20 * e).max(1.5);
            assert!(
                (e - s).abs() <= bound,
                "sketched mean discovery round {s} strays more than ±{bound:.2} from exact {e}"
            );
        }
        (e, s) => panic!("both modes must report a discovery round, got {e:?} vs {s:?}"),
    }
}

#[test]
fn one_segment_runs_report_the_combined_result_however_spelled() {
    // Regression: an explicit one-segment population used to report
    // `segments[0]` by the per-segment rules (series-only stability,
    // 0.0 pushed on participant-less rounds) while the same run spelled
    // as a uniform scenario reported the combined values — Some(11) vs
    // Some(34) for the stability round here. A lone segment is the
    // population: both spellings must report the combined result.
    let uniform = Scenario {
        n: 200,
        byzantine_fraction: 0.1,
        trusted_fraction: 0.1,
        view_size: 30,
        sample_size: 30,
        rounds: 50,
        protocol: Protocol::Brahms,
        seed: 5,
        ..Scenario::default()
    };
    let explicit = uniform.with_population(vec![SegmentSpec {
        protocol: uniform.protocol,
        count: uniform.n - uniform.byzantine_count(),
    }]);
    let a = Simulation::new(uniform).run();
    let b = Simulation::new(explicit).run();
    assert_eq!(a.stability_round, Some(34));
    for r in [&a, &b] {
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.segments[0].stability_round, r.stability_round);
        assert_eq!(r.segments[0].mean_discovery_round, r.mean_discovery_round);
    }
    assert_eq!(a, b, "the two spellings of one run must agree entirely");
}

#[test]
fn repetitions_identical_across_thread_counts() {
    // One scenario per protocol; the repetition loop is the rayon-shim
    // surface, so aggregates must not depend on the worker count.
    for scenario in [
        base(Protocol::Brahms).brahms_baseline(),
        base(Protocol::Raptee),
        base(Protocol::Brahms).basalt_variant(15),
    ] {
        let serial = rayon::with_num_threads(1, || runner::run_repeated(&scenario, 3));
        for threads in [2, 4] {
            let parallel = rayon::with_num_threads(threads, || runner::run_repeated(&scenario, 3));
            assert_eq!(
                serial, parallel,
                "{:?}: aggregates must match at {threads} threads",
                scenario.protocol
            );
        }
    }
}

// Golden constants for the dynamic-membership engine (this PR),
// captured at its introduction commit. Beyond the usual fingerprint
// each run pins its recovery family — the new observable surface.

/// Hashes a per-round f64 series the same way the fingerprint does.
fn series_hash(series: &[f64]) -> u64 {
    series
        .iter()
        .fold(0u64, |acc, v| acc.rotate_left(7) ^ v.to_bits())
}

#[test]
fn golden_event_churn_recovery() {
    let r = assert_golden(
        "event-churn-recovery",
        event_churn_recovery_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd98445e3a0cece,
            series_hash: 0x66de0f1926767bfb,
            discovery: None,
            mean_discovery_bits: None,
            stability: Some(19),
            spread_stability: None,
            floods: 1,
            evicted: 0x4d20,
            rotations: 0,
        },
    );
    assert_eq!(
        r.net,
        Some(NetRunStats {
            late_deliveries: 68930,
            partition_held: 0,
            partition_released: 0,
            nat_blocked: 0,
            refused_pulls: 0,
            in_flight_at_end: 1288,
            retries_issued: 35460,
            duplicates_suppressed: 35063,
            nonce_evictions: 22527,
        }),
        "substrate counters diverged from the introduction commit"
    );
    let rec = r.recovery.expect("dynamic churn pins recovery stats");
    assert_eq!(rec.availability.to_bits(), 0x3fee4c1acd0d86e4);
    assert_eq!((rec.crashes, rec.restarts, rec.recovered), (163, 154, 96));
    assert_eq!(
        rec.mean_time_to_recover.map(f64::to_bits),
        Some(0x40276aaaaaaaaaab),
        "mean TTR ≈ 11.7 rounds at the introduction commit"
    );
    assert_eq!(rec.trusted_live_fraction.len(), 60);
    assert_eq!(series_hash(&rec.trusted_live_fraction), 0xd31a1b9070e26651);
}

#[test]
fn golden_trusted_expiry() {
    let r = assert_golden(
        "trusted-expiry",
        trusted_expiry_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd8b12bb080a020,
            series_hash: 0x89fa4474b0cbf2f,
            discovery: None,
            mean_discovery_bits: Some(0x404d27999999999a),
            stability: Some(11),
            spread_stability: None,
            floods: 7,
            evicted: 0x6069,
            rotations: 0,
        },
    );
    let rec = r.recovery.expect("attestation expiry pins recovery stats");
    // No churn: every node-round is live and nothing restarts.
    assert_eq!(rec.availability.to_bits(), 1.0f64.to_bits());
    assert_eq!((rec.crashes, rec.restarts, rec.recovered), (0, 0, 0));
    assert_eq!(rec.mean_time_to_recover, None);
    // The degradation/heal cycle: the tier starts whole, dips to 73 %
    // live-and-attested, and the exact per-round trace is pinned.
    assert_eq!(rec.trusted_live_fraction.len(), 60);
    assert_eq!(
        rec.trusted_live_fraction
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .to_bits(),
        (11.0f64 / 15.0).to_bits()
    );
    assert_eq!(series_hash(&rec.trusted_live_fraction), 0xa031a18827913f9);
}

#[test]
fn sweep_grid_identical_across_thread_counts() {
    let mut template = base(Protocol::Raptee);
    template.rounds = 25;
    template.tail_window = 5;
    let fs = [0.1, 0.2];
    let ts = [0.05, 0.2];
    let serial = rayon::with_num_threads(1, || runner::sweep_grid(&template, &fs, &ts, 1));
    let stolen = rayon::with_num_threads(4, || runner::sweep_grid(&template, &fs, &ts, 1));
    assert_eq!(serial.baselines, stolen.baselines);
    assert_eq!(serial.grid, stolen.grid);
}

// Golden constants for the event-driven network model (this PR),
// captured at its introduction commit. Each run also pins the
// delivery-substrate counters — the event engine's observable surface
// beyond the protocol metrics.

/// Asserts the substrate counters of one event-family golden run.
fn assert_golden_net(name: &str, r: &RunResult, net: NetRunStats) {
    assert_eq!(
        r.net,
        Some(net),
        "{name}: substrate counters diverged from the introduction commit"
    );
    assert_eq!(r.virtual_ticks, 60_000, "{name}: 60 rounds × 1000 ticks");
}

#[test]
fn golden_event_latency() {
    let r = assert_golden(
        "event-latency",
        event_latency_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd68944a9645797,
            series_hash: 0x4ee7b463bfe737f3,
            discovery: None,
            mean_discovery_bits: Some(0x4049339f656f1825),
            stability: Some(16),
            spread_stability: None,
            floods: 2,
            evicted: 0x53b7,
            rotations: 0,
        },
    );
    assert_golden_net(
        "event-latency",
        &r,
        NetRunStats {
            late_deliveries: 36088,
            partition_held: 0,
            partition_released: 0,
            nat_blocked: 0,
            refused_pulls: 0,
            in_flight_at_end: 859,
            retries_issued: 0,
            duplicates_suppressed: 0,
            nonce_evictions: 24792,
        },
    );
}

#[test]
fn golden_event_partition() {
    let r = assert_golden(
        "event-partition",
        event_partition_scenario(),
        Fingerprint {
            resilience_bits: 0x3fd88ab80af8fadb,
            series_hash: 0xf78584275a77e646,
            discovery: None,
            mean_discovery_bits: Some(0x404aaf0329161f9c),
            stability: Some(37),
            spread_stability: None,
            floods: 124,
            evicted: 0x4efd,
            rotations: 0,
        },
    );
    assert_golden_net(
        "event-partition",
        &r,
        NetRunStats {
            late_deliveries: 5946,
            partition_held: 3510,
            // Every held message releases at the heal — none dropped.
            partition_released: 3510,
            nat_blocked: 0,
            refused_pulls: 2769,
            in_flight_at_end: 46,
            retries_issued: 0,
            duplicates_suppressed: 0,
            nonce_evictions: 2369,
        },
    );
}

#[test]
fn golden_event_nat_eclipse() {
    let r = assert_golden(
        "event-nat-eclipse",
        event_nat_eclipse_scenario(),
        Fingerprint {
            resilience_bits: 0x3fe00554ecdfa5aa,
            series_hash: 0xa780f3bf8a789193,
            discovery: None,
            mean_discovery_bits: None,
            stability: Some(11),
            spread_stability: None,
            floods: 1,
            evicted: 0x3b6c,
            rotations: 0,
        },
    );
    assert_golden_net(
        "event-nat-eclipse",
        &r,
        NetRunStats {
            late_deliveries: 0,
            partition_held: 0,
            partition_released: 0,
            nat_blocked: 12477,
            refused_pulls: 0,
            in_flight_at_end: 0,
            retries_issued: 0,
            duplicates_suppressed: 0,
            nonce_evictions: 0,
        },
    );
    // The eclipse story the fingerprint encodes: the round-model raptee
    // golden converges near 0.395 pollution; behind 40 % NAT the same
    // scenario converges near 0.50 — starving natted nodes of honest
    // pushes hands the adversary a materially larger view share.
    let natted = f64::from_bits(0x3fe00554ecdfa5aa);
    let open = f64::from_bits(0x3fd942da9bc93fe8);
    assert!(natted > open + 0.05);
}

// Golden constants for the verifiable audit layer (PR 9), captured at
// its introduction commit: the protocol fingerprint plus the full
// AuditStats family — the challenger's observable surface.

#[test]
fn golden_audit_eclipse() {
    let r = assert_golden(
        "audit-eclipse",
        audit_eclipse_scenario(),
        Fingerprint {
            resilience_bits: 0x3fbdc9175d75ca2a,
            series_hash: 0xfdeea7fe103682f7,
            discovery: None,
            mean_discovery_bits: None,
            stability: Some(57),
            spread_stability: None,
            floods: 10,
            evicted: 12407,
            rotations: 0,
        },
    );
    let a = r.audit.expect("the audit layer is on, stats must report");
    assert_eq!(
        audit_pins(&a),
        (
            231u64,
            227u64,
            216u64,
            4u64,
            11u64,
            0u64,
            11u64,
            // ≈ 24.09 rounds from activity to conviction at budget 4.
            Some(0x40381745d1745d17),
            891u64,
            0u64,
            60usize,
            0xd162244893257efb,
        ),
        "audit-eclipse: AuditStats diverged from the introduction commit"
    );
}

// Golden constant for the audit layer on the round model, captured at
// its introduction commit: the fingerprint plus the full AuditStats.

#[test]
fn golden_raptee_audited() {
    let r = assert_golden(
        "raptee-audited",
        audited_scenario(),
        Fingerprint {
            resilience_bits: 0x3fbf31867d410a5d,
            series_hash: 0x2d393329c5099d22,
            discovery: Some(57),
            mean_discovery_bits: Some(4630642924328920723),
            stability: Some(53),
            spread_stability: None,
            floods: 7,
            evicted: 20881,
            rotations: 0,
        },
    );
    let a = r.audit.expect("the audit layer is on, stats must report");
    assert_eq!(
        audit_pins(&a),
        (
            228u64,
            228u64,
            218u64,
            0u64,
            9u64,
            0u64,
            9u64,
            // ≈ 19.78 rounds from activity to conviction at budget 4.
            Some(0x4033c71c71c71c72),
            900u64,
            0u64,
            60usize,
            0xcb366cd6eddab96c,
        ),
        "raptee-audited: AuditStats diverged from the capture commit"
    );
}

// Golden constants for the six-family churn population, captured at its
// introduction commit: the fingerprint, every segment's resilience, the
// churn counts and the audit convictions.

/// Asserts one six-family churn golden: the fingerprint, then each
/// segment's resilience bits in layout order, the `(crashes, restarts,
/// recovered)` churn counts and the `(convictions, false accusations,
/// chain restarts)` audit outcome.
fn assert_six_families_golden(
    rejoin: RejoinPolicy,
    golden: Fingerprint,
    segments: [u64; 6],
    churn: (u64, u64, u64),
    audit: (u64, u64, u64),
) {
    let name = format!("six-families-churn-{rejoin:?}");
    let r = assert_golden(&name, six_families_churn_scenario(rejoin), golden);
    let seg_bits: Vec<u64> = r.segments.iter().map(|s| s.resilience.to_bits()).collect();
    assert_eq!(seg_bits, segments, "{name}: per-segment resilience");
    let rec = r.recovery.expect("steady churn reports recovery stats");
    assert_eq!(
        (rec.crashes, rec.restarts, rec.recovered),
        churn,
        "{name}: churn counts"
    );
    let a = r.audit.expect("the audit layer is on, stats must report");
    assert_eq!(
        (a.convictions, a.false_accusations, a.chain_restarts),
        audit,
        "{name}: convictions"
    );
}

#[test]
fn golden_six_families_churn_cold() {
    assert_six_families_golden(
        RejoinPolicy::Cold,
        Fingerprint {
            resilience_bits: 4586778195339764201,
            series_hash: 9889300995747811089,
            discovery: Some(42),
            mean_discovery_bits: Some(4621839514326414325),
            stability: Some(48),
            spread_stability: None,
            floods: 1,
            evicted: 11689,
            rotations: 143,
        },
        [
            0x3fb1653cc6d05c3b,
            0x3fae4bdb53613972,
            0x3f9695e12be29410,
            0x3fa207d73e00fb42,
            0x3fa588a9622a588a,
            0x3fa842ed085a7192,
        ],
        (163, 154, 96),
        // A cold rejoiner lost its sealed commitment state: its chain
        // restarts from genesis.
        (11, 0, 16),
    );
}

#[test]
fn golden_six_families_churn_warm() {
    assert_six_families_golden(
        RejoinPolicy::Warm,
        Fingerprint {
            resilience_bits: 4588264276040956256,
            series_hash: 3250079675568611396,
            discovery: Some(49),
            mean_discovery_bits: Some(4622020811581683364),
            stability: Some(50),
            spread_stability: None,
            floods: 3,
            evicted: 11679,
            rotations: 143,
        },
        [
            0x3facaa35f98d940e,
            0x3fb719a4f02feb24,
            0x3fa6213353c3b472,
            0x3fa22735cdc247b0,
            0x3fa63c15fe32d8c8,
            0x3fb1362d30af9a5e,
        ],
        (163, 154, 99),
        (11, 0, 0),
    );
}
