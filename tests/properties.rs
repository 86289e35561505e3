//! Cross-crate property-based tests on the protocol invariants.
//!
//! These complement the per-crate proptest suites with properties that
//! only make sense once several layers are composed.

use proptest::prelude::*;
use raptee::wire::Message;
use raptee::{EvictionPolicy, RapteeConfig, RapteeNode};
use raptee_brahms::BrahmsConfig;
use raptee_crypto::auth::AuthOutcome;
use raptee_crypto::SecretKey;
use raptee_net::{NodeId, SecureChannel};
use raptee_sim::adversary::split_budget;
use raptee_sim::event::EventNet;
use raptee_sim::{
    AdaptiveCoordinator, AdversaryMode, AttackStrategy, AuditConfig, ChurnBurst, ChurnSchedule,
    Discovery, DiscoveryMode, EventNetConfig, LatencyModel, NetworkModel, PartitionWindow,
    Protocol, Reachability, RetryConfig, RunResult, Scenario, SegmentSpec, Simulation,
};

fn config(view: usize, eviction: EvictionPolicy) -> RapteeConfig {
    RapteeConfig {
        brahms: BrahmsConfig::paper_defaults(view, view),
        eviction,
    }
}

fn event_net(cfg: EventNetConfig, rounds: usize) -> EventNet {
    let scenario = Scenario {
        n: 100,
        rounds,
        network: NetworkModel::Events(cfg),
        ..Scenario::default()
    };
    scenario.validate().unwrap();
    EventNet::from_scenario(&scenario)
}

/// The wild draw when `wild`, the sane default otherwise.
fn pick<T>(wild: bool, draw: T, sane: T) -> T {
    if wild {
        draw
    } else {
        sane
    }
}

/// Every `Protocol` variant, with parameters as drawn (zero included).
fn protocol(kind: u8, view_size: usize, p: usize, q: usize) -> Protocol {
    match kind % 6 {
        0 => Protocol::Brahms,
        1 => Protocol::Raptee,
        2 => Protocol::Basalt {
            view_size,
            rotation_interval: p,
        },
        3 => Protocol::BasaltTee {
            view_size,
            rotation_interval: p,
            wlist_ttl: q,
        },
        4 => Protocol::Lift {
            view_size,
            fade_interval: p,
        },
        _ => Protocol::Honeybee {
            view_size,
            walk_length: q,
        },
    }
}

/// A wild fraction: half of the draws fall outside `[0, 1]`.
const WILD: std::ops::Range<f64> = -0.5..1.5;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two trusted nodes always authenticate regardless of nonce draws
    /// and node identities; any other pairing never does.
    #[test]
    fn handshake_depends_only_on_keys(
        seed_a in 0u64..5000,
        seed_b in 0u64..5000,
        id_a in 0u64..1000,
        id_b in 1000u64..2000,
        trusted_pair in any::<bool>(),
    ) {
        let boot: Vec<NodeId> = (5000..5010).map(NodeId).collect();
        let cfg = config(8, EvictionPolicy::adaptive());
        let group = SecretKey::from_seed(42);
        let (mut a, mut b) = if trusted_pair {
            (
                RapteeNode::new_trusted(NodeId(id_a), cfg.clone(), &boot, seed_a, group.clone()),
                RapteeNode::new_trusted(NodeId(id_b), cfg, &boot, seed_b, group),
            )
        } else {
            (
                RapteeNode::new_trusted(NodeId(id_a), cfg.clone(), &boot, seed_a, group),
                RapteeNode::new_untrusted(NodeId(id_b), cfg, &boot, seed_b),
            )
        };
        let (oa, ob) = RapteeNode::run_handshake(&mut a, &mut b);
        prop_assert_eq!(oa, ob, "verdicts always agree");
        let expected = if trusted_pair { AuthOutcome::Trusted } else { AuthOutcome::Untrusted };
        prop_assert_eq!(oa, expected);
    }

    /// Eviction never admits more pulled IDs than were recorded, never
    /// evicts trusted-swap IDs, and reports a consistent count.
    #[test]
    fn eviction_accounting_is_consistent(
        rate in 0.0f64..=1.0,
        untrusted_ids in proptest::collection::vec(100u64..10_000, 0..120),
        seed in 0u64..1000,
    ) {
        let boot: Vec<NodeId> = (50..60).map(NodeId).collect();
        let cfg = config(10, EvictionPolicy::Fixed(rate));
        let mut node = RapteeNode::new_trusted(
            NodeId(1),
            cfg,
            &boot,
            seed,
            SecretKey::from_seed(7),
        );
        node.plan_round();
        let ids: Vec<NodeId> = untrusted_ids.iter().copied().map(NodeId).collect();
        node.record_untrusted_pull(&ids);
        let outcome = node.finish_round();
        prop_assert_eq!(outcome.evicted + outcome.admitted_pulled, ids.len());
        prop_assert!((outcome.eviction_rate - rate).abs() < 1e-12);
        if rate == 0.0 {
            prop_assert_eq!(outcome.evicted, 0);
        }
        if rate == 1.0 {
            prop_assert_eq!(outcome.admitted_pulled, 0);
        }
    }

    /// The trusted swap preserves view invariants and capacity on both
    /// sides for arbitrary disjoint bootstrap sets.
    #[test]
    fn trusted_swap_preserves_invariants(
        boot_a in proptest::collection::btree_set(100u64..200, 4..12),
        boot_b in proptest::collection::btree_set(300u64..400, 4..12),
        seed in 0u64..1000,
    ) {
        let cfg = config(12, EvictionPolicy::adaptive());
        let key = SecretKey::from_seed(3);
        let ba: Vec<NodeId> = boot_a.into_iter().map(NodeId).collect();
        let bb: Vec<NodeId> = boot_b.into_iter().map(NodeId).collect();
        let mut a = RapteeNode::new_trusted(NodeId(1), cfg.clone(), &ba, seed, key.clone());
        let mut b = RapteeNode::new_trusted(NodeId(2), cfg, &bb, seed ^ 1, key);
        a.plan_round();
        b.plan_round();
        RapteeNode::trusted_swap(&mut a, &mut b);
        for node in [&a, &b] {
            prop_assert!(node.brahms().view().invariants_hold());
            prop_assert!(node.brahms().view().len() <= 12);
            prop_assert!(node.directory().invariants_hold());
        }
        // Directories now reference each other.
        prop_assert!(a.directory().contains(NodeId(2)));
        prop_assert!(b.directory().contains(NodeId(1)));
    }

    /// The HLL-sketched discovery counter stays within its stated
    /// relative-error bound of the exact bitset counter for arbitrary
    /// insertion sequences (duplicates included — both sides must be
    /// idempotent). m = 256 registers give a ~6.5 % standard error; the
    /// bound below is ~3σ plus absolute slack for near-empty rows.
    #[test]
    fn sketched_discovery_tracks_exact_counts(
        idxs in proptest::collection::vec(0u64..5_000, 0..800),
        row_count in 1u64..4,
    ) {
        let rows = row_count as usize;
        let universe = 5_000;
        let mut exact = Discovery::new(rows, universe, false);
        let mut sketch = Discovery::new(rows, universe, true);
        prop_assert!(!exact.is_sketch());
        prop_assert!(sketch.is_sketch());
        for (k, &idx) in idxs.iter().enumerate() {
            let row = k % rows;
            exact.insert(row, idx as usize);
            sketch.insert(row, idx as usize);
        }
        for row in 0..rows {
            let truth = exact.count(row) as f64;
            let est = sketch.count(row) as f64;
            let bound = (0.20 * truth).max(2.0);
            prop_assert!(
                (est - truth).abs() <= bound,
                "row {}: sketch estimate {} vs exact {} exceeds the ±20% bound",
                row, est, truth
            );
        }
    }

    /// The bounded-backoff retry loop never issues more than
    /// `max_retries` extra attempts per gated pull, whatever the latency
    /// regime — and the global counter is exactly the sum of the
    /// per-pull deltas.
    #[test]
    fn retry_cap_is_never_exceeded(
        max_retries in 0u32..4,
        base_backoff in 1u64..800,
        latency in 0u64..6_000,
        pairs in proptest::collection::vec((10usize..55, 55usize..100), 1..40),
    ) {
        let mut net = event_net(
            EventNetConfig {
                latency: LatencyModel::Constant(latency),
                retry: RetryConfig { max_retries, base_backoff },
                ..EventNetConfig::default()
            },
            40,
        );
        net.begin_round(0);
        let mut issued = 0u64;
        for (req, tgt) in pairs {
            let before = net.stats().retries_issued;
            // The responder never materialises an answer here.
            let _ = net.gate_pull(0, req, tgt);
            let delta = net.stats().retries_issued - before;
            prop_assert!(
                delta <= u64::from(max_retries),
                "one pull issued {} retries past the cap {}", delta, max_retries
            );
            issued += delta;
        }
        prop_assert_eq!(net.stats().retries_issued, issued);
    }

    /// Nonce dedup is airtight: whatever the duplicate/reorder injector
    /// does, every queued exchange is applied exactly once and every
    /// extra delivered copy is counted as suppressed.
    #[test]
    fn duplicates_are_never_double_applied(
        duplicate_rate in 0.0f64..1.0,
        reorder in 0u64..500,
        answers in proptest::collection::vec((0u32..45, 100u64..200), 1..30),
    ) {
        let rounds = 6;
        let mut net = event_net(
            EventNetConfig {
                duplicate_rate,
                reorder_jitter: reorder,
                ..EventNetConfig::default()
            },
            rounds,
        );
        for (ci, from) in &answers {
            net.queue_answer(1, false, *ci, NodeId(*from), &[NodeId(7)]);
        }
        let mut delivered = 0usize;
        let mut applied = std::collections::HashMap::new();
        for r in 0..rounds {
            net.begin_round(r);
            let due = net.take_due_answers();
            delivered += due.len();
            for a in &due {
                if net.accept_answer(a) {
                    *applied.entry(a.exchange()).or_insert(0u32) += 1;
                }
            }
        }
        prop_assert_eq!(applied.len(), answers.len(), "every exchange lands");
        prop_assert!(applied.values().all(|&c| c == 1), "each applied exactly once");
        prop_assert_eq!(
            net.stats().duplicates_suppressed as usize,
            delivered - answers.len(),
            "every extra copy is a suppressed duplicate"
        );
    }

    /// A pull exchange survives an encrypted round trip through the
    /// secure channel for arbitrary views and nonces, each message in
    /// the direction §III-B sends it: the request initiator → responder,
    /// the answer responder → initiator.
    #[test]
    fn encrypted_wire_roundtrip(
        ids in proptest::collection::vec(any::<u64>(), 0..100),
        base_seed in any::<u64>(),
        initiator in 0u64..100,
        responder in 100u64..200,
    ) {
        let base = SecretKey::from_seed(base_seed);
        let mut at_initiator = SecureChannel::new(&base, NodeId(initiator), NodeId(responder));
        let mut at_responder = SecureChannel::new(&base, NodeId(initiator), NodeId(responder));
        let request = Message::PullRequest;
        let ct = at_initiator.seal_from_initiator(&request.encode());
        let decoded = Message::decode(&at_responder.open_from_initiator(&ct)).unwrap();
        prop_assert_eq!(decoded, request);
        let answer = Message::PullAnswer { ids: ids.into_iter().map(NodeId).collect() };
        let ct = at_responder.seal_from_responder(&answer.encode());
        let decoded = Message::decode(&at_initiator.open_from_responder(&ct)).unwrap();
        prop_assert_eq!(decoded, answer);
    }

    /// The adversary never mints budget: whatever the segment sizes,
    /// the static split and, whatever reward sequence the bandit
    /// observes, each round's adaptive split sum to exactly the lawful
    /// budget the engine hands `split_budget`.
    #[test]
    fn adaptive_allocations_conserve_the_budget(
        lens in proptest::collection::vec(1usize..5_000, 1..12),
        budget in 0usize..10_000,
        rewards in proptest::collection::vec(0.0f64..1.5, 1..60),
    ) {
        let split = |aimed| split_budget(budget, lens.iter().copied(), aimed).collect::<Vec<_>>();
        let shares = split(None);
        prop_assert_eq!(shares.len(), lens.len());
        prop_assert_eq!(shares.iter().sum::<usize>(), budget);
        let mut bandit = AdaptiveCoordinator::for_segments(lens.len());
        for reward in rewards {
            let arm = bandit.choose();
            let aimed = AdaptiveCoordinator::play(arm).0;
            let shares = split(Some(aimed));
            prop_assert_eq!(shares.len(), lens.len());
            prop_assert_eq!(shares.iter().sum::<usize>(), budget);
            prop_assert_eq!(shares[aimed], budget,
                "the whole budget rides the chosen arm's segment");
            bandit.reward(arm, reward);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `Scenario::validate` is total: it returns, never panics, on wild
    /// knob values — fractions in −0.5..1.5, sizes and rounds in 0..4,
    /// partition and burst windows past the run, population counts off
    /// by one, every protocol with zero parameters, each toggle on or
    /// off. Whatever it accepts builds, runs a round and keeps the
    /// engine's invariants, and runs to completion bit-identically at 1
    /// and 2 threads. Each knob takes its wild draw when its bit
    /// of the AND of four random words is set (one in sixteen), so about
    /// half of the cases validate and the rest break a rule or two.
    #[test]
    fn validate_is_total(
        masks in any::<[u64; 4]>(),
        (n, n_sane, view, sample, rounds, tail, split, delta) in
            (0usize..4, 8usize..49, 0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..49, 0usize..3),
        (byz, trusted, injected, gamma, loss, _threshold, flood, victim) in
            (WILD, WILD, WILD, WILD, WILD, WILD, WILD, WILD),
        (focus, lo, _hi, crash_fraction, crash_rate, restart, burst_rate, nat) in
            (WILD, WILD, WILD, WILD, WILD, WILD, WILD, WILD),
        (kind, kind_a, kind_b, p, q, attack, fixed_eviction, exact) in
            (0u8..6, 0u8..6, 0u8..6, 0usize..3, 0usize..3, 0u8..3, any::<bool>(), any::<bool>()),
        (crash_round, burst_start, burst_end, cut_start, cut_end, boundary, duplicate, sigma) in
            (0usize..12, 0usize..12, 0usize..12, 0usize..12, 0usize..12, 0usize..60, WILD, WILD),
        (latency, lat_a, lat_b, cap, retries, smalls) in
            (0u8..3, 0u64..300, 0u64..300, 0u64..3, 0u32..3, any::<[u8; 8]>()),
        toggles in any::<[bool; 4]>(),
    ) {
        let bits = masks.iter().fold(u64::MAX, |m, x| m & x);
        let w = |bit: u32| (bits >> bit) & 1 == 1;
        let small = |i: usize| usize::from(smalls[i] % 3);
        let mut s = Scenario {
            n: pick(w(0), n, n_sane),
            byzantine_fraction: pick(w(1), byz, 0.1),
            trusted_fraction: pick(w(2), trusted, 0.1),
            injected_poisoned_fraction: pick(w(3), injected, 0.0),
            view_size: pick(w(4), view, 6),
            sample_size: pick(w(5), sample, 6),
            rounds: pick(w(6), rounds, 8),
            tail_window: pick(w(7), tail, 3),
            gamma: pick(w(8), gamma, 0.2),
            message_loss: pick(w(9), loss, 0.0),
            flood_slack_sigmas: pick(w(11), flood, 4.0),
            attack: match pick(w(12), attack, 0) {
                0 => AttackStrategy::Balanced,
                1 => AttackStrategy::ForcePush,
                _ => AttackStrategy::Targeted { victim_fraction: victim, focus },
            },
            eviction: if w(13) && fixed_eviction {
                EvictionPolicy::Fixed(lo)
            } else {
                EvictionPolicy::adaptive()
            },
            churn: ChurnSchedule {
                crash_fraction: pick(w(14), crash_fraction, 0.0),
                crash_round,
                crash_rate: pick(w(15), crash_rate, 0.0),
                restart_rate: pick(w(16), restart, 0.0),
                bursts: pick(
                    w(17),
                    vec![ChurnBurst { start: burst_start, end: burst_end, crash_rate: burst_rate }],
                    Vec::new(),
                ),
                ..ChurnSchedule::default()
            },
            attest_ttl: pick(w(18), small(0), 0),
            audit: w(19).then(|| AuditConfig { budget: small(1), grace: small(2) }),
            trusted_directory_refresh: pick(w(20), small(3), 0),
            discovery: match (w(21), exact) {
                (false, _) => DiscoveryMode::Auto,
                (true, true) => DiscoveryMode::Exact,
                (true, false) => DiscoveryMode::Sketch,
            },
            adversary_mode: pick(w(22), AdversaryMode::Adaptive, AdversaryMode::Static),
            protocol: pick(w(23), protocol(kind, p, p, q), Protocol::Raptee),
            identification_attack: toggles[0],
            // toggles[1] is unused (its knob is gone); drawing it keeps every case as it was.
            trusted_swap: toggles[2],
            sampler_validation_period: small(4),
            seed: masks[0],
            ..Scenario::default()
        };
        if w(24) {
            let correct = s.n.saturating_sub(s.byzantine_count());
            let first = split.min(correct);
            let second = (correct - first + delta).saturating_sub(1);
            s.population = vec![
                SegmentSpec { protocol: protocol(kind_a, 6, p, q), count: first },
                SegmentSpec { protocol: protocol(kind_b, 6, q, p), count: second },
            ];
        }
        if toggles[3] {
            s.network = NetworkModel::Events(EventNetConfig {
                latency: match pick(w(25), latency, 0) {
                    0 => LatencyModel::Constant(lat_a),
                    1 => LatencyModel::Uniform { min: lat_a, max: lat_b },
                    _ => LatencyModel::LogNormal { mu: 5.0, sigma, cap },
                },
                round_ticks: pick(w(26), cap * 500, 1000),
                jitter: pick(w(27), lat_b * 5, 0),
                partitions: pick(
                    w(28),
                    vec![PartitionWindow { start: cut_start, end: cut_end, boundary }],
                    Vec::new(),
                ),
                reachability: pick(
                    w(29),
                    Reachability::Nat { fraction: nat, hole_ttl: small(5) },
                    Reachability::Full,
                ),
                retry: RetryConfig {
                    max_retries: pick(w(30), retries, 0),
                    base_backoff: small(6) as u64 * 100,
                },
                duplicate_rate: pick(w(31), duplicate, 0.0),
                reorder_jitter: pick(w(32), small(7) as u64 * 40, 0),
            });
        }
        if s.validate().is_ok() {
            let mut sim = Simulation::new(s.clone());
            sim.run_round();
            let checked = sim.check_invariants();
            prop_assert!(checked.is_ok(), "{:?}", checked);
            let serial = rayon::with_num_threads(1, || Simulation::new(s.clone()).run());
            let parallel = rayon::with_num_threads(2, || Simulation::new(s).run());
            prop_assert_eq!(split_floats(serial), split_floats(parallel));
        }
    }
}

/// `r` with every computed `f64` moved out into a list of bit patterns
/// (and zeroed in place), so two runs compare bit for bit and a NaN
/// equals itself.
fn split_floats(mut r: RunResult) -> (RunResult, Vec<u64>) {
    let mut bits = Vec::new();
    let mut take = |x: &mut f64| {
        bits.push(x.to_bits());
        *x = 0.0;
    };
    take(&mut r.resilience);
    r.mean_discovery_round.iter_mut().for_each(&mut take);
    r.byz_share_series.iter_mut().for_each(&mut take);
    if let Some(id) = &mut r.identification {
        take(&mut id.precision);
        take(&mut id.recall);
        take(&mut id.f1);
    }
    for seg in &mut r.segments {
        take(&mut seg.resilience);
        seg.mean_discovery_round.iter_mut().for_each(&mut take);
        seg.byz_share_series.iter_mut().for_each(&mut take);
    }
    if let Some(rec) = &mut r.recovery {
        take(&mut rec.availability);
        rec.mean_time_to_recover.iter_mut().for_each(&mut take);
        rec.trusted_live_fraction.iter_mut().for_each(&mut take);
    }
    if let Some(audit) = &mut r.audit {
        audit.mean_detection_latency.iter_mut().for_each(&mut take);
    }
    (r, bits)
}
