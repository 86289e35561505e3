use super::arena::{BLOCK, SMOOTHING_WINDOW};
use super::*;
use crate::scenario::{Protocol, RejoinPolicy, SegmentSpec};
use raptee::EvictionPolicy;

fn small(protocol: Protocol) -> Scenario {
    Scenario {
        n: 120,
        byzantine_fraction: 0.1,
        trusted_fraction: 0.05,
        view_size: 12,
        sample_size: 12,
        rounds: 90,
        tail_window: 10,
        protocol,
        seed: 424242,
        ..Scenario::default()
    }
}

#[test]
fn brahms_run_converges_below_catastrophe() {
    let result = Simulation::new(small(Protocol::Brahms)).run();
    assert_eq!(result.rounds, 90);
    assert!(result.resilience > 0.0, "some pollution is inevitable");
    assert!(
        result.resilience < 0.9,
        "Brahms keeps the adversary below near-total control: {}",
        result.resilience
    );
    assert_eq!(result.byz_share_series.len(), 90);
}

#[test]
fn raptee_beats_brahms_at_equal_workload() {
    // A healthy share of trusted nodes so the effect clears run-to-run
    // noise at this small scale (the full sweeps in the bench harness
    // cover the small-t regime with repetitions).
    let mut scenario = small(Protocol::Raptee);
    scenario.trusted_fraction = 0.2;
    let brahms = Simulation::new(scenario.brahms_baseline()).run();
    let raptee = Simulation::new(scenario).run();
    assert!(
        raptee.resilience < brahms.resilience,
        "RAPTEE {} should improve on Brahms {}",
        raptee.resilience,
        brahms.resilience
    );
}

#[test]
fn discovery_and_stability_reached_in_calm_runs() {
    let result = Simulation::new(small(Protocol::Brahms)).run();
    assert!(
        result.mean_discovery_round.is_some(),
        "mean discovery must complete: series tail {:?}",
        result.byz_share_series.last()
    );
    assert!(
        result.stability_round.is_some(),
        "stability must be reached"
    );
    if let (Some(all), Some(mean)) = (result.discovery_round, result.mean_discovery_round) {
        assert!(
            all as f64 >= mean.floor(),
            "all-nodes discovery cannot precede the mean"
        );
    }
}

#[test]
fn deterministic_per_seed() {
    let a = Simulation::new(small(Protocol::Raptee)).run();
    let b = Simulation::new(small(Protocol::Raptee)).run();
    assert_eq!(a, b);
    let mut other = small(Protocol::Raptee);
    other.seed = 99;
    let c = Simulation::new(other).run();
    assert_ne!(a.byz_share_series, c.byz_share_series);
}

#[test]
fn real_crypto_handshakes_match_shortcut() {
    let mut with_crypto = small(Protocol::Raptee);
    with_crypto.real_crypto_handshakes = true;
    with_crypto.rounds = 12;
    let mut shortcut = with_crypto.clone();
    shortcut.real_crypto_handshakes = false;
    // The handshake outcome is key equality either way; the RNG
    // streams differ (nonce draws), so compare qualitative behaviour:
    // both runs complete and produce sane shares.
    let a = Simulation::new(with_crypto).run();
    let b = Simulation::new(shortcut).run();
    assert_eq!(a.rounds, b.rounds);
    assert!((a.resilience - b.resilience).abs() < 0.25);
}

#[test]
fn eviction_only_happens_under_raptee() {
    let brahms = Simulation::new(small(Protocol::Brahms)).run();
    assert_eq!(brahms.total_evicted, 0);
    let mut s = small(Protocol::Raptee);
    s.eviction = EvictionPolicy::Fixed(0.8);
    let raptee = Simulation::new(s).run();
    assert!(raptee.total_evicted > 0);
}

#[test]
fn identification_attack_produces_result() {
    let mut s = small(Protocol::Raptee);
    s.identification_attack = true;
    s.eviction = EvictionPolicy::Fixed(1.0); // most detectable config
    s.trusted_fraction = 0.2;
    let result = Simulation::new(s).run();
    let ident = result.identification.expect("attack enabled");
    assert!(ident.precision >= 0.0 && ident.precision <= 1.0);
    assert!(ident.recall >= 0.0 && ident.recall <= 1.0);
}

#[test]
fn injected_nodes_join_population() {
    let mut s = small(Protocol::Raptee);
    s.injected_poisoned_fraction = 0.1;
    let sim = Simulation::new(s.clone());
    assert_eq!(sim.total_actors(), s.total_actors());
    // The injected trusted nodes start with fully Byzantine views.
    let first_injected = NodeId(s.n as u64);
    assert!(sim.is_trusted(first_injected));
    let node = sim.node(first_injected).unwrap();
    assert!(node
        .brahms()
        .view()
        .ids()
        .all(|id| id.index() < s.byzantine_count()));
    let result = sim.run();
    assert_eq!(result.rounds, s.rounds);
}

#[test]
fn message_loss_slows_but_does_not_break() {
    let mut s = small(Protocol::Brahms);
    s.message_loss = 0.5;
    s.rounds = 30;
    let r = Simulation::new(s).run();
    assert_eq!(r.rounds, 30);
    assert!(r.resilience < 0.95);
}

#[test]
fn crash_marks_nodes_dead_and_views_recover() {
    let mut s = small(Protocol::Brahms);
    s.churn = crate::scenario::ChurnSchedule::one_shot(0.2, 10);
    s.rounds = 30;
    let byz = s.byzantine_count();
    let n = s.n;
    let mut sim = Simulation::new(s);
    for _ in 0..30 {
        sim.run_round();
    }
    let dead = (byz..n)
        .filter(|&i| !sim.is_alive(NodeId(i as u64)))
        .count();
    let expected = ((n - byz) as f64 * 0.2).round() as usize;
    assert_eq!(dead, expected);
    // Survivors keep full views despite the departures.
    for i in byz..n {
        let id = NodeId(i as u64);
        if sim.is_alive(id) {
            assert!(!sim.node(id).unwrap().brahms().view().is_empty());
        }
    }
}

#[test]
fn targeted_attack_runs() {
    let mut s = small(Protocol::Brahms);
    s.attack = crate::scenario::AttackStrategy::Targeted {
        victim_fraction: 0.1,
        focus: 0.7,
    };
    s.rounds = 20;
    let r = Simulation::new(s).run();
    assert_eq!(r.rounds, 20);
}

#[test]
fn role_queries() {
    let s = small(Protocol::Raptee);
    let byz = s.byzantine_count();
    let sim = Simulation::new(s);
    assert!(sim.is_trusted(NodeId(byz as u64)));
    assert!(sim.node(NodeId(0)).is_none());
    assert!(sim.node(NodeId(byz as u64)).is_some());
}

#[test]
fn queries_about_an_id_beyond_the_run_answer_instead_of_panicking() {
    let mut s = small(Protocol::Raptee);
    s.audit = Some(crate::scenario::AuditConfig::with_budget(2));
    let sim = Simulation::new(s);
    for id in [NodeId(sim.total_actors() as u64), NodeId(u64::MAX)] {
        assert!(!sim.is_alive(id));
        assert!(!sim.is_trusted(id));
        assert!(!sim.is_quarantined(id));
        assert!(sim.node(id).is_none() && sim.basalt(id).is_none());
    }
}

#[test]
fn every_round_keeps_the_node_invariants() {
    let mut s = small(Protocol::Raptee);
    s.trusted_fraction = 0.2;
    s.rounds = 20;
    s.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
    let mut sim = Simulation::new(s);
    for _ in 0..20 {
        sim.run_round();
        assert_eq!(sim.check_invariants(), Ok(()));
    }
    // A directory entry that was never provisioned is named.
    let untrusted = (0..sim.total_actors())
        .map(|i| NodeId(i as u64))
        .find(|&id| sim.node(id).is_some() && !sim.is_trusted(id))
        .expect("an untrusted correct node");
    let trusted = (0..sim.total_actors())
        .map(|i| NodeId(i as u64))
        .find(|&id| sim.node(id).is_some() && sim.is_trusted(id))
        .expect("a trusted correct node");
    let ci = trusted.index() - sim.byz_count;
    let node = sim.nodes[ci].raptee_mut();
    if let Some(oldest) = node.directory().oldest() {
        node.forget_trusted_peer(oldest.id); // make room
    }
    node.note_trusted_peer(untrusted);
    let err = sim
        .check_invariants()
        .expect_err("an untrusted directory entry");
    assert!(err.contains("not a provisioned trusted actor"), "{err}");
}

#[test]
fn ranked_nodes_are_checked_too() {
    let mut sim = Simulation::new(half_mixed());
    for _ in 0..5 {
        sim.run_round();
        assert_eq!(sim.check_invariants(), Ok(()));
    }
    // A BASALT node made to rank identities beyond the run is named.
    let total = sim.total_actors();
    let ci = sim.nodes.len() - 1;
    let node = &mut sim.nodes[ci];
    assert!(
        matches!(node, Node::Basalt(_)),
        "the last segment is BASALT"
    );
    for stranger in total..total + 1_000 {
        node.record_push(NodeId(stranger as u64));
    }
    let err = sim.check_invariants().expect_err("a sampled stranger");
    assert!(err.contains("not an actor of this run"), "{err}");
}

/// Uniform RAPTEE with exactly `correct` correct nodes.
fn with_correct(correct: usize) -> Scenario {
    let base = Scenario {
        trusted_fraction: 0.1,
        view_size: 8,
        sample_size: 8,
        rounds: 6,
        tail_window: 3,
        protocol: Protocol::Raptee,
        seed: 31,
        ..Scenario::default()
    };
    (correct + 1..)
        .map(|n| Scenario { n, ..base.clone() })
        .find(|s| s.n - s.byzantine_count() == correct)
        .expect("some n leaves `correct` correct nodes")
}

/// [`with_correct`] split over all five families, as evenly as counts
/// allow.
fn mixed5_with_correct(correct: usize) -> Scenario {
    let s = with_correct(correct);
    let view_size = s.view_size;
    let families = [
        Protocol::Raptee,
        Protocol::Brahms,
        Protocol::Basalt {
            view_size,
            rotation_interval: 30,
        },
        Protocol::Lift {
            view_size,
            fade_interval: 20,
        },
        Protocol::Honeybee {
            view_size,
            walk_length: 5,
        },
    ];
    let segments = families
        .into_iter()
        .enumerate()
        .map(|(i, protocol)| SegmentSpec {
            protocol,
            count: correct / 5 + usize::from(i < correct % 5),
        })
        .collect();
    s.with_population(segments)
}

#[test]
fn block_edges_are_invisible_to_results() {
    for correct in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
        let mut runs = vec![with_correct(correct)];
        if correct >= 5 {
            runs.push(mixed5_with_correct(correct));
        }
        for s in runs {
            assert_eq!(s.validate(), Ok(()));
            let one = rayon::with_num_threads(1, || Simulation::new(s.clone()).run());
            let four = rayon::with_num_threads(4, || Simulation::new(s.clone()).run());
            let families = s.segments().len();
            assert_eq!(one, four, "{correct} correct nodes, {families} families");
        }
    }
}

/// Every family spends Brahms' budget: at one view size, each segment
/// of a six-family population grants the same per-identity push fanout,
/// the Brahms family's `α·l1`, which is the parity fanout from a view of
/// two up (at one slot `α·l1` rounds to 0, which validation rejects).
#[test]
fn every_segment_spends_the_brahms_budget() {
    for view_size in [2, 5, 8, 13, 21] {
        let segments = [
            Protocol::Raptee,
            Protocol::Brahms,
            Protocol::Basalt {
                view_size,
                rotation_interval: 30,
            },
            basalt_tee(view_size),
            Protocol::Lift {
                view_size,
                fade_interval: 20,
            },
            Protocol::Honeybee {
                view_size,
                walk_length: 5,
            },
        ]
        .map(|protocol| SegmentSpec {
            protocol,
            count: 10,
        });
        let s = Scenario {
            view_size,
            sample_size: view_size,
            ..with_correct(60)
        }
        .with_population(segments.to_vec());
        assert_eq!(s.validate(), Ok(()), "view {view_size}");
        let sim = Simulation::new(s);
        let fanouts: Vec<usize> = sim.segs.iter().map(|seg| seg.fanout).collect();
        let alpha = raptee::RapteeConfig::paper_defaults(view_size)
            .brahms
            .alpha_count();
        assert_eq!(fanouts, [alpha; 6], "view {view_size}");
        assert_eq!(alpha, raptee_net::parity_fanout(view_size));
        assert_eq!(sim.limiter_fanout, alpha, "view {view_size}");
    }
}

/// At one slot, where the Brahms family is rejected (`α·l1` rounds to
/// 0), every ranked family validates, and so must run: each segment
/// pushes the parity fanout of 1, which the shared limiter grants.
#[test]
fn every_ranked_family_runs_at_a_view_of_one() {
    let segments = [
        Protocol::Basalt {
            view_size: 1,
            rotation_interval: 2,
        },
        basalt_tee(1),
        Protocol::Lift {
            view_size: 1,
            fade_interval: 2,
        },
        Protocol::Honeybee {
            view_size: 1,
            walk_length: 3,
        },
    ]
    .map(|protocol| SegmentSpec {
        protocol,
        count: 10,
    });
    let s = Scenario {
        view_size: 1,
        sample_size: 1,
        ..with_correct(40)
    }
    .with_population(segments.to_vec());
    assert_eq!(s.validate(), Ok(()));
    let sim = Simulation::new(s);
    let fanouts: Vec<usize> = sim.segs.iter().map(|seg| seg.fanout).collect();
    assert_eq!(fanouts, [1; 4]);
    assert_eq!(sim.limiter_fanout, 1);
    let result = sim.run();
    assert_eq!(result.segments.len(), 4);
    assert!((0.0..=1.0).contains(&result.resilience), "{result:?}");
}

#[test]
fn the_arena_costs_nothing_over_its_largest_node() {
    let sizes = (
        std::mem::size_of::<Node>(),
        std::mem::size_of::<RapteeNode>(),
        std::mem::size_of::<BasaltNode>(),
    );
    assert_eq!(sizes.0, sizes.1, "Node, RapteeNode, BasaltNode: {sizes:?}");
    assert_eq!(sizes, (368, 368, 352), "Node, RapteeNode, BasaltNode");
}

#[test]
fn basalt_beats_brahms_under_balanced_attack() {
    // The head-to-head the BASALT paper argues qualitatively: ranked
    // hit-counter views bound the adversary near its population share,
    // where Brahms' renewal admits the full push/pull pressure.
    let s = small(Protocol::Brahms);
    let brahms = Simulation::new(s.clone()).run();
    let basalt = Simulation::new(s.basalt_variant(15)).run();
    assert_eq!(basalt.rounds, 90);
    assert!(basalt.resilience > 0.0, "some pollution is inevitable");
    assert!(
        basalt.resilience < brahms.resilience,
        "BASALT {} must undercut Brahms {}",
        basalt.resilience,
        brahms.resilience
    );
    assert_eq!(
        basalt.total_evicted, 0,
        "no eviction without a trusted tier"
    );
    assert_eq!(basalt.floods_detected, 0, "no Brahms flood detector runs");
}

#[test]
fn basalt_deterministic_per_seed() {
    let s = small(Protocol::Brahms).basalt_variant(15);
    let a = Simulation::new(s.clone()).run();
    let b = Simulation::new(s.clone()).run();
    assert_eq!(a, b);
    let mut other = s;
    other.seed = 99;
    let c = Simulation::new(other).run();
    assert_ne!(a.byz_share_series, c.byz_share_series);
}

#[test]
fn basalt_counts_seed_rotations() {
    let mut s = small(Protocol::Brahms).basalt_variant(10);
    s.rounds = 40;
    let r = Simulation::new(s.clone()).run();
    // 4 rotation epochs × one slot × every alive correct node.
    let expected = 4 * (s.n - s.byzantine_count()) as u64;
    assert_eq!(r.seed_rotations, expected);
    let never = Simulation::new(s.basalt_variant(0)).run();
    assert_eq!(never.seed_rotations, 0);
}

#[test]
fn basalt_discovery_and_stability_reached() {
    let result = Simulation::new(small(Protocol::Brahms).basalt_variant(15)).run();
    assert!(
        result.mean_discovery_round.is_some(),
        "mean discovery must complete: tail {:?}",
        result.byz_share_series.last()
    );
    assert!(
        result.stability_round.is_some(),
        "stability must be reached"
    );
}

#[test]
fn basalt_role_queries() {
    let s = small(Protocol::Brahms).basalt_variant(15);
    let byz = s.byzantine_count();
    let sim = Simulation::new(s);
    assert!(
        sim.basalt(NodeId(0)).is_none(),
        "Byzantine actors expose no node"
    );
    assert!(sim.basalt(NodeId(byz as u64)).is_some());
    assert!(
        sim.node(NodeId(byz as u64)).is_none(),
        "no RAPTEE nodes under BASALT"
    );
    assert!(!sim.is_trusted(NodeId(byz as u64)));
}

/// BASALT+TEE with its waiting list off and no trusted tier is plain
/// BASALT: the same config, the same nodes, the same run, bit for bit.
#[test]
fn basalt_tee_without_wlist_or_tier_runs_plain_basalt() {
    let basalt = Protocol::Basalt {
        view_size: 12,
        rotation_interval: 15,
    };
    let tee = Protocol::BasaltTee {
        view_size: 12,
        rotation_interval: 15,
        wlist_ttl: 0,
    };
    let run = |protocol| {
        let s = Scenario {
            trusted_fraction: 0.0,
            ..small(protocol)
        };
        assert_eq!(s.trusted_count(), 0);
        let mut result = Simulation::new(s).run();
        assert_eq!(result.segments[0].protocol, protocol);
        result.segments[0].protocol = basalt;
        result
    };
    let plain = run(basalt);
    assert!(plain.resilience > 0.0);
    assert_eq!(run(tee), plain);
}

fn basalt_tee(view: usize) -> Protocol {
    Protocol::BasaltTee {
        view_size: view,
        rotation_interval: 15,
        wlist_ttl: 8,
    }
}

fn half_mixed() -> Scenario {
    let mut s = small(Protocol::Raptee);
    s.trusted_fraction = 0.1;
    s.half_and_half(Protocol::Raptee, basalt_tee(12))
}

#[test]
fn basalt_tee_uniform_runs_with_trusted_tier() {
    let mut s = small(Protocol::Brahms).basalt_tee_variant(15, 8);
    s.trusted_fraction = 0.1;
    let byz = s.byzantine_count();
    let trusted = s.trusted_count();
    assert!(trusted > 0);
    let sim = Simulation::new(s.clone());
    // The trusted tier sits directly after the Byzantine prefix and
    // holds attested group keys.
    let first_trusted = NodeId(byz as u64);
    assert!(sim.is_trusted(first_trusted));
    assert!(!sim.is_trusted(NodeId((byz + trusted) as u64)));
    let node = sim.basalt(first_trusted).expect("BASALT node");
    assert!(node.is_trusted());
    assert!(node.group_key().is_some());
    assert!(
        sim.node(first_trusted).is_none(),
        "no Brahms-family nodes under the hybrid"
    );
    let r = sim.run();
    assert_eq!(r.rounds, s.rounds);
    assert!(r.seed_rotations > 0, "rotation still runs under the hybrid");
    assert_eq!(r.total_evicted, 0, "no Brahms eviction in BASALT views");
    assert_eq!(r.segments.len(), 1);
    assert_eq!(r.segments[0].protocol, s.protocol);
    assert_eq!(r.segments[0].resilience.to_bits(), r.resilience.to_bits());
}

#[test]
fn mixed_population_reports_segments() {
    let s = half_mixed();
    let correct = s.n - s.byzantine_count();
    let r = Simulation::new(s.clone()).run();
    assert_eq!(r.rounds, s.rounds);
    assert_eq!(r.segments.len(), 2);
    assert_eq!(r.segments[0].protocol, Protocol::Raptee);
    assert_eq!(r.segments[1].protocol, basalt_tee(12));
    assert_eq!(
        r.segments.iter().map(|x| x.nodes).sum::<usize>(),
        correct,
        "segments cover the correct population"
    );
    for seg in &r.segments {
        assert_eq!(seg.byz_share_series.len(), s.rounds);
        assert!(seg.resilience > 0.0 && seg.resilience < 1.0);
    }
    // The combined series is the per-round mean over all correct
    // nodes, so it lies between the segment series.
    for round in 0..s.rounds {
        let lo = r.segments[0].byz_share_series[round].min(r.segments[1].byz_share_series[round]);
        let hi = r.segments[0].byz_share_series[round].max(r.segments[1].byz_share_series[round]);
        let combined = r.byz_share_series[round];
        assert!(
            combined >= lo - 1e-12 && combined <= hi + 1e-12,
            "round {round}: combined {combined} outside [{lo}, {hi}]"
        );
    }
    // RAPTEE eviction ran in its segment.
    assert!(r.total_evicted > 0);
    // BASALT seed rotation ran in the other.
    assert!(r.seed_rotations > 0);
}

#[test]
fn mixed_population_deterministic_per_seed() {
    let s = half_mixed();
    let a = Simulation::new(s.clone()).run();
    let b = Simulation::new(s.clone()).run();
    assert_eq!(a, b);
    let mut other = s;
    other.seed = 99;
    let c = Simulation::new(other).run();
    assert_ne!(a.byz_share_series, c.byz_share_series);
}

#[test]
fn mixed_population_role_and_node_accessors() {
    let s = half_mixed();
    let byz = s.byzantine_count();
    let trusted_counts = s.segment_trusted_counts();
    let segs = s.segments();
    let sim = Simulation::new(s);
    // First Raptee-segment node: trusted RAPTEE.
    let raptee_first = NodeId(byz as u64);
    assert!(sim.is_trusted(raptee_first));
    assert!(sim.node(raptee_first).is_some());
    assert!(sim.basalt(raptee_first).is_none());
    // First BASALT-segment node: trusted BASALT.
    let basalt_first = NodeId((byz + segs[0].count) as u64);
    assert!(sim.is_trusted(basalt_first));
    let node = sim.basalt(basalt_first).expect("BASALT node");
    assert!(node.is_trusted());
    assert!(sim.node(basalt_first).is_none());
    // Untrusted tail of the BASALT segment.
    let basalt_last = NodeId((byz + segs[0].count + segs[1].count - 1) as u64);
    assert!(!sim.is_trusted(basalt_last));
    assert!(trusted_counts[1] < segs[1].count);
}

#[test]
fn mixed_population_survives_loss_and_crashes() {
    let mut s = small(Protocol::Brahms).half_and_half(
        Protocol::Brahms,
        Protocol::Basalt {
            view_size: 12,
            rotation_interval: 15,
        },
    );
    s.message_loss = 0.2;
    s.churn = crate::scenario::ChurnSchedule::one_shot(0.15, 10);
    s.rounds = 30;
    let byz = s.byzantine_count();
    let n = s.n;
    let mut sim = Simulation::new(s);
    for _ in 0..30 {
        sim.run_round();
    }
    let dead = (byz..n)
        .filter(|&i| !sim.is_alive(NodeId(i as u64)))
        .count();
    let expected = ((n - byz) as f64 * 0.15).round() as usize;
    assert_eq!(dead, expected);
    // Survivors of both families keep non-empty views.
    for i in byz..n {
        let id = NodeId(i as u64);
        if !sim.is_alive(id) {
            continue;
        }
        if let Some(node) = sim.node(id) {
            assert!(!node.brahms().view().is_empty());
        } else {
            assert!(!sim.basalt(id).unwrap().view().is_empty());
        }
    }
}

#[test]
fn wlist_hybrid_quarantines_hearsay_in_engine() {
    // A BasaltTee run with a long TTL and crashes: waiting lists
    // must actually fill and drain through the engine's finish
    // phase.
    let mut s = small(Protocol::Brahms).basalt_tee_variant(0, 12);
    s.trusted_fraction = 0.05;
    s.rounds = 5;
    let byz = s.byzantine_count();
    let mut sim = Simulation::new(s.clone());
    sim.run_round();
    let queued: usize = (byz..s.n)
        .filter_map(|i| sim.basalt(NodeId(i as u64)))
        .map(|n| n.wlist_len())
        .sum();
    assert!(queued > 0, "pull hearsay must hit the waiting lists");
}

#[test]
fn basalt_survives_loss_and_crashes() {
    let mut s = small(Protocol::Brahms).basalt_variant(15);
    s.message_loss = 0.3;
    s.churn = crate::scenario::ChurnSchedule::one_shot(0.2, 10);
    s.rounds = 30;
    let byz = s.byzantine_count();
    let n = s.n;
    let mut sim = Simulation::new(s);
    for _ in 0..30 {
        sim.run_round();
    }
    let dead = (byz..n)
        .filter(|&i| !sim.is_alive(NodeId(i as u64)))
        .count();
    let expected = ((n - byz) as f64 * 0.2).round() as usize;
    assert_eq!(dead, expected);
    // Survivors keep ranked views despite the churn.
    for i in byz..n {
        let id = NodeId(i as u64);
        if sim.is_alive(id) {
            assert!(!sim.basalt(id).unwrap().view().is_empty());
        }
    }
}

#[test]
fn legacy_one_shot_crash_reports_no_recovery_metrics() {
    let mut s = small(Protocol::Raptee);
    s.churn = crate::scenario::ChurnSchedule::one_shot(0.2, 10);
    let r = Simulation::new(s).run();
    assert!(
        r.recovery.is_none(),
        "one-shot crashes predate the recovery family"
    );
}

#[test]
fn steady_churn_with_restarts_reports_recovery_metrics() {
    let mut s = small(Protocol::Raptee);
    s.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
    let a = Simulation::new(s.clone()).run();
    let rec = a
        .recovery
        .as_ref()
        .expect("dynamic churn yields recovery stats");
    assert!(rec.crashes > 0, "steady rate must crash someone");
    assert!(rec.restarts > 0, "restart process must fire");
    assert!(rec.recovered <= rec.restarts);
    assert!(rec.availability > 0.0 && rec.availability < 1.0);
    if let Some(ttr) = rec.mean_time_to_recover {
        assert!(ttr >= SMOOTHING_WINDOW as f64);
    }
    let b = Simulation::new(s).run();
    assert_eq!(a, b, "churn draws are hash-deterministic");
}

#[test]
fn catastrophe_burst_crashes_more_than_steady_alone() {
    let mut steady = small(Protocol::Raptee);
    steady.churn = crate::scenario::ChurnSchedule::steady(0.005, 0.5);
    let mut burst = steady.clone();
    burst.churn.bursts = vec![crate::scenario::ChurnBurst {
        start: 20,
        end: 25,
        crash_rate: 0.5,
    }];
    let a = Simulation::new(steady).run();
    let b = Simulation::new(burst).run();
    let (ra, rb) = (a.recovery.unwrap(), b.recovery.unwrap());
    assert!(
        rb.crashes > ra.crashes,
        "burst window raises crash volume: {} vs {}",
        rb.crashes,
        ra.crashes
    );
}

#[test]
fn cold_and_warm_rejoin_policies_diverge() {
    let mut cold = small(Protocol::Raptee);
    cold.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
    let mut warm = cold.clone();
    warm.churn.rejoin = RejoinPolicy::Warm;
    let a = Simulation::new(cold).run();
    let b = Simulation::new(warm).run();
    assert!(a.recovery.is_some() && b.recovery.is_some());
    // Crash/restart draws are state-independent hashes, so both runs
    // see identical membership timelines — only the rebuilt node
    // state differs, and that must show up in the trajectories.
    assert_ne!(a.byz_share_series, b.byz_share_series);
}

#[test]
fn basalt_family_survives_dynamic_churn_with_warm_rejoin() {
    let mut s = small(Protocol::Brahms).basalt_variant(15);
    s.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
    s.churn.rejoin = RejoinPolicy::Warm;
    let r = Simulation::new(s).run();
    let rec = r.recovery.expect("recovery stats under dynamic churn");
    assert!(rec.crashes > 0 && rec.restarts > 0);
    assert!(rec.availability > 0.0 && rec.availability < 1.0);
}

#[test]
fn mixed_population_routes_restarts_to_both_families() {
    let mut s = small(Protocol::Brahms).half_and_half(
        Protocol::Brahms,
        Protocol::Basalt {
            view_size: 12,
            rotation_interval: 15,
        },
    );
    s.churn = crate::scenario::ChurnSchedule::steady(0.03, 0.5);
    let a = Simulation::new(s.clone()).run();
    assert!(a.recovery.as_ref().unwrap().restarts > 0);
    let b = Simulation::new(s).run();
    assert_eq!(a, b);
}

#[test]
fn attestation_expiry_degrades_and_heals_the_trusted_tier() {
    let mut s = small(Protocol::Raptee);
    s.attest_ttl = 6;
    let a = Simulation::new(s.clone()).run();
    let rec = a
        .recovery
        .as_ref()
        .expect("attest_ttl alone activates recovery stats");
    assert_eq!(rec.trusted_live_fraction.len(), s.rounds);
    // No churn: availability stays perfect even while certs lapse.
    assert!((rec.availability - 1.0).abs() < 1e-12);
    assert_eq!(rec.crashes, 0);
    // Initial expiries are staggered over [ttl, 2*ttl), so the tier
    // starts whole, dips when certs lapse, and heals back up after
    // re-attestation.
    assert!((rec.trusted_live_fraction[0] - 1.0).abs() < 1e-12);
    let dip = rec
        .trusted_live_fraction
        .iter()
        .position(|&f| f < 1.0)
        .expect("a six-round TTL must degrade someone");
    assert!(
        rec.trusted_live_fraction[dip..]
            .iter()
            .any(|&f| f > rec.trusted_live_fraction[dip]),
        "re-attestation must heal the tier after the first dip"
    );
    // Degraded trusted nodes act untrusted, which changes the
    // protocol trajectory relative to the eternal-cert baseline.
    let mut eternal = s.clone();
    eternal.attest_ttl = 0;
    let base = Simulation::new(eternal).run();
    assert_ne!(a.byz_share_series, base.byz_share_series);
    let b = Simulation::new(s).run();
    assert_eq!(a, b, "degradation schedule is hash-deterministic");
}

/// The apply phase's pulled-stream read against the buffered path: one
/// RAPTEE round finished over a rope of snapshot-like rows, arena-like
/// rows and replayed Byzantine answers, and the same round recorded
/// answer by answer into `record_untrusted_pull` and finished by
/// `RapteeNode::finish_round`. Everything the round leaves behind must
/// agree bit for bit: the outcome, the view, the samples, the
/// seen-cache and the node's RNG.
mod rope_finish {
    use crate::adversary::{Adversary, Replays};
    use proptest::prelude::*;
    use raptee::{EvictionPolicy, RapteeConfig, RapteeNode};
    use raptee_brahms::{FinishScratch, Rope, Segment};
    use raptee_crypto::SecretKey;
    use raptee_net::{NodeId, NodeIdx};
    use raptee_util::rng::Xoshiro256StarStar;

    const VIEW: usize = 20;

    /// One answer of the mix: `0` a view-snapshot row, `1` an arena row
    /// (both dense, both may hold the requester), `2` a Byzantine answer.
    type Kind = u8;

    #[derive(Debug, Clone)]
    struct Case {
        seed: u64,
        pool: u64,
        honest: u64,
        injected: u64,
        injected_requester: bool,
        trusted: bool,
        eviction: u8,
        answers: Vec<(Kind, u64)>,
        pushes: usize,
        cache: u8,
        trusted_swaps: usize,
    }

    fn cases() -> impl Strategy<Value = Case> {
        (
            (
                0u64..1_000,
                prop_oneof![Just(8u64), Just(20), Just(60)],
                30u64..80,
            ),
            (
                prop_oneof![Just(0u64), Just(3)],
                any::<bool>(),
                any::<bool>(),
                0u8..3,
            ),
            proptest::collection::vec((0u8..3, any::<u64>()), 0..24),
            (0usize..14, 0u8..4, 0usize..3),
        )
            .prop_map(
                |(
                    (seed, pool, honest),
                    (injected, injected_requester, trusted, eviction),
                    answers,
                    (pushes, cache, trusted_swaps),
                )| Case {
                    seed,
                    pool,
                    honest,
                    injected,
                    injected_requester: injected_requester && injected > 0,
                    trusted,
                    eviction,
                    answers,
                    pushes,
                    cache,
                    trusted_swaps,
                },
            )
    }

    /// Runs `case` both ways and compares what they leave.
    fn check(case: &Case) {
        let (pool, n) = (case.pool, case.pool + case.honest);
        let total = n + case.injected;
        let mut rng = Xoshiro256StarStar::seed_from_u64(case.seed);
        let me = if case.injected_requester {
            NodeId(n + rng.next_below(case.injected))
        } else {
            NodeId(pool + rng.next_below(case.honest))
        };
        let eviction = [
            EvictionPolicy::none(),
            EvictionPolicy::adaptive(),
            EvictionPolicy::Fixed(1.0),
        ][usize::from(case.eviction)];
        let config = RapteeConfig {
            eviction,
            ..RapteeConfig::paper_defaults(VIEW)
        };
        let boot: Vec<NodeId> = (pool..n)
            .filter(|&i| i != me.0)
            .take(VIEW)
            .map(NodeId)
            .collect();
        let key = SecretKey::from_seed(7);
        let mut buffered = if case.trusted {
            RapteeNode::new_trusted(me, config, &boot, case.seed, key)
        } else {
            RapteeNode::new_untrusted(me, config, &boot, case.seed)
        };
        // The seen-cache states a round can start in: as built, warmed
        // with everything an answer can hold, warmed and then cleared by
        // a validation reset, or capped to nothing.
        let every: Vec<NodeId> = (0..total).map(NodeId).filter(|&i| i != me).collect();
        {
            let (sampler, rng) = buffered.brahms_mut().sampler_and_rng_mut();
            match case.cache {
                1 => sampler.observe_all(every.iter().copied()),
                2 => {
                    sampler.observe_all(every.iter().copied());
                    sampler.validate(|id| id.0 % 3 != 0, rng);
                    prop_assert_eq!(sampler.seen_cached(), 0, "validate cleared it");
                }
                3 => sampler.disable_seen_cache(),
                _ => {}
            }
        }
        buffered.plan_round();
        let mut streamed = buffered.clone();

        let mut adversary = Adversary::new(
            (0..pool).map(NodeId).collect(),
            total as usize,
            VIEW,
            case.seed ^ 1,
        );
        adversary.advertise_injected((n..total).map(NodeId));
        // Each answer as the apply phase sees it, and as IDs.
        let mut rows: Vec<Vec<NodeIdx>> = Vec::new();
        let mut rngs = Vec::new();
        let mut kinds = Vec::new();
        for &(kind, bits) in &case.answers {
            let mut draw = Xoshiro256StarStar::seed_from_u64(bits);
            match kind {
                0 | 1 => {
                    // A snapshot row is a view: honest IDs, sometimes the
                    // requester's. An arena row may hold anything.
                    let len = 1 + draw.index(VIEW);
                    let universe = if kind == 0 { pool..n } else { 0..total };
                    let mut row: Vec<NodeIdx> = (0..len)
                        .map(|_| {
                            NodeIdx(
                                (universe.start + draw.next_below(universe.end - universe.start))
                                    as u32,
                            )
                        })
                        .collect();
                    if draw.chance(0.4) {
                        row[draw.index(len)] = NodeIdx::of(me);
                    }
                    kinds.push(rows.len() as u32);
                    rows.push(row);
                }
                _ => {
                    kinds.push(u32::MAX - rngs.len() as u32);
                    rngs.push(adversary.rng_snapshot());
                    adversary.skip_pull_answer();
                }
            }
        }
        let replays = Replays {
            adversary: &adversary,
            rngs: &rngs,
        };
        let segment = |&tag: &u32| {
            if tag > u32::MAX / 2 {
                Segment::Drawn(u32::MAX - tag)
            } else {
                Segment::Dense(&rows[tag as usize][..])
            }
        };

        // Trusted-swap IDs, recorded on both nodes directly.
        for s in 0..case.trusted_swaps {
            let ids: Vec<NodeId> = (0..5)
                .map(|j| NodeId((pool + 7 * s as u64 + j) % total))
                .collect();
            buffered.record_trusted_pull(&ids);
            streamed.record_trusted_pull(&ids);
        }
        // Pushes, the requester's own among them now and then; more than
        // α·l1 of them block the renewal.
        let pushes: Vec<NodeId> = (0..case.pushes)
            .map(|p| NodeId((case.seed + 11 * p as u64) % total))
            .collect();
        for &p in &pushes {
            buffered.record_push(p);
        }
        let pushed: Vec<NodeId> = pushes.iter().copied().filter(|&p| p != me).collect();

        let mut answer = Vec::new();
        let mut idx = Default::default();
        for seg in kinds.iter().map(segment) {
            match seg {
                Segment::Dense(row) => {
                    answer.clear();
                    answer.extend(row.iter().map(|i| i.id()));
                }
                Segment::Drawn(slot) => {
                    let mut snap = rngs[slot as usize].clone();
                    adversary.replay_pull_answer(&mut snap, usize::MAX, &mut idx, &mut answer);
                }
                Segment::Ids(_) => unreachable!(),
            }
            buffered.record_untrusted_pull(&answer);
        }
        let want = buffered.finish_round();
        let got = streamed.finish_round_streamed(
            &pushed,
            Rope::new(&replays, kinds.iter().map(segment)),
            kinds.len() as u32,
            &mut Vec::new(),
            &mut FinishScratch::default(),
        );
        prop_assert_eq!(&got, &want);
        let (a, b) = (buffered.brahms_mut(), streamed.brahms_mut());
        prop_assert_eq!(a.view().id_vec(), b.view().id_vec());
        prop_assert_eq!(a.sampler().samples(), b.sampler().samples());
        prop_assert_eq!(a.sampler().seen_cached(), b.sampler().seen_cached());
        prop_assert_eq!(a.rng_mut().clone(), b.rng_mut().clone());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn rope_finish_matches_the_buffered_finish(case in cases()) {
            check(&case);
        }
    }

    #[test]
    fn rope_finish_covers_its_corner_cases() {
        // Drawn answers skipped by a warm cache, a requester among the
        // injected whose own ID an injected slot carries, every eviction
        // rate, a stream shorter than β·l1 and a flood-blocked round.
        let base = Case {
            seed: 5,
            pool: 20,
            honest: 40,
            injected: 3,
            injected_requester: true,
            trusted: true,
            eviction: 0,
            answers: (0..60).map(|k| (2, k)).collect(),
            pushes: 6,
            cache: 1,
            trusted_swaps: 1,
        };
        for seed in 0..40 {
            for eviction in 0..3 {
                for cache in 0..4 {
                    let case = Case {
                        seed,
                        eviction,
                        cache,
                        ..base.clone()
                    };
                    check(&case);
                    let short = Case {
                        answers: vec![(0, seed), (2, seed)],
                        pool: 60,
                        injected: 0,
                        injected_requester: false,
                        ..case.clone()
                    };
                    check(&short);
                    check(&Case { pushes: 13, ..case });
                }
            }
        }
    }
}
