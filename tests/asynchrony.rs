//! Asynchrony suite for the event network every run owns.
//!
//! The zero-latency equivalence — a `NetworkModel::Rounds` run equals
//! the same scenario on the event network at its all-zero
//! configuration, bit for bit, apart from the reporting rule — is part
//! of the determinism contract and runs on every round-model golden in
//! `assert_golden` (tests/determinism.rs). Two layers remain here:
//!
//! 1. **A pollution effect the round model cannot express** — a
//!    partition-and-heal run whose held-then-released message burst
//!    trips the flood defences and delays convergence, visible in the
//!    substrate counters and the pollution series — with message
//!    conservation checked on single-stepped runs, and runs stepped past
//!    their last round, which keep either model going.
//! 2. **Scheduler properties** (via the proptest shim) — `(time, seq)`
//!    pop order is invariant under insertion order, nothing crosses an
//!    active cut, and healed partitions drop no message forever.

use proptest::prelude::*;
use raptee_net::{NodeId, NodeIdx};
use raptee_sim::event::{EventNet, Lane, PullGate};
use raptee_sim::{
    EventNetConfig, EventQueue, LatencyModel, NetRunStats, NetworkModel, PartitionWindow, Protocol,
    Reachability, RetryConfig, Scenario, Simulation,
};

// ---------------------------------------------------------------------
// Fixtures.

/// A 150-node uniform RAPTEE run on the round model.
fn base() -> Scenario {
    Scenario {
        n: 150,
        byzantine_fraction: 0.1,
        trusted_fraction: 0.1,
        view_size: 12,
        sample_size: 12,
        rounds: 60,
        tail_window: 10,
        protocol: Protocol::Raptee,
        seed: 0xD5EED,
        ..Scenario::default()
    }
}

/// `base` on the event network, cut in half for rounds 10..25.
fn event_partition_scenario() -> Scenario {
    base().with_network(EventNetConfig {
        latency: LatencyModel::Uniform { min: 50, max: 600 },
        partitions: vec![PartitionWindow {
            start: 10,
            end: 25,
            boundary: 75,
        }],
        ..EventNetConfig::default()
    })
}

// ---------------------------------------------------------------------
// 1. The partition effect the round model cannot express.

#[test]
fn partition_heal_burst_is_inexpressible_in_the_round_model() {
    // Same protocol scenario, two substrates. The round model has no
    // notion of messages *in flight*: a cut-then-heal either looks like
    // uniform loss (messages vanish) or like nothing. Only the event
    // model can hold fifteen rounds of cross-cut traffic and then
    // release it as one burst at the heal.
    let round = Simulation::new(base()).run();
    let event = Simulation::new(event_partition_scenario()).run();
    let net = event.net.expect("event run reports substrate counters");

    // The substrate held real traffic at the cut and released all of
    // it — healed partitions drop nothing.
    assert!(net.partition_held > 0, "the cut must hold cross-cut pushes");
    assert_eq!(
        net.partition_held, net.partition_released,
        "every message held at the cut must release at the heal"
    );
    assert!(
        net.refused_pulls > 0,
        "fresh cross-cut pulls during the window must be refused"
    );

    // The observable protocol-level effect: the heal-release burst
    // floods receivers with stale pushes and trips the per-round push
    // rate defence far beyond anything the synchronous run shows.
    assert!(
        event.floods_detected > 10 * round.floods_detected.max(1),
        "heal burst must spike flood detections ({} vs {})",
        event.floods_detected,
        round.floods_detected
    );

    // And it delays convergence: the pollution series needs visibly
    // longer to settle than the uninterrupted run.
    let (ev_stab, rd_stab) = (
        event
            .stability_round
            .expect("partitioned run still settles"),
        round.stability_round.expect("baseline settles"),
    );
    assert!(
        ev_stab > rd_stab,
        "partition must delay stability ({ev_stab} vs {rd_stab})"
    );

    // The series themselves diverge while the cut is active: the two
    // population halves see different gossip, so the mean Byzantine
    // share walks away from the synchronous trajectory.
    let max_window_gap = (10..25)
        .map(|r| (event.byz_share_series[r] - round.byz_share_series[r]).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_window_gap > 0.02,
        "pollution series must diverge during the cut (max gap {max_window_gap:.4})"
    );
}

/// Single-steps `scenario` for `rounds` rounds, checking the node
/// invariants and the net's message conservation after each, and
/// returns the net's counters.
fn run_conserving(scenario: Scenario, rounds: usize) -> NetRunStats {
    let mut sim = Simulation::new(scenario);
    for _ in 0..rounds {
        sim.run_round();
        assert_eq!(sim.check_invariants(), Ok(()));
    }
    *sim.event_net().stats()
}

#[test]
fn partitioned_run_conserves_every_message() {
    let net = run_conserving(event_partition_scenario(), 60);
    assert!(net.late_deliveries > 0 && net.partition_held > 0);
    assert_eq!(net.partition_held, net.partition_released);
}

/// A run stepped past its last round keeps going on either network
/// model: a round run gives what the longer scenario gives, and an
/// event run finds nothing due past its horizon and still conserves
/// every message.
#[test]
fn stepping_past_the_last_round_keeps_either_model_going() {
    let (rounds, extra) = (40, 5);
    let mut short = base();
    short.rounds = rounds;
    let mut long = short.clone();
    long.rounds = rounds + extra;
    let mut stepped = Simulation::new(short);
    for _ in 0..extra {
        stepped.run_round();
    }
    // `run` executes the scenario's `rounds` more: R + 5 in all.
    let stepped = stepped.run();
    let whole = Simulation::new(long).run();
    assert_eq!(stepped.byz_share_series, whole.byz_share_series);
    assert_eq!(stepped, whole);

    let mut evented = event_partition_scenario();
    evented.rounds = rounds;
    let net = run_conserving(evented, rounds + extra);
    assert!(net.late_deliveries > 0 && net.partition_held > 0);
}

/// NAT with retries: a retry's backoff carries its departure — and the
/// hole it punches — into the next round, while the current round still
/// has lookups for that pair. Those must read the future-dated hole as
/// closed; debug builds used to panic on the subtraction in round 0.
#[test]
fn nat_with_retries_survives_a_hole_dated_in_the_next_round() {
    let scenario = Scenario {
        n: 300,
        view_size: 16,
        sample_size: 16,
        rounds: 80,
        protocol: Protocol::Raptee,
        ..Scenario::default()
    }
    .with_network(EventNetConfig {
        latency: LatencyModel::LogNormal {
            mu: 6.3,
            sigma: 0.8,
            cap: 4_000,
        },
        round_ticks: 1_000,
        jitter: 200,
        reachability: Reachability::Nat {
            fraction: 0.6,
            hole_ttl: 3,
        },
        retry: RetryConfig {
            max_retries: 2,
            base_backoff: 250,
        },
        ..EventNetConfig::default()
    });
    let net = run_conserving(scenario, 80);
    assert!(net.nat_blocked > 0, "the NAT must bounce traffic");
    assert!(net.retries_issued > 0, "refused pulls must retry");
    assert!(
        net.nonce_evictions > 0,
        "retransmitted answers were applied"
    );
}

// ---------------------------------------------------------------------
// 2. Scheduler properties (proptest shim).

/// A substrate-only scenario: 100 actors, event network `cfg`.
fn harness(rounds: usize, cfg: EventNetConfig) -> EventNet {
    let scenario = Scenario {
        n: 100,
        rounds,
        network: NetworkModel::Events(cfg),
        ..Scenario::default()
    };
    EventNet::from_scenario(&scenario)
}

/// The partition window shared by the substrate properties.
fn cut_5_to_20_at_50() -> PartitionWindow {
    PartitionWindow {
        start: 5,
        end: 20,
        boundary: 50,
    }
}

proptest! {
    /// Pop order is exactly ascending `(time, seq)` — independent of
    /// insertion order, with the payload riding its key.
    #[test]
    fn queue_order_is_time_seq_under_insertion_permutations(
        times in proptest::collection::vec(0u64..64, 1..32),
        rot in 0usize..32,
    ) {
        let n = times.len();
        // Distinct keys by construction: seq is the entry index.
        let entries: Vec<(u64, u64)> =
            times.iter().enumerate().map(|(i, &t)| (t, i as u64)).collect();
        let mut natural = EventQueue::new();
        let mut rotated = EventQueue::new();
        let mut reversed = EventQueue::new();
        for &(t, s) in &entries {
            natural.push_raw(t, s, s);
        }
        for k in 0..n {
            let (t, s) = entries[(k + rot) % n];
            rotated.push_raw(t, s, s);
        }
        for &(t, s) in entries.iter().rev() {
            reversed.push_raw(t, s, s);
        }
        let pop_all = |q: &mut EventQueue<u64>| -> Vec<(u64, u64, u64)> {
            std::iter::from_fn(|| q.pop()).collect()
        };
        let (a, b, c) = (pop_all(&mut natural), pop_all(&mut rotated), pop_all(&mut reversed));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        for w in a.windows(2) {
            prop_assert!(
                (w[0].0, w[0].1) < (w[1].0, w[1].1),
                "pops must ascend strictly in (time, seq)"
            );
        }
        for &(_, s, payload) in &a {
            prop_assert_eq!(s, payload, "payloads must ride their keys");
        }
    }

    /// A push across an active cut is never delivered before the heal,
    /// and always delivered after it.
    #[test]
    fn no_push_delivery_across_an_active_cut(
        src in 0usize..50,
        dst in 50usize..90,
        sent in 5usize..15,
        latency in 0u64..3_000,
    ) {
        let rounds = 30;
        let mut net = harness(rounds, EventNetConfig {
            latency: LatencyModel::Constant(latency),
            partitions: vec![cut_5_to_20_at_50()],
            ..EventNetConfig::default()
        });
        let inline = net.send_push(sent, src, dst, NodeId(src as u64), Lane::Honest);
        prop_assert!(!inline, "a cross-cut push must never deliver inline");
        prop_assert_eq!(net.stats().partition_held, 1);

        let mut survivors = Vec::new();
        let mut delivered_at = None;
        for r in 0..rounds {
            net.begin_round(r);
            survivors.clear();
            net.drain_due_pushes(Lane::Honest, &mut survivors);
            if survivors
                .iter()
                .any(|&(d, adv)| d == dst as u32 && adv == NodeIdx(src as u32))
            {
                delivered_at = Some(r);
                break;
            }
        }
        let r = delivered_at.expect("a healed partition never drops the message");
        prop_assert!(r >= 20, "delivered in round {} with the cut still active", r);
        prop_assert_eq!(net.stats().partition_released, 1);
    }

    /// Fresh pulls refuse across the active cut and go through once the
    /// window closes.
    #[test]
    fn pulls_refuse_across_the_cut_and_resume_at_the_heal(
        req in 0usize..50,
        tgt in 50usize..100,
        in_window in 5usize..20,
        after_heal in 20usize..30,
    ) {
        let mut net = harness(30, EventNetConfig {
            partitions: vec![cut_5_to_20_at_50()],
            ..EventNetConfig::default()
        });
        prop_assert_eq!(net.gate_pull(in_window, req, tgt), PullGate::Refused);
        prop_assert_eq!(net.stats().refused_pulls, 1);
        prop_assert_eq!(net.gate_pull(after_heal, req, tgt), PullGate::Inline);
    }

    /// Aggregate no-loss law: over an arbitrary cross-population send
    /// schedule, every message held at the cut is released at the heal
    /// and nothing is still in flight once the run outlives the window.
    #[test]
    fn healed_partitions_release_every_held_message(
        sends in proptest::collection::vec(
            (0usize..100, 0usize..100, 0usize..25),
            1..40,
        ),
        latency in 0u64..1_500,
    ) {
        let rounds = 40;
        let mut net = harness(rounds, EventNetConfig {
            latency: LatencyModel::Constant(latency),
            partitions: vec![cut_5_to_20_at_50()],
            ..EventNetConfig::default()
        });
        let mut schedule = sends.clone();
        schedule.sort_by_key(|&(_, _, r)| r);
        let mut cursor = 0;
        let mut survivors = Vec::new();
        for r in 0..rounds {
            net.begin_round(r);
            survivors.clear();
            net.drain_due_pushes(Lane::Honest, &mut survivors);
            while cursor < schedule.len() && schedule[cursor].2 == r {
                let (s, d, _) = schedule[cursor];
                net.send_push(r, s, d, NodeId(s as u64), Lane::Honest);
                cursor += 1;
            }
        }
        let stats = net.finish();
        prop_assert_eq!(
            stats.partition_held, stats.partition_released,
            "the heal must release every held message"
        );
        prop_assert_eq!(
            stats.in_flight_at_end, 0,
            "rounds 25..40 give every message time to land"
        );
    }
}
