//! Outside-in layer probes: each times calls into one layer's public
//! functions on seeded synthetic inputs sized like the workload the
//! README names beside it. Nothing inside the measured crates is timed.

use crate::stats::median;
use raptee::{provisioning, RapteeConfig, RapteeNode};
use raptee_basalt::{BasaltConfig, BasaltNode, BasaltPlan, BasaltView};
use raptee_brahms::{BrahmsConfig, BrahmsNode};
use raptee_crypto::hmac::hmac_sha256;
use raptee_crypto::{SecretKey, Sha256};
use raptee_gossip::{View, ViewEntry};
use raptee_honeybee::{HoneybeeConfig, HoneybeeNode, WalkTranscript};
use raptee_lift::{LiftConfig, LiftNode};
use raptee_net::{IdInterner, NodeId, PushRateLimiter};
use raptee_sampler::SamplerArray;
use raptee_sim::adversary::Adversary;
use raptee_sim::{
    AuditConfig, AuditResponse, Challenger, Discovery, EventQueue, Protocol, Scenario, Simulation,
};
use raptee_tee::merkle::{leaf_hash, verify};
use raptee_tee::MerkleTree;
use raptee_util::rng::Xoshiro256StarStar;
use raptee_util::{hll, mix64};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One probe's reading.
pub struct Probe {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Calls timed (kernel probes) or rounds timed (family probes).
    pub samples: u64,
}

const BATCHES: usize = 5;
const BATCH: Duration = Duration::from_millis(100);

/// Time per call of `op`: the median over [`BATCHES`] timed batches of
/// at least [`BATCH`] each. `reset` runs untimed before every `op`;
/// `op` returns how many calls it made, enough of them that its two
/// clock reads do not show.
fn kernel<S>(
    out: &mut Vec<Probe>,
    name: &'static str,
    unit: &'static str,
    state: &mut S,
    mut reset: impl FnMut(&mut S),
    mut op: impl FnMut(&mut S) -> u64,
) {
    let per_second = match unit {
        "ns" => 1e9,
        "us" => 1e6,
        other => unreachable!("kernel probes report ns or us, not {other}"),
    };
    reset(state);
    op(state); // warm caches and lazy set-up
    let mut per_call = Vec::with_capacity(BATCHES);
    let mut total_calls = 0;
    for _ in 0..BATCHES {
        let (mut busy, mut calls) = (Duration::ZERO, 0u64);
        while busy < BATCH {
            reset(state);
            let start = Instant::now();
            calls += op(state);
            busy += start.elapsed();
        }
        per_call.push(busy.as_secs_f64() * per_second / calls as f64);
        total_calls += calls;
    }
    out.push(Probe {
        name,
        value: median(&per_call).expect("five batches were timed"),
        unit,
        samples: total_calls,
    });
}

fn ids(range: std::ops::Range<u64>) -> Vec<NodeId> {
    range.map(NodeId).collect()
}

/// `len` IDs drawn uniformly from `0..population`.
fn random_ids(rng: &mut Xoshiro256StarStar, population: u64, len: usize) -> Vec<NodeId> {
    (0..len)
        .map(|_| NodeId(rng.next_below(population)))
        .collect()
}

/// Sampler, view and Brahms/RAPTEE node kernels, sized like
/// `raptee_paper_half` (N = 5000, l1 = l2 = 100).
fn brahms_family(out: &mut Vec<Probe>, rng: &mut Xoshiro256StarStar) {
    const N: u64 = 5_000;
    const L: usize = 100;
    let population = {
        let mut p = ids(0..N);
        rng.shuffle(&mut p);
        p
    };

    // Fresh IDs take the full l2-hash loop (the cold first round);
    // seen IDs stop at the seen-cache (every later round).
    let pristine = SamplerArray::new(L, rng);
    kernel(
        out,
        "sampler.observe_cold_ns",
        "ns",
        &mut pristine.clone(),
        |s| s.clone_from(&pristine),
        |s| {
            population.iter().for_each(|&id| s.observe(id));
            N
        },
    );
    let mut warm = pristine.clone();
    warm.observe_all(population.iter().copied());
    kernel(
        out,
        "sampler.observe_warm_ns",
        "ns",
        &mut warm,
        |_| {},
        |s| {
            population.iter().for_each(|&id| s.observe(id));
            N
        },
    );

    // A half-full view takes 50 entries, half of them already known;
    // reported per entry offered.
    let mut base = View::new(NodeId(N), L);
    population[..50].iter().for_each(|&id| {
        base.insert_fresh(id);
    });
    let incoming: Vec<ViewEntry> = population[25..75]
        .iter()
        .map(|&id| ViewEntry::fresh(id))
        .collect();
    kernel(
        out,
        "gossip.view_append_ns",
        "ns",
        &mut vec![base.clone(); 32],
        |views| views.iter_mut().for_each(|v| v.clone_from(&base)),
        |views| {
            views.iter_mut().for_each(|v| v.append_dedup(&incoming));
            (views.len() * incoming.len()) as u64
        },
    );

    // One round's traffic for one node: α·l1 pushes and β·l1 pull
    // answers of l1 IDs each, then the round is closed.
    let config = BrahmsConfig::paper_defaults(L, L);
    let (alpha, beta) = (config.alpha_count(), config.beta_count());
    let pushes = random_ids(rng, N, alpha);
    let answers: Vec<Vec<NodeId>> = (0..beta).map(|_| random_ids(rng, N, L)).collect();
    let mut node = BrahmsNode::new(NodeId(N), config, &population[..L], rng.next_u64());
    kernel(
        out,
        "brahms.finish_round_us",
        "us",
        &mut node,
        |_| {},
        |node| {
            pushes.iter().for_each(|&p| node.record_push(p));
            answers.iter().for_each(|a| node.record_pulled(a));
            black_box(node.finish_round());
            1
        },
    );

    let group_key = SecretKey::from_seed(rng.next_u64());
    let trusted = |id: u64, rng: &mut Xoshiro256StarStar| {
        RapteeNode::new_trusted(
            NodeId(id),
            RapteeConfig::paper_defaults(L),
            &population[..L],
            rng.next_u64(),
            group_key.clone(),
        )
    };
    let mut node = trusted(N, rng);
    kernel(
        out,
        "raptee.finish_round_us",
        "us",
        &mut node,
        |_| {},
        |node| {
            pushes.iter().for_each(|&p| node.record_push(p));
            answers.iter().for_each(|a| node.record_untrusted_pull(a));
            black_box(node.finish_round());
            1
        },
    );

    let pair = (trusted(N, rng), trusted(N + 1, rng));
    kernel(
        out,
        "raptee.trusted_swap_us",
        "us",
        &mut pair.clone(),
        |p| p.clone_from(&pair),
        |(a, b)| {
            for _ in 0..8 {
                RapteeNode::trusted_swap(a, b);
            }
            8
        },
    );

    kernel(
        out,
        "raptee.provision_us",
        "us",
        &mut (provisioning::new_attestation_service(7), 0u64),
        |_| {},
        |(service, next_platform)| {
            for _ in 0..16 {
                black_box(provisioning::certify_and_provision(service, *next_platform));
                *next_platform += 1;
            }
            16
        },
    );
}

/// Ranked-family kernels, sized like `arena_mixed5` (N = 2000, view 24).
fn ranked_families(out: &mut Vec<Probe>, rng: &mut Xoshiro256StarStar) {
    const N: u64 = 2_000;
    const V: usize = 24;
    let bootstrap = random_ids(rng, N, V);
    let stream = random_ids(rng, N, 4_096);
    let own = NodeId(N);

    kernel(
        out,
        "basalt.observe_ns",
        "ns",
        &mut BasaltView::new(own, V, SecretKey::from_seed(rng.next_u64())),
        |_| {},
        |view| {
            stream.iter().for_each(|&id| {
                black_box(view.observe(id));
            });
            stream.len() as u64
        },
    );
    let mut node = BasaltNode::new(own, BasaltConfig::for_view(V, 30), &stream, rng.next_u64());
    let mut plan = BasaltPlan::default();
    kernel(
        out,
        "basalt.plan_round_us",
        "us",
        &mut node,
        |_| {},
        |node| {
            for _ in 0..64 {
                node.plan_round_into(&mut plan);
            }
            64
        },
    );

    // 4096 mentions over 2000 IDs keep the 192-entry score table full.
    let mut node = LiftNode::new(own, LiftConfig::for_view(V, 20), &stream, rng.next_u64());
    kernel(
        out,
        "lift.observe_ns",
        "ns",
        &mut node,
        |_| {},
        |node| {
            stream.iter().for_each(|&id| node.observe(id));
            stream.len() as u64
        },
    );
    let (mut pushes, mut pulls) = (Vec::new(), Vec::new());
    kernel(
        out,
        "lift.plan_round_us",
        "us",
        &mut node,
        |_| {},
        |node| {
            for _ in 0..64 {
                node.plan_round_into(&mut pushes, &mut pulls);
            }
            64
        },
    );

    // Every planned pull is answered, so each call advances one walk a
    // hop and every fifth completes and replays a transcript. Planning
    // and closing the round are untimed.
    let answer = random_ids(rng, N, V);
    let node = HoneybeeNode::new(own, HoneybeeConfig::for_view(V, 5), &bootstrap, 11);
    kernel(
        out,
        "honeybee.record_pull_answer_us",
        "us",
        &mut (node, pulls),
        |(node, pulls)| {
            node.drain_wlist(|_| true);
            node.finish_round();
            node.plan_round_into(&mut pushes, pulls);
        },
        |(node, pulls)| {
            pulls
                .iter()
                .for_each(|&responder| node.record_pull_answer(responder, &answer));
            pulls.len() as u64
        },
    );

    let mut transcript = WalkTranscript::new(own, rng.next_u64());
    let mut hop = bootstrap[0];
    for _ in 0..5 {
        transcript.extend(hop, &answer);
        hop = transcript.next_hop().expect("answers are never empty");
    }
    kernel(
        out,
        "honeybee.walk_verify_us",
        "us",
        &mut transcript,
        |_| {},
        |t| {
            for _ in 0..32 {
                assert!(black_box(&*t).verify());
            }
            32
        },
    );
}

/// Hashing, merkle, audit and event-queue kernels, sized like
/// `wan_faults_audit` (N = 4000, view 40).
fn crypto_audit_event(out: &mut Vec<Probe>, rng: &mut Xoshiro256StarStar) {
    const N: usize = 4_000;
    const V: usize = 40;

    let block = [0xA5u8; 64];
    kernel(
        out,
        "crypto.sha256_block_ns",
        "ns",
        &mut (),
        |_| {},
        |_| {
            let mut h = Sha256::new();
            for _ in 0..1_024 {
                h.update(black_box(&block));
            }
            black_box(h.finalize());
            1_024
        },
    );
    let key = [0x3Cu8; 32];
    kernel(
        out,
        "crypto.hmac_us",
        "us",
        &mut (),
        |_| {},
        |_| {
            for _ in 0..64 {
                black_box(hmac_sha256(black_box(&key), &block));
            }
            64
        },
    );

    let view = random_ids(rng, N as u64, V);
    let payloads: Vec<[u8; 8]> = view.iter().map(|id| id.0.to_le_bytes()).collect();
    kernel(
        out,
        "tee.merkle_commit_us",
        "us",
        &mut (),
        |_| {},
        |_| {
            for _ in 0..8 {
                black_box(MerkleTree::from_payloads(black_box(&payloads)));
            }
            8
        },
    );
    let tree = MerkleTree::from_payloads(&payloads);
    let root = tree.root();
    let leaves: Vec<_> = payloads.iter().map(|p| leaf_hash(p)).collect();
    kernel(
        out,
        "tee.merkle_open_verify_us",
        "us",
        &mut (),
        |_| {},
        |_| {
            for (i, leaf) in leaves.iter().enumerate() {
                assert!(verify(&root, leaf, &tree.open(i)));
            }
            V as u64
        },
    );

    // 64 actors commit a 40-entry view each round; then each is
    // audited against its latest commitment.
    let mut challenger = Challenger::new(AuditConfig::with_budget(16), rng.next_u64(), N, 0);
    let mut round = 0;
    kernel(
        out,
        "sim.audit.commit_view_us",
        "us",
        &mut challenger,
        |_| {},
        |c| {
            round += 1;
            for abs in 0..64 {
                c.commit_view(round, abs, &view);
            }
            64
        },
    );
    kernel(
        out,
        "sim.audit.audit_us",
        "us",
        &mut challenger,
        |_| {},
        |c| {
            for abs in 0..64 {
                black_box(c.audit(round, abs, AuditResponse::Opening { view: &view }));
            }
            64
        },
    );

    // A queue held at depth 100k: each call schedules one event a
    // log-normal-like latency ahead and pops the earliest.
    let mut queue = EventQueue::new();
    let mut now = 0u64;
    for i in 0..100_000u64 {
        queue.push(rng.next_below(4_000), i);
    }
    let delays: Vec<u64> = (0..4_096).map(|_| 1 + rng.next_below(4_000)).collect();
    kernel(
        out,
        "sim.event.queue_push_pop_ns",
        "ns",
        &mut queue,
        |_| {},
        |q| {
            for &delay in &delays {
                q.push(now + delay, delay);
                now = q.pop().expect("the queue stays at depth").0;
            }
            delays.len() as u64
        },
    );
}

/// Limiter, interner, hashing and discovery kernels, sized like
/// `scale_sketch_150k` (sketch, intern) and `raptee_paper_half`
/// (exact, limiter); then the adversary's two sequential-pass calls.
fn substrate_and_adversary(out: &mut Vec<Probe>, rng: &mut Xoshiro256StarStar) {
    const BIG: usize = 150_000;
    const N: usize = 5_000;
    const L: usize = 100;
    let byzantine = N / 10;

    let senders = ids(0..N as u64);
    kernel(
        out,
        "net.limiter_try_push_n_ns",
        "ns",
        &mut PushRateLimiter::new(N, 40),
        PushRateLimiter::next_round,
        |limiter| {
            senders.iter().for_each(|&s| {
                black_box(limiter.try_push_n(s, 40));
            });
            N as u64
        },
    );
    kernel(
        out,
        "net.intern_ns",
        "ns",
        &mut IdInterner::new(),
        |interner| *interner = IdInterner::with_capacity(BIG),
        |interner| {
            (0..BIG as u64).for_each(|i| {
                black_box(interner.intern(NodeId(i)));
            });
            BIG as u64
        },
    );
    kernel(
        out,
        "util.mix64_ns",
        "ns",
        &mut rng.next_u64(),
        |_| {},
        |x| {
            for _ in 0..4_096 {
                *x = mix64(*x);
            }
            black_box(*x);
            4_096
        },
    );
    let items: Vec<u64> = (0..4_096).map(|_| rng.next_u64()).collect();
    kernel(
        out,
        "util.hll_update_ns",
        "ns",
        &mut [0u8; hll::REGISTERS],
        |_| {},
        |regs| {
            items.iter().for_each(|&item| {
                black_box(hll::update(regs, item));
            });
            items.len() as u64
        },
    );

    // Enough random (row, ID) pairs to touch every row, so that the
    // matrix is as far out of cache as it is in the run.
    let mut discovery_probe = |name, rows: usize, universe: usize, sketch| {
        let pairs: Vec<(usize, usize)> = (0..1 << 18)
            .map(|_| {
                (
                    rng.next_below(rows as u64) as usize,
                    rng.next_below(universe as u64) as usize,
                )
            })
            .collect();
        kernel(
            out,
            name,
            "ns",
            &mut Discovery::new(rows, universe, sketch),
            |_| {},
            |d| {
                pairs.iter().for_each(|&(row, idx)| {
                    black_box(d.insert(row, idx));
                });
                pairs.len() as u64
            },
        );
    };
    discovery_probe("sim.bitset.insert_exact_ns", N - byzantine, N, false);
    discovery_probe("sim.bitset.insert_sketch_ns", BIG - BIG / 10, BIG, true);

    let victims = ids(byzantine as u64..N as u64);
    let mut adversary = Adversary::new(ids(0..byzantine as u64), N, L, rng.next_u64());
    let mut plan = Vec::new();
    kernel(
        out,
        "sim.adversary.plan_balanced_us",
        "us",
        &mut adversary,
        |_| {},
        |a| {
            a.plan_balanced_pushes_into(&victims, byzantine * 40, &mut plan);
            1
        },
    );
    let mut answer = Vec::new();
    kernel(
        out,
        "sim.adversary.pull_answer_ns",
        "ns",
        &mut adversary,
        |_| {},
        |a| {
            for _ in 0..64 {
                a.pull_answer_into(&mut answer);
            }
            64
        },
    );
}

/// Wall of every `run_round` of a uniform population, in seconds.
fn round_times(scenario: Scenario) -> Vec<f64> {
    let rounds = scenario.rounds;
    let mut sim = Simulation::new(scenario);
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            sim.run_round();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// One uniform population per family through `Simulation::run_round`
/// (N = 400, view 24, 30 rounds): the median round over the correct
/// nodes, which moves `run_s` on `arena_mixed5` by that family's share.
fn families(out: &mut Vec<Probe>, seed: u64) {
    let base = Scenario {
        n: 400,
        view_size: 24,
        sample_size: 24,
        rounds: 30,
        seed,
        ..Scenario::default()
    };
    let correct = (base.n - base.byzantine_count()) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let families = [
        ("brahms.node_round_us", base.brahms_baseline()),
        ("raptee.node_round_us", base.clone()),
        ("basalt.node_round_us", base.basalt_variant(30)),
        ("basalt.tee_node_round_us", base.basalt_tee_variant(30, 8)),
        ("lift.node_round_us", base.lift_variant(20)),
        ("honeybee.node_round_us", base.honeybee_variant(5)),
    ];
    for (name, scenario) in families {
        let honeybee = matches!(scenario.protocol, Protocol::Honeybee { .. });
        let times = round_times(scenario);
        out.push(Probe {
            name,
            value: median(&times).expect("30 rounds were timed") * 1e6 / correct,
            unit: "us",
            samples: times.len() as u64,
        });
        if honeybee {
            out.push(Probe {
                name: "honeybee.round_growth",
                value: mean(&times[times.len() - 5..]) / mean(&times[..5]),
                unit: "ratio",
                samples: 10,
            });
        }
    }
}

/// The same population on the round network and on the event network
/// at zero latency: results must be bit-equal, and the difference in
/// wall is what the event substrate costs before any fault is on.
fn zero_latency_equivalence(out: &mut Vec<Probe>, seed: u64) -> Result<(), String> {
    let scenario = Scenario {
        n: 4_000,
        view_size: 40,
        sample_size: 40,
        trusted_fraction: 0.05,
        rounds: 30,
        seed,
        ..Scenario::default()
    };
    let timed = |s: Scenario| {
        let sim = Simulation::new(s);
        let start = Instant::now();
        let result = sim.run();
        (start.elapsed().as_secs_f64(), result)
    };
    let (round_s, round) = timed(scenario.clone());
    let (event_s, mut event) = timed(scenario.evented_zero_latency());
    // The substrate's own fields are the only ones allowed to differ.
    event.net = round.net;
    event.virtual_ticks = round.virtual_ticks;
    if event != round {
        return Err("zero-latency event run diverged from the round engine".to_string());
    }
    out.push(Probe {
        name: "sim.event.zero_latency_overhead_pct",
        value: (event_s - round_s) / round_s * 100.0,
        unit: "%",
        samples: 2,
    });
    Ok(())
}

/// The whole per-layer pass: family, equivalence and kernel probes.
pub fn all(seed: u64) -> Result<Vec<Probe>, String> {
    let mut out = Vec::new();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    families(&mut out, seed);
    zero_latency_equivalence(&mut out, seed)?;
    brahms_family(&mut out, &mut rng);
    ranked_families(&mut out, &mut rng);
    crypto_audit_event(&mut out, &mut rng);
    substrate_and_adversary(&mut out, &mut rng);
    assert!(
        out.iter().map(|p| (p.name, p.unit)).eq(NAMES),
        "NAMES must list every probe in the order the pass runs them"
    );
    Ok(out)
}

/// Every probe's name and unit, in the order [`all`] runs them; a test
/// holds `BENCHMARK.json` to this list.
pub const NAMES: [(&str, &str); 36] = [
    ("brahms.node_round_us", "us"),
    ("raptee.node_round_us", "us"),
    ("basalt.node_round_us", "us"),
    ("basalt.tee_node_round_us", "us"),
    ("lift.node_round_us", "us"),
    ("honeybee.node_round_us", "us"),
    ("honeybee.round_growth", "ratio"),
    ("sim.event.zero_latency_overhead_pct", "%"),
    ("sampler.observe_cold_ns", "ns"),
    ("sampler.observe_warm_ns", "ns"),
    ("gossip.view_append_ns", "ns"),
    ("brahms.finish_round_us", "us"),
    ("raptee.finish_round_us", "us"),
    ("raptee.trusted_swap_us", "us"),
    ("raptee.provision_us", "us"),
    ("basalt.observe_ns", "ns"),
    ("basalt.plan_round_us", "us"),
    ("lift.observe_ns", "ns"),
    ("lift.plan_round_us", "us"),
    ("honeybee.record_pull_answer_us", "us"),
    ("honeybee.walk_verify_us", "us"),
    ("crypto.sha256_block_ns", "ns"),
    ("crypto.hmac_us", "us"),
    ("tee.merkle_commit_us", "us"),
    ("tee.merkle_open_verify_us", "us"),
    ("sim.audit.commit_view_us", "us"),
    ("sim.audit.audit_us", "us"),
    ("sim.event.queue_push_pop_ns", "ns"),
    ("net.limiter_try_push_n_ns", "ns"),
    ("net.intern_ns", "ns"),
    ("util.mix64_ns", "ns"),
    ("util.hll_update_ns", "ns"),
    ("sim.bitset.insert_exact_ns", "ns"),
    ("sim.bitset.insert_sketch_ns", "ns"),
    ("sim.adversary.plan_balanced_us", "us"),
    ("sim.adversary.pull_answer_ns", "ns"),
];
