//! Memory-budget smoke for the large-population engine.
//!
//! A reduced-round, sketch-discovery run at N=100,000 must complete
//! and keep the process' peak RSS inside the budget documented in
//! README.md's "Scale profiles" section. This guards the compact-ID
//! arenas and the HLL discovery sketches against memory regressions at
//! scale: an accidental fallback to exact bitsets (≈ 1.1 GiB of
//! discovery state alone at this population) or a reintroduced
//! per-(node,node) structure blows the budget immediately.
//!
//! The same population on the event network — log-normal latency, a
//! partition that holds four rounds of cross-cut traffic, NAT, retries
//! and duplicate injection — must fit its own, smaller budget: what the
//! substrate adds is flat records in per-round buckets and each
//! answered view stored once, not a heap of messages that each own a
//! copy of their view.
//!
//! A third test holds population construction to linear time: every
//! node's bootstrap list is `view_size + 2` draws out of N, and a draw
//! that sets up O(N) state first (an index table refilled per call, a
//! per-node bitset grown to the largest bootstrap ID) makes construction
//! quadratic without changing a single result.
//!
//! Expensive (tens of seconds in release) — ignored by default and run
//! explicitly by the CI `scale-smoke` job with `-- --ignored`, one test
//! per process: the first two read the process' peak RSS, the third a
//! clock.

use raptee_sim::{
    DiscoveryMode, EventNetConfig, LatencyModel, PartitionWindow, Protocol, Reachability,
    RetryConfig, Scenario, Simulation,
};
use std::time::Instant;

/// Peak resident set size in KiB from `/proc/self/status` (Linux).
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches(" kB").trim().parse().ok();
        }
    }
    None
}

/// The documented budget for the whole test process at N=100,000
/// (README.md "Scale profiles"): the peak measured on the reference
/// machine, 171,340 KiB (three runs within 0.1 %), plus 10 %. That is
/// per-node protocol state (views, samplers, secure channels; ≈ 1.4 KiB
/// per correct node) plus the discovery sketches at 256 B/node. The
/// engine before the 64-node block handles, whose nodes were 136 B
/// wider and whose rounds built one lane struct per node per phase,
/// peaked at 198,920–199,176 KiB and fails it, so a per-node regression
/// of that size trips the gate — as would an exact-bitset fallback
/// (≈ +1.1 GiB) or a reintroduced per-node seen-cache bitset
/// (≈ +1.2 GiB).
const BUDGET_KIB: u64 = 188_474;

#[test]
#[ignore = "scale smoke (~1 min in release): run explicitly, see the CI scale-smoke job"]
fn hundred_thousand_node_sketch_run_fits_memory_budget() {
    let scenario = Scenario {
        n: 100_000,
        view_size: 16,
        sample_size: 16,
        rounds: 6,
        tail_window: 5,
        protocol: Protocol::Raptee,
        ..Scenario::default()
    };
    assert!(
        scenario.sketch_discovery(),
        "100,000 actors must auto-select sketched discovery"
    );
    let result = Simulation::new(scenario).run();
    assert!(
        result.resilience.is_finite() && result.resilience > 0.0,
        "the run must produce a real pollution measurement, got {}",
        result.resilience
    );
    assert_eq!(result.byz_share_series.len(), 6);
    if let Some(peak) = peak_rss_kib() {
        assert!(
            peak <= BUDGET_KIB,
            "peak RSS {peak} KiB exceeds the documented {BUDGET_KIB} KiB budget \
             (README.md \"Scale profiles\")"
        );
        println!("scale smoke: peak RSS {peak} KiB (budget {BUDGET_KIB} KiB)");
    } else {
        println!("scale smoke: no /proc/self/status; RSS budget not checked");
    }
}

/// The evented budget for the whole test process: the peak measured on
/// the reference machine, 260,544 KiB (three runs within 0.1 %), plus
/// 10 %; the engine before the block handles peaked at
/// 300,840–300,972 KiB and fails it. It was 361 MiB when the round
/// calendar first replaced the binary heap, and 513 MiB while late
/// messages sat in that heap and every copy of an answer owned its
/// view; the round-network
/// run of the same population peaks at ≈ 167 MiB, so about a third of
/// this is the partition backlog.
const EVENTED_BUDGET_KIB: u64 = 286_598;

#[test]
#[ignore = "scale smoke (~10 s in release): run explicitly, see the CI scale-smoke job"]
fn hundred_thousand_node_evented_run_fits_memory_budget() {
    let rounds = 8;
    let scenario = Scenario {
        n: 100_000,
        view_size: 16,
        sample_size: 16,
        rounds,
        tail_window: 5,
        protocol: Protocol::Raptee,
        ..Scenario::default()
    }
    .with_network(EventNetConfig {
        latency: LatencyModel::LogNormal {
            mu: 5.5,
            sigma: 0.8,
            cap: 4_000,
        },
        round_ticks: 1_000,
        jitter: 200,
        partitions: vec![PartitionWindow {
            start: 2,
            end: 6,
            boundary: 50_000,
        }],
        reachability: Reachability::Nat {
            fraction: 0.20,
            hole_ttl: 3,
        },
        retry: RetryConfig {
            max_retries: 2,
            base_backoff: 250,
        },
        duplicate_rate: 0.05,
        reorder_jitter: 300,
    });
    let start = Instant::now();
    let mut sim = Simulation::new(scenario);
    for _ in 0..rounds {
        sim.run_round();
        // The node invariants, and the net's conservation: every late
        // message is handed over, still in the calendar or due after
        // the run — nothing is lost at this size either.
        assert_eq!(sim.check_invariants(), Ok(()));
    }
    let secs = start.elapsed().as_secs_f64();
    let stats = sim.event_net().stats();
    assert!(
        stats.partition_held > 0 && stats.partition_released > 0,
        "the cut must hold traffic and the heal release it: {stats:?}"
    );
    assert!(stats.nonce_evictions > 0, "payload groups must retire");
    println!("scale smoke: evented N=100,000 x {rounds} rounds in {secs:.1} s, {stats:?}");
    if let Some(peak) = peak_rss_kib() {
        assert!(
            peak <= EVENTED_BUDGET_KIB,
            "peak RSS {peak} KiB exceeds the {EVENTED_BUDGET_KIB} KiB evented budget"
        );
        println!("scale smoke: peak RSS {peak} KiB (budget {EVENTED_BUDGET_KIB} KiB)");
    } else {
        println!("scale smoke: no /proc/self/status; RSS budget not checked");
    }
}

/// Wall time of `Simulation::new` alone at population `n`, the faster of
/// two constructions.
fn construction_secs(n: usize) -> f64 {
    let scenario = Scenario {
        n,
        view_size: 16,
        sample_size: 16,
        protocol: Protocol::Raptee,
        discovery: DiscoveryMode::Sketch,
        ..Scenario::default()
    };
    (0..2)
        .map(|_| {
            let start = Instant::now();
            let sim = std::hint::black_box(Simulation::new(scenario.clone()));
            let secs = start.elapsed().as_secs_f64();
            drop(sim);
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

/// Eight times the population must cost about eight times the
/// construction. Measured ratios (two runs each): 21.6 and 22.5 while a
/// bootstrap draw refilled an N-entry table, 8.7 and 9.6 since.
#[test]
#[ignore = "scale smoke (~10 s in release): run explicitly, see the CI scale-smoke job"]
fn construction_scales_linearly() {
    let small = construction_secs(20_000);
    let large = construction_secs(160_000);
    let ratio = large / small;
    println!("scale smoke: Simulation::new {small:.3} s at N=20,000, {large:.3} s at N=160,000, ratio {ratio:.1} (linear: 8)");
    assert!(
        ratio < 15.0,
        "construction is superlinear again: {small:.3} s -> {large:.3} s is x{ratio:.1} for x8 the population"
    );
}
