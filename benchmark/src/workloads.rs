//! The six named workloads: what each simulates, on how many threads,
//! and why it is in the set. Sizes are fixed; only `Scenario::seed`
//! depends on `--seed`.

use raptee::EvictionPolicy;
use raptee_sim::{
    AuditConfig, ChurnSchedule, EventNetConfig, LatencyModel, PartitionWindow, Protocol,
    Reachability, RejoinPolicy, RetryConfig, Scenario, SegmentSpec,
};
use raptee_util::mix64;

/// `--seed` when none is given; the pinned fingerprints belong to it.
pub const DEFAULT_SEED: u64 = 0xBE7C11;

/// Every workload's `rounds` is the issue's figure divided by this, so
/// that the driver's 136 runs fit its 3420 s cap (see README.md,
/// "Sizing"). All workloads are cut alike; none is dropped.
pub const ROUNDS_DIVISOR: usize = 5;

/// What one workload runs.
pub enum Job {
    /// One `Simulation::new` + `run`.
    Single(Scenario),
    /// One `runner::sweep_grid` over `template`.
    Sweep(SweepSpec),
}

/// Inputs of `runner::sweep_grid`, fig 5's shape.
pub struct SweepSpec {
    pub template: Scenario,
    pub byzantine_fractions: Vec<f64>,
    pub trusted_fractions: Vec<f64>,
}

impl SweepSpec {
    /// The scenarios `sweep_grid` runs, in its own order: one Brahms
    /// baseline per `f`, then the `f × t` grid row by row.
    pub fn cells(&self) -> Vec<Scenario> {
        let baselines = self.byzantine_fractions.iter().map(|&f| {
            let mut s = self.template.brahms_baseline();
            s.byzantine_fraction = f;
            s
        });
        let grid = self.byzantine_fractions.iter().flat_map(|&f| {
            self.trusted_fractions.iter().map(move |&t| {
                let mut s = self.template.clone();
                s.byzantine_fraction = f;
                s.trusted_fraction = t;
                s
            })
        });
        baselines.chain(grid).collect()
    }
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// `RAYON_NUM_THREADS` of the child that runs it.
    pub threads: usize,
    pub why: &'static str,
    /// Fingerprint of the result at [`DEFAULT_SEED`].
    pub pinned: u64,
    /// A workload whose inputs this one shares and whose fingerprint it
    /// must reproduce at every seed.
    pub twin: Option<&'static str>,
    build: fn(u64) -> Job,
}

impl Workload {
    /// The job at `--seed run_seed`. A twin gets its partner's inputs.
    pub fn job(&self, run_seed: u64) -> Job {
        let index = WORKLOADS
            .iter()
            .position(|w| w.name == self.twin.unwrap_or(self.name))
            .expect("workload and twin are in the table");
        (self.build)(mix64(run_seed ^ mix64(index as u64 + 1)))
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Job {
    /// Every simulation the job runs: its operations.
    pub fn scenarios(&self) -> Vec<Scenario> {
        match self {
            Job::Single(s) => vec![s.clone()],
            Job::Sweep(spec) => spec.cells(),
        }
    }

    /// Correct nodes × rounds over every simulation: the work
    /// `node_rounds_per_s` divides by `run_s`.
    pub fn node_rounds(&self) -> u64 {
        self.scenarios()
            .iter()
            .map(|s| ((s.n - s.byzantine_count()) * s.rounds) as u64)
            .sum()
    }
}

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "raptee_paper_half",
        threads: 1,
        why: "The paper's configuration at half scale (N=5000, view 100): sampler, View and Brahms/RAPTEE finish_round dominate, cold-sampler first round included.",
        pinned: 0xcea2_5c58_b0ee_142b,
        twin: None,
        build: raptee_paper_half,
    },
    Workload {
        name: "raptee_paper_half_mt",
        threads: 2,
        why: "Same inputs on 2 threads: only the parallel plan/apply phases or the sequential exchange pass move it against its twin, whose fingerprint it must equal.",
        pinned: 0xcea2_5c58_b0ee_142b,
        twin: Some("raptee_paper_half"),
        build: raptee_paper_half,
    },
    Workload {
        name: "arena_mixed5",
        threads: 1,
        why: "Five-protocol mixed population: the only run through mixed_round, RankedNode dispatch and all three ranked crates; Brahms-family code is under 5% of it.",
        pinned: 0xbf5f_5393_d23e_48a0,
        twin: None,
        build: arena_mixed5,
    },
    Workload {
        name: "wan_faults_audit",
        threads: 1,
        why: "Event network with latency, partition, NAT, retries, churn, attestation expiry and audits: about 60% of it is event, churn/rejoin, audit and merkle code.",
        pinned: 0x063e_1908_326c_b6c8,
        twin: None,
        build: wan_faults_audit,
    },
    Workload {
        name: "scale_sketch_150k",
        threads: 1,
        why: "N=150000 with HLL discovery: working set far beyond cache and construction a large share of the wall, so setup_s and peak_rss_mib are the story.",
        pinned: 0x8dbb_4a7c_ef9b_e776,
        twin: None,
        build: scale_sketch_150k,
    },
    Workload {
        name: "sweep_small_grid",
        threads: 2,
        why: "42 short runs fanned over 2 threads as figures are produced: per-run set-up, arena allocation and pool wake-ups are paid 42 times.",
        pinned: 0x6481_3510_ae03_a30a,
        twin: None,
        build: sweep_small_grid,
    },
];

fn raptee_paper_half(seed: u64) -> Job {
    Job::Single(Scenario {
        n: 5_000,
        view_size: 100,
        sample_size: 100,
        byzantine_fraction: 0.10,
        trusted_fraction: 0.01,
        eviction: EvictionPolicy::adaptive(),
        flood_slack_sigmas: 0.0,
        rounds: 100 / ROUNDS_DIVISOR,
        protocol: Protocol::Raptee,
        seed,
        ..Scenario::default()
    })
}

fn arena_mixed5(seed: u64) -> Job {
    let view_size = 24;
    let base = Scenario {
        n: 2_000,
        view_size,
        sample_size: view_size,
        byzantine_fraction: 0.10,
        trusted_fraction: 0.01,
        rounds: 100 / ROUNDS_DIVISOR,
        seed,
        ..Scenario::default()
    };
    let count = (base.n - base.byzantine_count()) / 5;
    let segment = |protocol| SegmentSpec { protocol, count };
    Job::Single(base.with_population(vec![
        segment(Protocol::Raptee),
        segment(Protocol::Brahms),
        segment(Protocol::Basalt {
            view_size,
            rotation_interval: 30,
        }),
        segment(Protocol::Lift {
            view_size,
            fade_interval: 20,
        }),
        segment(Protocol::Honeybee {
            view_size,
            walk_length: 5,
        }),
    ]))
}

fn wan_faults_audit(seed: u64) -> Job {
    let rounds = 150 / ROUNDS_DIVISOR;
    Job::Single(
        Scenario {
            n: 4_000,
            view_size: 40,
            sample_size: 40,
            trusted_fraction: 0.05,
            rounds,
            protocol: Protocol::Raptee,
            churn: ChurnSchedule {
                rejoin: RejoinPolicy::Warm,
                ..ChurnSchedule::steady(0.01, 0.20)
            },
            attest_ttl: 20,
            audit: Some(AuditConfig::with_budget(16)),
            sampler_validation_period: 5,
            message_loss: 0.02,
            seed,
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
            // Rounds 37..75 of 150, scaled with the run.
            partitions: vec![PartitionWindow {
                start: rounds / 4,
                end: rounds / 2,
                boundary: 2_000,
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
        }),
    )
}

fn scale_sketch_150k(seed: u64) -> Job {
    Job::Single(Scenario {
        n: 150_000,
        view_size: 16,
        sample_size: 16,
        rounds: 6usize.div_ceil(ROUNDS_DIVISOR),
        protocol: Protocol::Raptee,
        seed,
        ..Scenario::default()
    })
}

fn sweep_small_grid(seed: u64) -> Job {
    Job::Sweep(SweepSpec {
        template: Scenario {
            n: 400,
            view_size: 16,
            sample_size: 16,
            rounds: 600 / ROUNDS_DIVISOR,
            protocol: Protocol::Raptee,
            seed,
            ..Scenario::default()
        },
        byzantine_fractions: vec![0.10, 0.14, 0.18, 0.22, 0.26, 0.30],
        trusted_fractions: vec![0.01, 0.05, 0.10, 0.20, 0.30, 0.50],
    })
}
