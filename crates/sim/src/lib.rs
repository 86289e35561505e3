//! Large-scale RAPTEE/Brahms simulation engine.
//!
//! Reproduces the paper's Grid'5000 methodology in a deterministic,
//! in-process form: populations of up to the paper's 10,000 nodes, a
//! configurable share `f` of Byzantine nodes under one adversary, a share
//! `t` of trusted (enclave-provisioned) nodes, synchronous 200-round
//! runs, and the paper's three performance metrics plus its two attack
//! analyses.
//!
//! `adversary`, `event` and `runner` are public modules; the rest of the
//! crate's surface is re-exported at its root.
//!
//! * [`Scenario`] (`scenario`) — experiment configuration:
//!   population, fractions, eviction policy, protocol selection (Brahms,
//!   RAPTEE, BASALT hit-counter sampling, BASALT+TEE, LIFT or Honeybee,
//!   alone or as a mixed population), attack toggles, seeds.
//! * [`adversary`] — the adversarial strategy of Section III-B: evenly
//!   balanced faulty pushes (rate-limited like everyone else), pull
//!   answers containing exclusively Byzantine IDs, the trusted-node
//!   identification classifier of Section VI-A, and the view-poisoned
//!   trusted-node injection of Section VI-B.
//! * [`Simulation`] (`engine`) — the round loop gluing nodes, network
//!   defences and
//!   adversary together: one loop for every protocol family, a uniform
//!   run being a one-segment population and a lockstep run a
//!   zero-latency one; phase-parallel within a single
//!   run (plan/apply phases shard by node over `RAYON_NUM_THREADS`
//!   workers) with bit-identical results at every thread count.
//! * [`event`] — the delivery substrate every run owns
//!   ([`event::EventNet`]): a deterministic round calendar — one bucket
//!   of flat records per arrival round, delivered in `(arrival tick,
//!   sending order)` — under per-link latency models, partition/healing
//!   schedules and NAT-like asymmetric reachability. Its all-zero
//!   configuration is the paper's lockstep round.
//! * [`RunResult`] (`metrics`) — resilience, system-discovery time,
//!   view-stability time, identification precision/recall/F1.
//! * [`runner`] — repetition and (rayon-parallel) parameter sweeps, plus
//!   the derived quantities the figures plot (resilience improvement %,
//!   round-overhead %).
//! * [`Discovery`] (`bitset`) — the per-node discovery state: one
//!   flat arena of exact O(N²/8) bitset rows below 16,384 actors, or of
//!   HLL cardinality sketches (256 B/node, ~6.5 % standard error)
//!   above, selectable per scenario via [`DiscoveryMode`]; the parallel
//!   phases update it through disjoint block handles of 64 rows.
//! * [`Challenger`] (`audit`) — the verifiable audit layer:
//!   merkle-committed views,
//!   beacon-sampled challenges, replay verification, conviction and
//!   quarantine.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod adversary;
mod audit;
mod bitset;
mod engine;
pub mod event;
mod metrics;
pub mod runner;
mod scenario;

pub use adversary::AdaptiveCoordinator;
pub use audit::{AuditResponse, Challenger, Verdict};
pub use bitset::Discovery;
pub use engine::Simulation;
pub use event::EventQueue;
pub use metrics::{AuditStats, RecoveryStats};
pub use metrics::{IdentificationResult, NetRunStats, RunResult, SegmentResult};
pub use runner::{run_repeated, run_scenario, AggregatedResult, SegmentAggregate};
pub use scenario::{
    AdversaryMode, AttackStrategy, AuditConfig, ChurnBurst, ChurnSchedule, DiscoveryMode,
    EventNetConfig, LatencyModel, NetworkModel, PartitionWindow, Protocol, Reachability,
    RejoinPolicy, RetryConfig, Scenario, ScenarioError, SegmentSpec, DEFAULT_AUDIT_GRACE,
};
