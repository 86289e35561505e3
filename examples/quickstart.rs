//! Quickstart: stand up a small RAPTEE system and read a node's
//! peer-sampling output.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example provisions two trusted nodes through the simulated SGX
//! attestation flow, runs a 400-node population (10 % Byzantine) for 100
//! rounds with the adaptive eviction policy, and reads a node's view and
//! sample list the way an upper-layer protocol would.

use raptee::{provisioning, EvictionPolicy, RapteeConfig, RapteeNode};
use raptee_net::NodeId;
use raptee_sim::{run_scenario, Protocol, Scenario};

fn main() {
    // --- 1. The node-level API ------------------------------------------
    // Provision a trusted node exactly as a deployment would: load the
    // enclave, attest it, receive the group key.
    let mut attestation = provisioning::new_attestation_service(2024);
    attestation.certify_platform(1);
    let key = provisioning::provision_trusted_key(&mut attestation, 1)
        .expect("genuine enclave on a certified platform attests");

    let config = RapteeConfig {
        brahms: raptee_brahms::BrahmsConfig::paper_defaults(20, 20),
        eviction: EvictionPolicy::adaptive(),
    };
    let bootstrap: Vec<NodeId> = (1..=20).map(NodeId).collect();
    let node = RapteeNode::new_trusted(NodeId(0), config, &bootstrap, 42, key);
    println!("node {} is trusted: {}", node.id(), node.is_trusted());
    // The dynamic view is the gossip neighbourhood; the sample list is the
    // service's uniform output stream.
    let brahms = node.brahms();
    println!("initial view: {} entries", brahms.view().len());
    let samples = brahms.sampler().samples();
    println!(
        "sample list: {} entries, first {}",
        samples.len(),
        samples[0]
    );

    // --- 2. A whole system ----------------------------------------------
    let scenario = Scenario {
        n: 400,
        byzantine_fraction: 0.10,
        trusted_fraction: 0.10,
        view_size: 16,
        sample_size: 16,
        rounds: 200,
        protocol: Protocol::Raptee,
        seed: 7,
        ..Scenario::default()
    };
    println!(
        "\nrunning {} nodes ({} Byzantine, {} trusted) for {} rounds...",
        scenario.n,
        scenario.byzantine_count(),
        scenario.trusted_count(),
        scenario.rounds
    );
    let raptee = run_scenario(scenario.clone());
    let brahms = run_scenario(scenario.brahms_baseline());
    println!(
        "Brahms baseline: {:.1}% Byzantine IDs in correct views",
        brahms.resilience * 100.0
    );
    println!(
        "RAPTEE:          {:.1}% Byzantine IDs in correct views",
        raptee.resilience * 100.0
    );
    println!(
        "resilience improvement: {:.1}%",
        (brahms.resilience - raptee.resilience) / brahms.resilience * 100.0
    );
}
