//! Workspace wiring smoke test.
//!
//! Exercises every re-export the root meta-crate promises
//! (`raptee_repro::raptee::…` and friends) and runs quickstart-grade
//! logic end-to-end, so a broken manifest — a dropped member, a renamed
//! lib, a missing dependency edge — fails `cargo test -q` instead of
//! only `cargo run --example quickstart`.

use raptee_repro::raptee::{provisioning, EvictionPolicy, RapteeConfig, RapteeNode};
use raptee_repro::raptee_brahms::BrahmsConfig;
use raptee_repro::raptee_crypto::SecretKey;
use raptee_repro::raptee_net::NodeId;
use raptee_repro::raptee_sim::{runner, Protocol, Scenario};

/// Every member crate is reachable through the meta-crate. A pure
/// link-time check: if any `pub use` in `src/lib.rs` loses its backing
/// dependency, this stops compiling.
#[test]
fn all_reexports_resolve() {
    let _id: raptee_repro::raptee_net::NodeId = NodeId(7);
    let _cfg: raptee_repro::raptee_brahms::BrahmsConfig = BrahmsConfig::paper_defaults(8, 8);
    let _key: raptee_repro::raptee_crypto::SecretKey = SecretKey::from_bytes([1u8; 32]);
    let _ev: raptee_repro::raptee::EvictionPolicy = EvictionPolicy::adaptive();
    let _sc: raptee_repro::raptee_sim::Scenario = Scenario::default();
    let mut rng = raptee_repro::raptee_util::Xoshiro256StarStar::seed_from_u64(0x5EED);
    let _sampler = raptee_repro::raptee_sampler::SamplerArray::new(8, &mut rng);
    let _gossip_view = raptee_repro::raptee_gossip::View::new(NodeId(0), 8);
    let _overhead = raptee_repro::raptee_tee::SgxOverheadModel::paper_table1();
    let _usage = raptee_repro::cli::usage();
}

/// Quickstart part 1: provision a trusted node through attestation and
/// consume the node-level API.
#[test]
fn provisioned_trusted_node_serves_peers() {
    let mut attestation = provisioning::new_attestation_service(2024);
    attestation.certify_platform(1);
    let key = provisioning::provision_trusted_key(&mut attestation, 1)
        .expect("genuine enclave on a certified platform attests");

    let config = RapteeConfig {
        brahms: BrahmsConfig::paper_defaults(20, 20),
        eviction: EvictionPolicy::adaptive(),
    };
    let bootstrap: Vec<NodeId> = (1..=20).map(NodeId).collect();
    let node = RapteeNode::new_trusted(NodeId(0), config, &bootstrap, 42, key);
    assert!(node.is_trusted());
    let brahms = node.brahms();
    assert_eq!(brahms.view().len(), 20);
    let samples = brahms.sampler().samples();
    assert_eq!(samples.len(), 20);
    assert!(
        samples.iter().all(|peer| bootstrap.contains(peer)),
        "samples come from the bootstrap view"
    );
}

/// Quickstart part 2, shrunk to test scale: a full RAPTEE run beats the
/// Brahms baseline on the same workload.
#[test]
fn raptee_beats_brahms_baseline_end_to_end() {
    let scenario = Scenario {
        n: 150,
        byzantine_fraction: 0.10,
        trusted_fraction: 0.10,
        view_size: 12,
        sample_size: 12,
        rounds: 100,
        protocol: Protocol::Raptee,
        seed: 7,
        ..Scenario::default()
    };
    let raptee = runner::run_scenario(scenario.clone());
    let brahms = runner::run_scenario(scenario.brahms_baseline());
    assert!(
        raptee.resilience > 0.0 && raptee.resilience < 1.0,
        "resilience is a fraction, got {}",
        raptee.resilience
    );
    assert!(
        raptee.resilience < brahms.resilience,
        "RAPTEE ({:.3}) should hold fewer Byzantine IDs than Brahms ({:.3})",
        raptee.resilience,
        brahms.resilience
    );
}

/// The CLI argument parser reached through the meta-crate works on a
/// representative command line.
#[test]
fn cli_parses_through_meta_crate() {
    let args = raptee_repro::cli::Args::parse(
        ["run", "--n", "150", "--f", "0.2", "--eviction", "adaptive"]
            .iter()
            .map(|s| s.to_string()),
    );
    match args {
        Ok(a) => assert_eq!(a.command, "run"),
        Err(e) => panic!("expected parse success, got {e:?}"),
    }
}

/// The built binary turns an invalid scenario into an error message and
/// exit code 2, not a panic.
#[test]
fn cli_binary_rejects_an_invalid_scenario_with_exit_code_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_raptee-cli"))
        .args(["run", "--n", "1"])
        .output()
        .expect("the raptee-cli binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: n: population must contain at least two nodes"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A Brahms-family view whose `α·l1` rounds to 0 is refused the same
/// way: exit code 2 and the config's rule under knob `protocol`.
#[test]
fn cli_binary_rejects_a_view_that_renews_nothing_with_exit_code_2() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_raptee-cli"))
        .args(["run", "--view", "1"])
        .output()
        .expect("the raptee-cli binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: protocol: alpha*l1 rounds to 0"),
        "{stderr}"
    );
}
