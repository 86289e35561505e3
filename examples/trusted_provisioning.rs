//! The full trusted-node lifecycle: enclave → attestation → group key →
//! mutual authentication → encrypted channel.
//!
//! Walks through every TEE mechanism the paper relies on, including the
//! failure paths an adversary would hit:
//!
//! 1. load the RAPTEE trusted code into an enclave and *measure* it;
//! 2. remote-attest against the simulated Intel-style service and
//!    receive the group key (only genuine code on certified platforms
//!    succeeds);
//! 3. seal the key to disk format and recover it after a "restart";
//! 4. run the mutual-authentication handshake: trusted↔trusted
//!    recognises, everything else doesn't;
//! 5. open an encrypted channel and exchange a pull answer.
//!
//! Run with `cargo run --release --example trusted_provisioning`.

use raptee::provisioning::{self, TRUSTED_CODE};
use raptee::{EvictionPolicy, RapteeConfig, RapteeNode};
use raptee_net::{NodeId, SecureChannel};
use raptee_tee::enclave::Enclave;
use raptee_tee::AttestationService;

fn main() {
    // 1 + 2: provisioning through attestation.
    let mut service = provisioning::new_attestation_service(777);
    service.certify_platform(1);
    service.certify_platform(2);
    service.certify_platform(666); // the adversary also buys a real CPU

    let mut enclave_a = provisioning::provision_trusted_enclave(&mut service, 1).unwrap();
    let enclave_b = provisioning::provision_trusted_enclave(&mut service, 2).unwrap();
    println!("enclave A measurement: {}", enclave_a.measurement());
    println!("enclave B measurement: {}", enclave_b.measurement());
    println!(
        "both provisioned: {} / {}",
        enclave_a.is_provisioned(),
        enclave_b.is_provisioned()
    );

    // The adversary runs *modified* code on its genuine CPU: refused.
    let evil = Enclave::load(b"raptee trusted code, but evil", 666);
    let nonce = service.challenge();
    let quote = AttestationService::quote(666, &evil, nonce);
    println!(
        "adversary's tampered enclave attests: {:?}",
        service.attest(&quote).err().unwrap()
    );

    // 3: seal + restart recovery.
    let key = enclave_a.group_key().unwrap().clone();
    enclave_a.seal("group-key", key.as_bytes());
    let blob = enclave_a.export_sealed("group-key").unwrap().to_vec();
    let restarted = Enclave::load(TRUSTED_CODE, 1);
    let recovered = restarted.unseal_blob(&blob).unwrap();
    println!(
        "sealed key recovered after restart: {}",
        recovered == key.as_bytes()
    );

    // 4: mutual authentication.
    let cfg = RapteeConfig {
        brahms: raptee_brahms::BrahmsConfig::paper_defaults(8, 8),
        eviction: EvictionPolicy::adaptive(),
    };
    let boot: Vec<NodeId> = (10..18).map(NodeId).collect();
    let key_a = enclave_a.group_key().unwrap().clone();
    let key_b = enclave_b.group_key().unwrap().clone();
    let mut node_a = RapteeNode::new_trusted(NodeId(1), cfg.clone(), &boot, 1, key_a);
    let mut node_b = RapteeNode::new_trusted(NodeId(2), cfg.clone(), &boot, 2, key_b);
    let mut node_u = RapteeNode::new_untrusted(NodeId(3), cfg, &boot, 3);
    let (a_sees_b, b_sees_a) = RapteeNode::run_handshake(&mut node_a, &mut node_b);
    println!("trusted  ↔ trusted  : {a_sees_b:?} / {b_sees_a:?}");
    let (a_sees_u, u_sees_a) = RapteeNode::run_handshake(&mut node_a, &mut node_u);
    println!("trusted  ↔ untrusted: {a_sees_u:?} / {u_sees_a:?}");

    // 5: encrypted pull answer over the pairwise channel. Node 2 pulls
    // node 1, so node 2 is the channel's initiator and node 1's answer
    // travels responder → initiator (§III-B).
    let group = enclave_b.group_key().unwrap();
    let mut responder = SecureChannel::new(group, NodeId(2), NodeId(1));
    let mut initiator = SecureChannel::new(group, NodeId(2), NodeId(1));
    let request = initiator.seal_from_initiator(b"pull");
    assert_eq!(responder.open_from_initiator(&request), b"pull");
    let answer = node_a.pull_answer();
    let wire: Vec<u8> = answer.iter().flat_map(|id| id.to_bytes()).collect();
    let ciphertext = responder.seal_from_responder(&wire);
    println!(
        "pull answer: {} IDs → {} encrypted bytes (length-preserving)",
        answer.len(),
        ciphertext.len()
    );
    let clear = initiator.open_from_responder(&ciphertext);
    println!("initiator decrypts correctly: {}", clear == wire);
}
