//! Cross-crate cryptographic integration: the real handshake carried as
//! encoded wire messages and wire indistinguishability. The engine's
//! role-table authentication is held to the handshake pair by pair in
//! `raptee-sim`'s `engine::tests::handshakes_agree_with_the_role_table`.

use raptee::wire::Message;
use raptee::{provisioning, EvictionPolicy, RapteeConfig, RapteeNode};
use raptee_brahms::BrahmsConfig;
use raptee_crypto::auth::AuthOutcome;
use raptee_net::NodeId;

fn cfg() -> RapteeConfig {
    RapteeConfig {
        brahms: BrahmsConfig::paper_defaults(8, 8),
        eviction: EvictionPolicy::adaptive(),
    }
}

fn boot() -> Vec<NodeId> {
    (10..18).map(NodeId).collect()
}

/// One hop on the wire: the sender encodes, an eavesdropper records the
/// message kind and encoded length, and the receiver decodes.
fn transmit(msg: Message, trace: &mut Vec<(&'static str, usize)>) -> Message {
    let bytes = msg.encode();
    trace.push((msg.kind(), bytes.len()));
    Message::decode(&bytes).expect("an encoded message decodes")
}

/// Runs the four-step handshake as encoded [`Message`]s instead of
/// in-process calls, and returns both verdicts plus the eavesdropper's
/// trace of `(kind, encoded length)` pairs.
fn handshake_over_network(
    a: &mut RapteeNode,
    b: &mut RapteeNode,
) -> (AuthOutcome, AuthOutcome, Vec<(&'static str, usize)>) {
    let mut trace = Vec::new();
    let (challenge, a_pending) = a.auth_initiate();
    let challenge = match transmit(Message::AuthChallenge(challenge), &mut trace) {
        Message::AuthChallenge(c) => c,
        other => panic!("expected challenge, got {other:?}"),
    };
    let (response, b_pending) = b.auth_respond(&challenge);
    let response = match transmit(Message::AuthResponse(response), &mut trace) {
        Message::AuthResponse(r) => r,
        other => panic!("expected response, got {other:?}"),
    };
    let (a_outcome, confirm) = a.auth_finish_initiator(&a_pending, &response);
    let confirm = match transmit(Message::AuthConfirm(confirm), &mut trace) {
        Message::AuthConfirm(c) => c,
        other => panic!("expected confirm, got {other:?}"),
    };
    let b_outcome = b.auth_finish_responder(&b_pending, &confirm);
    (a_outcome, b_outcome, trace)
}

#[test]
fn provisioned_handshake_over_the_network() {
    let mut service = provisioning::new_attestation_service(42);
    service.certify_platform(1);
    service.certify_platform(2);
    let k1 = provisioning::provision_trusted_key(&mut service, 1).unwrap();
    let k2 = provisioning::provision_trusted_key(&mut service, 2).unwrap();
    let mut a = RapteeNode::new_trusted(NodeId(1), cfg(), &boot(), 1, k1);
    let mut b = RapteeNode::new_trusted(NodeId(2), cfg(), &boot(), 2, k2);
    let (oa, ob, _) = handshake_over_network(&mut a, &mut b);
    assert_eq!(oa, AuthOutcome::Trusted);
    assert_eq!(ob, AuthOutcome::Trusted);
}

#[test]
fn wire_trace_is_identical_for_trusted_and_untrusted_handshakes() {
    // The eavesdropper's view (message kinds, encoded sizes, order) must
    // not reveal whether a handshake concluded Trusted.
    let key = raptee_crypto::SecretKey::from_seed(7);
    let mut t1 = RapteeNode::new_trusted(NodeId(1), cfg(), &boot(), 1, key.clone());
    let mut t2 = RapteeNode::new_trusted(NodeId(2), cfg(), &boot(), 2, key);
    let (_, _, trusted_trace) = handshake_over_network(&mut t1, &mut t2);

    let mut u1 = RapteeNode::new_untrusted(NodeId(3), cfg(), &boot(), 3);
    let mut u2 = RapteeNode::new_untrusted(NodeId(4), cfg(), &boot(), 4);
    let (ou1, ou2, untrusted_trace) = handshake_over_network(&mut u1, &mut u2);
    assert_eq!(ou1, AuthOutcome::Untrusted);
    assert_eq!(ou2, AuthOutcome::Untrusted);
    assert_eq!(
        trusted_trace, untrusted_trace,
        "wire patterns must be indistinguishable"
    );
}

#[test]
fn group_key_is_required_for_trusted_tier() {
    // A node with a random key (adversary without attestation) cannot
    // join the trusted tier even if it *claims* to be trusted — the
    // handshake fails against genuinely provisioned nodes.
    let mut service = provisioning::new_attestation_service(42);
    service.certify_platform(1);
    let genuine_key = provisioning::provision_trusted_key(&mut service, 1).unwrap();
    let mut genuine = RapteeNode::new_trusted(NodeId(1), cfg(), &boot(), 1, genuine_key);
    // Adversary guesses/derives its own key.
    let fake_key = raptee_crypto::SecretKey::from_seed(0xBAD);
    let mut impostor = RapteeNode::new_trusted(NodeId(2), cfg(), &boot(), 2, fake_key);
    let (o1, o2) = RapteeNode::run_handshake(&mut genuine, &mut impostor);
    assert_eq!(o1, AuthOutcome::Untrusted);
    assert_eq!(o2, AuthOutcome::Untrusted);
}
