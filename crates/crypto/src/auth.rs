//! RAPTEE mutual authentication (paper Section IV-A).
//!
//! Every node runs this challenge–response protocol before issuing a pull
//! request, so that two *trusted* nodes can privately discover each other
//! while revealing nothing to anyone else:
//!
//! 1. `A → B`: challenge `r_A` (fresh pseudo-random nonce).
//! 2. `B → A`: `(r_B, [H(r_A · r_B)]_{K_B})` — `B` hashes the nonce
//!    concatenation and keys it with its own secret key `K_B`.
//! 3. `A` recomputes the keyed value under `K_A`; a match proves
//!    `K_A = K_B` (both hold the attested group key), so `A` marks `B`
//!    trusted. `A` then replies `[H(r_B · r_A)]_{K_A}`.
//! 4. `B` verifies symmetrically and marks `A` trusted on a match.
//!
//! The paper's `[·]_K` (symmetric encryption of a digest) is modelled as
//! `HMAC(K, ·)`: only a holder of the same key can produce or check the
//! value, which is the exact property the protocol relies on. Untrusted
//! nodes run the very same code with their own random keys — their
//! exchanges simply end in [`AuthOutcome::Untrusted`], and because the
//! message sizes and flow are identical in both cases, an eavesdropper
//! learns nothing (Section III-B's indistinguishability argument).
//!
//! The confirm message is *always* sent, even when the initiator has
//! already concluded `Untrusted`; otherwise message flow would differ
//! between trusted and untrusted handshakes and leak exactly the bit the
//! protocol is designed to hide.

use crate::hmac::hmac_sha256;
use crate::key::{constant_time_eq, SecretKey};
use crate::sha256::{Digest, Sha256};

/// Nonce length for authentication challenges (128-bit).
pub const NONCE_LEN: usize = 16;

/// A fresh challenge nonce `r_A` sent by the initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuthChallenge {
    /// The initiator's nonce `r_A`.
    pub nonce: [u8; NONCE_LEN],
}

/// The responder's message `(r_B, [H(r_A · r_B)]_{K_B})`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuthResponse {
    /// The responder's nonce `r_B`.
    pub nonce: [u8; NONCE_LEN],
    /// `HMAC(K_B, H(r_A || r_B))`.
    pub tag: Digest,
}

/// The initiator's final message `[H(r_B · r_A)]_{K_A}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuthConfirm {
    /// `HMAC(K_A, H(r_B || r_A))`.
    pub tag: Digest,
}

/// Result of an authentication exchange, from one party's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AuthOutcome {
    /// The remote party holds the same secret key (for trusted nodes: it is
    /// an attested enclave holding the group key).
    Trusted,
    /// The remote party holds a different key; treat it as a regular,
    /// untrusted Brahms peer.
    Untrusted,
}

/// Pending state held by the initiator between challenge and response.
#[derive(Debug, Clone, Copy)]
pub struct InitiatorPending {
    nonce: [u8; NONCE_LEN],
}

/// Pending state held by the responder between response and confirm.
#[derive(Debug, Clone, Copy)]
pub struct ResponderPending {
    initiator_nonce: [u8; NONCE_LEN],
    own_nonce: [u8; NONCE_LEN],
}

/// Runs the RAPTEE mutual-authentication protocol for one node.
///
/// The authenticator is deliberately transport-agnostic: the caller moves
/// the three messages between the two parties (in the simulation this is
/// `raptee-net`; in a deployment it would be the TCP channel).
///
/// # Examples
///
/// ```
/// use raptee_crypto::auth::{AuthOutcome, Authenticator};
/// use raptee_crypto::SecretKey;
///
/// let group = SecretKey::from_seed(42);
/// let alice = Authenticator::new(group.clone());
/// let bob = Authenticator::new(group);
///
/// let (challenge, a_pending) = alice.initiate([1u8; 16]);
/// let (response, b_pending) = bob.respond(&challenge, [2u8; 16]);
/// let (a_outcome, confirm) = alice.verify_response(&a_pending, &response);
/// let b_outcome = bob.verify_confirm(&b_pending, &confirm);
/// assert_eq!(a_outcome, AuthOutcome::Trusted);
/// assert_eq!(b_outcome, AuthOutcome::Trusted);
/// ```
#[derive(Debug, Clone)]
pub struct Authenticator {
    key: SecretKey,
}

impl Authenticator {
    /// Creates an authenticator for a node holding `key`.
    pub fn new(key: SecretKey) -> Self {
        Self { key }
    }

    /// Step 1: produce a challenge from a fresh nonce. The nonce must come
    /// from the caller's RNG so that the simulation stays deterministic.
    pub fn initiate(&self, nonce: [u8; NONCE_LEN]) -> (AuthChallenge, InitiatorPending) {
        (AuthChallenge { nonce }, InitiatorPending { nonce })
    }

    /// Step 2: answer a challenge with our own nonce and keyed digest.
    pub fn respond(
        &self,
        challenge: &AuthChallenge,
        own_nonce: [u8; NONCE_LEN],
    ) -> (AuthResponse, ResponderPending) {
        let tag = self.keyed_digest(&challenge.nonce, &own_nonce);
        (
            AuthResponse {
                nonce: own_nonce,
                tag,
            },
            ResponderPending {
                initiator_nonce: challenge.nonce,
                own_nonce,
            },
        )
    }

    /// Step 3 (initiator): check the response and produce the confirm
    /// message. The confirm is returned in *all* cases — sending it only on
    /// success would make trusted handshakes observable on the wire.
    pub fn verify_response(
        &self,
        pending: &InitiatorPending,
        response: &AuthResponse,
    ) -> (AuthOutcome, AuthConfirm) {
        let expected = self.keyed_digest(&pending.nonce, &response.nonce);
        let outcome = if constant_time_eq(&expected, &response.tag) {
            AuthOutcome::Trusted
        } else {
            AuthOutcome::Untrusted
        };
        let confirm = AuthConfirm {
            tag: self.keyed_digest(&response.nonce, &pending.nonce),
        };
        (outcome, confirm)
    }

    /// Step 4 (responder): check the confirm message.
    pub fn verify_confirm(&self, pending: &ResponderPending, confirm: &AuthConfirm) -> AuthOutcome {
        let expected = self.keyed_digest(&pending.own_nonce, &pending.initiator_nonce);
        if constant_time_eq(&expected, &confirm.tag) {
            AuthOutcome::Trusted
        } else {
            AuthOutcome::Untrusted
        }
    }

    /// `HMAC(K, H(first || second))` — the paper's `[H(first · second)]_K`.
    fn keyed_digest(&self, first: &[u8; NONCE_LEN], second: &[u8; NONCE_LEN]) -> Digest {
        let mut h = Sha256::new();
        h.update(first);
        h.update(second);
        let inner = h.finalize();
        hmac_sha256(self.key.as_bytes(), &inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_handshake(a_key: SecretKey, b_key: SecretKey) -> (AuthOutcome, AuthOutcome) {
        let alice = Authenticator::new(a_key);
        let bob = Authenticator::new(b_key);
        let (ch, ap) = alice.initiate([0xA1; NONCE_LEN]);
        let (resp, bp) = bob.respond(&ch, [0xB2; NONCE_LEN]);
        let (a_out, confirm) = alice.verify_response(&ap, &resp);
        let b_out = bob.verify_confirm(&bp, &confirm);
        (a_out, b_out)
    }

    #[test]
    fn same_key_mutually_trusted() {
        let k = SecretKey::from_seed(7);
        let (a, b) = run_handshake(k.clone(), k);
        assert_eq!(a, AuthOutcome::Trusted);
        assert_eq!(b, AuthOutcome::Trusted);
    }

    #[test]
    fn different_keys_mutually_untrusted() {
        let (a, b) = run_handshake(SecretKey::from_seed(1), SecretKey::from_seed(2));
        assert_eq!(a, AuthOutcome::Untrusted);
        assert_eq!(b, AuthOutcome::Untrusted);
    }

    #[test]
    fn confirm_always_produced() {
        // Even with mismatched keys the initiator still emits a confirm
        // message, keeping the wire pattern constant.
        let alice = Authenticator::new(SecretKey::from_seed(1));
        let bob = Authenticator::new(SecretKey::from_seed(2));
        let (ch, ap) = alice.initiate([1; NONCE_LEN]);
        let (resp, _) = bob.respond(&ch, [2; NONCE_LEN]);
        let (outcome, confirm) = alice.verify_response(&ap, &resp);
        assert_eq!(outcome, AuthOutcome::Untrusted);
        assert_ne!(confirm.tag, [0u8; 32], "confirm tag is a real digest");
    }

    #[test]
    fn replayed_response_fails_under_new_nonce() {
        // An adversary replaying an old trusted response against a fresh
        // challenge must fail: the tag binds both nonces.
        let k = SecretKey::from_seed(7);
        let alice = Authenticator::new(k.clone());
        let bob = Authenticator::new(k);
        let (ch1, _ap1) = alice.initiate([1; NONCE_LEN]);
        let (old_resp, _) = bob.respond(&ch1, [9; NONCE_LEN]);
        // New session with a different challenge nonce.
        let (_ch2, ap2) = alice.initiate([2; NONCE_LEN]);
        let (outcome, _) = alice.verify_response(&ap2, &old_resp);
        assert_eq!(outcome, AuthOutcome::Untrusted);
    }

    #[test]
    fn tampered_tag_detected() {
        let k = SecretKey::from_seed(7);
        let alice = Authenticator::new(k.clone());
        let bob = Authenticator::new(k);
        let (ch, ap) = alice.initiate([1; NONCE_LEN]);
        let (mut resp, _) = bob.respond(&ch, [2; NONCE_LEN]);
        resp.tag[0] ^= 0xFF;
        let (outcome, _) = alice.verify_response(&ap, &resp);
        assert_eq!(outcome, AuthOutcome::Untrusted);
    }

    #[test]
    fn forged_confirm_detected() {
        let k = SecretKey::from_seed(7);
        let alice = Authenticator::new(k.clone());
        let bob = Authenticator::new(k);
        let (ch, _ap) = alice.initiate([1; NONCE_LEN]);
        let (_resp, bp) = bob.respond(&ch, [2; NONCE_LEN]);
        let forged = AuthConfirm { tag: [0xEE; 32] };
        assert_eq!(bob.verify_confirm(&bp, &forged), AuthOutcome::Untrusted);
    }

    #[test]
    fn direction_matters_in_digest() {
        // H(rA||rB) keyed must differ from H(rB||rA) keyed; otherwise a
        // reflection attack could bounce the response back as a confirm.
        let k = SecretKey::from_seed(7);
        let auth = Authenticator::new(k);
        let d1 = auth.keyed_digest(&[1; NONCE_LEN], &[2; NONCE_LEN]);
        let d2 = auth.keyed_digest(&[2; NONCE_LEN], &[1; NONCE_LEN]);
        assert_ne!(d1, d2);
    }

    #[test]
    fn message_sizes_do_not_depend_on_keys() {
        // Indistinguishability on the wire: trusted and untrusted
        // handshakes produce byte-identical message *shapes*.
        let t = Authenticator::new(SecretKey::from_seed(1));
        let u = Authenticator::new(SecretKey::from_seed(2));
        let (cht, _) = t.initiate([1; NONCE_LEN]);
        let (chu, _) = u.initiate([1; NONCE_LEN]);
        assert_eq!(std::mem::size_of_val(&cht), std::mem::size_of_val(&chu));
        let (rt, _) = t.respond(&cht, [2; NONCE_LEN]);
        let (ru, _) = u.respond(&chu, [2; NONCE_LEN]);
        assert_eq!(std::mem::size_of_val(&rt), std::mem::size_of_val(&ru));
    }
}
