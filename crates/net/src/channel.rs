//! Encrypted point-to-point channels.
//!
//! Paper Section III-B: "Communications between any two nodes, including
//! trusted ones, are cyphered with symmetric encryption to protect against
//! an eavesdropping adversary." A [`SecureChannel`] binds a pairwise
//! session key (derived from a shared base key and the two endpoint IDs)
//! and encrypts byte payloads with ChaCha20, with a send-counter nonce so
//! no keystream is ever reused.
//!
//! The round-based simulation moves *typed* messages for speed; the secure
//! channel is exercised by the handshake path, the integration tests and
//! the `secure_channel` example to demonstrate that the byte-level story
//! is complete.

use crate::id::NodeId;
use raptee_crypto::key::SecretKey;

/// A directional encrypted channel between two nodes.
///
/// Each endpoint constructs the channel with the same `base` key and the
/// same (initiator, responder) pair, and both derive the same session key.
/// Nonces are `direction byte || 64-bit counter`, so the two directions
/// never collide.
///
/// # Examples
///
/// ```
/// use raptee_net::{SecureChannel, NodeId};
/// use raptee_crypto::SecretKey;
///
/// let base = SecretKey::from_seed(9);
/// let mut a = SecureChannel::new(&base, NodeId(1), NodeId(2));
/// let mut b = SecureChannel::new(&base, NodeId(1), NodeId(2));
/// let ct = a.seal_from_initiator(b"pull request");
/// assert_eq!(b.open_from_initiator(&ct), b"pull request");
/// ```
#[derive(Debug, Clone)]
pub struct SecureChannel {
    session: SecretKey,
    initiator_counter: u64,
    responder_counter: u64,
    opened_initiator: u64,
    opened_responder: u64,
}

impl SecureChannel {
    /// Derives the session key for the (initiator, responder) pair from a
    /// shared base key. The derivation is order-sensitive: the channel
    /// `(a, b)` differs from `(b, a)`.
    pub fn new(base: &SecretKey, initiator: NodeId, responder: NodeId) -> Self {
        let mut ctx = Vec::with_capacity(16);
        ctx.extend_from_slice(&initiator.to_bytes());
        ctx.extend_from_slice(&responder.to_bytes());
        Self {
            session: base.derive("raptee-channel", &ctx),
            initiator_counter: 0,
            responder_counter: 0,
            opened_initiator: 0,
            opened_responder: 0,
        }
    }

    /// Encrypts a payload travelling initiator → responder.
    pub fn seal_from_initiator(&mut self, plaintext: &[u8]) -> Vec<u8> {
        self.initiator_counter += 1;
        self.session
            .encrypt(&Self::nonce(0, self.initiator_counter), plaintext)
    }

    /// Encrypts a payload travelling responder → initiator.
    pub fn seal_from_responder(&mut self, plaintext: &[u8]) -> Vec<u8> {
        self.responder_counter += 1;
        self.session
            .encrypt(&Self::nonce(1, self.responder_counter), plaintext)
    }

    /// Decrypts the next initiator → responder payload. Ciphertexts must
    /// be opened in send order (the round-based network preserves order).
    pub fn open_from_initiator(&mut self, ciphertext: &[u8]) -> Vec<u8> {
        self.opened_initiator += 1;
        self.session
            .decrypt(&Self::nonce(0, self.opened_initiator), ciphertext)
    }

    /// Decrypts the next responder → initiator payload.
    pub fn open_from_responder(&mut self, ciphertext: &[u8]) -> Vec<u8> {
        self.opened_responder += 1;
        self.session
            .decrypt(&Self::nonce(1, self.opened_responder), ciphertext)
    }

    fn nonce(direction: u8, counter: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[0] = direction;
        n[4..].copy_from_slice(&counter.to_le_bytes());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SecureChannel, SecureChannel) {
        let base = SecretKey::from_seed(1);
        (
            SecureChannel::new(&base, NodeId(10), NodeId(20)),
            SecureChannel::new(&base, NodeId(10), NodeId(20)),
        )
    }

    #[test]
    fn both_directions_roundtrip() {
        let (mut a, mut b) = pair();
        let c1 = a.seal_from_initiator(b"hello");
        assert_eq!(b.open_from_initiator(&c1), b"hello");
        let c2 = b.seal_from_responder(b"world");
        assert_eq!(a.open_from_responder(&c2), b"world");
    }

    #[test]
    fn sequence_of_messages_uses_fresh_nonces() {
        let (mut a, mut b) = pair();
        let c1 = a.seal_from_initiator(b"same text");
        let c2 = a.seal_from_initiator(b"same text");
        assert_ne!(c1, c2, "identical plaintexts must encrypt differently");
        assert_eq!(b.open_from_initiator(&c1), b"same text");
        assert_eq!(b.open_from_initiator(&c2), b"same text");
    }

    #[test]
    fn directions_do_not_collide() {
        let (mut a, _) = pair();
        let ci = a.seal_from_initiator(b"payload!");
        let mut a2 = pair().0;
        let cr = a2.seal_from_responder(b"payload!");
        assert_ne!(ci, cr);
    }

    #[test]
    fn wrong_base_key_garbles() {
        let base1 = SecretKey::from_seed(1);
        let base2 = SecretKey::from_seed(2);
        let mut tx = SecureChannel::new(&base1, NodeId(1), NodeId(2));
        let mut rx = SecureChannel::new(&base2, NodeId(1), NodeId(2));
        let ct = tx.seal_from_initiator(b"secret view");
        assert_ne!(rx.open_from_initiator(&ct), b"secret view");
    }

    #[test]
    fn channel_is_order_sensitive() {
        let base = SecretKey::from_seed(1);
        let mut ab = SecureChannel::new(&base, NodeId(1), NodeId(2));
        let mut ba = SecureChannel::new(&base, NodeId(2), NodeId(1));
        let ct = ab.seal_from_initiator(b"directional");
        assert_ne!(ba.open_from_initiator(&ct), b"directional");
    }

    #[test]
    fn ciphertext_length_equals_plaintext_length() {
        // Length preservation is what makes trusted and untrusted pulls
        // indistinguishable on the wire for equal view sizes.
        let (mut a, _) = pair();
        for len in [0usize, 1, 100, 1000] {
            let pt = vec![7u8; len];
            assert_eq!(a.seal_from_initiator(&pt).len(), len);
        }
    }

    #[test]
    fn interleaved_directions_keep_separate_counters() {
        let (mut a, mut b) = pair();
        let i1 = a.seal_from_initiator(b"i1");
        let r1 = b.seal_from_responder(b"r1");
        let i2 = a.seal_from_initiator(b"i2");
        let r2 = b.seal_from_responder(b"r2");
        let r3 = b.seal_from_responder(b"r3");
        assert_eq!(a.open_from_responder(&r1), b"r1");
        assert_eq!(b.open_from_initiator(&i1), b"i1");
        assert_eq!(a.open_from_responder(&r2), b"r2");
        assert_eq!(a.open_from_responder(&r3), b"r3");
        assert_eq!(b.open_from_initiator(&i2), b"i2");
    }

    #[test]
    fn opening_out_of_send_order_garbles() {
        let (mut a, mut b) = pair();
        let c1 = a.seal_from_initiator(b"first message");
        let c2 = a.seal_from_initiator(b"other message");
        assert_ne!(b.open_from_initiator(&c2), b"other message");
        assert_ne!(b.open_from_initiator(&c1), b"first message");
    }

    #[test]
    fn identical_channels_seal_identically() {
        // Sealing is deterministic given the key, the pair and the
        // counter, which is what keeps encrypted runs reproducible.
        let (mut a, mut b) = pair();
        for msg in [&b"one"[..], b"two", b""] {
            assert_eq!(a.seal_from_initiator(msg), b.seal_from_initiator(msg));
            assert_eq!(a.seal_from_responder(msg), b.seal_from_responder(msg));
        }
    }

    #[test]
    fn each_pair_derives_its_own_session() {
        let base = SecretKey::from_seed(1);
        let mut to_20 = SecureChannel::new(&base, NodeId(10), NodeId(20));
        let mut to_30 = SecureChannel::new(&base, NodeId(10), NodeId(30));
        assert_ne!(
            to_20.seal_from_initiator(b"same payload"),
            to_30.seal_from_initiator(b"same payload")
        );
    }

    #[test]
    fn a_clone_continues_from_the_same_counter() {
        let (mut a, mut b) = pair();
        let c1 = a.seal_from_initiator(b"before clone");
        let mut copy = a.clone();
        let next = a.seal_from_initiator(b"after clone");
        assert_eq!(copy.seal_from_initiator(b"after clone"), next);
        assert_eq!(b.open_from_initiator(&c1), b"before clone");
        assert_eq!(b.open_from_initiator(&next), b"after clone");
    }
}
