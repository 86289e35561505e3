//! Secret-key newtype with constant-time comparison.
//!
//! In RAPTEE every node holds exactly one symmetric secret key: untrusted
//! nodes generate a random one at initialisation; trusted nodes are
//! provisioned the *group key* inside the enclave during remote
//! attestation. Two nodes are mutually "trusted" exactly when their keys
//! are equal — which the authentication protocol of [`crate::auth`] checks
//! without ever transmitting the key.

use crate::chacha20;
use crate::hmac::derive_key;

/// A 256-bit symmetric secret key.
///
/// Equality is constant-time; `Debug` prints a redacted placeholder so keys
/// never leak into logs.
#[derive(Clone)]
pub struct SecretKey {
    bytes: [u8; 32],
}

impl SecretKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self { bytes }
    }

    /// Derives a key deterministically from a 64-bit seed (simulation
    /// convenience; expands via the SHA-256-based PRF so distinct seeds
    /// give independent keys).
    pub fn from_seed(seed: u64) -> Self {
        Self {
            bytes: derive_key(&seed.to_le_bytes(), "raptee-node-key", &[]),
        }
    }

    /// Raw key bytes (needed by the cipher layer).
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// Constant-time equality check.
    pub(crate) fn ct_eq(&self, other: &SecretKey) -> bool {
        constant_time_eq(&self.bytes, &other.bytes)
    }

    /// Derives a subkey bound to `label`/`context`; used for per-channel
    /// session keys.
    pub fn derive(&self, label: &str, context: &[u8]) -> SecretKey {
        SecretKey {
            bytes: derive_key(&self.bytes, label, context),
        }
    }

    /// Encrypts `data` under this key with the given 96-bit nonce.
    pub fn encrypt(&self, nonce: &[u8; chacha20::NONCE_LEN], data: &[u8]) -> Vec<u8> {
        chacha20::encrypt(&self.bytes, nonce, data)
    }

    /// Decrypts `data`; identical to [`SecretKey::encrypt`] because the
    /// cipher is an XOR stream.
    pub fn decrypt(&self, nonce: &[u8; chacha20::NONCE_LEN], data: &[u8]) -> Vec<u8> {
        self.encrypt(nonce, data)
    }
}

impl PartialEq for SecretKey {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}
impl Eq for SecretKey {}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

/// Compares two equal-length byte strings in constant time (with respect to
/// content; the length comparison is public information).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_keys_deterministic_and_distinct() {
        let a = SecretKey::from_seed(1);
        let b = SecretKey::from_seed(1);
        let c = SecretKey::from_seed(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// The untrusted-node key of `raptee::RapteeNode::new`, pinned at the
    /// commit before the hardware compress kernel and the streamed
    /// `derive_key`: a wrong kernel on some future CPU fails here by name.
    #[test]
    fn pinned_untrusted_node_key() {
        let key = SecretKey::from_seed(42).derive("raptee-untrusted-node-key", &7u64.to_le_bytes());
        assert_eq!(
            crate::sha256::to_hex(key.as_bytes()),
            "3251a3d6cc7dc30bd7d6a7c355fd7e9efb52e40e1bd40c7a74e713a1e7362e6e"
        );
    }

    #[test]
    fn derive_changes_key() {
        let k = SecretKey::from_seed(9);
        let d1 = k.derive("session", b"peer-1");
        let d2 = k.derive("session", b"peer-2");
        assert_ne!(k, d1);
        assert_ne!(d1, d2);
    }

    #[test]
    fn encrypt_roundtrip() {
        let k = SecretKey::from_seed(5);
        let nonce = [3u8; 12];
        let ct = k.encrypt(&nonce, b"view contents");
        assert_ne!(ct, b"view contents");
        assert_eq!(k.decrypt(&nonce, &ct), b"view contents");
    }

    #[test]
    fn wrong_key_garbles() {
        let k1 = SecretKey::from_seed(5);
        let k2 = SecretKey::from_seed(6);
        let nonce = [3u8; 12];
        let ct = k1.encrypt(&nonce, b"view contents");
        assert_ne!(k2.decrypt(&nonce, &ct), b"view contents");
    }

    #[test]
    fn debug_is_redacted() {
        let k = SecretKey::from_seed(5);
        assert_eq!(format!("{k:?}"), "SecretKey(<redacted>)");
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }
}
