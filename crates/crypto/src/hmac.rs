//! HMAC-SHA-256 (RFC 2104), plus a small HKDF-style key-derivation helper.
//!
//! In the paper, the response digest of the mutual-authentication protocol
//! is "encrypted with [the node's] own secret key". A keyed MAC achieves
//! exactly the property the protocol needs — only a holder of the same key
//! can produce or verify the value — so we model `[H(r_A·r_B)]_{K}` as
//! `HMAC(K, H(r_A·r_B))`. HMAC is also used to derive per-session channel
//! keys from the group key in `raptee-net`.

use crate::sha256::{Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
///
/// # Examples
///
/// ```
/// use raptee_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    hmac_parts(key, &[message])
}

/// `HMAC-SHA256(key, parts[0] ‖ parts[1] ‖ …)`, the parts streamed
/// through the inner hash and never concatenated.
fn hmac_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let hashed = Sha256::digest(key);
        key_block[..DIGEST_LEN].copy_from_slice(&hashed);
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK_LEN];
    let mut opad = [0x5cu8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    for part in parts {
        inner.update(part);
    }
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Derives a 32-byte subkey from `key` bound to a domain-separation `label`
/// and `context` (single-block HKDF-expand style: `HMAC(key, label || 0x00
/// || context || 0x01)`).
pub fn derive_key(key: &[u8], label: &str, context: &[u8]) -> Digest {
    hmac_parts(key, &[label.as_bytes(), &[0], context, &[1]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::testing::{bodies, digest_with, Body};
    use crate::sha256::to_hex;

    /// RFC 2104 written out over one compress body, nothing shared with
    /// [`hmac_sha256`] but the hash underneath.
    fn hmac_with(body: Body, key: &[u8], message: &[u8]) -> Digest {
        let mut key_block = if key.len() > BLOCK_LEN {
            digest_with(body, key).to_vec()
        } else {
            key.to_vec()
        };
        key_block.resize(BLOCK_LEN, 0);
        let pad = |byte: u8, tail: &[u8]| {
            let mut m: Vec<u8> = key_block.iter().map(|k| k ^ byte).collect();
            m.extend_from_slice(tail);
            digest_with(body, &m)
        };
        pad(0x5c, &pad(0x36, message))
    }

    /// An RFC 4231 case: through [`hmac_sha256`], and through each compress
    /// body alone.
    fn rfc4231(key: &[u8], message: &[u8], expect: &str) {
        assert_eq!(to_hex(&hmac_sha256(key, message)), expect);
        for (name, body) in bodies() {
            assert_eq!(
                to_hex(&hmac_with(body, key, message)),
                expect,
                "{name} body"
            );
        }
    }

    #[test]
    fn rfc4231_case_1() {
        rfc4231(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        rfc4231(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        rfc4231(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        rfc4231(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn derive_key_is_hmac_of_the_concatenation() {
        let mut msg = b"channel".to_vec();
        msg.push(0);
        msg.extend_from_slice(b"node-1");
        msg.push(1);
        assert_eq!(
            derive_key(b"group key", "channel", b"node-1"),
            hmac_sha256(b"group key", &msg)
        );
    }

    #[test]
    fn key_sensitivity() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn derive_key_domain_separation() {
        let base = b"group key";
        let a = derive_key(base, "channel", b"node-1");
        let b = derive_key(base, "channel", b"node-2");
        let c = derive_key(base, "auth", b"node-1");
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic.
        assert_eq!(a, derive_key(base, "channel", b"node-1"));
    }
}
