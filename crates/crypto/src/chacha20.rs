//! ChaCha20 stream cipher (RFC 8439).
//!
//! Stands in for the AES-CTR symmetric encryption of the paper: all
//! node-to-node traffic in RAPTEE is symmetrically encrypted to defeat an
//! eavesdropping adversary. Both AES-CTR and ChaCha20 are length-preserving
//! stream ciphers, so the substitution changes nothing about message sizes
//! or the protocol state machine.

/// Key length in bytes.
pub(crate) const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub(crate) const NONCE_LEN: usize = 12;

fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 block for (`key`, `counter`, `nonce`).
pub(crate) fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` in place (XOR keystream; the operation is an
/// involution). `initial_counter` is normally `1` per RFC 8439 when a
/// separate block 0 is reserved for a MAC key, or `0` otherwise.
pub(crate) fn xor_in_place(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        let ks = block(key, initial_counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// Convenience wrapper returning a new ciphertext vector.
pub(crate) fn encrypt(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    xor_in_place(key, nonce, 1, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; NONCE_LEN] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        let expected_head = [0x10u8, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15];
        assert_eq!(&out[..8], &expected_head);
        // Final state word per RFC 8439 §2.3.2 is 0x4e3c50a2, serialized LE.
        let expected_tail = [0xa2, 0x50, 0x3c, 0x4e];
        assert_eq!(&out[60..], &expected_tail);
    }

    /// RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt_vector() {
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; NONCE_LEN] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = encrypt(&key, &nonce, plaintext);
        assert_eq!(
            &ct[..16],
            &[
                0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
                0x69, 0x81
            ]
        );
        assert_eq!(ct.len(), plaintext.len());
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [0x42u8; KEY_LEN];
        let nonce = [0x24u8; NONCE_LEN];
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let ct = encrypt(&key, &nonce, &data);
            let pt = encrypt(&key, &nonce, &ct);
            assert_eq!(pt, data, "len {len}");
            if len > 0 {
                assert_ne!(ct, data, "ciphertext must differ (len {len})");
            }
        }
    }

    #[test]
    fn different_nonce_different_stream() {
        let key = [1u8; KEY_LEN];
        let a = encrypt(&key, &[0u8; NONCE_LEN], b"same message");
        let b = encrypt(&key, &[1u8; NONCE_LEN], b"same message");
        assert_ne!(a, b);
    }

    #[test]
    fn different_key_different_stream() {
        let nonce = [0u8; NONCE_LEN];
        let a = encrypt(&[1u8; KEY_LEN], &nonce, b"same message");
        let b = encrypt(&[2u8; KEY_LEN], &nonce, b"same message");
        assert_ne!(a, b);
    }

    /// RFC 8439 §2.1.1 quarter-round test vector.
    #[test]
    fn rfc8439_quarter_round_vector() {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&[0x1111_1111, 0x0102_0304, 0x9b8d_6f43, 0x0123_4567]);
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(
            state[..4],
            [0xea2a_92f4, 0xcb1c_f8ce, 0x4581_472e, 0x5881_c4bb]
        );
        assert!(state[4..].iter().all(|&w| w == 0), "other words untouched");
    }

    /// RFC 8439 Appendix A.1, test vectors #1 and #2: the all-zero key
    /// and nonce at block counters 0 and 1.
    #[test]
    fn rfc8439_zero_key_keystream() {
        let (key, nonce) = ([0u8; KEY_LEN], [0u8; NONCE_LEN]);
        assert_eq!(
            block(&key, 0, &nonce)[..16],
            [
                0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
                0xbd, 0x28
            ]
        );
        assert_eq!(
            block(&key, 1, &nonce)[..16],
            [
                0x9f, 0x07, 0xe7, 0xbe, 0x55, 0x51, 0x38, 0x7a, 0x98, 0xba, 0x97, 0x7c, 0x73, 0x2d,
                0x08, 0x0d
            ]
        );
    }

    #[test]
    fn the_block_counter_steps_once_per_64_bytes_and_wraps() {
        let key = [9u8; KEY_LEN];
        let nonce = [3u8; NONCE_LEN];
        let mut keystream = vec![0u8; 130];
        xor_in_place(&key, &nonce, u32::MAX - 1, &mut keystream);
        assert_eq!(keystream[..64], block(&key, u32::MAX - 1, &nonce));
        assert_eq!(keystream[64..128], block(&key, u32::MAX, &nonce));
        assert_eq!(keystream[128..], block(&key, 0, &nonce)[..2]);
    }

    #[test]
    fn encrypt_starts_the_keystream_at_block_one() {
        let key = [5u8; KEY_LEN];
        let nonce = [6u8; NONCE_LEN];
        let data: Vec<u8> = (0..100).collect();
        let mut in_place = data.clone();
        xor_in_place(&key, &nonce, 1, &mut in_place);
        assert_eq!(encrypt(&key, &nonce, &data), in_place);
        let mut from_zero = data.clone();
        xor_in_place(&key, &nonce, 0, &mut from_zero);
        assert_ne!(encrypt(&key, &nonce, &data), from_zero);
    }
}
