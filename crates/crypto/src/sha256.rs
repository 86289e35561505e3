//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! This is the hash `H` used by the mutual-authentication protocol
//! (`H(r_A · r_B)`) and by the TEE measurement scheme in `raptee-tee`;
//! HMAC, the merkle commitments of the audit layer and Honeybee's walk
//! transcripts all stand on it.
//!
//! The compression function is the only part with more than one body (see
//! [`Sha256`]); ARCHITECTURE.md § SHA-256 has the design and the argument
//! for the module's `unsafe`.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// The compression function has two bodies behind one private dispatch
/// point: on `x86_64` CPUs that report the SHA extensions, blocks go
/// through `sha256rnds2`/`sha256msg1`/`sha256msg2`;
/// on every other CPU and architecture through the portable loop written
/// from the specification, which is also what the hardware body is tested
/// against. SHA-256 is a function, so digests are the same either way.
///
/// # Examples
///
/// ```
/// use raptee_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// assert_eq!(Sha256::digest(b"abc"), digest);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs more input. Whole blocks of `data` are compressed where
    /// they lie; only a trailing partial block is copied.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
        }
        let (whole, tail) = data.split_at(data.len() - data.len() % 64);
        if !whole.is_empty() {
            compress_blocks(&mut self.state, whole);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes the computation and returns the digest, consuming the
    /// hasher state by value copy (the hasher itself may be reused only by
    /// cloning beforehand).
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length — in place, and
        // through a block of its own when the length no longer fits.
        self.buffer[self.buffered] = 0x80;
        let mut end = self.buffered + 1;
        if end > 56 {
            self.buffer[end..].fill(0);
            compress_blocks(&mut self.state, &self.buffer);
            end = 0;
        }
        self.buffer[end..56].fill(0);
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buffer);
        digest_of(&self.state)
    }
}

/// The digest a final state stands for: its eight words, big-endian.
fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (i, w) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Folds whole 64-byte blocks into `state`: the one place a compression
/// function is chosen. Both bodies compute FIPS 180-4 §6.2.2, so a
/// digest cannot depend on which one ran; the choice is made per call
/// from what the CPU reports and from nothing else.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: `compress_blocks_sha_ni` is a safe function whose only
        // requirement is the CPU features its attribute enables, and the
        // run-time detection on the line above has just confirmed them.
        unsafe { compress_blocks_sha_ni(state, blocks) };
        return;
    }
    compress_blocks_portable(state, blocks)
}

/// Every feature [`compress_blocks_sha_ni`] is compiled with.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The portable body, and the reference the hardware one is tested
/// against: the specification's 64-entry schedule and 64 rounds.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.as_chunks::<64>().0 {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The hardware body: the x86 SHA extensions run four rounds per pair of
/// `sha256rnds2` and four schedule words per `sha256msg1`/`sha256msg2`,
/// on a state kept as the two vectors ABEF and CDGH. Sixteen four-round
/// steps a block; `w0..w3` are the rolling window of the last sixteen
/// schedule words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use core::arch::x86_64::*;

    // Message words are big-endian; a vector lane is little-endian.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    let halves = state.as_mut_ptr().cast::<__m128i>();
    // SAFETY: `state` is a live `[u32; 8]`, 32 bytes, so the two 16-byte
    // halves at `halves` and `halves + 1` are inside it; `loadu` asks for
    // no alignment.
    let (dcba, hgfe) = unsafe { (_mm_loadu_si128(halves), _mm_loadu_si128(halves.add(1))) };
    let cdab = _mm_shuffle_epi32::<0xB1>(dcba);
    let efgh = _mm_shuffle_epi32::<0x1B>(hgfe);
    let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
    let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, cdab);

    for block in blocks.as_chunks::<64>().0 {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut four_rounds = |step: usize, words: __m128i| {
            let k = &K[4 * step..4 * step + 4];
            let wk = _mm_add_epi32(
                words,
                _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
            );
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        };
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at a
        // time from the four vectors before them.
        let next_words = |w16, w12, w8, w4| {
            let partial =
                _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8::<4>(w4, w8));
            _mm_sha256msg2_epu32(partial, w4)
        };
        let [mut w0, mut w1, mut w2, mut w3] = [0, 1, 2, 3].map(|i| {
            // SAFETY: `block` is a live `[u8; 64]` and `i < 4`, so the 16
            // bytes from offset `16 * i` end at or before byte 64; `loadu`
            // asks for no alignment.
            let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * i).cast()) };
            _mm_shuffle_epi8(raw, byte_swap)
        });
        four_rounds(0, w0);
        four_rounds(1, w1);
        four_rounds(2, w2);
        four_rounds(3, w3);
        for step in (4..16).step_by(4) {
            w0 = next_words(w0, w1, w2, w3);
            four_rounds(step, w0);
            w1 = next_words(w1, w2, w3, w0);
            four_rounds(step + 1, w1);
            w2 = next_words(w2, w3, w0, w1);
            four_rounds(step + 2, w2);
            w3 = next_words(w3, w0, w1, w2);
            four_rounds(step + 3, w3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32::<0x1B>(abef);
    let dchg = _mm_shuffle_epi32::<0xB1>(cdgh);
    let dcba = _mm_blend_epi16::<0xF0>(feba, dchg);
    let hgfe = _mm_alignr_epi8::<8>(dchg, feba);
    // SAFETY: as for the loads above — both stores stay inside the 32
    // bytes of `state`, which this function borrows mutably, and `storeu`
    // asks for no alignment.
    unsafe {
        _mm_storeu_si128(halves, dcba);
        _mm_storeu_si128(halves.add(1), hgfe);
    }
}

/// Hex-encodes a digest (lowercase), for test vectors and debug output.
pub fn to_hex(digest: &Digest) -> String {
    let mut s = String::with_capacity(64);
    for b in digest {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Test support shared with `hmac`: the compress bodies this machine can
/// run, and a digest built on one of them alone.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    pub(crate) type Body = fn(&mut [u32; 8], &[u8]);

    pub(crate) const PORTABLE: Body = compress_blocks_portable;

    /// The hardware body, reached through the dispatch point (the crate's
    /// one guarded call) wherever that resolves to it. Where it does not,
    /// says so once on stderr.
    pub(crate) fn hardware() -> Option<Body> {
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            return Some(compress_blocks);
        }
        SKIPPED.call_once(|| {
            eprintln!("raptee-crypto: SHA-NI compress body SKIPPED (this CPU cannot run it)")
        });
        None
    }

    /// Every body this machine runs, by name.
    pub(crate) fn bodies() -> impl Iterator<Item = (&'static str, Body)> {
        std::iter::once(("portable", PORTABLE)).chain(hardware().map(|body| ("sha-ni", body)))
    }

    /// SHA-256 of `data` through `body` only: the padded message is built
    /// whole, so none of `Sha256`'s buffering is involved.
    pub(crate) fn digest_with(body: Body, data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize((data.len() + 9).next_multiple_of(64) - 8, 0);
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        body(&mut state, &padded);
        digest_of(&state)
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{bodies, digest_with, hardware, PORTABLE};
    use super::*;
    use proptest::prelude::*;

    // NIST FIPS 180-4 / de-facto standard test vectors.
    const EMPTY: &str = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    const ABC: &str = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
    const TWO_BLOCK_MESSAGE: &[u8] = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    const TWO_BLOCK: &str = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
    const MILLION_A: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

    #[test]
    fn empty_vector() {
        assert_eq!(to_hex(&Sha256::digest(b"")), EMPTY);
    }

    #[test]
    fn abc_vector() {
        assert_eq!(to_hex(&Sha256::digest(b"abc")), ABC);
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(to_hex(&Sha256::digest(TWO_BLOCK_MESSAGE)), TWO_BLOCK);
    }

    #[test]
    fn million_a_vector() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(to_hex(&h.finalize()), MILLION_A);
    }

    #[test]
    fn vectors_hold_on_each_body_alone() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"", EMPTY),
            (b"abc", ABC),
            (TWO_BLOCK_MESSAGE, TWO_BLOCK),
            (&million_a, MILLION_A),
        ];
        for (name, body) in bodies() {
            for (message, expect) in vectors {
                let len = message.len();
                assert_eq!(
                    to_hex(&digest_with(body, message)),
                    expect,
                    "{name} body, {len} bytes"
                );
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split() {
        // Lengths 55, 56, 63, 64, 119 and 120 sit on either side of both
        // `finalize` branches; the splits cross `update`'s buffered,
        // whole-block and tail paths.
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            let message = &data[..len];
            let oneshot = Sha256::digest(message);
            assert_eq!(oneshot, digest_with(PORTABLE, message), "len {len}");
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&message[..split]);
                h.update(&message[split..]);
                assert_eq!(h.finalize(), oneshot, "len {len} split at {split}");
            }
        }
    }

    proptest! {
        /// The differential oracle: from any state, over any run of one to
        /// nine blocks, both bodies arrive at the same state.
        #[test]
        fn hardware_and_portable_compress_agree(
            state in proptest::collection::vec(any::<u32>(), 8..9),
            bytes in proptest::collection::vec(any::<u8>(), 64..577),
        ) {
            if let Some(sha_ni) = hardware() {
                let blocks = &bytes[..bytes.len() - bytes.len() % 64];
                let mut expect: [u32; 8] = state.try_into().expect("eight words");
                let mut got = expect;
                PORTABLE(&mut expect, blocks);
                sha_ni(&mut got, blocks);
                prop_assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(Sha256::digest(b"hello"), Sha256::digest(b"hellp"));
    }

    #[test]
    fn length_extension_padding_boundaries() {
        // Hash inputs whose length sits right around the 56-byte padding
        // boundary within a block.
        for len in 50..70 {
            let data = vec![0xABu8; len];
            let d1 = Sha256::digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }
}
