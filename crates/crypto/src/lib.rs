//! Cryptographic substrate for the RAPTEE reproduction.
//!
//! The paper's implementation uses Intel's SGX port of OpenSSL (RSA +
//! AES-CTR). No off-the-shelf crypto crates are available offline for this
//! reproduction, so this crate implements the needed primitives from
//! scratch and validates them against official test vectors:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (the `H(·)` of the paper's mutual
//!   authentication protocol).
//! * [`hmac`] — RFC 2104 HMAC-SHA-256, used for keyed "encryption" of the
//!   authentication digests and as the PRF for session-key derivation.
//! * `chacha20` — RFC 8439 ChaCha20, standing in for AES-CTR as the
//!   symmetric stream cipher protecting node-to-node channels (both are
//!   stream ciphers; message layouts are identical).
//! * [`key`] — secret-key newtypes with constant-time comparison.
//! * [`auth`] — the RAPTEE mutual-authentication state machine
//!   (Section IV-A of the paper): challenge, response
//!   `(r_B, [H(r_A·r_B)]_{K_B})`, and confirmation `[H(r_B·r_A)]_{K_A}`.
//!
//! Security note: this code is written for protocol simulation and study,
//! not production use. It is, however, functionally correct (test-vectored)
//! so the simulated adversary genuinely cannot forge authentications
//! without the group key.

#![warn(unreachable_pub)]

pub mod auth;
mod chacha20;
pub mod hmac;
pub mod key;
pub mod sha256;

pub use key::SecretKey;
pub use sha256::Sha256;
