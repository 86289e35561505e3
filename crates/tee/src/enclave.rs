//! Simulated enclave runtime.
//!
//! An [`Enclave`] is identified by the [`Measurement`] of its code — the
//! SGX `MRENCLAVE` analogue, computed here as the SHA-256 of the code
//! bytes. The runtime enforces the two properties RAPTEE depends on:
//!
//! 1. **Integrity** — the measurement is derived from the code; running
//!    different code yields a different measurement, which the attestation
//!    service will refuse to provision.
//! 2. **Confidentiality** — secrets provisioned after attestation live in
//!    sealed state and can only be read back by an enclave with the same
//!    measurement (sealing is keyed by measurement and a per-platform
//!    sealing key).

use raptee_crypto::hmac::derive_key;
use raptee_crypto::key::SecretKey;
use raptee_crypto::sha256::Sha256;
use std::collections::HashMap;

/// The SGX `MRENCLAVE` analogue: SHA-256 of the enclave code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Measures a code blob.
    pub fn of_code(code: &[u8]) -> Self {
        Measurement(Sha256::digest(code))
    }
}

impl std::fmt::Display for Measurement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

/// Errors reported by the enclave runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnclaveError {
    /// A sealed blob was produced by a different enclave identity or
    /// platform and cannot be unsealed here.
    SealMismatch,
    /// The group key has not been provisioned yet.
    NotProvisioned,
}

impl std::fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnclaveError::SealMismatch => write!(f, "sealed data does not match enclave identity"),
            EnclaveError::NotProvisioned => write!(f, "enclave has no provisioned group key"),
        }
    }
}

impl std::error::Error for EnclaveError {}

/// A simulated SGX enclave instance.
///
/// # Examples
///
/// ```
/// use raptee_tee::enclave::Enclave;
/// let enclave = Enclave::load(b"raptee trusted code v1", 0xDEAD);
/// assert_eq!(enclave.measurement(), Enclave::load(b"raptee trusted code v1", 1).measurement());
/// ```
#[derive(Debug, Clone)]
pub struct Enclave {
    measurement: Measurement,
    platform_seal_key: [u8; 32],
    group_key: Option<SecretKey>,
    sealed_store: HashMap<String, Vec<u8>>,
    monotonic_counter: u64,
}

impl Enclave {
    /// Loads enclave `code` on a platform identified by `platform_id`
    /// (which determines the platform sealing key, like SGX's fused key).
    pub fn load(code: &[u8], platform_id: u64) -> Self {
        Self {
            measurement: Measurement::of_code(code),
            platform_seal_key: derive_key(&platform_id.to_le_bytes(), "platform-seal", &[]),
            group_key: None,
            sealed_store: HashMap::new(),
            monotonic_counter: 0,
        }
    }

    /// The enclave's code measurement.
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Stores the group key after a successful attestation round-trip.
    /// Called by the provisioning path after [`crate::AttestationService`]
    /// attests the enclave.
    pub fn provision_group_key(&mut self, key: SecretKey) {
        self.group_key = Some(key);
    }

    /// Returns the provisioned group key.
    ///
    /// # Errors
    ///
    /// [`EnclaveError::NotProvisioned`] before attestation completed.
    pub fn group_key(&self) -> Result<&SecretKey, EnclaveError> {
        self.group_key.as_ref().ok_or(EnclaveError::NotProvisioned)
    }

    /// Whether the enclave holds the group key.
    pub fn is_provisioned(&self) -> bool {
        self.group_key.is_some()
    }

    /// Seals `data` under this enclave's identity; only an enclave with the
    /// same measurement on the same platform can unseal it. The seal is an
    /// encrypt-then-MAC construction over the derived sealing key.
    pub fn seal(&mut self, name: &str, data: &[u8]) {
        let seal_key = self.sealing_key();
        let nonce = self.next_nonce();
        let ct = seal_key.encrypt(&nonce, data);
        let mut blob = nonce.to_vec();
        blob.extend_from_slice(&ct);
        let tag = derive_key(seal_key.as_bytes(), "seal-mac", &blob);
        blob.extend_from_slice(&tag);
        self.sealed_store.insert(name.to_string(), blob);
    }

    /// Unseals a raw blob (e.g. migrated from another enclave instance).
    ///
    /// # Errors
    ///
    /// [`EnclaveError::SealMismatch`] when the blob was not sealed by an
    /// identical enclave identity on this platform.
    pub fn unseal_blob(&self, blob: &[u8]) -> Result<Vec<u8>, EnclaveError> {
        if blob.len() < 12 + 32 {
            return Err(EnclaveError::SealMismatch);
        }
        let seal_key = self.sealing_key();
        let (body, tag) = blob.split_at(blob.len() - 32);
        let expected = derive_key(seal_key.as_bytes(), "seal-mac", body);
        if !raptee_crypto::key::constant_time_eq(&expected, tag) {
            return Err(EnclaveError::SealMismatch);
        }
        let (nonce_bytes, ct) = body.split_at(12);
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(nonce_bytes);
        Ok(seal_key.decrypt(&nonce, ct))
    }

    /// Exports a sealed blob for external storage (simulating sealed files
    /// on the untrusted host).
    pub fn export_sealed(&self, name: &str) -> Option<&[u8]> {
        self.sealed_store.get(name).map(Vec::as_slice)
    }

    fn sealing_key(&self) -> SecretKey {
        SecretKey::from_bytes(derive_key(
            &self.platform_seal_key,
            "sealing",
            &self.measurement.0,
        ))
    }

    fn next_nonce(&mut self) -> [u8; 12] {
        self.monotonic_counter += 1;
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&self.monotonic_counter.to_le_bytes());
        nonce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODE: &[u8] = b"raptee trusted node code v1.0";

    #[test]
    fn measurement_is_code_determined() {
        let a = Enclave::load(CODE, 1);
        let b = Enclave::load(CODE, 2);
        let c = Enclave::load(b"tampered code", 1);
        assert_eq!(a.measurement(), b.measurement());
        assert_ne!(a.measurement(), c.measurement());
    }

    #[test]
    fn measurement_display_is_short_hex() {
        let m = Measurement::of_code(CODE);
        let s = format!("{m}");
        assert_eq!(s.chars().count(), 17, "8 hex bytes + ellipsis: {s}");
    }

    #[test]
    fn unprovisioned_group_key_errors() {
        let e = Enclave::load(CODE, 1);
        assert_eq!(e.group_key().unwrap_err(), EnclaveError::NotProvisioned);
        assert!(!e.is_provisioned());
    }

    #[test]
    fn provisioning_stores_key() {
        let mut e = Enclave::load(CODE, 1);
        e.provision_group_key(SecretKey::from_seed(99));
        assert!(e.is_provisioned());
        assert_eq!(e.group_key().unwrap(), &SecretKey::from_seed(99));
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let mut e = Enclave::load(CODE, 1);
        e.seal("view", b"some view state");
        let blob = e.export_sealed("view").unwrap();
        assert_eq!(e.unseal_blob(blob).unwrap(), b"some view state");
    }

    #[test]
    fn seal_missing_name_errors() {
        let e = Enclave::load(CODE, 1);
        assert!(e.export_sealed("nope").is_none());
    }

    #[test]
    fn sealed_blob_bound_to_measurement() {
        let mut genuine = Enclave::load(CODE, 1);
        genuine.seal("secret", b"group material");
        let blob = genuine.export_sealed("secret").unwrap().to_vec();
        // Different code, same platform: must not unseal.
        let imposter = Enclave::load(b"evil code", 1);
        assert_eq!(
            imposter.unseal_blob(&blob).unwrap_err(),
            EnclaveError::SealMismatch
        );
        // Same code, same platform: unseals fine.
        let sibling = Enclave::load(CODE, 1);
        assert_eq!(sibling.unseal_blob(&blob).unwrap(), b"group material");
    }

    #[test]
    fn sealed_blob_bound_to_platform() {
        let mut e1 = Enclave::load(CODE, 1);
        e1.seal("secret", b"data");
        let blob = e1.export_sealed("secret").unwrap().to_vec();
        let e2 = Enclave::load(CODE, 2);
        assert_eq!(
            e2.unseal_blob(&blob).unwrap_err(),
            EnclaveError::SealMismatch
        );
    }

    #[test]
    fn truncated_blob_rejected() {
        let e = Enclave::load(CODE, 1);
        assert_eq!(
            e.unseal_blob(&[0u8; 10]).unwrap_err(),
            EnclaveError::SealMismatch
        );
    }

    #[test]
    fn tampered_blob_rejected() {
        let mut e = Enclave::load(CODE, 1);
        e.seal("secret", b"data");
        let mut blob = e.export_sealed("secret").unwrap().to_vec();
        let mid = blob.len() / 2;
        blob[mid] ^= 0xFF;
        assert_eq!(
            e.unseal_blob(&blob).unwrap_err(),
            EnclaveError::SealMismatch
        );
    }

    #[test]
    fn resealing_a_name_replaces_its_blob() {
        let mut e = Enclave::load(CODE, 1);
        e.seal("view", b"round 1");
        e.seal("view", b"round 2");
        let blob = e.export_sealed("view").unwrap();
        assert_eq!(e.unseal_blob(blob).unwrap(), b"round 2");
    }

    #[test]
    fn sealing_the_same_data_twice_gives_distinct_blobs() {
        let mut e = Enclave::load(CODE, 1);
        e.seal("a", b"same state");
        e.seal("b", b"same state");
        let (a, b) = (e.export_sealed("a").unwrap(), e.export_sealed("b").unwrap());
        assert_ne!(a, b, "each seal draws a fresh nonce");
        assert_eq!(e.unseal_blob(a).unwrap(), e.unseal_blob(b).unwrap());
    }

    #[test]
    fn counter_increases_with_seals() {
        let mut e = Enclave::load(CODE, 1);
        let before = e.monotonic_counter;
        e.seal("a", b"1");
        e.seal("b", b"2");
        assert_eq!(e.monotonic_counter, before + 2);
    }
}
