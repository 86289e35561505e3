//! Simulated remote attestation and group-key provisioning.
//!
//! Plays the role of Intel's attestation service in the paper's trust
//! model: "we trust Intel for the certification of genuine SGX-enabled
//! CPUs, and we assume that the code running inside enclaves is properly
//! attested before being provided with secrets."
//!
//! The flow mirrors EPID/DCAP attestation shrunk to its essentials:
//!
//! 1. A platform produces a [`Quote`] over its enclave's measurement,
//!    authenticated with a per-platform key that the service can verify
//!    (standing in for the CPU-fused EPID key certified by Intel).
//! 2. The [`AttestationService`] checks the quote signature and compares
//!    the measurement with the expected RAPTEE trusted-code measurement.
//! 3. On success it returns the group key, which the caller installs into
//!    the enclave ([`Enclave::provision_group_key`]).
//!
//! The adversary can buy SGX platforms (so it can obtain *valid quotes for
//! genuine code*) but cannot forge a quote for modified code — exactly the
//! capability split the paper's Section VI-B injection attack assumes.

use crate::enclave::{Enclave, Measurement};
use raptee_crypto::hmac::hmac_sha256;
use raptee_crypto::key::{constant_time_eq, SecretKey};

/// An attestation quote: the platform's claim that an enclave with
/// `measurement` runs on a genuine platform `platform_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// Identity of the quoting platform (certified by "Intel").
    pub(crate) platform_id: u64,
    /// Measurement of the enclave being attested.
    pub(crate) measurement: Measurement,
    /// Freshness nonce chosen by the verifier.
    pub(crate) nonce: [u8; 16],
    /// Platform signature over (platform_id, measurement, nonce) —
    /// modelled as an HMAC under the platform's certified key.
    pub(crate) signature: [u8; 32],
}

/// Errors returned by the attestation service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttestationError {
    /// The platform is not in the certified-platform registry.
    UnknownPlatform,
    /// The platform's certification has been revoked (EPID group
    /// revocation / a compromised CPU pulled from the registry).
    RevokedPlatform,
    /// The quote signature does not verify.
    BadSignature,
    /// The enclave measurement is not the expected RAPTEE trusted code.
    WrongMeasurement,
    /// The nonce does not match the challenge issued by the service.
    StaleNonce,
}

impl std::fmt::Display for AttestationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttestationError::UnknownPlatform => "platform is not certified",
            AttestationError::RevokedPlatform => "platform certification has been revoked",
            AttestationError::BadSignature => "quote signature verification failed",
            AttestationError::WrongMeasurement => "enclave measurement is not the expected code",
            AttestationError::StaleNonce => "attestation nonce is stale or unknown",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AttestationError {}

/// A time-bounded attestation certificate: the service's statement that
/// `platform_id` attested genuine code at `issued_round`, trustworthy
/// until `expires_round` (exclusive). Real attestation collateral ages
/// the same way — TCB info and QE identity carry validity windows — and
/// a relying party must treat an expired certificate exactly like no
/// certificate until the platform re-attests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Certificate {
    /// The attested platform.
    pub(crate) platform_id: u64,
    /// Round the attestation completed.
    pub(crate) issued_round: u64,
    /// First round the certificate is no longer valid.
    pub expires_round: u64,
}

impl Certificate {
    /// Whether the certificate still vouches for the platform at
    /// `round`.
    pub fn valid_at(&self, round: u64) -> bool {
        self.issued_round <= round && round < self.expires_round
    }
}

/// The group-key provisioning service.
///
/// # Examples
///
/// ```
/// use raptee_tee::enclave::Enclave;
/// use raptee_tee::AttestationService;
/// use raptee_crypto::SecretKey;
///
/// let code = b"raptee trusted code";
/// let mut service = AttestationService::new(
///     raptee_tee::enclave::Measurement::of_code(code),
///     SecretKey::from_seed(7),
/// );
/// service.certify_platform(1001);
///
/// let mut enclave = Enclave::load(code, 1001);
/// let nonce = service.challenge();
/// let quote = AttestationService::quote(1001, &enclave, nonce);
/// let key = service.attest(&quote).expect("genuine enclave attests");
/// enclave.provision_group_key(key);
/// assert!(enclave.is_provisioned());
/// ```
#[derive(Debug)]
pub struct AttestationService {
    expected: Measurement,
    group_key: SecretKey,
    certified_platforms: Vec<u64>,
    revoked_platforms: Vec<u64>,
    issued_nonces: Vec<[u8; 16]>,
    nonce_counter: u64,
}

impl AttestationService {
    /// Creates a service that provisions `group_key` to enclaves whose
    /// measurement equals `expected`.
    pub fn new(expected: Measurement, group_key: SecretKey) -> Self {
        Self {
            expected,
            group_key,
            certified_platforms: Vec::new(),
            revoked_platforms: Vec::new(),
            issued_nonces: Vec::new(),
            nonce_counter: 0,
        }
    }

    /// Registers a platform as genuine (the "Intel certifies CPUs" step).
    pub fn certify_platform(&mut self, platform_id: u64) {
        if !self.certified_platforms.contains(&platform_id) {
            self.certified_platforms.push(platform_id);
        }
    }

    /// Revokes a platform's certification: every future attestation
    /// from it fails with [`AttestationError::RevokedPlatform`], and
    /// relying parties must stop trusting its outstanding certificates.
    /// Revocation is permanent — re-certifying does not clear it.
    pub fn revoke_platform(&mut self, platform_id: u64) {
        if !self.revoked_platforms.contains(&platform_id) {
            self.revoked_platforms.push(platform_id);
        }
    }

    /// Whether a platform's certification has been revoked.
    pub(crate) fn is_revoked(&self, platform_id: u64) -> bool {
        self.revoked_platforms.contains(&platform_id)
    }

    /// Issues a fresh challenge nonce the platform must quote over.
    pub fn challenge(&mut self) -> [u8; 16] {
        self.nonce_counter += 1;
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&self.nonce_counter.to_le_bytes());
        self.issued_nonces.push(nonce);
        nonce
    }

    /// Produces a quote on behalf of `platform_id` for `enclave` — the
    /// operation the platform's quoting enclave performs. Free function so
    /// simulations can quote without borrowing the service.
    pub fn quote(platform_id: u64, enclave: &Enclave, nonce: [u8; 16]) -> Quote {
        let signature = Self::platform_sign(platform_id, enclave.measurement(), nonce);
        Quote {
            platform_id,
            measurement: enclave.measurement(),
            nonce,
            signature,
        }
    }

    /// Verifies a quote and, on success, releases the group key.
    ///
    /// # Errors
    ///
    /// See [`AttestationError`] for the four rejection cases.
    pub fn attest(&mut self, quote: &Quote) -> Result<SecretKey, AttestationError> {
        if self.is_revoked(quote.platform_id) {
            return Err(AttestationError::RevokedPlatform);
        }
        if !self.certified_platforms.contains(&quote.platform_id) {
            return Err(AttestationError::UnknownPlatform);
        }
        let pos = self
            .issued_nonces
            .iter()
            .position(|n| n == &quote.nonce)
            .ok_or(AttestationError::StaleNonce)?;
        let expected_sig = Self::platform_sign(quote.platform_id, quote.measurement, quote.nonce);
        if !constant_time_eq(&expected_sig, &quote.signature) {
            return Err(AttestationError::BadSignature);
        }
        if quote.measurement != self.expected {
            return Err(AttestationError::WrongMeasurement);
        }
        self.issued_nonces.swap_remove(pos);
        Ok(self.group_key.clone())
    }

    /// Verifies a quote and, on success, issues a time-bounded
    /// [`Certificate`] alongside the group key: valid from `now` for
    /// `ttl` rounds. This is also the *renewal* path — an expired
    /// platform simply runs the full challenge/quote/attest flow again
    /// and receives a fresh certificate.
    ///
    /// # Errors
    ///
    /// See [`AttestationError`].
    pub fn attest_certified(
        &mut self,
        quote: &Quote,
        now: u64,
        ttl: u64,
    ) -> Result<(SecretKey, Certificate), AttestationError> {
        let key = self.attest(quote)?;
        Ok((
            key,
            Certificate {
                platform_id: quote.platform_id,
                issued_round: now,
                expires_round: now.saturating_add(ttl),
            },
        ))
    }

    /// The platform attestation key — in real SGX a CPU-fused secret whose
    /// public part Intel certifies. Deterministic per platform so both the
    /// quoting side and the service derive the same key.
    fn platform_sign(platform_id: u64, measurement: Measurement, nonce: [u8; 16]) -> [u8; 32] {
        let key = raptee_crypto::hmac::derive_key(&platform_id.to_le_bytes(), "platform-epid", &[]);
        let mut msg = [0u8; 8 + 32 + 16];
        msg[..8].copy_from_slice(&platform_id.to_le_bytes());
        msg[8..40].copy_from_slice(&measurement.0);
        msg[40..].copy_from_slice(&nonce);
        hmac_sha256(&key, &msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CODE: &[u8] = b"raptee trusted node code v1.0";

    fn service() -> AttestationService {
        let mut s = AttestationService::new(Measurement::of_code(CODE), SecretKey::from_seed(42));
        s.certify_platform(1);
        s
    }

    #[test]
    fn genuine_enclave_attests_and_gets_key() {
        let mut s = service();
        let enclave = Enclave::load(CODE, 1);
        let nonce = s.challenge();
        let quote = AttestationService::quote(1, &enclave, nonce);
        let key = s.attest(&quote).unwrap();
        assert_eq!(key, SecretKey::from_seed(42));
    }

    #[test]
    fn modified_code_rejected() {
        let mut s = service();
        let evil = Enclave::load(b"modified raptee code", 1);
        let nonce = s.challenge();
        let quote = AttestationService::quote(1, &evil, nonce);
        assert_eq!(
            s.attest(&quote).unwrap_err(),
            AttestationError::WrongMeasurement
        );
    }

    #[test]
    fn uncertified_platform_rejected() {
        let mut s = service();
        let enclave = Enclave::load(CODE, 999);
        let nonce = s.challenge();
        let quote = AttestationService::quote(999, &enclave, nonce);
        assert_eq!(
            s.attest(&quote).unwrap_err(),
            AttestationError::UnknownPlatform
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let mut s = service();
        let enclave = Enclave::load(CODE, 1);
        let nonce = s.challenge();
        let mut quote = AttestationService::quote(1, &enclave, nonce);
        quote.signature[0] ^= 1;
        assert_eq!(
            s.attest(&quote).unwrap_err(),
            AttestationError::BadSignature
        );
    }

    #[test]
    fn lying_about_measurement_breaks_signature() {
        // A certified but malicious platform cannot claim the genuine
        // measurement for evil code: the platform signature covers the
        // real measurement produced by the quoting enclave.
        let mut s = service();
        let evil = Enclave::load(b"evil", 1);
        let nonce = s.challenge();
        let mut quote = AttestationService::quote(1, &evil, nonce);
        quote.measurement = Measurement::of_code(CODE); // lie
        assert_eq!(
            s.attest(&quote).unwrap_err(),
            AttestationError::BadSignature
        );
    }

    #[test]
    fn nonce_cannot_be_replayed() {
        let mut s = service();
        let enclave = Enclave::load(CODE, 1);
        let nonce = s.challenge();
        let quote = AttestationService::quote(1, &enclave, nonce);
        assert!(s.attest(&quote).is_ok());
        // Second use of the same nonce fails.
        assert_eq!(s.attest(&quote).unwrap_err(), AttestationError::StaleNonce);
    }

    #[test]
    fn certificates_expire_and_renew() {
        let mut s = service();
        let enclave = Enclave::load(CODE, 1);
        let nonce = s.challenge();
        let quote = AttestationService::quote(1, &enclave, nonce);
        let (_, cert) = s.attest_certified(&quote, 10, 5).unwrap();
        assert_eq!(cert.platform_id, 1);
        assert!(cert.valid_at(10) && cert.valid_at(14));
        assert!(!cert.valid_at(9), "the window starts at the issue round");
        assert!(!cert.valid_at(15), "expiry round is exclusive");
        // Renewal is a fresh attestation: new nonce, new window.
        let nonce = s.challenge();
        let quote = AttestationService::quote(1, &enclave, nonce);
        let (_, renewed) = s.attest_certified(&quote, 15, 5).unwrap();
        assert_eq!(renewed.issued_round, 15);
        assert!(renewed.valid_at(19) && !renewed.valid_at(20));
    }

    #[test]
    fn a_nonce_the_service_never_issued_is_stale() {
        let mut s = service();
        s.challenge();
        let enclave = Enclave::load(CODE, 1);
        let quote = AttestationService::quote(1, &enclave, [0xAB; 16]);
        assert_eq!(s.attest(&quote).unwrap_err(), AttestationError::StaleNonce);
    }

    #[test]
    fn outstanding_challenges_are_distinct_and_redeemable_in_any_order() {
        let mut s = service();
        let enclave = Enclave::load(CODE, 1);
        let (first, second) = (s.challenge(), s.challenge());
        assert_ne!(first, second);
        let quotes = [second, first].map(|n| AttestationService::quote(1, &enclave, n));
        for quote in &quotes {
            assert!(s.attest(quote).is_ok());
        }
        for quote in &quotes {
            assert_eq!(s.attest(quote).unwrap_err(), AttestationError::StaleNonce);
        }
    }

    #[test]
    fn a_certificate_window_saturates_at_the_last_round() {
        let mut s = service();
        let enclave = Enclave::load(CODE, 1);
        let nonce = s.challenge();
        let quote = AttestationService::quote(1, &enclave, nonce);
        let (_, cert) = s.attest_certified(&quote, u64::MAX - 3, 10).unwrap();
        assert_eq!(cert.expires_round, u64::MAX);
        assert!(cert.valid_at(u64::MAX - 1));
    }

    #[test]
    fn revoked_platform_cannot_reattest() {
        let mut s = service();
        let enclave = Enclave::load(CODE, 1);
        let nonce = s.challenge();
        assert!(s
            .attest(&AttestationService::quote(1, &enclave, nonce))
            .is_ok());
        s.revoke_platform(1);
        assert!(s.is_revoked(1));
        let nonce = s.challenge();
        assert_eq!(
            s.attest(&AttestationService::quote(1, &enclave, nonce))
                .unwrap_err(),
            AttestationError::RevokedPlatform
        );
        // Re-certifying does not clear the revocation.
        s.certify_platform(1);
        let nonce = s.challenge();
        assert_eq!(
            s.attest_certified(&AttestationService::quote(1, &enclave, nonce), 0, 10)
                .unwrap_err(),
            AttestationError::RevokedPlatform
        );
    }

    #[test]
    fn adversary_purchased_platform_gets_key_only_for_genuine_code() {
        // Section VI-B: the adversary buys SGX hardware. It can attest the
        // *genuine* code (and then only feed it poisoned views), but not
        // its own code.
        let mut s = service();
        s.certify_platform(666); // adversary-owned but genuine CPU
        let genuine = Enclave::load(CODE, 666);
        let nonce = s.challenge();
        assert!(s
            .attest(&AttestationService::quote(666, &genuine, nonce))
            .is_ok());
        let evil = Enclave::load(b"evil raptee", 666);
        let nonce = s.challenge();
        assert_eq!(
            s.attest(&AttestationService::quote(666, &evil, nonce))
                .unwrap_err(),
            AttestationError::WrongMeasurement
        );
    }
}
