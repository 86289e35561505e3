//! Trusted-node provisioning: enclave load → remote attestation → group
//! key.
//!
//! Glue between the simulated TEE (`raptee-tee`) and [`crate::RapteeNode`]:
//! a node becomes *trusted* by loading the canonical RAPTEE trusted code
//! into an enclave on a certified platform, quoting it to the attestation
//! service, and receiving the group key in return. Untrusted nodes skip
//! all of this and generate a random key.
//!
//! The paper's trust model in one sentence: Intel certifies CPUs, the
//! attestation service verifies the enclave measurement, and only then is
//! the group secret released — so holding the group key *proves* a node
//! runs the unmodified trusted code.

use raptee_crypto::SecretKey;
use raptee_tee::enclave::{Enclave, Measurement};
use raptee_tee::{AttestationError, AttestationService, Certificate};

/// The canonical RAPTEE trusted-node code blob (stand-in for the enclave
/// binary whose MRENCLAVE the attestation service expects).
pub const TRUSTED_CODE: &[u8] = b"raptee-trusted-node-enclave-v1.0";

/// The expected measurement of [`TRUSTED_CODE`].
pub(crate) fn expected_measurement() -> Measurement {
    Measurement::of_code(TRUSTED_CODE)
}

/// Creates an attestation service that provisions the group key derived
/// from `group_seed` to genuine RAPTEE enclaves.
pub fn new_attestation_service(group_seed: u64) -> AttestationService {
    AttestationService::new(expected_measurement(), SecretKey::from_seed(group_seed))
}

/// Runs the full provisioning flow for `platform_id`: load the trusted
/// code, obtain a challenge, quote, attest, and install the key into the
/// enclave. Returns the provisioned enclave (from which
/// [`Enclave::group_key`] yields the key for [`crate::RapteeNode::new_trusted`]).
///
/// # Errors
///
/// Returns the [`AttestationError`] when the platform is not certified or
/// the quote fails verification.
pub fn provision_trusted_enclave(
    service: &mut AttestationService,
    platform_id: u64,
) -> Result<Enclave, AttestationError> {
    let mut enclave = Enclave::load(TRUSTED_CODE, platform_id);
    let nonce = service.challenge();
    let quote = AttestationService::quote(platform_id, &enclave, nonce);
    let key = service.attest(&quote)?;
    enclave.provision_group_key(key);
    Ok(enclave)
}

/// Convenience: provision and return just the group key.
///
/// # Errors
///
/// Same as [`provision_trusted_enclave`].
pub fn provision_trusted_key(
    service: &mut AttestationService,
    platform_id: u64,
) -> Result<SecretKey, AttestationError> {
    let enclave = provision_trusted_enclave(service, platform_id)?;
    Ok(enclave.group_key().expect("just provisioned").clone())
}

/// Certifies `platform_id` and runs the full provisioning flow on it in
/// one step — the simulation engine's population builder uses this for
/// every trusted node (RAPTEE *and* the BASALT+TEE hybrid share the
/// identical attestation path).
///
/// # Panics
///
/// Panics if attestation fails — impossible for a just-certified
/// platform running the genuine trusted code.
pub fn certify_and_provision(service: &mut AttestationService, platform_id: u64) -> SecretKey {
    service.certify_platform(platform_id);
    provision_trusted_key(service, platform_id)
        .expect("certified platform with genuine code attests")
}

/// Renews an expired (or expiring) attestation: the platform re-runs the
/// full challenge/quote/attest flow and receives a fresh time-bounded
/// [`Certificate`] valid from `now` for `ttl` rounds. The trusted-tier
/// degradation model calls this at each re-attestation event.
///
/// # Errors
///
/// Returns the [`AttestationError`] when the platform is uncertified or
/// revoked.
pub fn renew_attestation(
    service: &mut AttestationService,
    platform_id: u64,
    now: u64,
    ttl: u64,
) -> Result<Certificate, AttestationError> {
    let enclave = Enclave::load(TRUSTED_CODE, platform_id);
    let nonce = service.challenge();
    let quote = AttestationService::quote(platform_id, &enclave, nonce);
    let (_, cert) = service.attest_certified(&quote, now, ttl)?;
    Ok(cert)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvictionPolicy, RapteeConfig, RapteeNode};
    use raptee_crypto::auth::AuthOutcome;
    use raptee_net::NodeId;

    #[test]
    fn provisioned_nodes_mutually_authenticate() {
        let mut service = new_attestation_service(99);
        service.certify_platform(1);
        service.certify_platform(2);
        let k1 = provision_trusted_key(&mut service, 1).unwrap();
        let k2 = provision_trusted_key(&mut service, 2).unwrap();
        assert_eq!(k1, k2, "all attested enclaves share the group key");

        let cfg = RapteeConfig {
            brahms: raptee_brahms::BrahmsConfig::paper_defaults(8, 8),
            eviction: EvictionPolicy::adaptive(),
        };
        let boot: Vec<NodeId> = (10..18).map(NodeId).collect();
        let mut a = RapteeNode::new_trusted(NodeId(1), cfg.clone(), &boot, 1, k1);
        let mut b = RapteeNode::new_trusted(NodeId(2), cfg, &boot, 2, k2);
        let (oa, ob) = RapteeNode::run_handshake(&mut a, &mut b);
        assert_eq!(oa, AuthOutcome::Trusted);
        assert_eq!(ob, AuthOutcome::Trusted);
    }

    #[test]
    fn certify_and_provision_is_the_manual_flow_in_one_step() {
        let mut one_step = new_attestation_service(7);
        let mut manual = new_attestation_service(7);
        manual.certify_platform(3);
        assert_eq!(
            certify_and_provision(&mut one_step, 3),
            provision_trusted_key(&mut manual, 3).unwrap()
        );
    }

    #[test]
    fn group_seed_selects_the_group_key() {
        let mut a = new_attestation_service(1);
        let mut b = new_attestation_service(2);
        assert_ne!(
            certify_and_provision(&mut a, 1),
            certify_and_provision(&mut b, 1)
        );
    }

    #[test]
    fn provisioned_enclave_runs_the_trusted_code() {
        let mut service = new_attestation_service(99);
        service.certify_platform(8);
        let enclave = provision_trusted_enclave(&mut service, 8).unwrap();
        assert_eq!(enclave.measurement(), expected_measurement());
        assert_eq!(expected_measurement(), Measurement::of_code(TRUSTED_CODE));
        assert_ne!(expected_measurement(), Measurement::of_code(b"other code"));
    }

    #[test]
    fn uncertified_platform_cannot_renew() {
        let mut service = new_attestation_service(99);
        assert_eq!(
            renew_attestation(&mut service, 11, 0, 10).unwrap_err(),
            AttestationError::UnknownPlatform
        );
    }

    #[test]
    fn uncertified_platform_cannot_provision() {
        let mut service = new_attestation_service(99);
        assert_eq!(
            provision_trusted_key(&mut service, 7).unwrap_err(),
            AttestationError::UnknownPlatform
        );
    }

    #[test]
    fn adversary_with_modified_code_cannot_join_trusted_set() {
        let mut service = new_attestation_service(99);
        service.certify_platform(666);
        // The adversary tweaks the enclave code — measurement changes.
        let evil = Enclave::load(b"raptee-trusted-node-enclave-v1.0-EVIL", 666);
        let nonce = service.challenge();
        let quote = AttestationService::quote(666, &evil, nonce);
        assert_eq!(
            service.attest(&quote).unwrap_err(),
            AttestationError::WrongMeasurement
        );
    }

    #[test]
    fn renewal_issues_fresh_window_and_respects_revocation() {
        let mut service = new_attestation_service(99);
        service.certify_platform(4);
        let cert = renew_attestation(&mut service, 4, 30, 20).unwrap();
        assert!(cert.valid_at(30) && cert.valid_at(49) && !cert.valid_at(50));
        service.revoke_platform(4);
        assert_eq!(
            renew_attestation(&mut service, 4, 50, 20).unwrap_err(),
            AttestationError::RevokedPlatform
        );
    }

    #[test]
    fn revoked_platform_cannot_provision() {
        let mut service = new_attestation_service(99);
        service.certify_platform(6);
        assert!(provision_trusted_key(&mut service, 6).is_ok());
        service.revoke_platform(6);
        assert_eq!(
            provision_trusted_key(&mut service, 6).unwrap_err(),
            AttestationError::RevokedPlatform
        );
    }

    #[test]
    fn each_renewal_opens_its_own_window() {
        let mut service = new_attestation_service(99);
        service.certify_platform(4);
        for now in [0, 20, 40] {
            let cert = renew_attestation(&mut service, 4, now, 20).unwrap();
            assert_eq!(cert.expires_round, now + 20);
        }
    }

    #[test]
    fn sealed_key_does_not_move_to_another_platform() {
        let mut service = new_attestation_service(99);
        service.certify_platform(3);
        let mut enclave = provision_trusted_enclave(&mut service, 3).unwrap();
        let key = enclave.group_key().unwrap().clone();
        enclave.seal("group-key", key.as_bytes());
        let blob = enclave.export_sealed("group-key").unwrap().to_vec();
        let elsewhere = Enclave::load(TRUSTED_CODE, 4);
        assert_eq!(
            elsewhere.unseal_blob(&blob).unwrap_err(),
            raptee_tee::enclave::EnclaveError::SealMismatch
        );
    }

    #[test]
    fn sealed_key_survives_restart_on_same_platform() {
        // Trusted nodes can persist the group key across restarts via
        // sealing — the anti-churn story for trusted nodes.
        let mut service = new_attestation_service(99);
        service.certify_platform(3);
        let mut enclave = provision_trusted_enclave(&mut service, 3).unwrap();
        let key = enclave.group_key().unwrap().clone();
        enclave.seal("group-key", key.as_bytes());
        let blob = enclave.export_sealed("group-key").unwrap().to_vec();
        // "Restart": a fresh enclave instance of the same code and platform.
        let fresh = Enclave::load(TRUSTED_CODE, 3);
        let recovered = fresh.unseal_blob(&blob).unwrap();
        assert_eq!(recovered, key.as_bytes());
    }
}
