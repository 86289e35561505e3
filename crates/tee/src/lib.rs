//! Simulated trusted execution environment (Intel SGX stand-in).
//!
//! The paper runs the trusted-node code inside SGX enclaves and, lacking a
//! large SGX testbed, *emulates* SGX at scale by adding the per-function
//! CPU-cycle overhead it measured on real hardware (its Table I). This
//! crate reproduces both halves of that methodology:
//!
//! * [`enclave`] — an enclave runtime with code *measurements*, sealed
//!   state, and a monotonic counter; malicious parties can instantiate
//!   enclaves but cannot alter the code without changing the measurement.
//! * [`AttestationService`] — a simulated remote-attestation service
//!   (the role Intel's attestation service plays): it verifies
//!   platform-signed quotes and provisions the *group key* only to
//!   enclaves whose measurement matches the expected RAPTEE binary.
//! * [`SgxOverheadModel`] — the Table I cycle-cost model: per-function
//!   standard vs SGX cycle counts with the measured mean/standard
//!   deviation, which prices a trusted node's round.
//!
//! What this preserves from real SGX, as required by the paper's trust
//! model (Section III-B): (a) the group key is only obtainable by running
//! the unmodified trusted code, so trusted nodes "cannot act maliciously
//! even though Byzantine IDs can bias their view"; (b) an adversary may
//! *purchase* SGX devices and run genuine enclaves with poisoned inputs —
//! the view-poisoned-injection attack of Section VI-B — but still cannot
//! deviate from the protocol; and (c) trusted functions cost measurably
//! more cycles, which the overhead model prices.

#![warn(unreachable_pub)]

mod attestation;
pub mod enclave;
pub mod merkle;
mod overhead;

pub use attestation::{AttestationError, AttestationService, Certificate};
pub use merkle::MerkleTree;
pub use overhead::SgxOverheadModel;
