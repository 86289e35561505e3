//! RAPTEE — TEE-hardened Byzantine-tolerant peer sampling.
//!
//! This crate is the paper's primary contribution: a peer-sampling
//! protocol that interoperates trusted (SGX-backed) communications with
//! [Brahms](raptee_brahms), hampering an adversary's ability to
//! over-represent its identifiers in the views of correct nodes.
//!
//! Every node runs a [`RapteeNode`], a modified Brahms node that executes
//! the mutual-authentication handshake before each pull request. The
//! small fraction of *trusted* nodes — whose code runs inside an attested
//! enclave and therefore cannot deviate (see [`provisioning`]) —
//! additionally:
//!
//! * perform **trusted communications** ([`RapteeNode::trusted_swap`])
//!   with the trusted peers they discover: a Jelasity-framework half-view
//!   swap whose received IDs also feed Brahms' pulled-ID stream; and
//! * apply **Byzantine eviction** ([`eviction::EvictionPolicy`]): at the
//!   end of each round they ignore a fraction of the IDs pulled from
//!   *untrusted* peers (fixed 0–100 %, or adaptive 20–80 % as a linear
//!   function of the round's share of trusted contacts), keeping their
//!   views and samplers markedly less poisoned — without ever behaving
//!   observably differently on the wire.
//!
//! # Quickstart
//!
//! ```
//! use raptee::{EvictionPolicy, RapteeConfig, RapteeNode};
//! use raptee_brahms::BrahmsConfig;
//! use raptee_crypto::SecretKey;
//! use raptee_net::NodeId;
//!
//! let config = RapteeConfig {
//!     brahms: BrahmsConfig::paper_defaults(20, 20),
//!     eviction: EvictionPolicy::adaptive(),
//! };
//! let bootstrap: Vec<NodeId> = (1..=20).map(NodeId).collect();
//! let group_key = SecretKey::from_seed(7);
//!
//! // A trusted node (group key from attestation) and an untrusted one.
//! let mut trusted = RapteeNode::new_trusted(NodeId(0), config.clone(), &bootstrap, 1, group_key);
//! let untrusted = RapteeNode::new_untrusted(NodeId(21), config, &bootstrap, 2);
//! assert!(trusted.is_trusted());
//! assert!(!untrusted.is_trusted());
//!
//! let plan = trusted.plan_round();
//! assert!(!plan.pull_targets.is_empty());
//! ```

#![warn(unreachable_pub)]

mod eviction;
mod node;
pub mod provisioning;
pub mod wire;

pub use eviction::EvictionPolicy;
pub use node::{RapteeConfig, RapteeNode};
