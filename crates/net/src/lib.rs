//! Node addressing, push rate limiting and link encryption.
//!
//! The paper evaluates RAPTEE on Grid'5000 with 10,000 OS processes
//! speaking TCP; every reported metric, however, is counted in protocol
//! *rounds* (2.5 s each), not wall-clock time. The simulator moves
//! messages itself (`raptee-sim`'s event network); this crate holds the
//! protocol-agnostic pieces every layer above it shares:
//!
//! * [`NodeId`], the transport address of a simulated node, its dense
//!   arena slot [`NodeIdx`], and [`IdInterner`], the mapping between the
//!   two that a population with sparse wire IDs would need.
//! * [`RoundPlan`], the push and pull targets a node draws each round,
//!   and [`parity_fanout`], how many of each a comparison family draws.
//! * [`PushRateLimiter`], the "limited pushes" defence
//!   Brahms assumes (computational puzzles / virtual currency): it caps
//!   how many pushes any identity can emit per round, which bounds the
//!   adversary's total push volume.
//! * [`SecureChannel`], symmetric encryption of
//!   node-to-node traffic (paper Section III-B: "communications between
//!   any two nodes, including trusted ones, are cyphered with symmetric
//!   encryption").
//!
//! The wire encoding of RAPTEE's messages lives with the protocol, in
//! `raptee::wire`.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod channel;
mod id;
mod plan;
mod rate;

pub use channel::SecureChannel;
pub use id::{IdInterner, NodeId, NodeIdx};
pub use plan::{parity_fanout, RoundPlan};
pub use rate::PushRateLimiter;
