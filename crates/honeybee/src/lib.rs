//! Honeybee verifiable-random-walk peer sampling.
//!
//! A deterministic reconstruction of the verifiable-walk idea behind
//! **Honeybee**-style Byzantine-tolerant sampling (see PAPERS.md):
//! instead of merging whole views (Brahms) or ranking candidates
//! (BASALT, LIFT), each node samples peers by running bounded-length
//! **random walks** over the overlay and admitting only walk endpoints
//! — which approximate the stationary (uniform) distribution — into its
//! view. What makes the walks Byzantine-tolerant is that they are
//! *committed and replayable*:
//!
//! * every walk step folds the responder and its answer set into a
//!   SHA-256 **commitment chain** ([`WalkTranscript`], built on
//!   `raptee-crypto`), and the chain head *is* the next-hop choice — no
//!   party can steer the walk without breaking a digest;
//! * a completed walk is **verified end-to-end** before its endpoint
//!   counts: every stored commitment is recomputed and every visited
//!   hop checked against the previous step's committed choice; any
//!   single tampered step is detected ([`WalkTranscript::verify`]);
//! * verified endpoints still pass through the shared BASALT
//!   **waiting-list quarantine** (`raptee_basalt::WaitingList`) — a
//!   direct reachability probe — before touching the view, and a
//!   transcript that fails verification convicts its responder
//!   ([`HoneybeeNode::quarantine`]).
//!
//! The crate mirrors the caller-owned-delivery shape of the other
//! protocol crates: a [`HoneybeeNode`] plans pushes and pulls (each
//! pull is one walk step), the `raptee-sim` engine interposes its rate
//! limiter, message loss and adversary, and `finish_round` handles walk
//! timeouts — which is what lets the simulator run `Protocol::Honeybee`
//! as a drop-in fifth protocol family.

#![warn(unreachable_pub)]

mod config;
mod node;
mod walk;

pub use config::HoneybeeConfig;
pub use node::HoneybeeNode;
pub use walk::WalkTranscript;
