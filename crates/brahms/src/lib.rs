//! Brahms — Byzantine-resilient random membership sampling.
//!
//! Implementation of Bortnikov, Gurevich, Keidar, Kliot & Shraer's
//! protocol (Computer Networks 2009), the baseline RAPTEE builds on and
//! the most Byzantine-resilient peer-sampling protocol to date. Each node
//! runs two components:
//!
//! * a **gossip component** maintaining a dynamic view `V` of `l1`
//!   entries, refreshed every round from pushes, pull answers and the
//!   history sample;
//! * a **sampling component** (`raptee-sampler`) maintaining a sample
//!   list `S` of `l2` min-wise samplers that converges to a uniform
//!   sample of all streamed IDs.
//!
//! The four defence mechanisms of the paper are all present:
//!
//! 1. **Limited pushes** — enforced by `raptee-net`'s
//!    [`raptee_net::PushRateLimiter`]; the protocol side simply counts
//!    what arrives.
//! 2. **Attack detection and blocking** — [`BrahmsNode::finish_round`]
//!    refuses to renew the view in any round where more pushes arrive
//!    than the expected `α·l1` (a targeted flood), or where pushes or
//!    pulls are missing entirely.
//! 3. **Balanced contribution** — the renewed view mixes exactly
//!    `α·l1` pushed IDs, `β·l1` pulled IDs and `γ·l1` history samples
//!    (paper defaults α = β = 0.4, γ = 0.2).
//! 4. **History sampling** — the `γ·l1` slice drawn from `S` lets a
//!    node under targeted attack self-heal.
//!
//! The node is transport-agnostic: the caller (the `raptee-sim` engine, a
//! test, or an example) moves [`RoundPlan`] targets and delivers events
//! via [`BrahmsNode::record_push`] / [`BrahmsNode::record_pulled`], then
//! calls [`BrahmsNode::finish_round`]. `raptee` (the core crate) wraps
//! this node to add mutual authentication, trusted communications and
//! Byzantine eviction.

#![warn(unreachable_pub)]

mod config;
mod node;
mod stream;

pub use config::BrahmsConfig;
pub use node::{BrahmsNode, FinishScratch, RoundReport};
pub use raptee_net::RoundPlan;
pub use stream::{AnswerSource, NoAnswers, Rope, Segment, SliceRope};
