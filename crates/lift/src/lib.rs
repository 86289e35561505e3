//! LIFT hub-avoidance peer sampling.
//!
//! A deterministic reconstruction of the hub-resistance idea behind
//! **LIFT**-style unbiased sampling protocols (see PAPERS.md): estimate
//! every peer's in-degree from how often gossip *mentions* it, then
//! bias neighbour replacement and exchange-partner selection away from
//! high-degree hubs. Where BASALT defeats repetition attacks with
//! seeded per-slot ranking, LIFT defeats them with degree estimation —
//! an adversary that floods its IDs merely certifies them as hubs and
//! locks them out of views:
//!
//! * every gossip mention (push sender, pull responder, pull-answer
//!   content) increments the mentioned ID's **hub score**, a bounded
//!   in-degree estimate;
//! * a candidate facing a full view challenges the current *hubbiest*
//!   member and wins with probability proportional to the score gap —
//!   **score-weighted replacement** that structurally favours cold,
//!   rarely-mentioned peers;
//! * exchange partners are drawn lowest-score-first (**hub-avoidance
//!   sampling**), so the protocol probes the quiet edge of the network
//!   rather than the loud centre;
//! * periodic **score fading** halves all counters so estimates track
//!   recent degree, bounding how long stale evidence (or a reformed
//!   hub) is held against a peer.
//!
//! The crate mirrors the caller-owned-delivery shape of
//! `raptee-brahms` and `raptee-basalt`: a [`LiftNode`] plans pushes and
//! pulls, the `raptee-sim` engine interposes its rate limiter, message
//! loss and adversary, and `finish_round` handles periodic upkeep —
//! which is what lets the simulator run `Protocol::Lift` as a drop-in
//! fourth protocol family.
//!
//! Gossip mentions some 300 IDs to a node every round, so the view and
//! the counters live in one indexed table (`table::ScoreTable`: scores
//! beside the view slots, off-view counters in a binary min-heap on
//! `(score, id)`, one open-addressed index over every tracked ID and a
//! cached hubbiest slot), which answers a mention in expected `O(1)`
//! probes plus `O(log c)` heap steps; the plain `BTreeMap` node it
//! replaced is kept under `#[cfg(test)]` as the oracle a property test
//! compares it with step by step.

#![warn(unreachable_pub)]

mod config;
mod node;
#[cfg(test)]
mod reference;
mod table;

pub use config::LiftConfig;
pub use node::LiftNode;
