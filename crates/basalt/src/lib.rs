//! BASALT hit-counter peer sampling.
//!
//! An implementation of the sampling core of **BASALT: A Rock-Solid
//! Foundation for Epidemic Consensus Algorithms in Very Large, Very Open
//! Networks** (Auvolat, Bromberg, Frey, Taïani — see PAPERS.md). Where
//! RAPTEE hardens Brahms with trusted execution environments, BASALT
//! resists the same balanced and targeted attacks *purely
//! algorithmically*:
//!
//! * each view slot owns a secret **seeded ranking function** and holds
//!   the observed ID ranking closest to its seed — an adversary cannot
//!   buy slots by repetition, only by genuinely ranking best, which its
//!   population share bounds;
//! * **hit counters** track how often the current sample was confirmed;
//!   exchange partners are chosen least-confirmed-first, so force-push
//!   floods are absorbed as counter increments instead of view churn;
//! * **periodic seed rotation** re-ranks a few slots per interval,
//!   defeating the slow adaptive bias an adversary could accumulate
//!   against long-lived ranking functions.
//!
//! The crate deliberately mirrors the shape of `raptee-brahms`: a
//! [`BasaltNode`] plans pushes and pulls, the caller owns delivery (the
//! `raptee-sim` engine interposes its rate limiter, message loss and
//! adversary exactly as it does for Brahms/RAPTEE), and a round
//! finalisation handles periodic upkeep. This is what lets the simulator
//! run `Protocol::Basalt` as a drop-in third protocol next to Brahms and
//! RAPTEE.
//!
//! Two optional hardenings extend the core for the **BASALT+TEE
//! hybrid** (`Protocol::BasaltTee` in `raptee-sim`):
//!
//! * the **waiting list** (`BasaltConfig::with_wlist`): hearsay IDs from
//!   pull answers are quarantined and only admitted after a rate-limited
//!   verification contact, so the adversary's free all-Byzantine pull
//!   answers cannot outrun its rate-limited pushes (BASALT's
//!   connect-before-integrate refinement);
//! * **trusted nodes** ([`BasaltNode::new_trusted`]): a fraction of
//!   nodes run inside simulated enclaves, provisioned with the RAPTEE
//!   group key through the same `raptee-tee` attestation flow; answers
//!   between mutually authenticated trusted peers bypass the waiting
//!   list ([`BasaltNode::record_pull_answer_trusted`]).

#![warn(unreachable_pub)]

mod config;
mod node;
mod view;
pub mod wlist;

pub use config::BasaltConfig;
pub use node::BasaltNode;
/// BASALT plans the same push and pull lists as Brahms.
pub use raptee_net::RoundPlan as BasaltPlan;
pub use view::BasaltView;
