//! Partial views and the trusted half-view exchange.
//!
//! RAPTEE's *trusted communications* follow "the instantiation of the
//! Gossip-based Peer Sampling framework" of Jelasity, Voulgaris,
//! Guerraoui, Kermarrec & van Steen (TOCS 2007), with the criteria the
//! paper fixes in Section II:
//!
//! 1. partner selection by **age** (probe the entry that has been in the
//!    view longest — an effective round-robin),
//! 2. exchange **half of the view**, with the initiator inserting a fresh
//!    link to itself, and
//! 3. **swap** semantics: a link sent by the initiator is kept only by the
//!    partner and vice-versa.
//!
//! This crate holds that one instantiation: one generic [`View`] body
//! over two entry types — the ID-only [`ViewEntry`] and the aged
//! [`view::AgedEntry`] of the trusted [`Directory`], whose [`View::oldest`]
//! entry is criterion 1's partner — and the two halves of the exchange,
//! [`exchange::prepare_buffer`] and [`exchange::integrate`] (criteria 2
//! and 3), which serve both.
//!
//! `raptee` (the core crate) runs the exchange for the trusted view-swap
//! (on the Brahms view) and the trusted-directory gossip (on the
//! directory); `raptee-brahms` keeps its dynamic view in the ID-only
//! [`View`].

#![warn(unreachable_pub)]

pub mod exchange;
pub mod view;

pub use view::{Directory, View, ViewEntry};
