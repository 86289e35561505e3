//! Shared utilities for the RAPTEE reproduction.
//!
//! This crate holds the deterministic building blocks used by every other
//! crate in the workspace:
//!
//! * [`rng`] — a small, fast, seedable pseudo-random generator
//!   ([`rng::Xoshiro256StarStar`]) plus the 64-bit mixing function used
//!   to build the min-wise-independent hash families of the Brahms
//!   sampling component.
//! * [`stats`] — an online mean/variance accumulator.
//! * [`bitset`] — a growable bitset used for O(1) membership over
//!   node-ID spaces (view indices).
//! * [`hll`] — fixed-size HyperLogLog cardinality sketches backing the
//!   sketch-mode discovery metric at million-node scale.
//! * [`chi`] — a chi-square uniformity test used by the sampler property
//!   tests.
//! * [`series`] — tiny CSV/series formatting helpers shared by the
//!   benchmark harness so each figure can print the same rows the paper
//!   reports.
//!
//! Everything here is deliberately dependency-free so the rest of the
//! workspace stays deterministic and auditable.
//!
//! # Examples
//!
//! ```
//! use raptee_util::rng::Xoshiro256StarStar;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let a = rng.next_u64();
//! let b = rng.next_u64();
//! assert_ne!(a, b);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod bitset;
pub mod chi;
pub mod hll;
pub mod rng;
pub mod series;
pub mod stats;

pub use rng::{mix64, Xoshiro256StarStar};
