//! Root meta-crate for the RAPTEE reproduction workspace.
//!
//! Re-exports the member crates for convenient one-import use, hosts the
//! cross-crate integration tests (`tests/`), the runnable examples
//! (`examples/`), and the [`cli`] argument parser backing the
//! `raptee-cli` binary.

pub use raptee;
pub use raptee_basalt;
pub use raptee_brahms;
pub use raptee_crypto;
pub use raptee_gossip;
pub use raptee_net;
pub use raptee_sampler;
pub use raptee_sim;
pub use raptee_tee;
pub use raptee_util;

pub mod cli;
