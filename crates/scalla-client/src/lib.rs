//! Client-side protocol driver.
//!
//! A Scalla client contacts the logical head node, follows [`Redirect`]s
//! down the tree until it reaches a data server (§II-B3), honours [`Wait`]
//! back-offs (the full-delay imposition of §III-B), and recovers from stale
//! location information by re-issuing the request to the manager "asking
//! for a cache refresh along with the name of the host that failed"
//! (§III-C1). With replicated head nodes it fails over to the next manager
//! when the current one stops answering.
//!
//! [`ClientNode`] executes a scripted sequence of [`ClientOp`]s and records
//! one [`OpResult`] per operation (latency, hop count, waits, refreshes) —
//! the raw material for every latency experiment in EXPERIMENTS.md. The
//! redirect walk itself is a [`Walk`], which the proxy's origin path drives
//! too.
//!
//! [`Redirect`]: scalla_proto::ServerMsg::Redirect
//! [`Wait`]: scalla_proto::ServerMsg::Wait

pub mod directory;
pub mod driver;
pub mod walk;

pub use directory::Directory;
pub use driver::{ClientConfig, ClientNode, ClientOp, OpOutcome, OpResult, RetryPolicy};
pub use walk::{Resolver, Step, Walk};
