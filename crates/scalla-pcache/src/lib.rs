//! Block-caching proxy data-server tier (§II-B6 deployment model).
//!
//! Scalla's deployment model places proxy servers between clients and
//! the cluster to absorb repeated reads and to bridge administrative
//! domains; the XRootD ecosystem later grew this into the on-demand
//! storage cache ("XCache"). This crate reproduces that tier on top of
//! the existing control plane:
//!
//! * [`BlockStore`] — a byte-accounted block cache with high/low-watermark
//!   eviction in one exact LRU order.
//! * [`ProxyNode`] — a [`scalla_simnet::Node`] that joins a cmsd as an
//!   ordinary data server, serves `Open`/`Read`/`Close` from the block
//!   store, fetches misses from the owning origin server, and
//!   advertises fully-cached files upward (`Have{reqid: 0}`) so the
//!   resolver's V_h set redirects other clients to the proxy.
//!
//! The node runs unmodified on all three runtimes (simnet, live
//! threads, TCP) because it is written against `NetCtx` like every
//! other node in the tree.

#![warn(missing_docs)]

mod proxy;
mod store;

pub use proxy::{tokens, ProxyConfig, ProxyNode, REQUEST_TIMEOUT};
pub use store::{BlockKey, BlockStore, PcacheConfig, PcacheStats};
