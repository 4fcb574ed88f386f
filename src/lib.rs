//! # Scalla — Structured Cluster Architecture for Low Latency Access
//!
//! A from-scratch Rust reproduction of *Scalla: Structured Cluster
//! Architecture for Low Latency Access* (Hanushevsky & Wang, SLAC, IPPS
//! 2012) — the architecture behind XRootD, the distributed file access
//! system of the high-energy-physics community.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`util`] | `scalla-util` | CRC-32, Fibonacci sizing, 64-bit server sets, clocks, histograms |
//! | [`cache`] | `scalla-cache` | **the paper's core contribution**: the cmsd file-location cache (§III) |
//! | [`cluster`] | `scalla-cluster` | membership lifecycle, export paths → `V_m`, 64-ary topology, selection |
//! | [`proto`] | `scalla-proto` | xrootd/cmsd messages and the binary wire codec |
//! | [`simnet`] | `scalla-simnet` | deterministic discrete-event network runtime |
//! | [`node`] | `scalla-node` | cmsd (manager/supervisor) and data-server state machines |
//! | [`obs`] | `scalla-obs` | metrics registry, request-scoped tracing, flight recorder |
//! | [`client`] | `scalla-client` | redirect walking, wait/retry, refresh recovery, prepare |
//! | [`lcache`] | `scalla-lcache` | edge location cache: client/proxy-side `V_h` under cmsd leases |
//! | [`pcache`] | `scalla-pcache` | block-caching proxy data-server tier (§II-B6) |
//! | [`monitor`] | `scalla-monitor` | summary streams, merged cluster view, span-tree assembly |
//! | [`sim`] | `scalla-sim` | whole-cluster harness, live threaded runtime, workloads |
//! | [`baseline`] | `scalla-baseline` | GFS-style central master and other comparators (§V) |
//! | [`qserv`] | `scalla-qserv` | LSST Qserv-style distributed dispatch (§IV-B) |
//!
//! ## Quickstart
//!
//! ```
//! use scalla::prelude::*;
//!
//! // Build a 16-server cluster on the deterministic simulated network.
//! let mut cluster = SimCluster::build(ClusterConfig::flat(16));
//! cluster.seed_file(5, "/store/run1/events.root", 1 << 20, true);
//! cluster.settle(Nanos::from_secs(2));
//!
//! // A client opens the file: manager -> redirect -> server.
//! let client = cluster.add_client(
//!     vec![ClientOp::Open { path: "/store/run1/events.root".into(), write: false }],
//!     Nanos::ZERO,
//! );
//! cluster.start_node(client);
//! cluster.net.run_for(Nanos::from_secs(10));
//!
//! let results = cluster.client_results(client);
//! assert_eq!(results[0].outcome, OpOutcome::Ok);
//! assert_eq!(results[0].server.as_deref(), Some("srv-5"));
//! ```

pub use scalla_baseline as baseline;
pub use scalla_cache as cache;
pub use scalla_client as client;
pub use scalla_cluster as cluster;
pub use scalla_lcache as lcache;
pub use scalla_monitor as monitor;
pub use scalla_node as node;
pub use scalla_obs as obs;
pub use scalla_pcache as pcache;
pub use scalla_proto as proto;
pub use scalla_qserv as qserv;
pub use scalla_sim as sim;
pub use scalla_simnet as simnet;
pub use scalla_util as util;

/// The most commonly used items in one import.
pub mod prelude {
    pub use scalla_cache::{AccessMode, CacheConfig, NameCache, Resolution, Waiter};
    pub use scalla_client::{ClientOp, Directory, OpOutcome, OpResult};
    pub use scalla_cluster::{SelectionPolicy, TreeSpec};
    pub use scalla_lcache::{LcacheConfig, LcacheSnapshot, LocationCache};
    pub use scalla_monitor::{ClusterView, CollectorNode, Monitored, SpanTree};
    pub use scalla_node::{
        CmsdConfig, CmsdNode, CnsNode, OverloadConfig, ServerConfig, ServerNode,
    };
    pub use scalla_obs::{Obs, TraceId};
    pub use scalla_pcache::{BlockStore, PcacheConfig, ProxyConfig, ProxyNode};
    pub use scalla_proto::{Addr, ClientMsg, CmsMsg, Msg, ServerMsg};
    pub use scalla_sim::{ChaosProfile, ClusterConfig, Fault, SimCluster, SoakReport};
    pub use scalla_simnet::{LatencyModel, NetCtx, Node, SimNet};
    pub use scalla_util::{Nanos, ServerId, ServerSet};
}
