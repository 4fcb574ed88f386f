//! Whole-cluster harness.
//!
//! This crate assembles complete Scalla clusters — manager(s), supervisor
//! levels, data servers, clients — over either runtime:
//!
//! * [`cluster`] — assembles a 64-ary (or any-fanout) tree from a
//!   [`TreeSpec`](scalla_cluster::TreeSpec) once, onto any of the three
//!   runtimes ([`Cluster::assemble`]); on the deterministic simulated
//!   network [`SimCluster`] also seeds files, attaches scripted clients,
//!   and harvests their latency records.
//! * [`live`] — the live threaded runtime: one OS thread per node,
//!   crossbeam channels as links, real wall-clock timers. The very same
//!   [`Node`](scalla_simnet::Node) state machines run here, exercising the
//!   real locking and queueing code paths under true concurrency.
//! * [`tcp`] — the real-socket runtime: the same nodes on the same
//!   threaded core (mailboxes, event loop, each node's crash/restart state
//!   and lifecycle are one private `runtime` module; only the transport
//!   differs), but every
//!   message crosses a localhost `TcpStream` through the binary wire
//!   codec and frame decoder. A connection's reader thread runs the
//!   node on what it reads, and sends never block it: frames are batched
//!   per peer and each batch written with one non-blocking `write`
//!   before the node is let go, and a per-peer writer thread takes over
//!   whatever would block (see DESIGN.md §4, "Runtime tiers"); drops at
//!   any layer are counted and surfaced
//!   via [`NetCounters`](metrics::NetCounters).
//! * [`workload`] — synthetic workload generators shaped like the paper's
//!   motivating load: BaBar/ROOT analysis jobs performing "several
//!   meta-data operations on dozens of files per job" (§II-A), bulk
//!   transfers, and create-heavy production.
//! * [`metrics`] — aggregation of client records into latency
//!   distributions for the experiment tables.
//! * [`admin`] — a per-net admin endpoint (one listener thread) serving
//!   `/metrics`, `/stats`, and `/flight` over a line protocol, backed by
//!   the shared [`Obs`](scalla_obs::Obs) registry and flight recorder.
//!   When a net hosts a monitoring collector
//!   ([`ClusterConfig::monitor`](cluster::ClusterConfig), or
//!   `serve_admin_with` on the live/TCP nets), the endpoint additionally
//!   serves `/cluster` (merged cluster view, Prometheus text) and
//!   `/cluster.json`.

pub mod admin;
pub mod chaos;
pub mod cluster;
mod egress;
pub mod live;
pub mod metrics;
mod runtime;
pub mod tcp;
pub mod workload;

pub use admin::{metric, scrape};
pub use chaos::{assert_poll, poll_until, ChaosProfile, Fault, SoakReport};
pub use cluster::{downcast, Cluster, ClusterConfig, SimCluster};
pub use live::LiveNet;
pub use metrics::{percentile, summarize, EgressCounters, LatencySummary, NetCounters};
pub use scalla_monitor::{ClusterView, CollectorNode, MonitorEmitter, NodeHealth, SpanTree};
pub use tcp::TcpNet;
pub use workload::{analysis_job, make_catalog, WorkloadConfig, ZipfSampler};
