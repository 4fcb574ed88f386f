//! Cluster-wide monitoring pipeline.
//!
//! Production Scalla/xrootd deployments are operated through their
//! monitoring stream: every daemon pushes periodic summary records to a
//! central collector, and the collector — not per-host scrapes — is what
//! answers "which node melts first" at paper scale. This crate adds that
//! missing tier on top of the per-node obs layer:
//!
//! * [`Monitored`] — wraps a monitored node (cmsd, server, client
//!   driver, pcache proxy), takes its own reporting timer and the
//!   collector's `Resync`, and hands every other event to the node. On
//!   each tick it snapshots the node's obs
//!   [`Registry`](scalla_obs::Registry), diffs against the previous
//!   snapshot, and ships a compact delta record ([`MonMsg::Summary`]) plus
//!   any new flight-recorder spans ([`MonMsg::Spans`]) to the collector
//!   over whatever runtime the node is on (simnet message, live mailbox,
//!   TCP frame — wire family tag `0x50`). The stream is fire-and-forget:
//!   a dead collector costs the node nothing, and a lost record or a
//!   collector restart is healed one way — the collector answers every
//!   delta past a sequence gap with `Resync`, and the next tick ships a
//!   full baseline.
//! * [`CollectorNode`] + [`ClusterView`] — merges per-node cumulative
//!   counters and bucket-compatible histogram snapshots into one live
//!   cluster view: per-role rollups, cluster-wide p50/p99/p999 for each
//!   per-stage timer, top-K hottest paths, drop/discard/eviction totals,
//!   and stale-node marking. Served from the collector's admin endpoint
//!   as `/cluster` (Prometheus text) and `/cluster.json`.
//! * [`spans`] — groups collected spans by trace id across nodes and
//!   reconstructs per-op trees (client_op → cms_resolve → redirect_hop →
//!   srv_open, including pcache origin-fetch legs), with a critical-path
//!   latency breakdown per op class.

pub mod collector;
pub mod emitter;
pub mod spans;

pub use collector::{ClusterView, CollectorNode, NodeHealth};
pub use emitter::Monitored;
pub use spans::{OpClass, SpanTree};
