//! The cmsd file-location cache — the core contribution of
//! *Scalla: Structured Cluster Architecture for Low Latency Access*
//! (Hanushevsky & Wang, IPPS 2012), §III.
//!
//! A manager or supervisor cmsd answers "which of my 64 subordinates can
//! serve file X?" in constant time per tree level. This crate implements the
//! machinery the paper describes to make that possible:
//!
//! * [`loc`] — location objects holding the three 64-bit vectors `V_h`
//!   (have), `V_p` (preparing), `V_q` (to be queried), with the invariant
//!   `V_q ∩ (V_h ∪ V_p) = ∅` (§III-A1).
//! * [`slab`] — location-object storage that is *never freed*: slots are
//!   reused and an in-object authenticator counter validates stale
//!   references without locks held across calls (§III-B1).
//! * [`table`] — the one-level hash table: CRC-32 keys, Fibonacci sizing,
//!   linear chaining, resize at 80 % load to the next Fibonacci number
//!   (§III-A1).
//! * [`window`] — time-based eviction: the lifetime `L_t` is split into 64
//!   sliding windows; a tick *hides* the expiring window's chain (key length
//!   := 0) and physical removal happens in the background; refreshed objects
//!   are re-chained lazily by the same linear sweep (§III-A3, §III-C1).
//! * [`correct`] — cluster-change corrections: connect-order counters `C[]`
//!   and `N_c`, per-object stamp `C_n`, per-window memo (`V_wc`, `C_wn`)
//!   making the correction effectively free (§III-A4).
//! * [`respq`] — the fast response queue: 1024 anchors of waiting clients
//!   (`R_r` read / `R_w` write), swept on a 133 ms clock, released the
//!   moment a server responds (§III-B).
//! * [`cache`] — the [`NameCache`] facade implementing the six resolution
//!   steps of §III-B1 plus deadline-based query synchronization (§III-C2)
//!   and refresh processing (§III-C1).
//!
//! # Quick example
//!
//! ```
//! use std::sync::Arc;
//! use scalla_cache::{AccessMode, CacheConfig, NameCache, Resolution, Waiter};
//! use scalla_util::{ServerSet, VirtualClock};
//!
//! let clock = Arc::new(VirtualClock::new());
//! let cache = NameCache::new(CacheConfig::default(), clock.clone());
//! let vm = ServerSet::first_n(4); // four servers export this path
//!
//! // First access: nothing cached, the caller must flood a query.
//! let r = cache.resolve("/store/f.root", vm, AccessMode::Read, Waiter::new(1, 0));
//! assert!(matches!(r.resolution, Resolution::Queued));
//! assert_eq!(r.query, vm, "all eligible servers must be asked");
//!
//! // Server 2 answers "I have it" -> the waiting client is released.
//! let released = cache.update_have("/store/f.root", 2, false);
//! assert_eq!(released.len(), 1);
//! assert_eq!(released[0].0.client, 1);
//!
//! // Second access hits the cache and redirects immediately.
//! let r = cache.resolve("/store/f.root", vm, AccessMode::Read, Waiter::new(2, 0));
//! assert!(matches!(r.resolution, Resolution::Redirect { .. }));
//! ```

pub mod cache;
pub mod config;
pub mod correct;
pub mod eager;
pub mod loc;
pub mod respq;
pub mod slab;
pub mod stats;
pub mod table;
pub mod window;

pub use cache::{HaveOutcome, NameCache, Resolution, ResolveOutcome};
pub use config::CacheConfig;
pub use correct::ConnectLog;
pub use loc::{AccessMode, LocState};
pub use respq::{QueueFull, Waiter};
pub use slab::LocRef;
pub use stats::{CacheStats, StatsSnapshot};
pub use table::SizePolicy;
