//! Message type definitions.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Network address of a node or client within a runtime. Opaque to the
/// protocol; the runtimes assign them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct Addr(pub u64);

/// Sentinel "client" used for fire-and-forget resolutions (e.g. prepare's
/// background look-ups): released waiters carrying this address are simply
/// discarded.
pub const NO_CLIENT: Addr = Addr(u64::MAX);

/// Role a cmsd declares at login.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum NodeRoleTag {
    /// Interior cmsd managing its own set of 64.
    Supervisor,
    /// Leaf data server.
    Server,
    /// Block-caching proxy data server (§II-B6). Looks like a server for
    /// selection, but its `Have{reqid: 0}` advertisements describe cache
    /// contents that die with the process — the parent purges them from
    /// `V_h` the moment the proxy goes silent instead of parking them in
    /// `V_q` for a requery.
    Proxy,
}

/// A location lease attached to a [`ServerMsg::Redirect`]: the cmsd vouches
/// for the `path → host` binding for `ttl_millis`, scoped to a cluster
/// `epoch` that advances on every membership change. A client holding a
/// live lease may open directly against the host and skip the redirector;
/// an epoch it has not seen invalidates every lease it holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Lease {
    /// Milliseconds the binding may be trusted, measured from receipt.
    /// Derived from the granting cmsd's `L_t` window (§III-A): never longer
    /// than one window period, so a lease cannot outlive the cache entry
    /// that backs it.
    pub ttl_millis: u64,
    /// The granting cmsd's cluster epoch. Bumped on every login, silence,
    /// and drop, so any membership change fences all outstanding leases.
    pub epoch: u64,
}

/// Error codes carried by [`ServerMsg::Error`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ErrCode {
    /// The file does not exist anywhere in the cluster.
    NotFound,
    /// No server exports a matching path prefix.
    NoEligibleServer,
    /// The handle or request was invalid.
    BadRequest,
    /// Server-side I/O failure (triggers client refresh recovery, §III-C1).
    IoError,
    /// Try again later (transient inconsistency).
    Retry,
}

/// Client → node requests.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Open a file for read (`write == false`) or write/create.
    Open {
        /// File path.
        path: String,
        /// Write/create access when true.
        write: bool,
        /// Ask the cmsd to refresh its cached location (recovery path).
        refresh: bool,
        /// Name of a host that failed to provide access — never vector the
        /// client back there (§III-C1).
        avoid: Option<String>,
    },
    /// Read `len` bytes at `offset` from an open handle.
    Read {
        /// Handle from `OpenOk`.
        handle: u64,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        len: u32,
    },
    /// Write bytes at `offset` through an open handle.
    Write {
        /// Handle from `OpenOk`.
        handle: u64,
        /// Byte offset.
        offset: u64,
        /// Payload.
        #[serde(with = "serde_bytes_compat")]
        data: Bytes,
    },
    /// Close a handle.
    Close {
        /// Handle from `OpenOk`.
        handle: u64,
    },
    /// Stat a file on a data server.
    Stat {
        /// File path.
        path: String,
    },
    /// Announce files that will soon be needed; spawns parallel background
    /// look-ups so at most one full delay is observed (§III-B2).
    Prepare {
        /// Paths to pre-locate.
        paths: Vec<String>,
    },
    /// List a directory in the composite namespace. Deliberately *not*
    /// served by the cluster itself — "an ls-type function across all
    /// nodes" conflicts with low latency (§II-B4); the separate Cluster
    /// Name Space daemon answers it (footnote 3, §V).
    List {
        /// Directory path.
        dir: String,
    },
}

/// Node → client responses.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ServerMsg {
    /// Re-issue the request at `host` (one hop down the tree, §II-B3).
    Redirect {
        /// Host name of the target node.
        host: String,
        /// Optional location lease. Encoded backward-compatibly (like the
        /// trace envelope): `None` is byte-identical to the pre-lease
        /// format, `Some` uses a tag old frames never carried.
        lease: Option<Lease>,
    },
    /// Wait `millis` and retry (full-delay imposition, §III-B).
    Wait {
        /// Milliseconds to wait before retrying.
        millis: u64,
    },
    /// The file is open.
    OpenOk {
        /// Handle for subsequent I/O.
        handle: u64,
    },
    /// Read result.
    Data {
        /// The bytes read (may be shorter than requested at EOF).
        #[serde(with = "serde_bytes_compat")]
        data: Bytes,
    },
    /// Write acknowledged.
    WriteOk {
        /// Bytes written.
        len: u32,
    },
    /// Close acknowledged.
    CloseOk,
    /// Stat result.
    StatOk {
        /// File size in bytes.
        size: u64,
        /// Whether the file is online (false = resident only in MSS).
        online: bool,
    },
    /// Prepare accepted (look-ups proceed in the background).
    PrepareOk,
    /// Directory listing from the Cluster Name Space daemon.
    ListOk {
        /// Entry names within the directory (not full paths).
        entries: Vec<String>,
    },
    /// Request failed.
    Error {
        /// Machine-readable code.
        code: ErrCode,
        /// Human-readable detail.
        detail: String,
    },
}

/// cmsd ↔ cmsd messages.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum CmsMsg {
    /// Subordinate → parent: join the cluster, declaring exported path
    /// prefixes only — never a file manifest (§V).
    Login {
        /// Stable host name.
        name: String,
        /// Declared role.
        role: NodeRoleTag,
        /// Exported path prefixes.
        exports: Vec<String>,
    },
    /// Parent → subordinate: login accepted, slot assigned.
    LoginOk {
        /// Slot (0–63) in the parent's server set.
        slot: u8,
    },
    /// Parent → subordinate: login rejected (e.g. set full).
    LoginRejected {
        /// Reason.
        reason: String,
    },
    /// Parent → subordinate: does anyone below you have `path`?
    /// Request-rarely-respond: the only reply is a positive [`CmsMsg::Have`].
    Locate {
        /// Correlation id, echoed in `Have`.
        reqid: u64,
        /// File path.
        path: String,
        /// CRC-32 of the path, "passed along" so responders and upstream
        /// caches never re-hash (§III-B1).
        hash: u32,
        /// Whether write access is sought.
        write: bool,
    },
    /// Subordinate → parent: I have the file (online, or staging when
    /// `staging`). Multiple subordinate responses are compressed into a
    /// single upward `Have` by each supervisor (§II-B2).
    Have {
        /// Correlation id from the `Locate`.
        reqid: u64,
        /// File path.
        path: String,
        /// CRC-32 of the path.
        hash: u32,
        /// True while the file is being made ready (MSS staging).
        staging: bool,
    },
    /// Data server → Cluster Name Space daemon: a namespace change
    /// notification (file created or deleted). This is how the composite
    /// namespace stays current without the cluster keeping any global
    /// state (footnote 3).
    NsEvent {
        /// True for creation, false for deletion.
        created: bool,
        /// Full file path.
        path: String,
    },
    /// GFS-style join (baseline comparator, §V): the server uploads its
    /// complete file manifest to the central master. Scalla deliberately
    /// never does this — compare `Login`.
    Manifest {
        /// Stable host name.
        name: String,
        /// Every file the server hosts.
        files: Vec<String>,
    },
    /// Subordinate → parent: periodic load/space report for selection.
    LoadReport {
        /// Load figure, lower is better.
        load: u32,
        /// Free bytes.
        free_bytes: u64,
        /// Retired: always sent `false` and ignored on receipt. The field
        /// keeps the frame layout; a full fast response queue is the one
        /// overload signal (§III-B).
        overloaded: bool,
    },
}

/// A per-histogram record shipped inside a [`MonMsg::Summary`]: sparse
/// bucket increments over the reporting interval (every non-empty bucket
/// when the summary is `full`), plus the node's cumulative summary fields.
/// Only `buckets` is interval-local.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct HistDelta {
    /// Series key: `name{labels}` exactly as the registry renders it.
    pub key: String,
    /// `(bucket index, increment)` pairs for buckets that changed.
    pub buckets: Vec<(u32, u64)>,
    /// Samples recorded over the node's lifetime (cumulative in every
    /// record, delta or full).
    pub count: u64,
    /// Sum of those samples (cumulative, like `count`).
    pub sum: u64,
    /// Smallest sample seen over the node's lifetime (not interval-local:
    /// min/max don't delta, so the cumulative values ride every record).
    pub min: u64,
    /// Largest sample seen over the node's lifetime.
    pub max: u64,
}

/// A flight-recorder span in wire form (label strings owned, since
/// `&'static str` cannot cross a socket).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MonSpan {
    /// The request's trace id.
    pub trace: u64,
    /// Stage label (`client_op`, `cms_resolve`, `srv_open`, ...).
    /// `Cow` so in-process shipping borrows the recorder's static labels
    /// (no per-span allocation); wire decode produces the owned form.
    pub stage: std::borrow::Cow<'static, str>,
    /// Stage verdict (`redirect`, `open_ok`, ...).
    pub verdict: std::borrow::Cow<'static, str>,
    /// Queue depth or another stage-specific magnitude.
    pub depth: u64,
    /// Node-local timestamp (nanoseconds) of the event.
    pub t_ns: u64,
    /// Time spent in the stage, nanoseconds.
    pub elapsed_ns: u64,
}

/// Monitoring-stream traffic: every node ships periodic summary records
/// to a collector, which merges them into the cluster view (§ xrootd's
/// summary monitoring stream, reproduced over the ordinary runtimes).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MonMsg {
    /// Node → collector: one reporting interval's registry delta.
    Summary {
        /// Stable host name of the reporting node.
        node: String,
        /// Role rollup key (`cmsd`, `server`, `proxy`, `client`).
        role: String,
        /// Per-node sequence number (1-based, gap ⇒ collector resyncs).
        seq: u64,
        /// When true, counters/histograms are absolute cumulative values
        /// (a baseline), not interval deltas.
        full: bool,
        /// `(series key, value)` counter deltas (cumulative when `full`).
        counters: Vec<(String, u64)>,
        /// `(series key, value)` gauge readings (always absolute).
        gauges: Vec<(String, u64)>,
        /// Histogram deltas (cumulative when `full`).
        hists: Vec<HistDelta>,
    },
    /// Node → collector: flight-recorder spans drained since last report.
    Spans {
        /// Stable host name of the reporting node.
        node: String,
        /// Spans ring entries not yet shipped (oldest first).
        spans: Vec<MonSpan>,
    },
    /// Collector → node: a delta arrived past a sequence gap and was not
    /// applied; make the next summary a full baseline. Sent for every
    /// such delta, so a lost `Resync` is asked again one tick later.
    Resync,
}

/// Any Scalla message — what the runtimes actually route.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Msg {
    /// Client-originated request.
    Client(ClientMsg),
    /// Node-to-client response.
    Server(ServerMsg),
    /// Cluster-management traffic.
    Cms(CmsMsg),
    /// Monitoring-stream traffic (summary records, span batches).
    Mon(MonMsg),
}

impl From<ClientMsg> for Msg {
    fn from(m: ClientMsg) -> Msg {
        Msg::Client(m)
    }
}

impl From<ServerMsg> for Msg {
    fn from(m: ServerMsg) -> Msg {
        Msg::Server(m)
    }
}

impl From<CmsMsg> for Msg {
    fn from(m: CmsMsg) -> Msg {
        Msg::Cms(m)
    }
}

impl From<MonMsg> for Msg {
    fn from(m: MonMsg) -> Msg {
        Msg::Mon(m)
    }
}

/// Serde adapter for `bytes::Bytes` (serialize as byte sequences).
// Referenced through `#[serde(with = ...)]` attributes; the vendored
// no-op derive shim does not expand those, leaving the functions unused.
#[allow(dead_code)]
mod serde_bytes_compat {
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(b)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Bytes, D::Error> {
        let v = Vec::<u8>::deserialize(d)?;
        Ok(Bytes::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_conversions() {
        let m: Msg = ClientMsg::Close { handle: 7 }.into();
        assert!(matches!(m, Msg::Client(ClientMsg::Close { handle: 7 })));
        let m: Msg = ServerMsg::CloseOk.into();
        assert!(matches!(m, Msg::Server(ServerMsg::CloseOk)));
        let m: Msg = CmsMsg::LoginOk { slot: 3 }.into();
        assert!(matches!(m, Msg::Cms(CmsMsg::LoginOk { slot: 3 })));
    }

    #[test]
    fn sentinel_address() {
        assert_ne!(NO_CLIENT, Addr(0));
    }
}
