//! Protocol messages for the Scalla reproduction.
//!
//! Three message families flow through a Scalla cluster (§II-B):
//!
//! * [`ClientMsg`] — client → xrootd: open / read / write / close / stat /
//!   prepare requests;
//! * [`ServerMsg`] — xrootd → client: redirects, waits, data, and errors;
//! * [`CmsMsg`] — cmsd ↔ cmsd: login, the request-rarely-respond locate
//!   query, positive `Have` responses, and load reports.
//!
//! A fourth, out-of-band family, [`MonMsg`], carries the monitoring
//! stream: periodic per-node summary records and flight-recorder span
//! batches shipped to a collector node (wire family tag `0x50`,
//! alongside the `0x40` trace envelope).
//!
//! The defining protocol property (§III-B) is that [`CmsMsg::Locate`] has
//! *no negative response*: a server that does not have the file stays
//! silent, and silence past the deadline is the negative answer.
//!
//! [`wire`] provides a compact binary codec, declared as one table line per
//! message variant, so messages can cross real sockets; the in-process
//! runtimes pass the enums directly.

pub mod msg;
pub mod pool;
pub mod wire;

pub use msg::{
    Addr, ClientMsg, CmsMsg, ErrCode, HistDelta, Lease, MonMsg, MonSpan, Msg, NodeRoleTag,
    ServerMsg, NO_CLIENT,
};
pub use pool::BufferPool;
pub use wire::{encode_frame, encode_frame_traced, encode_msg, FrameDecoder, Gather, WireError};
