//! Node state machines: the cmsd and the xrootd data server.
//!
//! Scalla is "symmetric in that for each xrootd there is a corresponding
//! cmsd" (§II-B). In this reproduction a leaf pair is merged into one
//! [`ServerNode`] (it answers both locate queries and file I/O), while
//! interior nodes are [`CmsdNode`]s in manager or supervisor role.
//!
//! Both are written against the runtime-agnostic
//! [`Node`](scalla_simnet::Node)/[`NetCtx`](scalla_simnet::NetCtx) traits,
//! so the identical state machines run under the deterministic simulator
//! and the live threaded runtime.
//!
//! Protocol behaviour implemented here:
//!
//! * name resolution with redirect chaining down the 64-ary tree (§II-B2,
//!   §II-B3);
//! * request-rarely-respond locates — only positive [`CmsMsg::Have`]
//!   responses exist, and supervisors compress multiple child responses
//!   into a single upward one (§II-B2, §III-B);
//! * the fast response queue and its 133 ms sweep (§III-B1);
//! * the window tick and background collection (§III-A3);
//! * login / heartbeat-based offline detection / drop processing (§III-A4);
//! * write allocation: a file that provably does not exist (deadline
//!   passed) is allocated to a server chosen by the selection policy;
//! * MSS staging: offline files respond "preparing", come online after the
//!   configured staging delay, and promote with a fresh `Have` (§III-B2).
//!
//! [`CmsMsg::Have`]: scalla_proto::CmsMsg::Have

pub mod cmsd;
pub mod cns;
pub mod fs;
pub mod overload;
pub mod server;

pub use cmsd::{CmsdConfig, CmsdNode, CmsdRole};
pub use cns::CnsNode;
pub use fs::{FileEntry, LocalFs};
pub use overload::{Admission, AdmissionStats, OverloadConfig, Verdict};
pub use server::{JoinStyle, ServerConfig, ServerNode};
