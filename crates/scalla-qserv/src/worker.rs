//! The Qserv worker: a Scalla data server that executes task files.
//!
//! Workers "report their data availability by 'publishing' or 'exporting'
//! paths that include a partition number" (§IV-B). A [`QservWorkerNode`]
//! wraps a standard [`ServerNode`], exporting `/chunk/<partition>` for each
//! chunk it hosts. When a master *writes* a file matching
//! `/chunk/<p>/task-<id>`, the worker decodes the query, executes it
//! against the chunk, and materializes `/chunk/<p>/result-<id>` — which the
//! master then locates and reads through Scalla like any other file.

use crate::chunk::ChunkStore;
use crate::master::{result_path_for_task, task_partition};
use crate::query::Query;
use scalla_node::{ServerConfig, ServerNode};
use scalla_proto::{Addr, ClientMsg, Msg};
use scalla_simnet::{NetCtx, Node};
use std::collections::HashMap;

/// A data server hosting catalog chunks and executing queries on them.
pub struct QservWorkerNode {
    inner: ServerNode,
    chunks: HashMap<u32, ChunkStore>,
    /// Tasks executed (statistics).
    pub tasks_executed: u64,
}

impl QservWorkerNode {
    /// Builds a worker from a base server config and its hosted chunks.
    /// The export list is derived from the chunks — one `/chunk/<p>`
    /// prefix per partition, exactly Qserv's publication scheme.
    pub fn new(mut cfg: ServerConfig, chunks: Vec<ChunkStore>) -> QservWorkerNode {
        cfg.exports = chunks.iter().map(|c| format!("/chunk/{}", c.partition)).collect();
        let inner = ServerNode::new(cfg);
        let chunks = chunks.into_iter().map(|c| (c.partition, c)).collect();
        QservWorkerNode { inner, chunks, tasks_executed: 0 }
    }

    /// Partitions hosted here.
    pub fn partitions(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.chunks.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The wrapped server (inspection).
    pub fn server(&self) -> &ServerNode {
        &self.inner
    }

    /// Mutable access to the wrapped server (seeding auxiliary files).
    pub fn server_mut(&mut self) -> &mut ServerNode {
        &mut self.inner
    }

    fn maybe_execute(&mut self, path: &str) {
        let Some(partition) = task_partition(path) else { return };
        let Some(chunk) = self.chunks.get(&partition) else { return };
        let Some(entry) = self.inner.fs().get(path) else { return };
        let Some(text) = std::str::from_utf8(&entry.data).ok() else { return };
        let Some(query) = Query::decode(text) else { return };
        let result = query.execute(chunk);
        let out_path = result_path_for_task(path);
        let encoded = result.encode();
        self.inner.fs_mut().create(&out_path);
        self.inner.fs_mut().write(&out_path, 0, encoded.as_bytes());
        self.tasks_executed += 1;
    }
}

impl Node for QservWorkerNode {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        // Capture the task path before the write lands (handle → path).
        let written = if let Msg::Client(ClientMsg::Write { handle, .. }) = &msg {
            self.inner.handle_path(*handle).map(str::to_string)
        } else if let Msg::Client(ClientMsg::Close { handle }) = &msg {
            // Execute on close so multi-write tasks see complete payloads.
            self.inner.handle_path(*handle).map(str::to_string)
        } else {
            None
        };
        let execute_now = matches!(&msg, Msg::Client(ClientMsg::Close { .. }));
        self.inner.on_message(ctx, from, msg);
        if execute_now {
            if let Some(path) = written {
                self.maybe_execute(&path);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        self.inner.on_timer(ctx, token);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::master::task_path;
    use crate::query::QueryResult;
    use bytes::Bytes;
    use scalla_proto::ServerMsg;
    use scalla_simnet::MockCtx;

    /// Writes `data` to `path` at the worker the way the master does: open
    /// for write, write, close.
    fn write_file(w: &mut QservWorkerNode, path: &str, data: Bytes) {
        let mut ctx = MockCtx::new();
        let ext = Addr(500);
        let open = ClientMsg::Open { path: path.into(), write: true, refresh: false, avoid: None };
        w.on_message(&mut ctx, ext, open.into());
        let handle = match &ctx.take_sends()[..] {
            [(_, Msg::Server(ServerMsg::OpenOk { handle }))] => *handle,
            other => panic!("{other:?}"),
        };
        w.on_message(&mut ctx, ext, ClientMsg::Write { handle, offset: 0, data }.into());
        w.on_message(&mut ctx, ext, ClientMsg::Close { handle }.into());
        assert!(matches!(
            &ctx.sends[..],
            [(_, Msg::Server(ServerMsg::WriteOk { .. })), (_, Msg::Server(ServerMsg::CloseOk))]
        ));
    }

    #[test]
    fn worker_executes_task_on_close() {
        let cfg = ServerConfig::new("w0", Addr(999));
        let mut w = QservWorkerNode::new(cfg, vec![ChunkStore::generate(3, 200, 7)]);
        let q = Query::CountRange { lo: 15.0, hi: 20.0 };
        let expected = q.execute(&ChunkStore::generate(3, 200, 7));
        let path = task_path(3, 1);
        write_file(&mut w, &path, Bytes::from(q.encode()));
        assert_eq!(w.tasks_executed, 1);
        let result_file = w.server().fs().get(&result_path_for_task(&path)).expect("result file");
        let decoded = QueryResult::decode(std::str::from_utf8(&result_file.data).unwrap());
        assert_eq!(decoded, Some(expected));
    }

    #[test]
    fn exports_derived_from_partitions() {
        let cfg = ServerConfig::new("w0", Addr(1));
        let w = QservWorkerNode::new(
            cfg,
            vec![ChunkStore::generate(5, 10, 1), ChunkStore::generate(9, 10, 1)],
        );
        assert_eq!(w.partitions(), vec![5, 9]);
    }

    #[test]
    fn non_task_writes_are_ignored() {
        let cfg = ServerConfig::new("w0", Addr(999));
        let mut w = QservWorkerNode::new(cfg, vec![ChunkStore::generate(1, 10, 1)]);
        write_file(&mut w, "/chunk/1/notes.txt", Bytes::from_static(b"count 1 2"));
        assert_eq!(w.tasks_executed, 0);
    }

    #[test]
    fn task_for_unhosted_partition_is_ignored() {
        let cfg = ServerConfig::new("w0", Addr(999));
        let mut w = QservWorkerNode::new(cfg, vec![ChunkStore::generate(1, 10, 1)]);
        // Partition 42 is not hosted here.
        write_file(&mut w, &task_path(42, 0), Bytes::from_static(b"count 1 2"));
        assert_eq!(w.tasks_executed, 0);
    }
}
