//! Master-side dispatch: scatter tasks, gather results — all through the
//! Scalla file abstraction.
//!
//! "Masters dispatch work to nodes hosting the data of interest, and
//! retrieve results similarly" (§IV-B). The master never configures or
//! enumerates workers: it opens `/chunk/<p>/task-<id>` for write, and
//! Scalla's write allocation lands the file on a worker exporting
//! `/chunk/<p>` — the data-to-host mapping the paper describes. Results
//! come back by opening `/chunk/<p>/result-<id>` for read; only the worker
//! that materialized the result responds to the locate.

use crate::query::{Query, QueryResult};
use bytes::Bytes;
use scalla_client::{ClientOp, OpOutcome, OpResult};

/// Path of the task file for `(partition, query id)`.
pub fn task_path(partition: u32, qid: u64) -> String {
    format!("/chunk/{partition}/task-{qid}")
}

/// Path of the result file for `(partition, query id)`.
pub fn result_path(partition: u32, qid: u64) -> String {
    format!("/chunk/{partition}/result-{qid}")
}

/// Extracts the partition number from a task path, if it is one.
pub fn task_partition(path: &str) -> Option<u32> {
    let rest = path.strip_prefix("/chunk/")?;
    let (part, file) = rest.split_once('/')?;
    if !file.starts_with("task-") {
        return None;
    }
    part.parse().ok()
}

/// Maps `/chunk/<p>/task-<id>` to its result path.
pub fn result_path_for_task(task: &str) -> String {
    task.replacen("/task-", "/result-", 1)
}

/// Builds the master's scripted scatter/gather for `query` over
/// `partitions`: for each partition, create the task file (write payload),
/// then read the result file back.
///
/// The returned script runs on a standard
/// [`ClientNode`](scalla_client::ClientNode) — the master *is* just a
/// Scalla client, which is the point of §IV-B.
pub fn scatter_script(query: &Query, partitions: &[u32], qid: u64) -> Vec<ClientOp> {
    let payload = Bytes::from(query.encode());
    let mut ops = Vec::with_capacity(partitions.len() * 2);
    for &p in partitions {
        ops.push(ClientOp::Create { path: task_path(p, qid), data: payload.clone() });
    }
    for &p in partitions {
        ops.push(ClientOp::OpenRead { path: result_path(p, qid), len: 1 << 20 });
    }
    ops
}

/// Decodes the gathered per-partition results from the workers' result
/// files and merges them into the global answer.
///
/// `read_result` maps a result path to its file contents (the harness
/// fetches them from the workers' stores after the script completes, or a
/// streaming client could capture `Data` payloads directly).
pub fn gather_results(
    partitions: &[u32],
    qid: u64,
    mut read_result: impl FnMut(&str) -> Option<Vec<u8>>,
) -> Option<QueryResult> {
    let mut per_chunk = Vec::with_capacity(partitions.len());
    for &p in partitions {
        let path = result_path(p, qid);
        let bytes = read_result(&path)?;
        let text = String::from_utf8(bytes).ok()?;
        per_chunk.push(QueryResult::decode(&text)?);
    }
    QueryResult::merge(&per_chunk)
}

/// An autonomous Qserv master: a [`Node`] that scatters a query, gathers
/// the per-chunk results *through Scalla reads*, and merges them in-node.
/// Because it is just a node, it runs identically under the simulator, the
/// threaded runtime, and the TCP runtime.
///
/// [`Node`]: scalla_simnet::Node
pub struct QservMasterNode {
    inner: scalla_client::ClientNode,
    partitions: Vec<u32>,
    qid: u64,
    answer: Option<QueryResult>,
    failed: bool,
}

impl QservMasterNode {
    /// Builds a master dispatching `query` over `partitions` via the
    /// manager at `cfg.managers[0]`. The scatter script is installed into
    /// the provided client configuration (its `ops` are replaced).
    pub fn new(
        mut cfg: scalla_client::ClientConfig,
        query: &Query,
        partitions: Vec<u32>,
        qid: u64,
    ) -> QservMasterNode {
        cfg.ops = scatter_script(query, &partitions, qid);
        QservMasterNode {
            inner: scalla_client::ClientNode::new(cfg),
            partitions,
            qid,
            answer: None,
            failed: false,
        }
    }

    /// The merged answer, once every partition reported.
    pub fn answer(&self) -> Option<&QueryResult> {
        self.answer.as_ref()
    }

    /// Whether the dispatch failed (an op errored or a result would not
    /// decode).
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// The underlying client records (diagnostics).
    pub fn records(&self) -> &[OpResult] {
        self.inner.results()
    }

    fn try_finalize(&mut self) {
        if !self.inner.is_done() || self.answer.is_some() || self.failed {
            return;
        }
        let results = self.inner.results();
        if results.iter().any(|r| r.outcome != OpOutcome::Ok) {
            self.failed = true;
            return;
        }
        let gathered = gather_results(&self.partitions, self.qid, |path| {
            results
                .iter()
                .find(|r| r.path == path)
                .and_then(|r| r.data.as_ref())
                .map(|b| b.to_vec())
        });
        match gathered {
            Some(answer) => self.answer = Some(answer),
            None => self.failed = true,
        }
    }
}

impl scalla_simnet::Node for QservMasterNode {
    fn on_start(&mut self, ctx: &mut dyn scalla_simnet::NetCtx) {
        scalla_simnet::Node::on_start(&mut self.inner, ctx);
    }
    fn on_message(
        &mut self,
        ctx: &mut dyn scalla_simnet::NetCtx,
        from: scalla_proto::Addr,
        msg: scalla_proto::Msg,
    ) {
        scalla_simnet::Node::on_message(&mut self.inner, ctx, from, msg);
        self.try_finalize();
    }
    fn on_timer(&mut self, ctx: &mut dyn scalla_simnet::NetCtx, token: u64) {
        scalla_simnet::Node::on_timer(&mut self.inner, ctx, token);
        self.try_finalize();
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkStore;

    #[test]
    fn path_scheme_roundtrips() {
        assert_eq!(task_path(12, 7), "/chunk/12/task-7");
        assert_eq!(result_path(12, 7), "/chunk/12/result-7");
        assert_eq!(task_partition("/chunk/12/task-7"), Some(12));
        assert_eq!(task_partition("/chunk/12/result-7"), None);
        assert_eq!(task_partition("/data/run1/f.root"), None);
        assert_eq!(result_path_for_task("/chunk/12/task-7"), "/chunk/12/result-7");
    }

    #[test]
    fn scatter_script_shape() {
        let q = Query::CountRange { lo: 15.0, hi: 16.0 };
        let ops = scatter_script(&q, &[1, 2, 3], 9);
        assert_eq!(ops.len(), 6);
        assert!(matches!(&ops[0], ClientOp::Create { path, .. } if path == "/chunk/1/task-9"));
        assert!(matches!(&ops[3], ClientOp::OpenRead { path, .. } if path == "/chunk/1/result-9"));
    }

    #[test]
    fn gather_merges_local_results() {
        let q = Query::CountRange { lo: 15.0, hi: 20.0 };
        let chunks: Vec<ChunkStore> = (0..4).map(|p| ChunkStore::generate(p, 300, 11)).collect();
        let expected: u64 = chunks
            .iter()
            .map(|c| match q.execute(c) {
                QueryResult::Count(n) => n,
                _ => unreachable!(),
            })
            .sum();
        let partitions: Vec<u32> = (0..4).collect();
        let merged = gather_results(&partitions, 1, |path| {
            let p: u32 = task_partition(&path.replacen("/result-", "/task-", 1))?;
            Some(q.execute(&chunks[p as usize]).encode().into_bytes())
        })
        .unwrap();
        assert_eq!(merged, QueryResult::Count(expected));
    }

    #[test]
    fn gather_fails_on_missing_partition() {
        assert_eq!(gather_results(&[0, 1], 1, |_| None), None);
    }
}
