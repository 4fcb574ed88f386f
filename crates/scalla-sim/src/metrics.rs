//! Aggregation of client records into experiment-grade summaries, plus
//! runtime wire/queue counters for the live and TCP tiers.

use scalla_client::{OpOutcome, OpResult};
use scalla_util::{Histogram, Nanos};

/// Egress-pipeline counters for a real-socket runtime.
///
/// `frames / writes` is the coalescing ratio: how many frames went out per
/// `write` syscall, whichever thread made it. Drops are explicit — the
/// runtime never blocks a protocol thread to avoid them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EgressCounters {
    /// Frames fully written to a socket.
    pub frames: u64,
    /// Write syscalls issued (inline or by a writer thread).
    pub writes: u64,
    /// Frames dropped because a peer's outbound queue was full.
    pub queue_drops: u64,
    /// Frames dropped because the peer was unreachable or stalled past
    /// the write budget.
    pub conn_drops: u64,
    /// Encode buffers served from the reuse pool.
    pub pool_hits: u64,
    /// Encode buffers that had to be freshly allocated.
    pub pool_misses: u64,
    /// Alive→dead peer transitions detected by writer threads.
    pub peer_deaths: u64,
    /// Dead→alive peer transitions (successful backoff probes).
    pub peer_reconnects: u64,
}

impl EgressCounters {
    /// Frames shipped per write syscall (0 when nothing was written).
    pub fn frames_per_write(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.frames as f64 / self.writes as f64
        }
    }

    /// All frames dropped by the egress pipeline.
    pub fn total_drops(&self) -> u64 {
        self.queue_drops + self.conn_drops
    }

    /// Fraction of encode buffers served from the reuse pool
    /// (0 when no buffer was ever requested).
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Per-runtime delivery counters: inbound mailbox overflow per node plus
/// the egress pipeline totals (zero for runtimes without a wire).
#[derive(Clone, Debug, Default)]
pub struct NetCounters {
    /// Frames dropped at each node's inbound mailbox, indexed by address.
    pub mailbox_drops: Vec<u64>,
    /// Outbound pipeline counters (all nodes aggregated).
    pub egress: EgressCounters,
}

impl NetCounters {
    /// Total inbound mailbox drops across all nodes.
    pub fn total_mailbox_drops(&self) -> u64 {
        self.mailbox_drops.iter().sum()
    }

    /// One-line diagnostics row.
    pub fn row(&self) -> String {
        format!(
            "frames={} writes={} frames/write={:.2} queue_drops={} conn_drops={} \
             mailbox_drops={} pool_hit_rate={:.2} peer_deaths={} peer_reconnects={}",
            self.egress.frames,
            self.egress.writes,
            self.egress.frames_per_write(),
            self.egress.queue_drops,
            self.egress.conn_drops,
            self.total_mailbox_drops(),
            self.egress.pool_hit_rate(),
            self.egress.peer_deaths,
            self.egress.peer_reconnects,
        )
    }
}

/// A latency distribution plus outcome counts.
pub struct LatencySummary {
    /// Latency histogram over successful operations.
    pub hist: Histogram,
    /// Completed OK.
    pub ok: u64,
    /// NotFound verdicts.
    pub not_found: u64,
    /// Errors and give-ups.
    pub failed: u64,
    /// Total redirects across OK operations.
    pub redirects: u64,
    /// Total waits across OK operations.
    pub waits: u64,
    /// Total refresh recoveries.
    pub refreshes: u64,
}

impl LatencySummary {
    /// Mean latency of successful operations.
    pub fn mean(&self) -> Nanos {
        self.hist.mean()
    }

    /// Mean redirects per successful operation.
    pub fn mean_redirects(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.redirects as f64 / self.ok as f64
        }
    }

    /// One-line table row.
    pub fn row(&self) -> String {
        format!(
            "ok={} nf={} fail={} mean={} p50={} p99={} hops/op={:.2} waits={} refreshes={}",
            self.ok,
            self.not_found,
            self.failed,
            self.hist.mean(),
            self.hist.median(),
            self.hist.p99(),
            self.mean_redirects(),
            self.waits,
            self.refreshes,
        )
    }
}

/// Summarizes a set of operation records, skipping `<sleep>` entries.
pub fn summarize<'a>(results: impl IntoIterator<Item = &'a OpResult>) -> LatencySummary {
    let mut s = LatencySummary {
        hist: Histogram::new(),
        ok: 0,
        not_found: 0,
        failed: 0,
        redirects: 0,
        waits: 0,
        refreshes: 0,
    };
    for r in results {
        if r.path == "<sleep>" {
            continue;
        }
        match r.outcome {
            OpOutcome::Ok => {
                s.ok += 1;
                s.hist.record(r.latency());
                s.redirects += u64::from(r.redirects);
                s.waits += u64::from(r.waits);
            }
            OpOutcome::NotFound => s.not_found += 1,
            OpOutcome::Error(_) | OpOutcome::GaveUp => s.failed += 1,
        }
        s.refreshes += u64::from(r.refreshes);
    }
    s
}

/// The `p`-quantile of an ascending slice: the sample at index
/// `p × (n − 1)`, rounded to the nearest; 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(outcome: OpOutcome, us: u64, redirects: u32) -> OpResult {
        OpResult {
            op_index: 0,
            path: "/f".into(),
            start: Nanos::ZERO,
            end: Nanos::from_micros(us),
            outcome,
            redirects,
            waits: 0,
            refreshes: 0,
            server: None,
            trace_id: 0,
            entries: Vec::new(),
            data: None,
        }
    }

    #[test]
    fn summary_counts_and_means() {
        let rs = vec![
            result(OpOutcome::Ok, 100, 1),
            result(OpOutcome::Ok, 300, 3),
            result(OpOutcome::NotFound, 5_000_000, 0),
            result(OpOutcome::GaveUp, 0, 0),
        ];
        let s = summarize(&rs);
        assert_eq!(s.ok, 2);
        assert_eq!(s.not_found, 1);
        assert_eq!(s.failed, 1);
        assert_eq!(s.mean(), Nanos::from_micros(200));
        assert!((s.mean_redirects() - 2.0).abs() < 1e-9);
        assert!(s.row().contains("ok=2"));
    }

    #[test]
    fn net_counters_summarize_ratio_and_drops() {
        let c = NetCounters {
            mailbox_drops: vec![0, 3, 1],
            egress: EgressCounters {
                frames: 120,
                writes: 30,
                queue_drops: 2,
                conn_drops: 5,
                pool_hits: 90,
                pool_misses: 10,
                peer_deaths: 2,
                peer_reconnects: 2,
            },
        };
        assert_eq!(c.total_mailbox_drops(), 4);
        assert_eq!(c.egress.total_drops(), 7);
        assert!((c.egress.frames_per_write() - 4.0).abs() < 1e-9);
        let row = c.row();
        assert!(row.contains("frames/write=4.00"), "{row}");
        assert!(row.contains("mailbox_drops=4"), "{row}");
        assert!((c.egress.pool_hit_rate() - 0.9).abs() < 1e-9);
        // Degenerate case: nothing written yet.
        assert_eq!(EgressCounters::default().frames_per_write(), 0.0);
    }

    #[test]
    fn row_survives_all_zero_pool_counters() {
        // Frames moved but the buffer pool was never touched: the hit-rate
        // denominator is zero and must not divide.
        let c = NetCounters {
            mailbox_drops: vec![0, 0],
            egress: EgressCounters { frames: 10, writes: 10, ..Default::default() },
        };
        assert_eq!(c.egress.pool_hit_rate(), 0.0);
        let row = c.row();
        assert!(row.contains("pool_hit_rate=0.00"), "{row}");
        assert!(row.contains("frames=10"), "{row}");
    }

    #[test]
    fn sleeps_are_excluded() {
        let mut r = result(OpOutcome::Ok, 1_000_000, 0);
        r.path = "<sleep>".into();
        let s = summarize(&[r]);
        assert_eq!(s.ok, 0);
        assert_eq!(s.hist.count(), 0);
    }
}
