//! The metric names, units, directions and bounds. `BENCHMARK.json` at
//! the repository root mirrors this table (a test compares them).

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
}

/// What a user of the cluster sees, per workload. Failures are not a
/// metric here because a healthy run has none and the contract wants
/// metrics that are never 0: they are the `failed` / `attempted` counts
/// of every result line, and any failure makes the run incorrect.
///
/// The timing bounds are as wide as the contract allows because the
/// sizing box is that noisy: over ten runs the quartiles of a timing
/// metric sit 4–15 % of the median apart (README, "How steady"), and a
/// bound must stay above the spread to mean anything.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "ops_per_s", unit: "ops/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "op_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "rss_mb", unit: "MiB", better: Better::Lower, bound: 0.10 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Single-layer numbers, from three sources: counters the program keeps
/// (deltas over the measured phase), spans of the traced repetitions,
/// and the isolated pass. Layers are the crate names.
pub const PER_LAYER: [PerLayer; 53] = [
    // The latency tail: measured untraced like the end-to-end metrics,
    // but host interference lands in the tail first, and on the sizing
    // box the quartiles of p95 and p99 sit 6–18 % of the median apart
    // (p99 44 % in one bad quarter of an hour) — no bound the contract
    // allows stays three spreads clear of that. They are reported here,
    // where no bound applies; a claim about the tail needs paired runs.
    layer("e2e.op_p95_us", "us", Lower),
    layer("e2e.op_p99_us", "us", Lower),
    // Traced repetitions: total callback time per layer, and the
    // blocking chain of each operation.
    layer("client.busy_us_per_op", "us", Lower),
    layer("node.cmsd_busy_us_per_op", "us", Lower),
    layer("node.server_busy_us_per_op", "us", Lower),
    layer("pcache.proxy_busy_us_per_op", "us", Lower),
    layer("sim.transit_us_per_op", "us", Lower),
    layer("sim.hop_p50_us", "us", Lower),
    layer("sim.hop_p99_us", "us", Lower),
    layer("sim.hops_per_op", "count", Lower),
    layer("trace.path_busy_us_per_op", "us", Lower),
    layer("trace.op_mean_us", "us", Lower),
    layer("trace.unattributed_pct", "%", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // Counters.
    layer("sim.frames_per_op", "count", Lower),
    layer("sim.frames_per_write", "count", Higher),
    layer("sim.queue_drops", "count", Lower),
    layer("sim.mailbox_drops", "count", Lower),
    layer("proto.pool_hit_rate", "ratio", Higher),
    layer("client.redirects_per_op", "count", Lower),
    layer("client.waits_per_op", "count", Lower),
    layer("client.refreshes_per_op", "count", Lower),
    layer("cache.hit_rate", "ratio", Higher),
    layer("cache.creates_per_op", "count", Lower),
    layer("cache.fast_releases_per_op", "count", Higher),
    layer("cache.queue_timeouts", "count", Lower),
    layer("cache.resizes", "count", Lower),
    layer("lcache.hit_rate", "ratio", Higher),
    layer("lcache.purges_stale", "count", Lower),
    layer("pcache.hit_rate", "ratio", Higher),
    layer("pcache.fills_per_op", "count", Lower),
    layer("pcache.evictions", "count", Lower),
    // Isolated pass: one entry point in a loop, minimum over batches.
    layer("proto.encode_open_ns", "ns", Lower),
    layer("proto.decode_open_ns", "ns", Lower),
    layer("proto.encode_data64k_ns", "ns", Lower),
    layer("proto.decode_data64k_ns", "ns", Lower),
    layer("util.crc32_path_ns", "ns", Lower),
    layer("cache.resolve_hit_ns", "ns", Lower),
    layer("cache.update_have_ns", "ns", Lower),
    layer("cache.resolve_miss_ns", "ns", Lower),
    layer("cluster.select_ns", "ns", Lower),
    layer("node.cmsd_open_hit_ns", "ns", Lower),
    layer("node.server_open_read4k_close_ns", "ns", Lower),
    layer("node.admission_check_ns", "ns", Lower),
    layer("client.driver_op_ns", "ns", Lower),
    layer("lcache.insert_ns", "ns", Lower),
    layer("lcache.lookup_hit_ns", "ns", Lower),
    layer("pcache.insert_ns", "ns", Lower),
    layer("pcache.get_hit_ns", "ns", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("sim.live_rtt_us", "us", Lower),
    layer("sim.tcp_rtt_us", "us", Lower),
    layer("sim.tcp_burst_frames_per_s", "1/s", Higher),
];

/// `(unit, direction)` of a metric of either table.
pub fn describe(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, ..)| *n == name)
        .map(|(_, unit, better)| (unit, better))
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

pub fn unit_of(name: &str) -> &'static str {
    describe(name).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::WORKLOADS;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} in {row:?}"))
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let m = manifest();
        let e2e = m.get("end_to_end").expect("end_to_end").items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (row, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(row, "name"), def.name);
            assert_eq!(field(row, "unit"), def.unit);
            assert_eq!(field(row, "better"), def.better.as_str());
            assert_eq!(row.get("bound").and_then(Json::as_f64), Some(def.bound), "{}", def.name);
            assert!(def.bound <= 0.25);
        }
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        let layers = m.get("per_layer").expect("per_layer").items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (row, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(row, "name"), def.name);
            assert_eq!(field(row, "unit"), def.unit);
            assert_eq!(field(row, "better"), def.better.as_str());
        }
        let workloads = m.get("workloads").expect("workloads").items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (row, def) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(row, "name"), def.name);
            assert_eq!(field(row, "why"), def.why);
            assert!(def.why.len() <= 200 && !def.why.contains('\n'), "{}", def.name);
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for name in &names {
            assert!(name.len() <= 64);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit_of(name).len() <= 16);
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used once");
    }
}
