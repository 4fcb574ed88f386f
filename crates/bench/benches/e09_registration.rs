//! E9 — "node registration and deregistration are extremely light
//! operations … In GFS, node registration is more expensive since the
//! incoming server must transmit its entire manifest to the master."
//! Early manifest-based Scalla prototypes saw "long delays (minutes for a
//! single server)" (§V).
//!
//! We measure both join protocols as the server's file count grows:
//! message bytes on the wire (encoded with the real codec) and modeled
//! time-to-ready (transfer + master-side ingest for the manifest; one
//! round trip for the prefix login).

use bench::table;
use bytes::BytesMut;
use scalla_baseline::GfsMasterNode;
use scalla_proto::{encode_msg, CmsMsg, NodeRoleTag};
use scalla_util::Nanos;

fn login_bytes(prefixes: usize) -> usize {
    let msg = CmsMsg::Login {
        name: "srv-042.slac.stanford.edu".into(),
        role: NodeRoleTag::Server,
        exports: (0..prefixes).map(|i| format!("/store/data/set{i}")).collect(),
    }
    .into();
    let mut buf = BytesMut::new();
    encode_msg(&msg, &mut buf);
    buf.len()
}

fn manifest_bytes(files: usize) -> usize {
    let msg = CmsMsg::Manifest {
        name: "srv-042.slac.stanford.edu".into(),
        files: (0..files)
            .map(|i| format!("/store/data/run{:05}/events-{:07}.root", i / 500, i % 500))
            .collect(),
    }
    .into();
    let mut buf = BytesMut::new();
    encode_msg(&msg, &mut buf);
    buf.len()
}

fn main() {
    println!(
        "E9: join cost — Scalla prefix login vs GFS-style manifest upload\n\
         (paper: light operation vs 'minutes for a single server')"
    );
    let master = GfsMasterNode::new();
    let scalla_bytes = login_bytes(2);
    // Scalla ready time: one login round trip on a 25 us LAN.
    let scalla_ready = Nanos::from_micros(50);

    let mut rows = Vec::new();
    for &files in &[1_000usize, 10_000, 100_000, 1_000_000] {
        // Encoding a million-entry manifest really allocates it; cap the
        // byte measurement at 100k and extrapolate linearly above.
        let mbytes = if files <= 100_000 {
            manifest_bytes(files)
        } else {
            manifest_bytes(100_000) * (files / 100_000)
        };
        let ready = master.ingest_delay(files);
        rows.push(vec![
            files.to_string(),
            format!("{scalla_bytes} B"),
            format!("{scalla_ready}"),
            format!("{:.2} MB", mbytes as f64 / 1e6),
            format!("{ready}"),
            format!("{:.0}x", ready.0 as f64 / scalla_ready.0 as f64),
        ]);
    }
    table(
        "one server joining (2 export prefixes vs full manifest)",
        &[
            "files on server",
            "scalla bytes",
            "scalla ready",
            "manifest bytes",
            "manifest ready",
            "ready ratio",
        ],
        &rows,
    );
    println!(
        "\npaper shape: the Scalla join is constant (~{scalla_bytes} bytes, one round\n\
         trip) regardless of file count; the manifest join grows linearly in both\n\
         bytes and ingest time, reaching the paper's minutes-per-server regime at\n\
         production file counts."
    );
}
