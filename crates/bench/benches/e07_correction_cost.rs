//! E7 — corrections are O(1) per look-up, and the per-window memo
//! (`V_wc`, `C_wn`) reduces them "to practically constant time regardless
//! of the number of location objects in the cache" (§III-A4).
//!
//! Three fetch regimes over a real `ConnectLog`:
//!   clean    — `C_n == N_c`, nothing to do;
//!   memo     — cluster changed, window memo applicable (the common case
//!              thanks to time locality);
//!   computed — cluster changed, memo inapplicable (every object carries a
//!              distinct `C_n`, the worst case the memo removes).

use bench::table;
use scalla_cache::correct::CorrectionKind;
use scalla_cache::{ConnectLog, LocState};
use scalla_util::ServerSet;
use std::time::Instant;

const ITERS: usize = 2_000_000;

fn bench_case(name: &str, mut log: ConnectLog, cns: &[u64], expect: CorrectionKind) -> Vec<String> {
    let vm = ServerSet::first_n(48);
    let mut state = LocState { vh: ServerSet::first_n(8), ..LocState::default() };
    // Warm one pass so the memo (if applicable) exists.
    let mut cn = cns[0];
    log.correct(&mut state, &mut cn, 7, vm);

    let t0 = Instant::now();
    let mut counts = [0u64; 3];
    for i in 0..ITERS {
        let mut state = LocState { vh: ServerSet::first_n(8), ..LocState::default() };
        let mut cn = cns[i % cns.len()];
        match log.correct(&mut state, &mut cn, 7, vm) {
            CorrectionKind::Clean => counts[0] += 1,
            CorrectionKind::MemoHit => counts[1] += 1,
            CorrectionKind::Computed => counts[2] += 1,
        }
    }
    let per_op = t0.elapsed().as_nanos() as f64 / ITERS as f64;
    let dominant = match expect {
        CorrectionKind::Clean => counts[0],
        CorrectionKind::MemoHit => counts[1],
        CorrectionKind::Computed => counts[2],
    };
    assert!(
        dominant as f64 / ITERS as f64 > 0.99,
        "{name}: expected {expect:?} to dominate, got clean={} memo={} computed={}",
        counts[0],
        counts[1],
        counts[2]
    );
    vec![
        name.to_string(),
        format!("{per_op:.1} ns"),
        format!("{:?}", expect),
        format!("{}/{}/{}", counts[0], counts[1], counts[2]),
    ]
}

fn main() {
    println!(
        "E7: fetch-time correction cost (paper: O(1), and ~free with the\n\
         per-window V_wc memo)"
    );

    // Clean: no connects after the objects were stamped.
    let mut clean_log = ConnectLog::new();
    for i in 0..32 {
        clean_log.note_connect(i);
    }
    let clean_cn = clean_log.nc();

    // Memo: all objects share one stale C_n (time locality), two late
    // connects after stamping.
    let mut memo_log = ConnectLog::new();
    for i in 0..32 {
        memo_log.note_connect(i);
    }
    let memo_cn = memo_log.nc();
    memo_log.note_connect(40);
    memo_log.note_connect(41);

    // Computed: objects carry pairwise-distinct C_n values so the memo
    // almost never matches (its cwn changes every fetch).
    let mut comp_log = ConnectLog::new();
    let mut comp_cns = Vec::new();
    for i in 0..48u8 {
        comp_log.note_connect(i % 64);
        comp_cns.push(comp_log.nc());
    }
    comp_log.note_connect(50); // ensure cn != nc for all of the above
    comp_cns.pop();

    let rows = vec![
        bench_case("clean (C_n == N_c)", clean_log, &[clean_cn], CorrectionKind::Clean),
        bench_case("memo hit (V_wc reuse)", memo_log, &[memo_cn], CorrectionKind::MemoHit),
        bench_case("computed (scan C[])", comp_log, &comp_cns, CorrectionKind::Computed),
    ];
    table(
        "per-fetch correction cost (2M fetches each)",
        &["regime", "cost/fetch", "kind", "clean/memo/computed"],
        &rows,
    );
    println!(
        "\npaper shape: all three regimes are nanoseconds (O(1) — no dependence\n\
         on cache size); the memo removes the C[] scan so the common dirty case\n\
         costs about the same as a clean fetch."
    );
}
