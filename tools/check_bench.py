#!/usr/bin/env python3
"""Validates a BENCH_<kind>.json artifact: schema plus the acceptance
conditions of the bench that wrote it.

Usage: python3 tools/check_bench.py <kind> <file> [--smoke]

  kind      written by
  tcp       cargo bench -p bench --bench tcp_wire
  obs       cargo bench -p bench --bench obs_overhead
  chaos     cargo run --example chaos_run
  overload  cargo run --example overload_run
  pcache    cargo run --example pcache_run
  lcache    cargo run --example lcache_run
  monitor   cargo run --example monitor_run

--smoke is for the scaled-down CI runs. It relaxes only what a tiny run
on a shared runner cannot show (tcp: bursts may not coalesce; obs and
monitor: a few percent of overhead is below the noise floor, see
KNOWN_FAILURES.md) and the sweep sizes (chaos, overload: one seed
instead of three). pcache and lcache check the same conditions in both
modes. The schema always holds.

Every file names the clock its figures come from: "wall" for tcp, obs and
monitor (whose aggregation lag and span tree are still simulator time),
"virtual" for the four that run on the simulator's clock alone.
"""
import json
import sys

NUM = (int, float)
ANY = object
KIND = "?"


def fail(msg: str) -> None:
    sys.exit(f"check_bench[{KIND}]: FAIL: {msg}")


def ok(mode: str, msg: str) -> None:
    print(f"check_bench[{KIND}]: OK ({mode}): {msg}")


def check_keys(obj: dict, spec: dict, where: str) -> None:
    for key, typ in spec.items():
        if key not in obj:
            fail(f"{where}: missing key {key!r}")
        if not isinstance(obj[key], typ):
            fail(f"{where}.{key}: expected {typ}, got {type(obj[key]).__name__}")


def check_header(doc: dict, bench: str, clock: str) -> None:
    check_keys(doc, {"bench": str, "mode": str, "clock": str}, "top")
    if doc["bench"] != bench:
        fail(f"bench is {doc['bench']!r}, expected {bench!r}")
    if doc["mode"] not in ("smoke", "full"):
        fail(f"mode is {doc['mode']!r}")
    if doc["clock"] != clock:
        fail(f"clock is {doc['clock']!r}, expected {clock!r}")


def check_latency(lat: dict, where: str) -> None:
    check_keys(lat, {"p50": NUM, "p99": NUM}, where)
    if not 0 < lat["p50"] <= lat["p99"]:
        fail(f"{where}: percentiles out of order: {lat}")


def check_soak(run: dict, where: str) -> None:
    """One seeded fault soak: every op terminated, cache invariant held."""
    check_keys(
        run,
        {
            "seed": int,
            "ops_total": int,
            "ops_terminated": int,
            "invariant_checked": int,
            "invariant_violations": int,
        },
        where,
    )
    if run["ops_terminated"] != run["ops_total"]:
        fail(
            f"{where} (seed {run['seed']}): only"
            f" {run['ops_terminated']}/{run['ops_total']} ops terminated"
        )
    if run["invariant_checked"] < 1:
        fail(f"{where}: no cache entries audited")
    if run["invariant_violations"] != 0:
        fail(f"{where} (seed {run['seed']}): {run['invariant_violations']} invariant violations")


EGRESS_KEYS = {
    "frames": int,
    "writes": int,
    "frames_per_write": NUM,
    "queue_drops": int,
    "conn_drops": int,
    "pool_hits": int,
    "pool_misses": int,
}


def check_tcp(doc: dict, smoke: bool) -> None:
    check_header(doc, "tcp_wire", "wall")
    check_keys(doc, {"burst": dict, "frames_per_syscall": NUM}, "top")
    burst = doc["burst"]
    check_keys(
        burst,
        {"senders": int, "expected_frames": int, "egress": dict, "wire_msgs_per_sec": NUM},
        "burst",
    )
    check_keys(burst["egress"], EGRESS_KEYS, "burst.egress")

    drops = burst["egress"]["queue_drops"] + burst["egress"]["conn_drops"]
    if burst["egress"]["frames"] + drops < burst["expected_frames"]:
        fail(
            f"burst frames unaccounted for: {burst['egress']['frames']} written"
            f" + {drops} dropped < {burst['expected_frames']} expected"
        )
    # Tiny smoke bursts on a loaded shared runner may not coalesce.
    ratio = doc["frames_per_syscall"]
    floor = 1.0 if smoke else 1.0000001
    if not ratio >= floor:
        fail(f"frames_per_syscall {ratio} not {'>=' if smoke else '>'} 1.0 ({doc['mode']} mode)")
    ok(
        doc["mode"],
        f"{burst['egress']['frames']}/{burst['expected_frames']} burst frames written,"
        f" coalescing {ratio:.2f} frames/syscall",
    )


def check_obs(doc: dict, smoke: bool) -> None:
    check_header(doc, "obs_overhead", "wall")
    check_keys(
        doc,
        {
            "entries": int,
            "iters_per_batch": int,
            "pairs": int,
            "sample_every": int,
            "noop_ns_per_op": NUM,
            "instrumented_ns_per_op": NUM,
            "overhead_pct": NUM,
            "resolve_samples_recorded": int,
        },
        "top",
    )
    if doc["noop_ns_per_op"] <= 0 or doc["instrumented_ns_per_op"] <= 0:
        fail("ns/op must be positive")
    if doc["resolve_samples_recorded"] <= 0:
        fail("instrumented run recorded no resolve samples")
    if doc["sample_every"] < 1:
        fail(f"bad sample_every: {doc['sample_every']}")
    # The overhead budget is only meaningful at full scale; smoke batches
    # are too small to measure a few percent on a shared runner.
    bound = 50.0 if smoke else 5.0
    if doc["overhead_pct"] >= bound:
        fail(f"obs overhead {doc['overhead_pct']:.2f}% >= {bound}% ({doc['mode']} mode)")
    ok(
        doc["mode"],
        f"obs overhead {doc['overhead_pct']:+.2f}% ({doc['noop_ns_per_op']:.0f} ->"
        f" {doc['instrumented_ns_per_op']:.0f} ns/op,"
        f" {doc['resolve_samples_recorded']} samples)",
    )


CHAOS_PROFILES = {"crash_restart", "partition_heal", "loss_burst", "overload_storm"}


def check_recovery(rec: dict, where: str) -> None:
    check_keys(rec, {"samples": int, "p50": NUM, "p95": NUM, "max": NUM}, where)
    if rec["samples"] < 0:
        fail(f"{where}: negative sample count")
    if rec["samples"] == 0:
        if any(rec[k] != 0 for k in ("p50", "p95", "max")):
            fail(f"{where}: nonzero percentiles with zero samples")
    elif not 0 < rec["p50"] <= rec["p95"] <= rec["max"]:
        fail(f"{where}: percentiles out of order: {rec}")


def check_chaos(doc: dict, smoke: bool) -> None:
    """Every profile swept, every op terminated, the structural invariant
    never violated, every `peer_dead` paired with a `peer_reconnected`."""
    check_header(doc, "chaos", "virtual")
    check_keys(doc, {"all_terminated": bool, "recovery_ms": dict, "plans": list}, "top")
    if not doc["all_terminated"]:
        fail("a chaos plan left client ops unterminated")
    check_recovery(doc["recovery_ms"], "top.recovery_ms")

    expect_plans = len(CHAOS_PROFILES) * (1 if smoke else 3)
    if len(doc["plans"]) != expect_plans:
        fail(f"expected {expect_plans} plans, got {len(doc['plans'])}")
    seen = set()
    detected = 0
    for i, plan in enumerate(doc["plans"]):
        where = f"plans[{i}]"
        check_keys(
            plan,
            {"profile": str, "peer_dead": int, "peer_reconnected": int, "recovery_ms": dict},
            where,
        )
        if plan["profile"] not in CHAOS_PROFILES:
            fail(f"{where}: unknown profile {plan['profile']!r}")
        seen.add(plan["profile"])
        check_soak(plan, f"{where} ({plan['profile']})")
        if plan["peer_dead"] != plan["peer_reconnected"]:
            fail(
                f"{where} ({plan['profile']}/{plan['seed']}): unpaired recovery"
                f" events, {plan['peer_dead']} dead vs"
                f" {plan['peer_reconnected']} reconnected"
            )
        detected += plan["peer_dead"]
        check_recovery(plan["recovery_ms"], f"{where}.recovery_ms")
    if seen != CHAOS_PROFILES:
        fail(f"profiles missing from the sweep: {sorted(CHAOS_PROFILES - seen)}")
    if detected < 1:
        fail("no plan exercised the death/reconnect path")
    rec = doc["recovery_ms"]
    if rec["samples"] < 1:
        fail("no recovery windows were measured")
    ok(
        doc["mode"],
        f"{len(doc['plans'])} plans, all ops terminated, 0 invariant violations,"
        f" {detected} death/reconnect pairs, recovery p50 {rec['p50']:.0f} ms /"
        f" p95 {rec['p95']:.0f} ms over {rec['samples']} windows",
    )


OVERLOAD_RATIOS = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
# No collapse: past nominal capacity, every point keeps this share of the
# best goodput at any lower ratio.
MIN_GOODPUT_VS_LOWER = 0.8
MIN_FAIRNESS_AT_2X = 0.5


def check_overload(doc: dict, smoke: bool) -> None:
    """The paper's response-queue Wait under overload: ops conserved at
    every load point (no silent drops), none given up, goodput at every
    ratio >= 1 within 80 % of the best at a lower ratio (saturation, not
    collapse), Waits at 3x, fairness at 2x above 0.5, every OverloadStorm
    soak clean."""
    check_header(doc, "overload", "virtual")
    check_keys(
        doc,
        {
            "capacity_ops_per_sec": NUM,
            "peak_goodput_ops_per_sec": NUM,
            "goodput_at_2x_ops_per_sec": NUM,
            "goodput_ratio_at_2x": NUM,
            "p99_ms_at_2x": NUM,
            "fairness_at_2x": NUM,
            "curve": list,
            "storm": list,
        },
        "top",
    )
    ratios = [p.get("ratio") for p in doc["curve"]]
    if ratios != OVERLOAD_RATIOS:
        fail(f"curve must sweep ratios {OVERLOAD_RATIOS}, got {ratios}")
    best_below = 0.0
    for i, p in enumerate(doc["curve"]):
        where = f"curve[{i}]"
        check_keys(
            p,
            {
                "ratio": NUM,
                "offered": int,
                "completed": int,
                "gave_up": int,
                "waits": int,
                "goodput_ops_per_sec": NUM,
                "p50_ms": NUM,
                "p99_ms": NUM,
                "fairness": NUM,
            },
            where,
        )
        if p["offered"] < 1:
            fail(f"{where}: empty load point")
        # Conservation: every offered op terminates as exactly one of
        # completed / gave up. Anything else is a silent drop.
        if p["completed"] + p["gave_up"] != p["offered"]:
            fail(
                f"{where} (ratio {p['ratio']}): ops not conserved,"
                f" {p['completed']} completed + {p['gave_up']} gave up"
                f" != {p['offered']} offered"
            )
        if p["gave_up"] != 0:
            fail(f"{where} (ratio {p['ratio']}): {p['gave_up']} ops gave up")
        if p["goodput_ops_per_sec"] <= 0:
            fail(f"{where}: no goodput measured")
        if not 0 < p["p50_ms"] <= p["p99_ms"]:
            fail(f"{where}: percentiles out of order: {p['p50_ms']} / {p['p99_ms']}")
        if not 0 <= p["fairness"] <= 1:
            fail(f"{where}: fairness {p['fairness']} outside [0, 1]")
        if p["ratio"] >= 1 and p["goodput_ops_per_sec"] < MIN_GOODPUT_VS_LOWER * best_below:
            fail(
                f"congestion collapse at {p['ratio']}x: goodput"
                f" {p['goodput_ops_per_sec']:.2f} is below {MIN_GOODPUT_VS_LOWER}"
                f" of the best at a lower ratio ({best_below:.2f})"
            )
        best_below = max(best_below, p["goodput_ops_per_sec"])

    at_3x = next(p for p in doc["curve"] if p["ratio"] == 3.0)
    if at_3x["waits"] < 1:
        fail("the sweep never drove the response queue full: no waits at 3x")

    at_2x = next(p for p in doc["curve"] if p["ratio"] == 2.0)
    peak = max(p["goodput_ops_per_sec"] for p in doc["curve"])
    ratio_2x = at_2x["goodput_ops_per_sec"] / peak
    if abs(ratio_2x - doc["goodput_ratio_at_2x"]) > 0.01:
        fail(
            f"top.goodput_ratio_at_2x {doc['goodput_ratio_at_2x']} disagrees"
            f" with the curve ({ratio_2x:.4f})"
        )
    if doc["fairness_at_2x"] < MIN_FAIRNESS_AT_2X:
        fail(
            f"unfair waits at 2x: min/max client completion ratio"
            f" {doc['fairness_at_2x']:.2f} (need >= {MIN_FAIRNESS_AT_2X})"
        )

    expect_storms = 1 if smoke else 3
    if len(doc["storm"]) != expect_storms:
        fail(f"expected {expect_storms} storm seeds, got {len(doc['storm'])}")
    for i, storm in enumerate(doc["storm"]):
        check_soak(storm, f"storm[{i}]")
    ok(
        doc["mode"],
        f"{len(doc['curve'])} load points conserved with no give-ups, no"
        f" collapse past capacity, {at_3x['waits']} waits at 3x, fairness"
        f" {doc['fairness_at_2x']:.2f}, {len(doc['storm'])} storm seed(s) clean",
    )


def check_pcache(doc: dict, smoke: bool) -> None:
    """The hit-rate curve starts cold and converges (final round >= 90 %
    hits, above the first), warm reads beat cold reads at the median, every
    file ended fully cached, the origin was crossed only for fills."""
    check_header(doc, "pcache", "virtual")
    check_keys(
        doc,
        {
            "block_size": int,
            "file_size": int,
            "files": int,
            "rounds": int,
            "hit_rate_curve": list,
            "cold_read_ns": dict,
            "warm_read_ns": dict,
            "warm_speedup": NUM,
            "origin_bytes": int,
            "cache_bytes": int,
            "fills": int,
            "evictions": int,
            "fully_cached_files": int,
        },
        "top",
    )
    check_latency(doc["cold_read_ns"], "cold_read_ns")
    check_latency(doc["warm_read_ns"], "warm_read_ns")

    curve = doc["hit_rate_curve"]
    if len(curve) != doc["rounds"]:
        fail(f"curve has {len(curve)} points for {doc['rounds']} rounds")
    if doc["rounds"] < 2:
        fail("need at least a cold round and one warm round")
    for i, r in enumerate(curve):
        if not isinstance(r, NUM) or not 0.0 <= r <= 1.0:
            fail(f"hit_rate_curve[{i}] out of range: {r!r}")
    if curve[0] > 0.5:
        fail(f"first round should be cold, hit rate {curve[0]:.3f}")
    if curve[-1] < 0.9:
        fail(f"hit rate failed to converge: final round {curve[-1]:.3f}")
    if curve[-1] <= curve[0]:
        fail(f"hit rate must rise across rounds: {curve[0]:.3f} -> {curve[-1]:.3f}")

    if doc["warm_read_ns"]["p50"] >= doc["cold_read_ns"]["p50"]:
        fail(
            f"warm p50 {doc['warm_read_ns']['p50']:.0f} ns not faster than"
            f" cold p50 {doc['cold_read_ns']['p50']:.0f} ns"
        )
    if doc["warm_speedup"] <= 1.0:
        fail(f"warm_speedup {doc['warm_speedup']} must exceed 1")

    total = doc["files"] * doc["file_size"]
    if doc["origin_bytes"] != total:
        fail(f"origin bytes {doc['origin_bytes']} != one cold pass over {total}")
    if doc["cache_bytes"] < total * (doc["rounds"] - 1):
        fail(
            f"cache bytes {doc['cache_bytes']} below the"
            f" {doc['rounds'] - 1} warm passes over {total}"
        )
    if doc["fills"] * doc["block_size"] < total:
        fail(f"{doc['fills']} fills of {doc['block_size']} B can't cover {total} B")
    if doc["evictions"] < 0:
        fail("negative evictions")
    if doc["fully_cached_files"] != doc["files"]:
        fail(f"only {doc['fully_cached_files']}/{doc['files']} files fully cached and advertised")
    ok(
        doc["mode"],
        f"{doc['files']} files x {doc['rounds']} rounds, hit rate"
        f" {curve[0]:.2f} -> {curve[-1]:.2f}, warm p50"
        f" {doc['warm_read_ns']['p50'] / 1e3:.0f} us vs cold"
        f" {doc['cold_read_ns']['p50'] / 1e3:.0f} us"
        f" ({doc['warm_speedup']:.1f}x), {doc['fills']} fills,"
        f" {doc['evictions']} evictions",
    )


LCACHE_SPEEDUP_FLOOR = 2.0


def check_lcache(doc: dict, smoke: bool) -> None:
    """Warm opens on a live lease beat the uncached redirector walk by >= 2x
    at the median, the no-fault control served nothing past its lease
    deadline, every direct hit is one redirector round trip avoided, the
    Zipf workload hits the cache, and chaos never turned staleness into
    wrong answers (fallbacks are allowed, stale service is not)."""
    check_header(doc, "lcache", "virtual")
    check_keys(
        doc,
        {
            "files": int,
            "warm_reps": int,
            "warm_open_ns": dict,
            "uncached_open_ns": dict,
            "warm_speedup": NUM,
            "direct_hits": int,
            "redirect_rtts_avoided": int,
            "control_stale_served": int,
            "zipf_opens": int,
            "zipf_ok": int,
            "zipf_hit_rate": NUM,
            "chaos_ops": int,
            "chaos_ok": int,
            "chaos_stale_fallbacks": int,
            "chaos_stale_served": int,
        },
        "top",
    )
    check_latency(doc["warm_open_ns"], "warm_open_ns")
    check_latency(doc["uncached_open_ns"], "uncached_open_ns")

    if doc["warm_speedup"] < LCACHE_SPEEDUP_FLOOR:
        fail(
            f"warm_speedup {doc['warm_speedup']:.3f} below the"
            f" {LCACHE_SPEEDUP_FLOOR}x acceptance floor"
        )
    ratio = doc["uncached_open_ns"]["p50"] / doc["warm_open_ns"]["p50"]
    if abs(ratio - doc["warm_speedup"]) > 0.05 * max(ratio, doc["warm_speedup"]):
        fail(f"warm_speedup {doc['warm_speedup']:.3f} inconsistent with p50 ratio {ratio:.3f}")

    if doc["control_stale_served"] != 0:
        fail(f"control run served {doc['control_stale_served']} ops stale")
    if doc["chaos_stale_served"] != 0:
        fail(f"chaos run served {doc['chaos_stale_served']} ops stale")
    if doc["chaos_stale_fallbacks"] < 0:
        fail("negative fallback count")
    if doc["chaos_ok"] != doc["chaos_ops"]:
        fail(f"chaos ops lost: {doc['chaos_ok']}/{doc['chaos_ops']} ok")

    if doc["direct_hits"] != doc["redirect_rtts_avoided"]:
        fail(f"{doc['direct_hits']} direct hits != {doc['redirect_rtts_avoided']} RTTs avoided")
    expected_warm = doc["files"] * doc["warm_reps"]
    if doc["direct_hits"] < expected_warm:
        fail(
            f"only {doc['direct_hits']} direct hits for"
            f" {expected_warm} warm opens — leases not riding"
        )

    if doc["zipf_ok"] != doc["zipf_opens"]:
        fail(f"zipf ops lost: {doc['zipf_ok']}/{doc['zipf_opens']} ok")
    if not 0.0 <= doc["zipf_hit_rate"] <= 1.0:
        fail(f"zipf_hit_rate out of range: {doc['zipf_hit_rate']}")
    if doc["zipf_hit_rate"] < 0.5:
        fail(
            f"zipf hit rate {doc['zipf_hit_rate']:.3f} below 0.5 — the"
            " popularity head is not staying leased"
        )
    ok(
        doc["mode"],
        f"warm p50 {doc['warm_open_ns']['p50'] / 1e3:.0f} us vs uncached"
        f" {doc['uncached_open_ns']['p50'] / 1e3:.0f} us"
        f" ({doc['warm_speedup']:.1f}x, floor {LCACHE_SPEEDUP_FLOOR}x),"
        f" zipf hit rate {doc['zipf_hit_rate']:.2f},"
        f" chaos {doc['chaos_ok']}/{doc['chaos_ops']} ok with"
        f" {doc['chaos_stale_fallbacks']} fallbacks, 0 served stale",
    )


MONITOR_STAGES = ["client_op", "cms_resolve", "srv_open", "pcache_fill"]


def check_monitor(doc: dict, smoke: bool) -> None:
    """Node-side monitoring overhead under the 5 % budget (full mode only;
    the collector's own aggregation CPU is reported separately, it runs on
    a dedicated node in a real deployment), aggregation lag within two
    reporting intervals, a complete cold-pcache-read span tree, and a
    >= 6-node merged view with zero unhealed sequence gaps."""
    check_header(doc, "monitor", "wall")
    keys = [
        "interval_ms",
        "reps",
        "baseline_wall_ns",
        "monitored_wall_ns",
        "node_wall_ns",
        "collector_apply_ns",
        "emit_ns",
        "overhead_pct",
        "total_overhead_pct",
        "budget_pct",
        "aggregation_lag_ns",
        "lag_bound_ns",
        "nodes",
        "summaries",
        "seq_gaps",
        "span_tree",
    ]
    check_keys(doc, dict.fromkeys(keys, ANY), "top")
    tree = doc["span_tree"]
    tree_keys = ["trace", "class", "stages", "complete", "total_ns", "critical_path"]
    check_keys(tree, dict.fromkeys(tree_keys, ANY), "span_tree")

    mode = doc["mode"]
    if smoke and mode != "smoke":
        fail(f"--smoke given but bench mode is {mode!r}")
    if not smoke and mode != "full":
        fail(f"bench mode is {mode!r}; CI asserts the budget on full runs only")

    if doc["nodes"] < 6:
        fail(f"merged view has {doc['nodes']} nodes, need a >=6-node cluster")
    if doc["seq_gaps"] != 0:
        fail(f"{doc['seq_gaps']} unhealed sequence gaps on a lossless network")
    if doc["summaries"] < doc["nodes"]:
        fail(f"only {doc['summaries']} summaries from {doc['nodes']} nodes")
    if doc["reps"] < 3:
        fail(f"{doc['reps']} reps is too few for a min-of-reps comparison")
    for k in ("baseline_wall_ns", "monitored_wall_ns", "node_wall_ns"):
        if doc[k] <= 0:
            fail(f"{k} = {doc[k]}")
    if doc["node_wall_ns"] > doc["monitored_wall_ns"]:
        fail("node_wall_ns exceeds monitored_wall_ns")

    lag, bound = doc["aggregation_lag_ns"], doc["lag_bound_ns"]
    if bound != 2 * doc["interval_ms"] * 1_000_000:
        fail(f"lag bound {bound} is not 2 reporting intervals")
    if lag > bound:
        fail(f"aggregation lag {lag / 1e6:.1f} ms exceeds bound {bound / 1e6:.1f} ms")

    if tree["class"] != "cold_pcache_read":
        fail(f"span tree classified {tree['class']!r}, expected cold_pcache_read")
    missing = [s for s in MONITOR_STAGES if s not in tree["stages"]]
    if missing:
        fail(f"span tree missing hops: {missing} (stages: {tree['stages']})")
    if not tree["complete"]:
        fail("bench reports span_tree.complete = false")
    if tree["total_ns"] <= 0:
        fail(f"span tree total_ns = {tree['total_ns']}")
    if "pcache_fill" not in tree["critical_path"]:
        fail("critical path breakdown lacks pcache_fill")
    for stage, entry in tree["critical_path"].items():
        if not 0.0 <= entry["share"] <= 1.0:
            fail(f"stage {stage!r} share {entry['share']} outside [0, 1]")

    overhead, budget = doc["overhead_pct"], doc["budget_pct"]
    facts = f"lag {lag / 1e6:.1f} ms <= {bound / 1e6:.0f} ms, {doc['nodes']} nodes, span tree complete"
    if smoke:
        ok(mode, f"{facts} (overhead {overhead:.2f}% reported, budget not asserted)")
        return
    if overhead >= budget:
        fail(f"node-side overhead {overhead:.2f}% >= budget {budget}%")
    ok(
        mode,
        f"overhead {overhead:.2f}% < {budget}% (collector apply"
        f" {doc['collector_apply_ns'] / 1e6:.1f} ms reported separately), {facts}",
    )


CHECKS = {
    "tcp": check_tcp,
    "obs": check_obs,
    "chaos": check_chaos,
    "overload": check_overload,
    "pcache": check_pcache,
    "lcache": check_lcache,
    "monitor": check_monitor,
}


def main() -> None:
    global KIND
    args = [a for a in sys.argv[1:] if a != "--smoke"]
    if len(args) != 2 or args[0] not in CHECKS:
        sys.exit(f"usage: check_bench.py {{{'|'.join(CHECKS)}}} <file> [--smoke]")
    KIND, path = args
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(doc, dict):
        fail(f"{path}: not a JSON object")
    CHECKS[KIND](doc, "--smoke" in sys.argv[1:])


if __name__ == "__main__":
    main()
