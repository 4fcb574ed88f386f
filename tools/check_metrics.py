#!/usr/bin/env python3
"""Parses the output of `cargo run --example obs_dump` (piped on stdin)
and validates the `/metrics` section as Prometheus text exposition:

* every comment line is `# HELP` or `# TYPE`;
* every sample line is `name[{labels}] value` with a finite numeric
  value and a well-formed metric name, and no series appears twice (in
  `/metrics` or in `/cluster`);
* every histogram sample (`_bucket`/`_sum`/`_count`) belongs to a family
  announced by a `# TYPE ... histogram` line, each histogram series'
  `_bucket` values never decrease in `le` order, and its `+Inf` bucket
  equals its `_count`;
* the per-stage latency histograms are present and the resolve and
  redirect-hop stages recorded at least one sample;
* the edge-location-cache families are exported: the repeat open rode a
  live lease (a direct hit and a cached lookup), the miss/expired and
  purge-reason series exist even at zero, and nothing was served stale;
* the `/stats` section is valid JSON;
* the `/flight` section carries at least one span line;
* the `/cluster` section is a well-formed merged-view exposition (its
  `scalla_cluster_counter_*` samples deliberately embed the original
  series name, so their `# TYPE scalla_cluster_counter` header covers
  the whole family rather than each sample name — a dedicated check
  instead of the generic one above);
* the `/cluster.json` section carries the merged rollups;
* in `/cluster` and `/cluster.json`, every stage's merged quantiles are
  ordered: p50 <= p99 <= p999.

Usage: cargo run --example obs_dump | python3 tools/check_metrics.py
"""
import json
import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})? (?P<value>\S+)$")
SPAN_RE = re.compile(r"^trace=[0-9a-f]{16} node=\d+ stage=\S+")
LABEL_RE = re.compile(r'([a-zA-Z_]\w*)="((?:[^"\\]|\\.)*)"')


def fail(msg: str) -> None:
    sys.exit(f"check_metrics: FAIL: {msg}")


def split_sections(text: str) -> dict:
    sections, current = {}, None
    for line in text.splitlines():
        m = re.match(r"^== (/[\w.]+) ==$", line)
        if m:
            current = m.group(1)
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return {k: "\n".join(v) for k, v in sections.items()}


def check_metrics(text: str) -> dict:
    typed, samples = {}, {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                fail(f"bad comment line: {line!r}")
            if parts[1] == "TYPE":
                typed[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"unparsable sample line: {line!r}")
        value = float(m.group("value"))  # "+Inf" never appears as a value
        if math.isnan(value):
            fail(f"NaN value: {line!r}")
        name = m.group("name")
        if not NAME_RE.match(name):
            fail(f"bad metric name: {name!r}")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            fail(f"sample {line!r} missing a # TYPE header")
        if base in typed and typed[base] == "histogram" and name.endswith("_bucket"):
            if 'le="' not in (m.group("labels") or ""):
                fail(f"histogram bucket without le label: {line!r}")
        series = name + (m.group("labels") or "")
        if series in samples:
            fail(f"duplicate series {series!r} (a source attached twice?)")
        samples[series] = value
    check_buckets(typed, samples)
    return samples


def without(label: str, series: str) -> tuple:
    """Splits `name{..., label="v", ...}` into (the series without that
    label, v)."""
    name, _, labels = series.partition("{")
    pairs = LABEL_RE.findall(labels)
    rest = ",".join(f'{k}="{v}"' for k, v in pairs if k != label)
    value = next((v for k, v in pairs if k == label), None)
    return name + (f"{{{rest}}}" if rest else ""), value


def check_buckets(typed: dict, samples: dict) -> None:
    """Each histogram series: cumulative buckets never decrease in `le`
    order, and the `+Inf` bucket counts every sample (`_count`)."""
    series = {}
    for key, value in samples.items():
        name = key.split("{", 1)[0]
        if not name.endswith("_bucket") or typed.get(name[: -len("_bucket")]) != "histogram":
            continue
        rest, le = without("le", key)
        series.setdefault(rest, []).append((float(le), value))
    for rest, buckets in series.items():
        buckets.sort()
        for (le0, v0), (le1, v1) in zip(buckets, buckets[1:]):
            if v1 < v0:
                fail(f"{rest}: bucket le={le1:g} holds {v1:g} < {v0:g} at le={le0:g}")
        count = rest.replace("_bucket", "_count", 1)
        if buckets[-1][0] != math.inf or samples.get(count) != buckets[-1][1]:
            fail(f"{rest}: +Inf bucket {buckets[-1][1]:g} != {count} {samples.get(count)}")


def check_stage_order(where: str, stages: dict) -> None:
    """Every stage's merged quantiles are ordered: p50 <= p99 <= p999."""
    for stage, q in stages.items():
        if not q.get("0.5", 0) <= q.get("0.99", 0) <= q.get("0.999", 0):
            fail(f"{where} stage {stage!r} quantiles out of order: {q}")


def check_cluster(text: str) -> dict:
    """The merged-view exposition: every line parses, required families
    are present, and the stream-health invariants hold."""
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                fail(f"/cluster bad comment line: {line!r}")
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(f"/cluster unparsable sample line: {line!r}")
        value = float(m.group("value"))
        if math.isnan(value):
            fail(f"/cluster NaN value: {line!r}")
        series = m.group("name") + (m.group("labels") or "")
        if series in samples:
            fail(f"/cluster duplicate series {series!r}")
        samples[series] = value

    nodes = {k: v for k, v in samples.items() if k.startswith("scalla_cluster_nodes{")}
    if not nodes or sum(nodes.values()) < 1:
        fail("/cluster reports no nodes in the merged view")
    for k in nodes:
        stale = k.replace("scalla_cluster_nodes{", "scalla_cluster_nodes_stale{")
        if stale not in samples:
            fail(f"/cluster missing staleness gauge for {k!r}")
    if samples.get("scalla_cluster_summaries_total", 0) < 1:
        fail("/cluster merged no summaries")
    if samples.get("scalla_cluster_seq_gaps_total", 0) != 0:
        fail("/cluster shows unhealed sequence gaps on a lossless network")
    if not any(k.startswith("scalla_cluster_counter_") for k in samples):
        fail("/cluster carries no merged counters")
    stages = {}
    for key, value in samples.items():
        if key.startswith("scalla_cluster_stage_ns{"):
            stage, q = without("quantile", key)
            stages.setdefault(stage, {})[q] = value
    check_stage_order("/cluster", stages)
    for stage in ("resolve", "redirect_hop"):
        q99 = f'scalla_cluster_stage_ns{{stage="{stage}",quantile="0.99"}}'
        cnt = f'scalla_cluster_stage_ns_count{{stage="{stage}"}}'
        if q99 not in samples:
            fail(f"/cluster missing cluster-wide p99 for stage {stage!r}")
        if samples.get(cnt, 0) < 1:
            fail(f"/cluster stage {stage!r} merged no samples")
    return samples


def check_cluster_json(text: str) -> dict:
    try:
        view = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"/cluster.json is not valid JSON: {e}")
    for key in ("nodes", "counters", "stage_quantiles", "top_paths", "drops",
                "op_classes", "summaries", "seq_gaps", "traces"):
        if key not in view:
            fail(f"/cluster.json missing key {key!r}")
    if not view["nodes"]:
        fail("/cluster.json has an empty node map")
    for name, node in view["nodes"].items():
        if node.get("health") not in ("live", "stale"):
            fail(f"/cluster.json node {name!r} has health {node.get('health')!r}")
    check_stage_order("/cluster.json", {
        key: {"0.5": q["p50"], "0.99": q["p99"], "0.999": q["p999"]}
        for key, q in view["stage_quantiles"].items()
    })
    return view


def main() -> None:
    sections = split_sections(sys.stdin.read())
    for want in ("/metrics", "/stats", "/flight", "/cluster", "/cluster.json"):
        if want not in sections:
            fail(f"missing section {want} (is this obs_dump output?)")

    samples = check_metrics(sections["/metrics"])
    for stage in ("resolve", "redirect_hop"):
        series = f'scalla_stage_ns_count{{stage="{stage}"}}'
        if samples.get(series, 0) < 1:
            fail(f"{series} empty: the run recorded no {stage} samples")

    # Edge location cache (leases armed on the demo manager): the repeat
    # open of /demo/f0 must have ridden its lease straight to the server.
    hit = 'scalla_client_direct_open_total{outcome="hit"}'
    if samples.get(hit, 0) < 1:
        fail(f"{hit} < 1: the repeat open did not ride its lease")
    if samples.get(hit, 0) != samples.get("scalla_client_redirect_rtts_avoided_total", -1):
        fail("direct hits and redirect RTTs avoided must agree")
    lhit = 'scalla_lcache_lookups_total{node="clients",outcome="hit"}'
    if samples.get(lhit, 0) < 1:
        fail(f"{lhit} < 1: the edge cache recorded no hit")
    for outcome in ("miss", "expired"):
        series = f'scalla_lcache_lookups_total{{node="clients",outcome="{outcome}"}}'
        if series not in samples:
            fail(f"{series} missing: lcache families must export even when idle")
    for reason in ("stale", "recovery"):
        series = f'scalla_lcache_purges_total{{node="clients",reason="{reason}"}}'
        if series not in samples:
            fail(f"{series} missing: lcache families must export even when idle")
    if samples.get('scalla_lcache_inserts_total{node="clients"}', 0) < 2:
        fail("both demo paths should have been leased into the edge cache")
    if samples.get("scalla_client_stale_served_total", -1) != 0:
        fail("the calm demo run must serve nothing stale")

    try:
        stats = json.loads(sections["/stats"])
    except json.JSONDecodeError as e:
        fail(f"/stats is not valid JSON: {e}")
    if not isinstance(stats, dict) or not stats:
        fail("/stats JSON is empty")

    spans = [l for l in sections["/flight"].splitlines() if SPAN_RE.match(l)]
    if not spans:
        fail("/flight carries no span lines")

    cluster = check_cluster(sections["/cluster"])
    view = check_cluster_json(sections["/cluster.json"])

    print(
        f"check_metrics: OK ({len(samples)} series,"
        f" {len(stats)} stats keys, {len(spans)} flight spans,"
        f" {len(cluster)} cluster series, {len(view['nodes'])} cluster nodes)"
    )


if __name__ == "__main__":
    main()
