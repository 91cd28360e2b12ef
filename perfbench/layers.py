"""Per-layer metrics, computed from the traced rounds' span summaries.

Each metric has the workloads that reach its layer.  A traced run of
workload W takes each metric from W's own traced rounds when W reaches
the layer, and otherwise from one short traced round of the first
workload listed (``missing_homes``).  README.md maps every metric to
the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ALL = ("serve-mem", "gateway-wal", "cluster-quorum", "recover")
SERVED = ("serve-mem", "gateway-wal", "cluster-quorum")
DURABLE = ("gateway-wal", "cluster-quorum", "recover")
GATEWAY = ("gateway-wal",)
CLUSTER = ("cluster-quorum",)
RECOVER = ("recover",)

#: name -> (unit, how, source, scale, workloads that reach the layer)
#: how: "span" mean inclusive time, "self" mean self time, "per_session"
#: a counter over completed sessions, or a derived figure
PER_LAYER = {
    "core.new_engine_us": ("us", "span", "core.new_engine", 1e6, ALL),
    "core.build_game_ms": ("ms", "span", "core.build_game", 1e3, ALL),
    "runtime.step_us": ("us", "span", "runtime.step", 1e6, ALL),
    "runtime.steps_per_session": ("count", "steps", None, 1, ALL),
    "serve.submit_us": ("us", "span", "serve.submit", 1e6, SERVED),
    "serve.queue_wait_ms": ("ms", "span", "serve.queue_wait", 1e3, SERVED),
    "serve.residency_ms": ("ms", "span", "serve.residency", 1e3, SERVED),
    "serve.ticks_per_session": ("count", "ticks", None, 1, ALL),
    "persist.append_us": ("us", "span", "persist.append", 1e6, DURABLE),
    "persist.bytes_appended_per_session": (
        "bytes", "per_session", "persist.bytes_appended", 1, DURABLE),
    "persist.fsyncs_per_session": ("count", "per_session", "persist.fsyncs", 1, DURABLE),
    "persist.wait_durable_ms": (
        "ms", "span", "persist.wait_durable", 1e3, ("gateway-wal", "cluster-quorum")),
    "gateway.admit_ms": ("ms", "span", "gateway.admit", 1e3, GATEWAY),
    "gateway.wire_bytes_per_session": (
        "bytes", "per_session", "gateway.wire_bytes", 1, GATEWAY),
    "gateway.encode_us": ("us", "span", "gateway.encode", 1e6, GATEWAY),
    "gateway.decode_us": ("us", "span", "gateway.decode", 1e6, GATEWAY),
    "replicate.wait_quorum_ms": ("ms", "span", "replicate.wait_quorum", 1e3, CLUSTER),
    "replicate.standby_lag_records": ("records", "lag", None, 1, CLUSTER),
    "replicate.query_us": ("us", "span", "replicate.query", 1e6, CLUSTER),
    "cluster.submit_us": ("us", "span", "cluster.submit", 1e6, CLUSTER),
    "cluster.route_us": ("us", "self", "cluster.query", 1e6, CLUSTER),
    "persist.scan_ms": ("ms", "span", "persist.scan", 1e3, RECOVER),
    "persist.recover_shard_ms": ("ms", "span", "persist.recover_shard", 1e3, RECOVER),
    "persist.snapshot_write_ms": ("ms", "span", "persist.snapshot_write", 1e3, RECOVER),
    "persist.rebuild_us": ("us", "span", "persist.rebuild", 1e6, RECOVER),
    "bench.trace_overhead_pct": ("%", "overhead", None, 1, ALL),
}


def missing_homes(workload: str) -> list:
    """Workloads whose companion round supplies the layers W never reaches."""
    homes = []
    for *_rest, reach in PER_LAYER.values():
        if workload not in reach and reach[0] not in homes:
            homes.append(reach[0])
    return homes


def _merge(rounds):
    spans = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    counters = defaultdict(float)
    for rnd in rounds:
        for report in rnd["traces"]:
            for name, row in report["spans"].items():
                for key in row:
                    spans[name][key] += row[key]
            for name, value in report["counters"].items():
                counters[name] += value
    return spans, counters


def _cpu_per_session(rounds) -> float:
    return statistics.median(r["cpu_s"] / len(r["ends"]) for r in rounds)


def per_layer(by_workload, workload, untraced, traced) -> dict:
    """Every per-layer metric, from the rounds of the workload it uses."""
    merged = {w: _merge(rounds) for w, rounds in by_workload.items()}
    sessions = {w: sum(len(r["ends"]) for r in rounds) for w, rounds in by_workload.items()}
    ticks = {w: sum(r["ticks"] for r in rounds) for w, rounds in by_workload.items()}
    out = {}
    for name, (unit, how, source, scale, reach) in PER_LAYER.items():
        home = workload if workload in reach else reach[0]
        spans, counters = merged[home]
        n = max(1, sessions[home])
        if how in ("span", "self"):
            row = spans.get(source, {"count": 0})
            key = "total_s" if how == "span" else "self_s"
            value = row[key] / row["count"] * scale if row["count"] else 0.0
        elif how == "per_session":
            value = counters.get(source, 0.0) / n
        elif how == "steps":
            value = (spans.get("runtime.step", {}).get("count", 0)
                     + counters.get("replicate.standby_replays", 0.0)) / n
        elif how == "ticks":
            value = ticks[home] / n
        elif how == "lag":
            samples = counters.get("replicate.lag_samples", 0.0)
            value = counters.get("replicate.lag_records", 0.0) / samples if samples else 0.0
        else:
            # CPU, not wall time: the host's noise swamps the wall-clock
            # difference (README.md, end-to-end metrics)
            value = (_cpu_per_session(traced) / _cpu_per_session(untraced) - 1.0) * 100.0
        out[name] = {"value": value, "unit": unit}
    return out
