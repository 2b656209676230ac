"""The normative metric tables and how each value is derived.

Counts are read after each operation from public objects (``RunResult``,
``Session.sim/network/replicas``, ``CellOutcome.result.trace``,
``canonical_cache.stats()``, ``MetricsObserver.summary()``), summed per
round, and must repeat exactly from round to round.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, NamedTuple, Optional, Sequence

from repro.energy.meter import EnergyCategory

from bench.workloads import WORKLOADS, Operation


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may worsen.
    bound: Optional[float] = None


#: What a user of the system sees.  The three modelled metrics are simulated
#: statistics: at one seed they repeat exactly (``--compare`` demands
#: equality); their bound only has to absorb the seed-to-seed variation of
#: the generated inputs, which on ``lossy-openloop-n7`` is the Poisson noise
#: of ~140 arrivals (quartile spread over seeds: goodput 8-13 %, virtual
#: time per block 3 %, energy per block 1.4 %).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("host_cost", "x_kernel", "lower", 0.15),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("energy_per_block_mj", "mJ", "lower", 0.05),
    Metric("virtual_s_per_block", "virtual_s", "lower", 0.12),
    Metric("goodput_cmd_per_vs", "cmd/virtual_s", "higher", 0.25),
)
#: End-to-end metrics that are functions of the seeded simulation alone.
MODELLED = ("energy_per_block_mj", "virtual_s_per_block", "goodput_cmd_per_vs")

#: Layers (packages under ``src/repro``) that get traced share/calls metrics.
TRACED_LAYERS = (
    "sim", "net", "radio", "crypto", "core", "energy", "workload", "recovery",
    "session", "testkit",
)

_COUNT, _SHARE = ("count", "lower"), ("share", "lower")

PER_LAYER = (
    Metric("sim.events", *_COUNT),
    Metric("sim.self_share", *_SHARE),
    Metric("sim.calls", *_COUNT),
    Metric("net.broadcasts", *_COUNT),
    Metric("net.unicasts", *_COUNT),
    Metric("net.tx", *_COUNT),
    Metric("net.bytes", "bytes", "lower"),
    Metric("net.deliveries", *_COUNT),
    Metric("net.tx_per_block", "count", "lower"),
    Metric("net.bytes_per_block", "bytes", "lower"),
    Metric("net.hop_attempts", *_COUNT),
    Metric("net.hop_dropped", *_COUNT),
    Metric("net.retransmits", *_COUNT),
    Metric("net.giveups", *_COUNT),
    Metric("net.delivery_ratio", "ratio", "higher"),
    Metric("net.self_share", *_SHARE),
    Metric("net.calls", *_COUNT),
    Metric("radio.self_share", *_SHARE),
    Metric("radio.calls", *_COUNT),
    Metric("crypto.sign_ops", *_COUNT),
    Metric("crypto.verify_ops", *_COUNT),
    Metric("crypto.sigops_per_block", "count", "lower"),
    Metric("crypto.canon_hits", "count", "higher"),
    Metric("crypto.canon_misses", *_COUNT),
    Metric("crypto.canon_hit_ratio", "ratio", "higher"),
    Metric("crypto.self_share", *_SHARE),
    Metric("crypto.calls", *_COUNT),
    Metric("core.blocks", "count", "higher"),
    Metric("core.cmd_slots", *_COUNT),
    Metric("core.distinct_cmds", "count", "higher"),
    Metric("core.distinct_cmd_ratio", "ratio", "higher"),
    Metric("core.view_changes", *_COUNT),
    Metric("core.blames", *_COUNT),
    Metric("core.equivocations", *_COUNT),
    Metric("core.txpool_dropped", *_COUNT),
    Metric("core.txpool_high_watermark", *_COUNT),
    Metric("core.self_share", *_SHARE),
    Metric("core.calls", *_COUNT),
    Metric("energy.comm_mj", "mJ", "lower"),
    Metric("energy.crypto_mj", "mJ", "lower"),
    Metric("energy.leader_mj_per_block", "mJ", "lower"),
    Metric("energy.self_share", *_SHARE),
    Metric("energy.calls", *_COUNT),
    Metric("workload.offered", "count", "higher"),
    Metric("workload.commit_p50_vs", "virtual_s", "lower"),
    Metric("workload.commit_p99_vs", "virtual_s", "lower"),
    Metric("workload.max_sustainable_rate", "cmd/virtual_s", "higher"),
    Metric("workload.self_share", *_SHARE),
    Metric("recovery.self_share", *_SHARE),
    Metric("recovery.calls", *_COUNT),
    Metric("session.build_share", *_SHARE),
    Metric("session.run_share", *_SHARE),
    Metric("session.finish_share", *_SHARE),
    Metric("session.self_share", *_SHARE),
    Metric("testkit.trace_events", *_COUNT),
    Metric("testkit.invariant_checks", "count", "higher"),
    Metric("testkit.self_share", *_SHARE),
    Metric("testkit.calls", *_COUNT),
    Metric("bench.rounds", "count", "higher"),
    Metric("bench.round_wall_s", "s", "lower"),
    Metric("bench.cal_kernel_s", "s", "lower"),
    Metric("bench.py_calls", *_COUNT),
    Metric("bench.c_calls", *_COUNT),
    Metric("bench.trace_overhead", "x", "lower"),
)

UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}

#: Spans whose inclusive time becomes a ``session.*_share`` metric.
SESSION_SPANS = {
    "SessionBuilder.build": "session.build_share",
    "Session.run_to_quiescence": "session.run_share",
    "Session.finish": "session.finish_share",
}

_COMM = (EnergyCategory.TRANSMIT, EnergyCategory.RECEIVE)
_CRYPTO = (EnergyCategory.SIGN, EnergyCategory.VERIFY, EnergyCategory.HASH)


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def _sustainable_rate(operations: Sequence[Operation]) -> float:
    """Highest offered rate at which every operation met its SLO."""
    met: Dict[float, bool] = {}
    for op in operations:
        rate = getattr(op.spec.workload, "rate", None)
        if rate is not None and op.slo is not None and "slo_met" in op.slo:
            met[rate] = met.get(rate, True) and op.slo["slo_met"]
    return max((rate for rate, ok in met.items() if ok), default=0.0)


def round_values(operations: Sequence[Operation], canon: Dict[str, int]) -> Dict[str, Any]:
    """Every deterministic value of one round: the three modelled end-to-end
    metrics and every count-valued per-layer metric."""
    done = [op for op in operations if op.result is not None]
    results = [op.result for op in done]
    blocks = sum(r.committed_blocks for r in results)
    virtual_s = sum(r.sim_time for r in results)
    slots = sum(len(op.committed_ids) for op in done)
    distinct = sum(len(set(op.committed_ids)) for op in done)
    tx = sum(r.network.physical_transmissions for r in results)
    tx_bytes = sum(r.network.physical_bytes for r in results)
    attempts = sum(op.hop_attempts for op in done)
    dropped = sum(r.deliveries_dropped for r in results)
    sign = sum(r.sign_operations for r in results)
    verify = sum(r.verify_operations for r in results)
    hits, misses = canon["hits"], canon["misses"]

    def joules(categories) -> float:
        return sum(r.energy.breakdown.get(c) for r in results for c in categories)

    overall = [op.slo["overall"] for op in done if op.slo is not None]
    p50 = [o["latency_p50"] for o in overall if o["latency_p50"] is not None]
    p99 = [o["latency_p99"] for o in overall if o["latency_p99"] is not None]
    return {
        "energy_per_block_mj": _ratio(sum(r.correct_energy_mj for r in results), blocks),
        "virtual_s_per_block": _ratio(virtual_s, blocks),
        "goodput_cmd_per_vs": _ratio(distinct, virtual_s),
        "sim.events": sum(op.events for op in done),
        "net.broadcasts": sum(r.network.broadcasts for r in results),
        "net.unicasts": sum(r.network.unicasts for r in results),
        "net.tx": tx,
        "net.bytes": tx_bytes,
        "net.deliveries": sum(r.network.deliveries for r in results),
        "net.tx_per_block": _ratio(tx, blocks),
        "net.bytes_per_block": _ratio(tx_bytes, blocks),
        "net.hop_attempts": attempts,
        "net.hop_dropped": dropped,
        "net.retransmits": sum(r.deliveries_retransmitted for r in results),
        "net.giveups": sum(r.delivery_giveups for r in results),
        "net.delivery_ratio": 1.0 - _ratio(dropped, attempts),
        "crypto.sign_ops": sign,
        "crypto.verify_ops": verify,
        "crypto.sigops_per_block": _ratio(sign + verify, blocks),
        "crypto.canon_hits": hits,
        "crypto.canon_misses": misses,
        "crypto.canon_hit_ratio": _ratio(hits, hits + misses),
        "core.blocks": blocks,
        "core.cmd_slots": slots,
        "core.distinct_cmds": distinct,
        "core.distinct_cmd_ratio": _ratio(distinct, slots),
        "core.view_changes": sum(r.view_changes for r in results),
        "core.blames": sum(r.blames_sent for r in results),
        "core.equivocations": sum(r.equivocations_detected for r in results),
        "core.txpool_dropped": sum(r.commands_dropped for r in results),
        "core.txpool_high_watermark": max((r.txpool_high_watermark for r in results), default=0),
        "energy.comm_mj": joules(_COMM) * 1000.0,
        "energy.crypto_mj": joules(_CRYPTO) * 1000.0,
        "energy.leader_mj_per_block": _ratio(sum(r.leader_energy_mj for r in results), blocks),
        "workload.offered": sum(op.offered for op in done),
        # 0 where no MetricsObserver is attached (the preload workloads).
        "workload.commit_p50_vs": statistics.median(p50) if p50 else 0.0,
        "workload.commit_p99_vs": max(p99, default=0.0),
        "workload.max_sustainable_rate": _sustainable_rate(done),
        "testkit.trace_events": sum(op.trace_events for op in done),
        "testkit.invariant_checks": sum(op.invariant_checks for op in done),
    }


def traced_values(trace: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer shares and span counts of one traced round
    (``trace`` is ``Tracer.summary()``)."""
    total = trace["total_s"]
    out: Dict[str, Any] = {}
    for layer in TRACED_LAYERS:
        out[f"{layer}.self_share"] = _ratio(trace["self_s"].get(layer, 0.0), total)
        out[f"{layer}.calls"] = trace["calls"].get(layer, 0)
    for qualname, name in SESSION_SPANS.items():
        out[name] = _ratio(trace["inclusive_s"].get(qualname, 0.0), total)
    out["bench.py_calls"] = trace["py_calls"]
    out["bench.c_calls"] = trace["c_calls"]
    return out


def is_exact(name: str) -> bool:
    """Whether a per-layer metric is a count that must repeat exactly."""
    return not name.endswith("_share") and name not in (
        "bench.rounds", "bench.round_wall_s", "bench.cal_kernel_s", "bench.trace_overhead",
    )


def manifest(run_seconds: int) -> Dict[str, Any]:
    """The ``BENCHMARK.json`` this package is written to."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
