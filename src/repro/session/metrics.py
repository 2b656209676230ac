"""SLO metrics over the observer bus: latency, goodput, queue depth.

:class:`MetricsObserver` is the session's production-metrics surface.  It
listens to block commits, fault-window edges and session boundaries and
reports, per fault window and overall:

* **commit latency** p50/p95/p99 — virtual time from a command's arrival
  (its ``arrival_time`` stamp for open-loop/trace workloads; the run
  start for preloads) to its *first* commit on any replica;
* **goodput** — first-commits per unit of virtual time;
* **queue depth** — total pending commands across every replica's txpool,
  sampled at each commit and window edge.

Numbers are pure functions of the deterministic run, so a serial sweep
and a ``parallel=N`` matrix shard report identical summaries — the
summary dict is plain data (JSON- and pickle-safe) and travels back from
worker processes unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.session.observers import SessionObserver

#: Quantiles reported per window, with their summary-dict key suffixes.
QUANTILES = ((0.50, "p50"), (0.95, "p95"), (0.99, "p99"))


def percentile(values: List[float], quantile: float) -> Optional[float]:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``None`` for an empty sample — a window with no commits has no
    latency, which is different from a latency of 0.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(quantile * len(ordered)))
    return ordered[rank - 1]


class MetricsObserver(SessionObserver):
    """Per-fault-window SLO metrics over the session observer bus.

    Args:
        slo_p99: Optional p99 commit-latency objective (virtual time).
            When set, the summary carries ``slo_p99`` and a ``slo_met``
            verdict over the whole run (the saturation sweep's criterion).
    """

    def __init__(self, slo_p99: Optional[float] = None) -> None:
        self.slo_p99 = slo_p99
        self._session = None
        #: The summary snapshotted at session end (it holds no session).
        self._summary: Optional[Dict[str, Any]] = None
        self._start = 0.0
        #: command id -> (first commit time, latency).
        self._commits: Dict[str, Tuple[float, float]] = {}
        #: (time, total pending across pools) samples.
        self._queue_samples: List[Tuple[float, int]] = []
        #: (time, node, kind, active) fault-window transitions.
        self._transitions: List[Tuple[float, int, str, bool]] = []

    # -------------------------------------------------------- observer hooks
    def on_session_start(self, session) -> None:
        self._session = session
        self._summary = None
        self._start = session.sim.now
        self._sample_queue(session.sim.now)

    def on_block_commit(self, pid: int, block, view: int, time: float) -> None:
        for command in block.batch.commands:
            if command.command_id in self._commits:
                continue
            arrival = (
                command.arrival_time if command.arrival_time is not None else self._start
            )
            self._commits[command.command_id] = (time, time - arrival)
        self._sample_queue(time)

    def on_fault_window(self, node: int, kind: str, active: bool, time: float) -> None:
        self._transitions.append((time, node, kind, active))
        self._sample_queue(time)

    def on_session_end(self, session, result) -> None:
        self._sample_queue(session.sim.now)
        result.metrics = self._summary = self.summary()
        # The snapshot is all a finished run reports, so letting go of the
        # session leaves no observer -> bus -> observer cycle behind.
        self._session = None

    # --------------------------------------------------------------- queries
    def _sample_queue(self, time: float) -> None:
        if self._session is None:
            return
        depth = sum(len(r.txpool) for r in self._session.replicas.values())
        self._queue_samples.append((time, depth))

    def _window_edges(self, end: float) -> List[float]:
        edges = [self._start]
        for time, _, _, _ in self._transitions:
            if self._start < time < end and time not in edges:
                edges.append(time)
        edges.append(max(end, self._start))
        return sorted(set(edges))

    def _window_stats(
        self, start: float, end: float, label: str, first_window: bool
    ) -> Dict[str, Any]:
        lower_inclusive = first_window
        latencies = [
            latency
            for commit_time, latency in self._commits.values()
            if (start <= commit_time if lower_inclusive else start < commit_time)
            and commit_time <= end
        ]
        depths = [
            depth
            for time, depth in self._queue_samples
            if start <= time <= end
        ]
        duration = end - start
        stats: Dict[str, Any] = {
            "start": start,
            "end": end,
            "faults": label,
            "commits": len(latencies),
            "goodput": (len(latencies) / duration) if duration > 0 else 0.0,
            "queue_depth_mean": (sum(depths) / len(depths)) if depths else 0.0,
            "queue_depth_max": max(depths) if depths else 0,
        }
        for quantile, key in QUANTILES:
            stats[f"latency_{key}"] = percentile(latencies, quantile)
        return stats

    def summary(self) -> Dict[str, Any]:
        """The plain-dict metrics report (JSON- and pickle-safe).

        Windows are the segments between fault-window transitions; the
        ``faults`` label of each window lists the fault windows active in
        it (``"nominal"`` when none are).  After the session ends this is
        the snapshot it wrote to ``result.metrics``.
        """
        if self._summary is not None:
            return self._summary
        end = self._session.sim.now if self._session is not None else self._start
        edges = self._window_edges(end)
        # Active fault labels per segment, walked from the transition log.
        windows: List[Dict[str, Any]] = []
        active: List[str] = []
        cursor = 0
        ordered = sorted(self._transitions, key=lambda t: (t[0],))
        for index in range(len(edges) - 1):
            seg_start, seg_end = edges[index], edges[index + 1]
            while cursor < len(ordered) and ordered[cursor][0] <= seg_start:
                _, node, kind, is_active = ordered[cursor]
                token = f"{kind}@{node}"
                if is_active:
                    active.append(token)
                elif token in active:
                    active.remove(token)
                cursor += 1
            label = "+".join(sorted(active)) if active else "nominal"
            windows.append(
                self._window_stats(seg_start, seg_end, label, first_window=index == 0)
            )
        overall = self._window_stats(self._start, end, "overall", first_window=True)
        pools = (
            [r.txpool for r in self._session.replicas.values()]
            if self._session is not None
            else []
        )
        out: Dict[str, Any] = {
            "overall": overall,
            "windows": windows,
            "offered": len(self._session.commands) if self._session is not None else 0,
            "committed_commands": len(self._commits),
            "dropped": sum(pool.dropped for pool in pools),
            "duplicates": sum(pool.duplicates for pool in pools),
            "queue_high_watermark": max(
                (pool.high_watermark for pool in pools), default=0
            ),
        }
        # Delivery-layer counters appear only when the run had a lossy
        # medium attached, so existing summary key-set assertions survive.
        imp = self._session.network.impairment if self._session is not None else None
        if imp is not None:
            out["delivery_ratio"] = imp.delivery_ratio()
            out["deliveries_dropped"] = imp.dropped
            out["deliveries_retransmitted"] = imp.retransmits
            out["delivery_giveups"] = imp.giveups
        if self.slo_p99 is not None:
            p99 = overall["latency_p99"]
            out["slo_p99"] = self.slo_p99
            out["slo_met"] = p99 is not None and p99 <= self.slo_p99 and out["dropped"] == 0
        return out
