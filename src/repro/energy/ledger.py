"""Cluster-wide energy ledger.

A :class:`ClusterEnergyLedger` owns one :class:`EnergyMeter` per node and
offers the aggregate views that the paper's figures need: total energy of
correct nodes (Fig. 2f), leader vs. replica split (Fig. 2c), per-category
breakdowns, and per-consensus-unit averages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.energy.meter import EnergyBreakdown, EnergyMeter


@dataclass
class EnergyReport:
    """Summary of a run's energy consumption."""

    per_node_joules: Dict[int, float]
    total_joules: float
    correct_total_joules: float
    leader_joules: float
    mean_replica_joules: float
    breakdown: EnergyBreakdown


class ClusterEnergyLedger:
    """Holds one meter per node and computes aggregate energy views."""

    def __init__(self, node_ids: Iterable[int]) -> None:
        self.meters: Dict[int, EnergyMeter] = {
            node_id: EnergyMeter(node_id) for node_id in node_ids
        }

    def meter(self, node_id: int) -> EnergyMeter:
        """The meter for one node (created lazily for late joiners)."""
        if node_id not in self.meters:
            self.meters[node_id] = EnergyMeter(node_id)
        return self.meters[node_id]

    # -------------------------------------------------------------- queries
    def total_joules(self) -> float:
        """Total Joules across nodes."""
        return sum(m.total_joules for m in self.meters.values())

    def per_node_joules(self) -> Dict[int, float]:
        """Total Joules keyed by node id."""
        return {nid: m.total_joules for nid, m in self.meters.items()}

    def combined_breakdown(self, exclude: Optional[Iterable[int]] = None) -> EnergyBreakdown:
        """Category breakdown summed over the (non-excluded) nodes."""
        skip = set(exclude or ())
        combined = EnergyBreakdown()
        for nid, meter in self.meters.items():
            if nid in skip:
                continue
            for category, amount in meter.breakdown.joules.items():
                combined.add(category, amount)
        return combined

    def report(
        self,
        leader: int,
        faulty: Iterable[int],
    ) -> EnergyReport:
        """Produce the standard per-run energy report.

        Args:
            leader: Node id of the (steady-state) leader; its energy is
                reported separately, as in Fig. 2c and Fig. 3.
            faulty: Node ids of Byzantine nodes; excluded from the
                "correct nodes" totals, as in Fig. 2f.
        """
        faulty_set = set(faulty)
        per_node = self.per_node_joules()
        correct_nodes = [nid for nid in per_node if nid not in faulty_set]
        replicas = [nid for nid in correct_nodes if nid != leader]
        mean_replica = (
            sum(per_node[nid] for nid in replicas) / len(replicas) if replicas else 0.0
        )
        return EnergyReport(
            per_node_joules=per_node,
            total_joules=sum(per_node.values()),
            correct_total_joules=sum(per_node[nid] for nid in correct_nodes),
            leader_joules=per_node.get(leader, 0.0),
            mean_replica_joules=mean_replica,
            breakdown=self.combined_breakdown(exclude=faulty_set),
        )
